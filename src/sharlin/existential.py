"""Existential substitutions: classes of idempotent substitutions modulo renaming.

Two idempotent substitutions are identified over a set of variables of
interest U when one is the other composed with a variable renaming, i.e.
when the tuples (theta(u))_{u in U} differ only by a bijection on variable
names. An ExistentialSubstitution stores one canonical representative:

* interest variables are the tuple positions and keep their names;
* every variable occurring in the tuple is renamed to a reserved name
  ``_1, _2, ...`` in first-occurrence order of a depth-first walk of the
  bindings, interest variables sorted;
* a variable occurring exactly once in the whole tuple, as the entire
  binding, carries no information (the variable is simply free), so the
  binding is dropped.

Canonical forms are equal exactly when the classes are equal, which makes
equality, hashing and golden tests trivial.

The three operators are unification (greatest lower bound of the
instantiation order), matching (unification guarded by the condition that
the first argument is not instantiated on shared interest variables, with
``UNDEFINED`` as the distinguished no-answer value) and projection.
"""
from __future__ import annotations

from typing import Iterable

from ._record import Record, setfield
from .terms import (
    App,
    Scanner,
    Substitution,
    Term,
    UnificationError,
    Var,
    is_variable_name,
    mgu_terms,
    occurrences,
    read_substitution,
)

__all__ = [
    "ExistentialSubstitution",
    "UnificationFailure",
    "Undefined",
    "UNDEFINED",
    "canonicalize",
    "eleq",
    "emgu",
    "emgu_subst",
    "ematch",
    "eproject",
    "parse_existential",
]


class UnificationFailure(Exception):
    """Unification of two classes failed (clash or occur check)."""


class Undefined:
    """Distinguished result of a matching whose side condition fails."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "UNDEFINED"


UNDEFINED = Undefined()


class ExistentialSubstitution(Record):
    """Canonical representative plus the set of variables of interest."""

    rep: Substitution
    interest: frozenset[str]

    def __init__(self, rep: Substitution, interest: frozenset[str]):
        if not rep.domain <= interest:
            raise ValueError("representative binds a variable outside the interest set")
        setfield(self, "rep", rep)
        setfield(self, "interest", interest)

    def __str__(self) -> str:
        vs = ", ".join(sorted(self.interest))
        return f"[{self.rep}]_{{{vs}}}"

    def __repr__(self) -> str:
        return f"ExistentialSubstitution({self.rep!r}, {set(self.interest)!r})"


def _fresh_name(k: int) -> str:
    return f"_{k}"


def canonicalize(theta: Substitution, interest: Iterable[str]) -> ExistentialSubstitution:
    """Canonical form of [theta]_U.

    Bindings of variables outside U are applied first (to a fixpoint) and
    then discarded; afterwards every variable of the binding tuple is given
    a reserved ``_k`` name, except lone free variables which simply become
    unbound interest variables.
    """
    u = frozenset(interest)
    for name in u:
        if name.startswith("_"):
            raise ValueError(f"reserved variable {name!r} cannot be of interest")
    names = sorted(u)
    tuple_terms = [theta.apply_fix(Var(v)) for v in names]

    counts: dict[str, int] = {}
    for t in tuple_terms:
        for name in occurrences(t):
            counts[name] = counts.get(name, 0) + 1

    renaming: dict[str, Var] = {}

    def rename(t: Term) -> Term:
        if isinstance(t, Var):
            new = renaming.get(t.name)
            if new is None:
                new = renaming[t.name] = Var(_fresh_name(len(renaming) + 1))
            return new
        if not t.args:
            return t
        return App(t.symbol, tuple([rename(a) for a in t.args]))

    bindings: dict[str, Term] = {}
    for v, t in zip(names, tuple_terms):
        if isinstance(t, Var) and counts[t.name] == 1:
            continue  # lone free variable: v is unbound in the class
        bindings[v] = rename(t)
    return ExistentialSubstitution(Substitution(bindings), u)


def eleq(theta1: Substitution, theta2: Substitution, u: Iterable[str]) -> bool:
    """Instantiation preorder on U: theta1(x) = delta(theta2(x)) for some delta.

    Decided by simultaneous one-way matching with theta2's side as the
    pattern; this is complete because delta only ever acts on variables of
    the theta2 side.
    """
    binding: dict[str, Term] = {}

    def match(pattern: Term, target: Term) -> bool:
        if isinstance(pattern, Var):
            bound = binding.get(pattern.name)
            if bound is None:
                binding[pattern.name] = target
                return True
            return bound == target
        if isinstance(target, Var):
            return False
        if pattern.symbol != target.symbol or len(pattern.args) != len(target.args):
            return False
        return all(match(p, t) for p, t in zip(pattern.args, target.args))

    return all(match(theta2.lookup(x), theta1.lookup(x)) for x in sorted(u))


def _rename_apart(c: ExistentialSubstitution, prefix: str) -> Substitution:
    # Reserved _k range variables get session-unique names so the two
    # representatives cannot clash outside the shared interest variables.
    mapping = {
        v: f"_{prefix}{v[1:]}" for v in c.rep.range_vars() if v.startswith("_")
    }
    return c.rep.rename_vars(mapping)


def emgu(
    c1: ExistentialSubstitution, c2: ExistentialSubstitution
) -> ExistentialSubstitution:
    """Unification of two classes: mgu of representatives renamed apart."""
    rep1 = _rename_apart(c1, "l")
    rep2 = _rename_apart(c2, "r")
    equations: list[tuple[Term, Term]] = []
    for v, t in rep1.bindings():
        equations.append((Var(v), t))
    for v, t in rep2.bindings():
        equations.append((Var(v), t))
    try:
        sigma = mgu_terms(equations)
    except UnificationError as exc:
        raise UnificationFailure(str(exc)) from exc
    return canonicalize(sigma, c1.interest | c2.interest)


def emgu_subst(
    c: ExistentialSubstitution, delta: Substitution
) -> ExistentialSubstitution:
    """Unification with a plain substitution: all its variables are of interest."""
    if not delta.is_idempotent():
        raise ValueError("expected an idempotent substitution")
    return emgu(c, canonicalize(delta, delta.all_vars()))


def ematch(c1, c2):
    """Matching: the unification, provided c1 stays uninstantiated on shared
    interest variables; UNDEFINED otherwise.

    When the side condition holds the unification cannot fail, which is
    asserted rather than handled.
    """
    shared = c1.interest & c2.interest
    if not eleq(c1.rep, c2.rep, shared):
        return UNDEFINED
    try:
        return emgu(c1, c2)
    except UnificationFailure as exc:  # pragma: no cover - impossible by theory
        raise AssertionError(f"matching side condition held but mgu failed: {exc}")


def eproject(
    c: ExistentialSubstitution, variables: Iterable[str]
) -> ExistentialSubstitution:
    """Projection: same class, interest restricted to the given variables."""
    return canonicalize(c.rep, c.interest & frozenset(variables))


def parse_existential(text: str) -> ExistentialSubstitution:
    """Parse ``[{x/a, y/b}]_{x,y}``."""
    sc = Scanner(text)
    sc.expect("[")
    subst = read_substitution(sc)
    return canonicalize(subst, frozenset(sc.interest(is_variable_name)))


parse = parse_existential  # the domain above ``shlin_omega`` (see ``sharlin.domains``)
