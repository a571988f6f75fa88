"""Goal-dependent analyzer for a mini logic language.

Clause processing follows the classic four-state pipeline: the call
substitution is unified forward with the head bindings to give the entry
substitution, the body runs under the entry, and the resulting exit
substitution is propagated back to the caller as the answer. Backward
propagation is the point of the exercise and comes in two modes:

* ``matching``: match the exit against the pre-projection element of the
  forward step and project onto the goal variables;
* ``mgu``: re-unify call, exit and the concrete head bindings from scratch
  (collect the groups of the disjoint elements, then fold the abstract
  binding rule), for precision comparison.

The forward step folds ``baseline_amgu``, a deliberately plain, sound
binding-at-a-time rule: it is not a best transformer and is not meant to
be one. When a variable and a linear term with linear, pairwise
independent variables are unified, relevant groups are joined pairwise;
otherwise the relevant groups are summed, each repeated up to a bound,
with counts saturated at the domain's ceiling. A binding to a ground term
removes the variable's groups.
Trace injection can replace forward results of the root goal's clauses
with externally supplied elements, so backward precision can be studied
independently of forward precision.

Only the domain changes between analyses. Each of the three supplies
projection, renaming, union, a forward ``amgu`` and its optimal matching
as a ``DomainOps`` in ``DOMAINS``. ``omega`` (ShLin^omega) keeps exact
multiplicities, which its forward rule saturates at the cap. ``two``
(King's ShLin^2) holds the same groups with counts saturated at 2,
printed ``^*``, and runs the same forward rule with ceiling 2. ``sl``
(Sharing x Lin) matches directly with ``match_sl`` and runs its forward
rule through ``two``, embedding with ``gamma_sl`` and forgetting with
``alpha_sl``.

The fixpoint engine tabulates answers per (predicate, call pattern) with
call patterns normalized up to variable renaming, and iterates whole-goal
evaluation until the table is stable. Exact-multiplicity analyses clip
multiplicities at a configurable cap during analysis only; the library
operators stay exact.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Mapping

from .multiset import Multiset, fold_subsets, format_group
from .shlin_omega import (
    ShLinOmegaElement,
    match_omega,
    omega_element,
    parse_omega,
    project_omega,
    rename_omega,
    union_omega,
)
from .shlin2 import (
    ShLin2Element,
    match2,
    parse_two,
    project2,
    rename2,
    two_element,
    union2,
)
from .shlin_sl import (
    alpha_sl,
    gamma_sl,
    match_sl,
    parse_sl,
    project_sl,
    rename_sl,
    sl_element,
    union_sl,
)
from .terms import (
    ParseError,
    Scanner,
    Substitution,
    Term,
    UnificationError,
    Var,
    format_term,
    is_linear_term,
    mgu_terms,
    read_term,
    term_vars,
)

__all__ = [
    "Atom",
    "Clause",
    "Program",
    "AnalysisRequest",
    "AnalysisResult",
    "TraceStep",
    "ParseError",
    "PredicateMismatch",
    "FixpointLimitExceeded",
    "parse_program",
    "parse_goal",
    "parse_injection",
    "baseline_amgu",
    "forward_unify",
    "backward_unify",
    "analyze",
    "DOMAINS",
    "DomainOps",
]


class PredicateMismatch(Exception):
    """Goal and head disagree on predicate name or arity."""


class FixpointLimitExceeded(Exception):
    """The tabulation did not stabilize within the configured pass limit."""


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...]

    @property
    def variables(self) -> frozenset[str]:
        return frozenset().union(*map(term_vars, self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return self.pred + "(" + ", ".join(format_term(a) for a in self.args) + ")"


@dataclass(frozen=True)
class Clause:
    head: Atom
    body: tuple[Atom, ...] = ()

    @property
    def variables(self) -> frozenset[str]:
        return self.head.variables.union(*(a.variables for a in self.body))

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- " + ", ".join(map(str, self.body)) + "."


@dataclass(frozen=True)
class Program:
    clauses: tuple[Clause, ...]

    def matching(self, pred: str, arity: int) -> list[tuple[int, Clause]]:
        return [
            (i, c)
            for i, c in enumerate(self.clauses)
            if c.head.pred == pred and len(c.head.args) == arity
        ]

    def __str__(self) -> str:
        return "\n".join(map(str, self.clauses))


# --- program syntax ----------------------------------------------------------


def _read_atom(sc: Scanner) -> Atom:
    tok = sc.peek()
    if tok is None or not tok[0].isalpha():
        sc.fail("expected a predicate name")
    t = read_term(sc)
    if isinstance(t, Var):
        return Atom(t.name, ())
    return Atom(t.symbol, t.args)


def parse_program(text: str) -> Program:
    """Parse facts ``p(t1,...,tn).`` and rules ``p(...) :- q(...), r(...).``;
    ``%`` starts a comment that runs to the end of the line."""
    sc = Scanner(text, comments=True)
    clauses = []
    while sc.peek() is not None:
        head = _read_atom(sc)
        body = [_read_atom(sc)] if sc.accept(":-") else []
        while body and sc.accept(","):
            body.append(_read_atom(sc))
        sc.expect(".")
        clauses.append(Clause(head, tuple(body)))
    return Program(tuple(clauses))


def parse_goal(text: str) -> Atom:
    """Parse a single goal atom, with or without the final period."""
    sc = Scanner(text, comments=True)
    atom = _read_atom(sc)
    sc.accept(".")
    sc.end()
    return atom


# --- domain adapters ---------------------------------------------------------


class DomainOps:
    """One abstract domain as the analyzer sees it: ``parse``, ``bottom``,
    ``extend`` (add fresh independent linear variables), ``project``,
    ``union``, ``rename``, ``join_disjoint`` (union over disjoint interest
    sets), ``match(exit, full)`` and ``amgu(e, var, term, cap)``, with the
    defaults below. Elements answer ``is_bottom()`` and ``interest``.

    ``match`` looks its matcher up in this module on every call, so
    rebinding the matcher here (as perfbench's tracer does) reaches the
    analyzer; a ``staticmethod`` would keep the original."""

    def clip(self, e, cap):
        """Saturate multiplicities at the analysis cap (identity except for
        the exact-multiplicity domain, whose library operators are exact)."""
        return e

    def groups_of(self, e) -> set[str]:
        """Canonical textual group set, for precision diffs."""
        return {str(g) for g in e.groups if g}


def _bind(groups, var, term, ceiling):
    """The sharing groups after binding ``var`` to ``term``: the groups
    that touch neither side, and the joins that replace the others, with
    counts saturated at ``ceiling`` (0 or ``None``: exact).

    The binding is linear when ``var`` is not in the term, the term is
    linear, no group holds ``var`` or a term variable more than once, and
    no group holds two term variables; then relevant groups are joined
    pairwise. Otherwise the joins are the sums of relevant groups that meet
    both sides (a shared group covers both). A group repeats up to
    1 + 2 + ... + k times, k the largest multiplicity (at least 2), as
    scales up to k cover every inheritance a unifier can produce, and at
    most ``ceiling`` times, beyond which sums saturate.
    """
    tvars = frozenset(term_vars(term))
    rx = {g for g in groups if g.count(var)}
    rt = {g for g in groups if g.support & tvars}
    rest = {g for g in groups if g not in rx and g not in rt}
    if not rt:  # a ground term, or one whose variables are all ground
        return rest
    linear = (
        var not in tvars
        and all(g.count(var) <= 1 for g in groups)
        and is_linear_term(term)
        and all(all(g.count(v) <= 1 for g in groups) for v in tvars)
        and not any(len(g.support & tvars) > 1 for g in groups)
    )
    if linear:
        # a group on both sides can also survive unchanged: the same
        # existential variable may align with itself
        joins = {gx + gt for gx in rx for gt in rt} | (rx & rt)
    else:
        # sums are folded as count tuples over the relevant variables
        relevant = sorted(rx | rt, key=Multiset.sort_key)
        names = sorted(set().union(*(g.support for g in relevant)))
        top = ceiling or float("inf")
        k = max(2, max(n for g in relevant for _, n in g.items()))
        bound = min(k * (k + 1) // 2, top)

        def step(s, g):
            return tuple(map(min, map(operator.add, s, g), itertools.repeat(top)))

        counts = {tuple(map(g.count, names)): bound for g in relevant}
        sums = (
            Multiset._from_clean({v: n for v, n in zip(names, s) if n})
            for s in fold_subsets((0,) * len(names), counts, step)
        )
        joins = {s for s in sums if s.count(var) and any(s.count(v) for v in tvars)}
    if ceiling:
        joins = {g.clip(ceiling) for g in joins}
    return rest | joins


class _OmegaOps(DomainOps):
    parse = staticmethod(parse_omega)
    project = staticmethod(project_omega)
    union = staticmethod(union_omega)
    rename = staticmethod(rename_omega)

    def bottom(self, interest):
        return ShLinOmegaElement(frozenset(), frozenset(interest))

    def extend(self, e, new_vars):
        groups = set(e.groups) | {Multiset({v: 1}) for v in new_vars}
        return omega_element(groups, e.interest | frozenset(new_vars))

    def join_disjoint(self, e1, e2):
        return omega_element(e1.groups | e2.groups, e1.interest | e2.interest)

    def match(self, exit_elem, full_elem):
        return match_omega(exit_elem, full_elem)

    def amgu(self, e, var, term, cap):
        return omega_element(_bind(e.groups, var, term, cap), e.interest)

    def clip(self, e, cap):
        if not cap:
            return e
        return omega_element({g.clip(cap) for g in e.groups}, e.interest)


class _TwoOps(DomainOps):
    parse = staticmethod(parse_two)
    project = staticmethod(project2)
    union = staticmethod(union2)
    rename = staticmethod(rename2)

    def bottom(self, interest):
        return ShLin2Element(frozenset(), frozenset(interest))

    def extend(self, e, new_vars):
        groups = set(e.maximals) | {Multiset({v: 1}) for v in new_vars}
        return two_element(groups, e.interest | frozenset(new_vars))

    def join_disjoint(self, e1, e2):
        return two_element(e1.maximals | e2.maximals, e1.interest | e2.interest)

    def match(self, exit_elem, full_elem):
        return match2(exit_elem, full_elem)

    def amgu(self, e, var, term, cap):
        # the exact rule saturated at 2, so a group repeats at most twice
        return two_element(_bind(e.maximals, var, term, 2), e.interest)

    def groups_of(self, e):
        return {format_group(g, star=True) for g in e.maximals if g}


class _SlOps(DomainOps):
    parse = staticmethod(parse_sl)
    project = staticmethod(project_sl)
    union = staticmethod(union_sl)
    rename = staticmethod(rename_sl)

    def bottom(self, interest):
        u = frozenset(interest)
        return sl_element((), u, u)

    def extend(self, e, new_vars):
        new = frozenset(new_vars)
        return sl_element(
            set(e.sharing) | {frozenset({v}) for v in new},
            e.linear | new,
            e.interest | new,
        )

    def join_disjoint(self, e1, e2):
        return sl_element(
            e1.sharing | e2.sharing,
            e1.linear | e2.linear,
            e1.interest | e2.interest,
        )

    def match(self, exit_elem, full_elem):
        return match_sl(exit_elem, full_elem)

    def amgu(self, e, var, term, cap):
        # route through the clipped domain: embed, run its rule, forget
        two = gamma_sl(e)
        out = _TWO_OPS.amgu(two, var, term, cap)
        return alpha_sl(out)

    def groups_of(self, e):
        return {"".join(sorted(g)) for g in e.sharing if g}


_TWO_OPS = _TwoOps()

DOMAINS: Mapping[str, DomainOps] = {
    "omega": _OmegaOps(),
    "two": _TWO_OPS,
    "sl": _SlOps(),
}


def _check_cap(cap: int | None) -> None:
    if cap is not None and cap < 0:
        raise ValueError(f"the multiplicity cap must be 0 (no cap) or more, not {cap}")


def baseline_amgu(e, var: str, term: Term, domain: str, cap: int | None = None):
    """Sound binding-at-a-time abstract unification (not a best transformer)."""
    _check_cap(cap)
    if var not in e.interest or not term_vars(term) <= e.interest:
        raise ValueError("binding mentions variables outside the interest set")
    return DOMAINS[domain].amgu(e, var, term, cap)


def _amgu_all(ops: DomainOps, e, bindings, cap: int | None):
    for v, t in bindings:
        e = ops.amgu(e, v, t, cap)
    return e


# --- clause pipeline ---------------------------------------------------------


def forward_unify(call, goal: Atom, head: Atom, domain: str, cap: int | None = None,
                  clause_vars: frozenset[str] | None = None):
    """Parameter passing: returns (full element, entry element, head bindings).

    Equations are oriented head side first, so variable-variable pairs bind
    the clause variable to the goal term. A unification failure yields
    bottom elements and no bindings.
    """
    ops = DOMAINS[domain]
    if goal.pred != head.pred or len(goal.args) != len(head.args):
        raise PredicateMismatch(f"{goal} vs {head}")
    cvars = head.variables if clause_vars is None else clause_vars
    try:
        theta = mgu_terms(list(zip(head.args, goal.args)))
    except UnificationError:
        return ops.bottom(call.interest | cvars), ops.bottom(cvars), None
    full = _amgu_all(ops, ops.extend(call, cvars - call.interest), theta.bindings(), cap)
    return full, ops.project(full, cvars), theta


def backward_unify(call, exit_elem, full, theta: Substitution | None, mode: str,
                   domain: str, goal_vars, cap: int | None = None):
    """Answer propagation for one clause; mode selects matching or re-unification."""
    ops = DOMAINS[domain]
    gv = frozenset(goal_vars)
    if exit_elem.is_bottom() or theta is None:
        return ops.bottom(gv)
    if mode == "matching":
        return ops.project(ops.clip(ops.match(exit_elem, full), cap), gv)
    if mode != "mgu":
        raise ValueError(f"unknown backward mode {mode!r}")
    combined = _amgu_all(ops, ops.join_disjoint(call, exit_elem), theta.bindings(), cap)
    return ops.project(combined, gv)


# --- analysis requests -------------------------------------------------------


@dataclass(frozen=True)
class AnalysisRequest:
    program: Program
    goal: Atom
    call: object
    domain: str
    mode: str = "matching"
    cap: int = 3
    max_passes: int = 64
    injection: Mapping[tuple[int, int], object] | None = None


@dataclass(frozen=True)
class TraceStep:
    """One clause of the final pass: the (renamed) goal and the domain
    elements of its pipeline, printed with ``str``."""

    depth: int
    clause_index: int
    goal: Atom
    call: object
    full: object
    entry: object
    exit: object
    answer: object


@dataclass
class AnalysisResult:
    answer: object
    trace: tuple[TraceStep, ...]
    passes: int
    table_size: int


def parse_injection(text: str, domain: str) -> dict[tuple[int, int], object]:
    """Injection file: one ``<clause-index> <step-index> <element>`` per line.

    Step 0 is the full pre-projection element of the forward step, step 1
    the entry element; comments start with ``#``. Elements use the clause's
    source variable names.
    """
    ops = DOMAINS[domain]
    out: dict[tuple[int, int], object] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise ValueError(f"bad injection entry on line {ln}: {raw!r}")
        clause_idx, step_idx, elem = int(parts[0]), int(parts[1]), parts[2]
        if step_idx not in (0, 1):
            raise ValueError(f"step index must be 0 or 1 on line {ln}")
        out[(clause_idx, step_idx)] = ops.parse(elem)
    return out


class _Engine:
    def __init__(self, req: AnalysisRequest):
        self.req = req
        self.ops = DOMAINS[req.domain]
        self.memo: dict = {}
        self.trace: list[TraceStep] = []
        self.counter = itertools.count(1)
        self.changed = False
        self.reserved = req.goal.variables.union(*(c.variables for c in req.program.clauses))

    # call patterns are memoized up to variable renaming: atom and element
    # variables are renamed positionally
    def _key(self, atom: Atom, call):
        order: list[str] = []
        seen: set[str] = set()

        def walk(t: Term):
            if isinstance(t, Var):
                if t.name not in seen:
                    seen.add(t.name)
                    order.append(t.name)
            else:
                for a in t.args:
                    walk(a)

        for a in atom.args:
            walk(a)
        for v in sorted(call.interest - seen):
            order.append(v)
        rho = {v: f"_p{i}" for i, v in enumerate(order)}
        sub = Substitution({v: Var(n) for v, n in rho.items()})
        args = tuple(sub.apply(a) for a in atom.args)
        return (atom.pred, args, self.ops.rename(call, rho)), rho

    def _rename_clause(self, clause: Clause):
        cvars = sorted(clause.variables)
        while True:
            n = next(self.counter)
            rho = {v: f"{v}{n}" for v in cvars}
            if not (set(rho.values()) & self.reserved):
                break
        sub = Substitution({v: Var(w) for v, w in rho.items()})
        head = Atom(clause.head.pred, tuple(sub.apply(a) for a in clause.head.args))
        body = tuple(
            Atom(a.pred, tuple(sub.apply(t) for t in a.args)) for a in clause.body
        )
        return Clause(head, body), rho

    def _inject(self, idx: int, step: int, rho, fallback):
        inj = self.req.injection or {}
        elem = inj.get((idx, step))
        if elem is None:
            return fallback
        known = set(rho) | self.req.call.interest
        missing = elem.interest - known
        if missing:
            raise ValueError(
                f"injected element mentions unknown variables {sorted(missing)}"
            )
        return self.ops.rename(elem, rho)

    def solve(self, atom: Atom, call, depth: int, stack: set, done: set) -> object:
        ops = self.ops
        # answers range over the caller's variables of interest, which may
        # strictly contain the atom's own variables at the root
        gv = call.interest
        if call.is_bottom():
            return ops.bottom(gv)
        key, rho = self._key(atom, call)
        if key in stack or key in done:
            cached = self.memo.get(key)
            if cached is None:
                return ops.bottom(gv)
            back = {n: v for v, n in rho.items()}
            return ops.rename(cached, back)
        stack.add(key)
        total = ops.bottom(gv)
        clauses = self.req.program.matching(atom.pred, len(atom.args))
        for idx, clause in clauses:
            rclause, crho = self._rename_clause(clause)
            cvars = rclause.variables
            full, entry, theta = forward_unify(
                call, atom, rclause.head, self.req.domain, self.req.cap, cvars
            )
            if depth == 0:
                full = self._inject(idx, 0, crho, full)
                entry = self._inject(idx, 1, crho, ops.project(full, cvars))
            exit_elem = entry
            for batom in rclause.body:
                if exit_elem.is_bottom():
                    break
                bcall = ops.project(exit_elem, batom.variables)
                bans = self.solve(batom, bcall, depth + 1, stack, done)
                if bans.is_bottom():
                    exit_elem = ops.bottom(exit_elem.interest)
                    break
                exit_elem = self._combine(bans, exit_elem)
            answer = backward_unify(
                call, exit_elem, full, theta, self.req.mode,
                self.req.domain, gv, self.req.cap,
            )
            total = ops.union(total, answer)
            self.trace.append(TraceStep(depth, idx, atom, call, full, entry, exit_elem, answer))
        stack.remove(key)
        done.add(key)
        stored = ops.rename(total, rho)
        old = self.memo.get(key)
        if old is not None:
            stored = ops.union(stored, old)
        if old != stored:
            self.memo[key] = stored
            self.changed = True
        back = {n: v for v, n in rho.items()}
        return ops.rename(stored, back)

    def _combine(self, answer, cur):
        ops = self.ops
        if self.req.mode == "matching":
            return ops.clip(ops.match(answer, cur), self.req.cap)
        avars = sorted(answer.interest)
        primed = {v: f"_b{i}" for i, v in enumerate(avars)}
        joined = ops.join_disjoint(cur, ops.rename(answer, primed))
        bindings = [(primed[v], Var(v)) for v in avars]
        return ops.project(_amgu_all(ops, joined, bindings, self.req.cap), cur.interest)


def analyze(req: AnalysisRequest) -> AnalysisResult:
    """Run the goal-dependent analysis to a fixpoint and return the answer
    over the goal's variables, with per-clause traces from the final pass."""
    _check_cap(req.cap)
    goal_vars = req.goal.variables
    if not goal_vars <= req.call.interest:
        raise ValueError(
            f"call interest set {sorted(req.call.interest)} must cover "
            f"the goal variables {sorted(goal_vars)}"
        )
    engine = _Engine(req)
    answer = None
    for passno in range(1, req.max_passes + 1):
        engine.changed = False
        engine.trace = []
        engine.counter = itertools.count(1)
        answer = engine.solve(req.goal, req.call, 0, set(), set())
        if not engine.changed:
            return AnalysisResult(answer, tuple(engine.trace), passno, len(engine.memo))
    raise FixpointLimitExceeded(f"no fixpoint after {req.max_passes} passes")
