"""The reduced product of set-sharing with a linearity component.

An element reads as a triple: set-sharing groups (plain variable sets),
the set of variables linear in every group, and the interest set. Ground
variables (those in no sharing group) are always linear, and nonempty
sharing components contain the empty group, mirroring the other domains.
It is stored as its embedding in ShLin^2: the ShLin^omega element with
ceiling 2 whose groups count each linear variable once and the others
twice (``^*``), uniform by ``normalize``, so their supports are distinct.
Projection, renaming, union and the analyzer's other shared operations
are ShLin^omega's own, used from there (see ``sharlin.domains``), and so
is its record's forward rule ``amgu``, with no round trip through
ShLin^2; ``gamma``, the embedding, re-labels the groups.

Matching glues first-argument groups with subsets of the second argument's
groups agreeing on the shared variables, provided no first-argument linear
variable would be used twice; groups whose variables are all possibly
non-linear may be counted twice, which wipes the linearity of their
variables. ``match_sl`` is the paper's instantiation of this: ShLin^2's
matching on the embeddings, abstracted.

Textual form: ``[{uv, ux}, lin={u,v}]_{u,v,x}``.
"""
from __future__ import annotations

from typing import Iterable

from . import shlin2
from .multiset import EMPTY, Multiset, random_groups
from .shlin_omega import ShLinOmegaElement, amgu
from .shlin2 import ShLin2Element
from .terms import Scanner

__all__ = [
    "ShLinElement",
    "sl_element",
    "alpha_sl",
    "gamma_sl",
    "nl",
    "leq_sl",
    "match_sl",
    "parse_sl",
]


class ShLinElement(ShLinOmegaElement):
    """The ShLin^omega element with ceiling 2 and uniform linearity."""

    ceiling = 2

    @staticmethod
    def normalize(groups):
        """A variable at 2 in some group is at 2 in every group holding
        it; a group that is already uniform is kept as it is."""
        stars = {v for g in groups for v, n in g.items() if n == 2}
        return frozenset(g if all(n == 2 or v not in stars for v, n in g.items()) else
                         Multiset._from_clean({v: 2 if v in stars else n for v, n in g.items()})
                         for g in groups)

    @property
    def sharing(self) -> frozenset[frozenset[str]]:
        return frozenset(g.support for g in self.groups)

    @property
    def linear(self) -> frozenset[str]:
        return self.interest.difference(v for g in self.groups for v, n in g.items() if n == 2)

    def __str__(self) -> str:
        gs = sorted("".join(v for v, _ in g.items()) for g in self.groups if g)
        if not gs and self.groups:
            gs = ["0"]
        lin = ", ".join(sorted(self.linear))
        vs = ", ".join(sorted(self.interest))
        return "[{" + ", ".join(gs) + "}, lin={" + lin + "}]_{" + vs + "}"

    def __repr__(self) -> str:
        return (
            f"ShLinElement({set(''.join(sorted(g)) for g in self.sharing)!r}, "
            f"{set(self.linear)!r}, {set(self.interest)!r})"
        )


def sl_element(sharing, linear, interest) -> ShLinElement:
    """The element of these sets: each group holds its linear variables
    once and the others twice, nonempty sharing gains the empty group, and
    linear names outside the interest set are dropped."""
    u, lin = frozenset(interest), frozenset(linear)
    groups = set()
    for g in map(frozenset, sharing):
        if not g <= u:
            raise ValueError(f"group {sorted(g)} not over interest set {sorted(u)}")
        groups.add(Multiset._from_clean({v: 1 if v in lin else 2 for v in g}))
    if groups:
        groups.add(EMPTY)
    return ShLinElement(frozenset(groups), u)


def alpha_sl(e: ShLin2Element) -> ShLinElement:
    """Forget exponents: supports become sharing groups, variables that are
    nowhere ``^*`` stay linear."""
    return ShLinElement(ShLinElement.normalize(e.groups), e.interest)


def gamma_sl(e: ShLinElement) -> ShLin2Element:
    """The groups read as ShLin^2's: their supports are distinct."""
    return ShLin2Element(e.groups, e.interest)


def nl(x: Iterable[frozenset[str]]) -> frozenset[str]:
    """Variables occurring in at least two distinct groups of ``x``."""
    seen: set[str] = set()
    out: set[str] = set()
    for g in set(map(frozenset, x)):
        out |= g & seen
        seen |= g
    return frozenset(out)


def leq_sl(e1: ShLinElement, e2: ShLinElement) -> bool:
    """Sharing included, linearity containing: on uniform groups, each
    group of ``e1`` lies below ``e2``'s group over its support."""
    if e1.interest != e2.interest:
        return False
    over = {g.support: g for g in e2.groups}
    return all(g.support in over and g.leq(over[g.support]) for g in e1.groups)


def match_sl(e1: ShLinElement, e2: ShLinElement) -> ShLinElement:
    """Abstract matching: the abstraction of ShLin^2's matching on the
    embeddings, looked up on ``shlin2`` at each call."""
    return alpha_sl(shlin2.match2(gamma_sl(e1), gamma_sl(e2)))


def _read_set_group(sc: Scanner) -> frozenset[str]:
    start = sc.pos
    g = Multiset(sc.group())
    if any(n > 1 for _, n in g.items()):
        raise sc.error(f"set-sharing group {str(g)!r} has a repeated variable", start)
    return g.support


def parse_sl(text: str) -> ShLinElement:
    """Parse ``[{uv, ux}, lin={u,v}]_{u,v,x}``."""
    sc = Scanner(text)
    sc.expect("[")
    sc.expect("{")
    groups = sc.sequence(_read_set_group, "}")
    for tok in ("}", ",", "lin", "=", "{"):
        sc.expect(tok)
    linear, interest = sc.names(), sc.interest()
    if stray := sorted(set(linear) - set(interest)):  # a typo, which sl_element would drop
        raise ValueError(f"linear variables {stray} not in interest set {sorted(interest)}")
    return sl_element(groups, linear, interest)


# --- the domain record (see ``sharlin.domains``) ------------------------------

above = shlin2
parse, leq, match, alpha, gamma = parse_sl, leq_sl, match_sl, alpha_sl, gamma_sl


def gen(rng, variables, cap: int) -> ShLinElement:
    """A random element; ``cap`` is unused, as it has no counts."""
    groups = [frozenset(g) for g in random_groups(rng, variables, lambda: 1)]
    covered = frozenset().union(*groups)
    linear = {v for v in sorted(covered) if rng.random() < 0.6}
    return sl_element(groups, linear, variables)


def bottom(interest) -> ShLinElement:
    return ShLinElement(frozenset(), frozenset(interest))
