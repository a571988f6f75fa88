"""The reduced product of set-sharing with a linearity component.

An element is a triple: set-sharing groups (plain variable sets), the set
of variables linear in every group, and the interest set. Ground
variables (those in no sharing group) are always linear, and nonempty
sharing components contain the empty group, mirroring the other domains.

Matching glues first-argument groups with subsets of the second argument's
groups agreeing on the shared variables, provided no first-argument linear
variable would be used twice; groups whose variables are all possibly
non-linear may be counted twice, which wipes the linearity of their
variables. This computes exactly the abstraction of the maximal-antichain
matching run on the embedding into 2-sharing groups. The subsets are folded
with ``multiset.fold_subsets`` over distinct (union, variables shared by two
chosen groups, variables of doubled groups) states, cutting a branch once a
linear variable is shared or the union's shared part fits under no
first-argument group.

Textual form: ``[{uv, ux}, lin={u,v}]_{u,v,x}``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .multiset import Multiset, fold_subsets
from .shlin_omega import injective_renaming, same_interest
from .shlin2 import ShLin2Element, two_element
from .terms import Scanner

__all__ = [
    "ShLinElement",
    "sl_element",
    "alpha_sl",
    "gamma_sl_maximals",
    "gamma_sl",
    "nl",
    "leq_sl",
    "match_sl",
    "project_sl",
    "rename_sl",
    "union_sl",
    "parse_sl",
]


@dataclass(frozen=True)
class ShLinElement:
    sharing: frozenset[frozenset[str]]
    linear: frozenset[str]
    interest: frozenset[str]

    def is_bottom(self) -> bool:
        return not self.sharing

    def __str__(self) -> str:
        gs = sorted(("".join(sorted(g)) for g in self.sharing if g))
        if not gs and self.sharing:
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
    """Normalize: add the empty group to nonempty sharing, keep linearity
    within the interest set, and mark ground variables linear."""
    u = frozenset(interest)
    groups = {frozenset(g) for g in sharing}
    for g in groups:
        if not g <= u:
            raise ValueError(f"group {sorted(g)} not over interest set {sorted(u)}")
    if groups:
        groups.add(frozenset())
    covered = frozenset().union(*groups) if groups else frozenset()
    lin = (frozenset(linear) & u) | (u - covered)
    return ShLinElement(frozenset(groups), lin, u)


def alpha_sl(e: ShLin2Element) -> ShLinElement:
    """Forget exponents: supports become sharing groups, variables that are
    nowhere ``^*`` stay linear."""
    sharing = {g.support for g in e.maximals}
    nonlinear = {x for m in e.maximals for x, n in m.items() if n == 2}
    return sl_element(sharing, e.interest - nonlinear, e.interest)


def gamma_sl_maximals(e: ShLinElement) -> frozenset[Multiset]:
    """Best 2-sharing description of each group: linear variables get
    exponent 1, the rest 2 (``^*``). Distinct groups have distinct supports,
    so the result is already an antichain."""
    return frozenset(
        Multiset({v: (1 if v in e.linear else 2) for v in b}) for b in e.sharing
    )


def gamma_sl(e: ShLinElement) -> ShLin2Element:
    return two_element(gamma_sl_maximals(e), e.interest)


def nl(x: Iterable[frozenset[str]]) -> frozenset[str]:
    """Variables occurring in at least two distinct groups of ``x``."""
    seen: set[str] = set()
    out: set[str] = set()
    for g in set(map(frozenset, x)):
        out |= g & seen
        seen |= g
    return frozenset(out)


def leq_sl(e1: ShLinElement, e2: ShLinElement) -> bool:
    return (
        e1.interest == e2.interest
        and e1.sharing <= e2.sharing
        and e1.linear >= e2.linear
    )


def match_sl(e1: ShLinElement, e2: ShLinElement) -> ShLinElement:
    s1, l1, u1 = e1.sharing, e1.linear, e1.interest
    s2, l2, u2 = e2.sharing, e2.linear, e2.interest
    u = u1 | u2
    s2_pass = {b for b in s2 if not b & u1}
    s2_rest = dict.fromkeys(sorted(s2 - s2_pass, key=sorted), 1)  # each at most once
    s_bar = {b for b in s2_rest if not b & l1}

    pairs: set[tuple[frozenset[str], frozenset[str]]] = {
        (b, l2) for b in s2_pass
    }
    # What a subset X contributes does not depend on the group of e1 it is
    # matched against, only its shared part does.
    by_shared: dict[frozenset[str], list[frozenset[str]]] = {}
    for b in s1:
        by_shared.setdefault(b & u2, []).append(b)

    def step(state, g):
        union_x, nlx, doubled = state
        nlx |= union_x & g
        union_x |= g
        # both tests only fail more as X grows, so pruning is exact
        if l1 & nlx or not any(union_x & u1 <= shared for shared in by_shared):
            return None
        return union_x, nlx, (doubled | g if g in s_bar else doubled)

    empty = frozenset()
    for union_x, nlx, doubled in fold_subsets((empty, empty, empty), s2_rest, step):
        lin = l2 - nlx - doubled
        for b in by_shared.get(union_x & u1, ()):
            pairs.add((b | union_x, lin))

    sharing = {b for b, _ in pairs}
    if pairs:
        linear = frozenset(u)
        for b, l in pairs:
            linear &= l1 | l | (u - b)
    else:
        linear = frozenset(u)
    return sl_element(sharing, linear, u)


def project_sl(e: ShLinElement, variables: Iterable[str]) -> ShLinElement:
    v = frozenset(variables)
    return sl_element(
        {g & v for g in e.sharing}, e.linear & v, e.interest & v
    )


def rename_sl(e: ShLinElement, rho: Mapping[str, str]) -> ShLinElement:
    relevant = injective_renaming(e, rho)
    return sl_element(
        {frozenset(relevant[v] for v in g) for g in e.sharing},
        {relevant[v] for v in e.linear},
        set(relevant.values()),
    )


def union_sl(e1: ShLinElement, e2: ShLinElement) -> ShLinElement:
    return sl_element(e1.sharing | e2.sharing, e1.linear & e2.linear, same_interest(e1, e2))


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
    linear = sc.names()
    return sl_element(groups, linear, sc.interest())
