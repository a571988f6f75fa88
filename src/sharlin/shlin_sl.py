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
matching run on the embedding into 2-sharing groups, and it runs that
matcher's fold, ``shlin2.linear_subsets``, once per distinct nonempty
shared part of a first-argument group, then decodes its states to sets.

Textual form: ``[{uv, ux}, lin={u,v}]_{u,v,x}``.

As a domain record (``sharlin.domains``) it abstracts ShLin^2 and also
supplies ``gamma``, the embedding back; its forward rule ``amgu`` embeds,
runs ShLin^2's rule and forgets.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from . import shlin2
from .multiset import Layout, Multiset, random_groups
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
    sharing = {g.support for g in e.groups}
    nonlinear = {x for m in e.groups for x, n in m.items() if n == 2}
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
    """Abstract matching: ShLin^2's fold, ``shlin2.linear_subsets``, run
    once per distinct nonempty shared part of e1's groups on the embedding
    in one-bit ``Layout`` fields, then unpacked to sets. Its groups carry
    no stars, so a state holds a union, the variables two of its groups
    share (``nl``) and those of doubled groups; both lose linearity in e2.
    """
    s1, u1 = e1.sharing, e1.interest
    s2, u2 = e2.sharing, e2.interest
    u = u1 | u2
    if not (s1 and any(b & u1 for b in s2)):
        # nothing to fold: the groups off u1 pass through, and the
        # first-argument groups off u2 match the empty subset
        return sl_element({b for b in s2 if not b & u1} | {b for b in s1 if not b & u2},
                          e1.linear | e2.linear, u)
    lay = Layout.of(u, 1)
    n, full, mask = len(lay.offsets), lay.ones, lay.fields.__getitem__
    m1, m2, l1, l2 = map(lay.mask, (u1, u2, e1.linear, e2.linear))
    # What a subset X contributes does not depend on the group of e1 it is
    # matched against, only its shared part does.
    by_shared: dict[int, list[int]] = {}
    for b in s1:
        bm = sum(map(mask, b))
        by_shared.setdefault(bm & m2, []).append(bm)
    # e1's groups off u2 match the empty subset, and e2's groups off u1 pass
    pairs = {(bm, l2) for bm in by_shared.pop(0, ())}
    rest = []
    for b in s2:
        bm = sum(map(mask, b))
        if bm & m1:
            rest.append((bm, bm, 0))
        else:
            pairs.add((bm, l2))
    for cover, bms in by_shared.items():
        for s in shlin2.linear_subsets(rest, n, m1, cover, l1 & cover):
            union = s & full
            if union & m1 == cover:
                lin = l2 & ~(s >> n | s >> 2 * n)
                for bm in bms:
                    pairs.add((bm | union, lin))

    linear = full
    for bu, lin in pairs:
        linear &= l1 | lin | (full & ~bu)
    return sl_element({frozenset(lay.unpack(bu)) for bu, _ in pairs}, lay.unpack(linear), u)


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
    linear, interest = sc.names(), sc.interest()
    if stray := sorted(set(linear) - set(interest)):  # a typo, which sl_element would drop
        raise ValueError(f"linear variables {stray} not in interest set {sorted(interest)}")
    return sl_element(groups, linear, interest)


# --- the domain record (see ``sharlin.domains``) ------------------------------

above = shlin2
parse, leq, match, alpha, gamma = parse_sl, leq_sl, match_sl, alpha_sl, gamma_sl
project, union, rename = project_sl, union_sl, rename_sl


def gen(rng, variables, cap: int) -> ShLinElement:
    """A random element; ``cap`` is unused, as it has no counts."""
    groups = [frozenset(g) for g in random_groups(rng, variables, lambda: 1)]
    covered = frozenset().union(*groups)
    linear = {v for v in sorted(covered) if rng.random() < 0.6}
    return sl_element(groups, linear, variables)


def bottom(interest) -> ShLinElement:
    u = frozenset(interest)
    return sl_element((), u, u)


def extend(e, new_vars):
    new = frozenset(new_vars)
    return sl_element(set(e.sharing) | {frozenset({v}) for v in new},
                      e.linear | new, e.interest | new)


def join_disjoint(e1, e2):
    return sl_element(e1.sharing | e2.sharing, e1.linear | e2.linear,
                      e1.interest | e2.interest)


def amgu(e, var, term, cap: int, drop=frozenset()):
    return alpha_sl(shlin2.amgu(gamma_sl(e), var, term, cap, drop))


def clip(e, cap: int):
    return e


def groups_of(e) -> set[str]:
    return {"".join(sorted(g)) for g in e.sharing if g}
