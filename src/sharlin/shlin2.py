"""2-sharing groups: multiplicities saturated at 2.

A 2-sharing group records, per variable, whether a hidden existential
variable occurs never, exactly once, or possibly more than once. It is an
exact-multiplicity group (a ``multiset.Multiset``) whose counts are 1 or
2, where 2 reads "two or more": ``Multiset.clip(2)`` abstracts an exact
group and ``oplus`` is the sum saturating at 2. Groups with equal support
are ordered by pointwise exponent comparison, elements are
downward-closed sets of groups, and an element is represented by its
maximal groups (an antichain) plus the interest set. As in the exact
multiplicity domain, nonempty elements contain the empty group.

An element is the ShLin^omega element with ceiling 2, normalized by
``antichain_max``, so projection, renaming, union and the analyzer's
other shared operations are ShLin^omega's own, used from there (see
``sharlin.domains``), and so is its record's forward rule ``amgu``: it
saturates at the ceiling, so ``shlin_omega.clip`` leaves the element as
it is.

Two matching operators are provided. ``match2_ref`` is the literal
set-level definition, enumerating all 3^|U| candidate groups over the joint
interest set U; it is exponential in the number of variables and exists as
a small-input reference and oracle. It keys the down-closure of the first
argument by count tuples over its interest set, folds the star set of the
second argument as count tuples over its own, tests each candidate, a
count tuple over U, by looking up its two restrictions there, and builds a
group only for a candidate that passes both. ``match2`` works directly on
maximal antichains, choosing subsets of the second argument's groups and
repeating the ones whose shared variables are all non-linear; it is the
production operator and provably computes the same downward-closed set.
Its subsets are not enumerated one by one: ``linear_subsets`` folds them
with ``multiset.fold_frontier`` over bitmask states, once per distinct
shared part of a first-argument group and its linear variables there,
cutting a branch as soon as a linear variable would be hit twice. One
private fold runs it for all 2-sharing matching, ``shlin_sl``'s too; only
``match2_opt_generators``, for the witnesses, reads its provenance.

The textual form writes the count 2 as ``^*``, e.g. ``[x^*y, xz^*]_{x,y,z}``.
On input ``Scanner.group`` reads ``^*`` (or ``^inf``) as the ceiling 2,
and each group is clipped at 2, so a written count above 1 or a repeated
variable also reads as ``^*``.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import product
from operator import add

from . import shlin_omega
from .multiset import EMPTY, Layout, Multiset, fold_frontier, random_groups
from .shlin_omega import ShLinOmegaElement, amgu
from .terms import Scanner

__all__ = [
    "INF",
    "ShLin2Element",
    "TooLarge",
    "two_group",
    "oplus",
    "two_element",
    "antichain_max",
    "down_closure",
    "alpha2",
    "gamma2_contains",
    "el2_contains",
    "leq2",
    "match2_ref",
    "linear_subsets",
    "match2",
    "parse_two",
]

INF = float("inf")
_REF_CAP = 10  # the most variables ``match2_ref`` enumerates 3^|U| candidates over


class TooLarge(ValueError):
    """Joint interest set exceeds the reference matcher's enumeration cap."""


def two_group(exps: Mapping[str, float]) -> Multiset:
    """A 2-sharing group from exponents 1, 2 or ``INF`` (stored as 2)."""
    clean: dict[str, int] = {}
    for v, e in exps.items():
        if e == 0:
            continue
        if e not in (1, 2, INF):
            raise ValueError(f"exponent for {v!r} must be 1, 2 or INF")
        clean[v] = max(clean.get(v, 0), 1 if e == 1 else 2)
    return Multiset._from_clean(clean)


def oplus(o: Multiset, p: Multiset) -> Multiset:
    """Pointwise sum of two 2-sharing groups saturating at 2, that is
    ``(o + p).clip(2)`` in one pass: 1 + 1 and anything + 2 give 2."""
    if not o:
        return p
    if not p:
        return o
    counts = dict(o.items())
    for v, n in p.items():
        counts[v] = 2 if v in counts else n
    return Multiset._from_clean(counts)


def antichain_max(groups: Iterable[Multiset]) -> frozenset[Multiset]:
    """Maximal elements; groups equal under the order are deduplicated."""
    # Only groups over the same variables are comparable.
    buckets: dict[frozenset[str], list[Multiset]] = {}
    for g in set(groups):
        buckets.setdefault(g.support, []).append(g)
    out: list[Multiset] = []
    for bucket in buckets.values():
        if len(bucket) == 1:
            out.append(bucket[0])
        else:
            out.extend(g for g in bucket if not any(g is not h and g.leq(h) for h in bucket))
    return frozenset(out)


def down_closure(groups: Iterable[Multiset]) -> set[Multiset]:
    """All groups below some given group (same support, lowered exponents)."""
    out: set[Multiset] = set()
    for g in groups:
        wide = [v for v, e in g.items() if e == 2]
        for choice in product((1, 2), repeat=len(wide)):
            out.add(Multiset._from_clean(dict(g.items()) | dict(zip(wide, choice))))
    return out


class ShLin2Element(ShLinOmegaElement):
    """Downward-closed set of 2-sharing groups, stored as its maximals: the
    ShLin^omega element with ceiling 2."""

    ceiling = 2

    @staticmethod
    def normalize(groups):
        # a module-level lookup, so a tracer rebinding antichain_max sees it
        return antichain_max(groups)


two_element = ShLin2Element.of


def alpha2(e: ShLinOmegaElement) -> ShLin2Element:
    """Elementwise clipping followed by maximal-antichain normalization."""
    return two_element({b.clip(2) for b in e.groups}, e.interest)


def gamma2_contains(e: ShLin2Element, b: Multiset) -> bool:
    """Is the exact-multiplicity group ``b`` in the concretization of ``e``?"""
    return el2_contains(e, b.clip(2))


def el2_contains(e: ShLin2Element, o: Multiset) -> bool:
    """Is ``o`` below a maximal group: same support, exponents no larger?"""
    return any(o.support == m.support and o.leq(m) for m in e.groups)


def leq2(e1: ShLin2Element, e2: ShLin2Element) -> bool:
    if e1.interest != e2.interest:
        return False
    return all(el2_contains(e2, m) for m in e1.groups)


def match2_ref(e1: ShLin2Element, e2: ShLin2Element) -> ShLin2Element:
    """Literal set-level matching; tests all 3^|U| candidate groups.

    A candidate is a count tuple over U's variables ordered as A + S + C,
    with A = u1 - u2, S = u1 & u2 and C = u2 - u1, names sorted within each
    part. It is kept when its part on A + S, its restriction to u1, is the
    count tuple of a group of the first argument's down-closure, and its
    part on S + C, its restriction to u2, that of a group of the star set.
    Only a kept candidate is built as a group.
    """
    u1, u2 = e1.interest, e2.interest
    u = u1 | u2
    if len(u) > _REF_CAP:
        raise TooLarge(f"{len(u)} variables exceeds the cap of {_REF_CAP}")
    t1_full = down_closure(e1.groups)
    t2_full = down_closure(e2.groups)
    if e1.groups:
        t1_full.add(EMPTY)
    if e2.groups:
        t2_full.add(EMPTY)
    t2_pass = {o for o in t2_full if not o.support & u1}
    only1, shared, only2 = sorted(u1 - u2), sorted(u1 & u2), sorted(u2 - u1)
    on_u1, on_u2, names = only1 + shared, shared + only2, only1 + shared + only2
    first = {tuple(map(o.count, on_u1)) for o in t1_full}

    # The star set {sum of X | X subseteq T'' union squares} has at most
    # 3^|U2| members, so it is folded one generator at a time, as count
    # tuples over u2 summed saturating at 2, instead of enumerating the
    # subsets themselves; a square is 2 wherever its group is nonzero.
    rest = {tuple(map(o.count, on_u2)) for o in t2_full - t2_pass}
    second, sat = {(0,) * len(on_u2)}, (0, 1, 2, 2, 2).__getitem__
    for g in rest | {tuple(2 if n else 0 for n in t) for t in rest}:
        second |= {tuple(map(sat, map(add, s, g))) for s in second}
    out = set(t2_pass)
    counts = (0, 1, 2)
    for pa, ps, pc in product(product(counts, repeat=len(only1)),
                              product(counts, repeat=len(shared)),
                              product(counts, repeat=len(only2))):
        if pa + ps in first and ps + pc in second:
            out.add(Multiset._from_clean({v: n for v, n in zip(names, pa + ps + pc) if n}))
    return two_element(out, u)


def linear_subsets(rest, n, m1, cover, linear) -> dict:
    """Every subset X of the groups ``rest`` that fits under ``cover``,
    folded by ``fold_frontier``: ``{state: (previous state, group)}`` from
    ``{0: None}``, in the order reached.

    Groups are ``(key, support, stars)`` bitmasks over n variables; one
    fits when its part on ``m1`` lies under ``cover``, and each is taken
    at most once. A state packs X's union, its ``^*`` variables (stars,
    and variables two groups share) << n, and the union of its doubled
    groups, those meeting no variable of ``linear``, << 2n. A state that
    takes a variable of ``linear`` twice stays so as X grows, so it is
    pruned.
    """
    links = {0: None}

    def advance(frontier, g):
        _, gm, gs = g
        doubled = 0 if gm & linear else gm << 2 * n
        reached = set()
        for s in frontier:
            twice = s & gm
            if not twice & linear:
                t = s | gm | (twice | gs) << n | doubled
                reached.add(t)
                links.setdefault(t, (s, g))
        return reached

    fold_frontier(0, {g: 1 for g in rest if not g[1] & m1 & ~cover}, advance)
    return links


def _fold(t1, u1, t2, u2):
    """The ``Layout`` of u1 | u2, and each group of the matching packed
    (support, and ``^*`` variables << n), in the order reached, mapped to
    how it was first reached: ``None`` for a group of t2 off u1, else
    ``(o1, state, links, linear)``, ``linear`` being o1's linear variables
    on u2. Fitting subsets X of t2 depend on o1 only through its shared
    part and ``linear``, so ``linear_subsets`` runs once per such pair,
    giving ``links``; the groups of X off ``linear`` form Xbar, taken
    twice (the group produced is ``^*`` on all of Xbar)."""
    u1, u2 = frozenset(u1), frozenset(u2)
    lay = Layout.of(u1 | u2, 1)
    n, full, m1, m2, bits = len(lay.offsets), lay.ones, lay.mask(u1), lay.mask(u2), lay.fields

    def masks(o):
        support = stars = 0
        for v, e in o.items():
            support |= bits[v]
            if e == 2:
                stars |= bits[v]
        return support, stars

    found, rest = {}, []
    for o in sorted(set(t2), key=Multiset.sort_key):
        b, st = masks(o)
        if b & m1:
            rest.append((o, b, st))
        else:
            found[b | st << n] = None
    # (shared part, its linear variables) -> links; no group of rest fits under 0
    folds = {(0, 0): {0: None}}
    for o1 in sorted(t1, key=Multiset.sort_key):
        b1, s1 = masks(o1)
        key = cover, linear = b1 & m2, b1 & ~s1 & m2
        links = folds.get(key)
        if links is None:
            links = folds[key] = linear_subsets(rest, n, m1, cover, linear)
        for state in links:
            union = state & full
            if union & m1 != cover:
                continue
            starred = state >> n & full
            # the stars: o1's off u2, the sum's off u1, both's on shared
            # variables, and all of Xbar
            value = b1 | union | (s1 & ~m2 | starred & (s1 | ~m1) | state >> 2 * n) << n
            if value not in found:
                found[value] = (o1, state, links, linear)
    return lay, found


def _group(lay: Layout, value: int) -> Multiset:
    n = len(lay.offsets)
    return Multiset._from_clean(
        {v: 2 if value >> n & b else 1 for v, b in lay.fields.items() if value & b})


def match2_opt_generators(t1, u1, t2, u2):
    """Maximal-antichain matching, keeping one generator per produced group.

    Returns (raw groups -> provenance) where provenance is either
    ("pass", o) for second-argument groups not touching u1, or
    ("gen", o1, X, Xbar) for the group built from o1 and the chosen subset X
    (Xbar being the part of X repeated twice), X read off ``_fold``'s
    links back from the state that first gave the group. Used by the
    optimality witness builders; ``match2`` keeps only the maximal groups.
    """
    lay, found = _fold(t1, u1, t2, u2)
    out: dict[Multiset, tuple] = {}
    for value, how in found.items():
        group = _group(lay, value)
        if how is None:
            out[group] = ("pass", group)
            continue
        o1, state, links, linear = how
        x = []
        while links[state]:
            state, g = links[state]
            x.append(g)
        x.reverse()
        out[group] = ("gen", o1, tuple(g[0] for g in x),
                      tuple(g[0] for g in x if not g[1] & linear))
    return out


def match2(e1: ShLin2Element, e2: ShLin2Element) -> ShLin2Element:
    """Element-level matching via the maximal-antichain algorithm: of the
    packed groups, and the empty one, only the maximal are built."""
    lay, found = _fold(e1.groups, e1.interest, e2.groups, e2.interest)
    n, full, stars = len(lay.offsets), lay.ones, {0: {0}} if found else {}
    for value in found:
        stars.setdefault(value & full, set()).add(value >> n)
    return ShLin2Element(frozenset(_group(lay, b | st << n) for b, sts in stars.items()
                                   for st in sts if not any(st & t == st != t for t in sts)),
                         e1.interest | e2.interest)


def parse_two(text: str) -> ShLin2Element:
    """Parse ``[x^*y, xz^*]_{x,y,z}``; the groups listed are the maximals."""
    sc = Scanner(text)
    sc.expect("[")
    groups = sc.sequence(lambda sc: Multiset(sc.group(star=2)).clip(2), "]")
    return two_element(groups, sc.interest())


# --- the domain record (see ``sharlin.domains``) ------------------------------

above = shlin_omega
parse, leq, match, alpha = parse_two, leq2, match2, alpha2


def gen(rng, variables, cap: int) -> ShLin2Element:
    """A random element; its counts are 1 or 2 whatever ``cap``."""
    groups = random_groups(rng, variables, lambda: 2 if rng.random() < 0.4 else 1)
    return two_element(set(map(Multiset, groups)), variables)


def bottom(interest) -> ShLin2Element:
    return ShLin2Element(frozenset(), frozenset(interest))
