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

Two matching operators are provided. ``match2_ref`` is the literal
set-level definition, enumerating all candidate groups over the joint
interest set; it is exponential in the number of variables and exists as a
small-input reference and oracle. ``match2_opt`` works directly on maximal
antichains, choosing subsets of the second argument's groups and repeating
the ones whose shared variables are all non-linear; it is the production
operator and provably computes the same downward-closed set. Its subsets
are not enumerated one by one: for each first-argument group they are
folded with ``multiset.fold_subsets`` over distinct partial sums, cutting
a branch as soon as a variable linear in that group would be hit twice.

The textual form writes the count 2 as ``^*`` (``^inf`` and any written
count above 1 are accepted on input), e.g. ``[x^*y, xz^*]_{x,y,z}``.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import product

from .multiset import EMPTY, Multiset, fold_subsets, format_group
from .shlin_omega import ShLinOmegaElement, injective_renaming, omega_element, same_interest
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
    "match2_opt",
    "match2",
    "project2",
    "rename2",
    "union2",
    "embed_cap2",
    "prop_abstraction2_check",
    "parse_two",
    "parse_two_group",
]

INF = float("inf")


class TooLarge(Exception):
    """Joint interest set exceeds the reference matcher's enumeration cap."""


def two_group(exps: Mapping[str, float] | Iterable[tuple[str, float]]) -> Multiset:
    """A 2-sharing group from exponents 1, 2 or ``INF`` (stored as 2)."""
    pairs = exps.items() if isinstance(exps, Mapping) else exps
    clean: dict[str, int] = {}
    for v, e in pairs:
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


@dataclass(frozen=True)
class ShLin2Element:
    """Downward-closed set of 2-sharing groups, stored as its maximals."""

    maximals: frozenset[Multiset]
    interest: frozenset[str]

    def is_bottom(self) -> bool:
        return not self.maximals

    def __str__(self) -> str:
        gs = sorted((g for g in self.maximals if g), key=Multiset.sort_key)
        if not gs and self.maximals:
            body = "0"
        else:
            body = ", ".join(format_group(g, star=True) for g in gs)
        vs = ", ".join(sorted(self.interest))
        return f"[{body}]_{{{vs}}}"

    def __repr__(self) -> str:
        groups = {format_group(g, star=True) for g in self.maximals}
        return f"ShLin2Element({groups!r}, {set(self.interest)!r})"


def two_element(groups: Iterable[Multiset], interest: Iterable[str]) -> ShLin2Element:
    u = frozenset(interest)
    gs = set(groups)
    for g in gs:
        if not g.support <= u:
            shown = format_group(g, star=True)
            raise ValueError(f"group {shown} not over interest set {sorted(u)}")
        if any(n > 2 for _, n in g.items()):
            raise ValueError(f"group {g} has a count above 2")
    if gs:
        gs.add(EMPTY)
    return ShLin2Element(antichain_max(gs), u)


def alpha2(e: ShLinOmegaElement) -> ShLin2Element:
    """Elementwise clipping followed by maximal-antichain normalization."""
    return two_element({b.clip(2) for b in e.groups}, e.interest)


def gamma2_contains(e: ShLin2Element, b: Multiset) -> bool:
    """Is the exact-multiplicity group ``b`` in the concretization of ``e``?"""
    return el2_contains(e, b.clip(2))


def el2_contains(e: ShLin2Element, o: Multiset) -> bool:
    """Is ``o`` below a maximal group: same support, exponents no larger?"""
    return any(o.support == m.support and o.leq(m) for m in e.maximals)


def leq2(e1: ShLin2Element, e2: ShLin2Element) -> bool:
    if e1.interest != e2.interest:
        return False
    return all(el2_contains(e2, m) for m in e1.maximals)


def match2_ref(e1: ShLin2Element, e2: ShLin2Element, cap: int = 10) -> ShLin2Element:
    """Literal set-level matching; enumerates all 3^|U| candidate groups."""
    u1, u2 = e1.interest, e2.interest
    u = u1 | u2
    if len(u) > cap:
        raise TooLarge(f"{len(u)} variables exceeds the cap of {cap}")
    t1_full = down_closure(e1.maximals)
    t2_full = down_closure(e2.maximals)
    if e1.maximals:
        t1_full.add(EMPTY)
    if e2.maximals:
        t2_full.add(EMPTY)
    t2_pass = {o for o in t2_full if not o.support & u1}
    t2_rest = t2_full - t2_pass

    # The star set {sum of X | X subseteq T'' union squares} has at most
    # 3^|U2| members, so it is folded one generator at a time instead of
    # enumerating the subsets themselves.
    generators = sorted(t2_rest | {oplus(o, o) for o in t2_rest}, key=Multiset.sort_key)
    star = {EMPTY}
    for g in generators:
        star |= {oplus(s, g) for s in star}

    out = set(t2_pass)
    names = sorted(u)
    for exps in product((0, 1, 2), repeat=len(names)):
        o = Multiset(zip(names, exps))
        if o.restrict(u1) in t1_full and o.restrict(u2) in star:
            out.add(o)
    return two_element(out, u)


def _wedge(o: Multiset, osum: Multiset, u1, u2) -> Multiset:
    exps: dict[str, int] = {}
    for v in o.support | osum.support:
        if v in u1 and v not in u2:
            e = o.count(v)
        elif v in u1 and v in u2:
            e = min(o.count(v), osum.count(v))
        else:
            e = osum.count(v)
        if e:
            exps[v] = e
    return Multiset._from_clean(exps)


def match2_opt_generators(t1, u1, t2, u2):
    """Maximal-antichain matching, keeping one generator per produced group.

    Returns (raw groups -> provenance) where provenance is either
    ("pass", o) for second-argument groups not touching u1, or
    ("gen", o1, X, Xbar) for the group built from o1 and the chosen subset X
    (Xbar being the part of X repeated twice). Used by the optimality
    witness builders; ``match2_opt`` keeps only the groups.

    For each o1 the subsets X of the second-argument groups that fit inside
    o1's support are folded by ``fold_subsets`` over the states (sum of X,
    sum of Xbar). A group of X whose shared part meets a variable linear in
    o1 that X already covers would make the linearized sum ``^*`` there;
    that only grows with X, so the branch is pruned. Of the subsets giving
    a group, the provenance names the smallest bitmask over the sorted
    second-argument groups.
    """
    u1, u2 = frozenset(u1), frozenset(u2)
    t2 = set(t2)
    t2_pass = {o for o in t2 if not o.support & u1}
    t2_rest = sorted(t2 - t2_pass, key=Multiset.sort_key)
    out: dict[Multiset, tuple] = {}
    for o in sorted(t2_pass, key=Multiset.sort_key):
        out.setdefault(o, ("pass", o))
    for o1 in sorted(t1, key=Multiset.sort_key):
        ones = frozenset(v for v, e in o1.items() if e == 1)
        cover = o1.support & u2

        def step(state, op):
            xsum, xbar = state
            if op.support & ones & xsum.support:
                return None
            # X-bar holds the groups whose shared variables are all
            # non-linear in o1
            return oplus(xsum, op), (xbar if op.support & ones else oplus(xbar, op))

        fits = {op: 1 for op in t2_rest if op.support & u1 <= o1.support}
        states = fold_subsets((EMPTY, EMPTY), fits, step)
        for state in states:
            xsum, xbar = state
            if xsum.support & u1 != cover:
                continue
            value = oplus(_wedge(o1, xsum, u1, u2), xbar)
            if value in out:
                continue
            x = []
            while states[state] is not None:
                state, op = states[state]
                x.append(op)
            x.reverse()
            out[value] = ("gen", o1, tuple(x), tuple(op for op in x if not op.support & ones))
    return out


def match2_opt(t1, u1, t2, u2) -> frozenset[Multiset]:
    """The maximal groups of the matching, computed without down-closures."""
    return antichain_max(match2_opt_generators(t1, u1, t2, u2))


def match2(e1: ShLin2Element, e2: ShLin2Element) -> ShLin2Element:
    """Element-level matching via the maximal-antichain algorithm."""
    # two_element keeps the maximal groups, as match2_opt would.
    return two_element(
        match2_opt_generators(e1.maximals, e1.interest, e2.maximals, e2.interest),
        e1.interest | e2.interest,
    )


def project2(e: ShLin2Element, variables: Iterable[str]) -> ShLin2Element:
    v = frozenset(variables)
    return two_element({g.restrict(v) for g in e.maximals}, e.interest & v)


def rename2(e: ShLin2Element, rho: Mapping[str, str]) -> ShLin2Element:
    relevant = injective_renaming(e, rho)
    groups = {
        Multiset({relevant[v]: n for v, n in g.items()}) for g in e.maximals
    }
    return two_element(groups, set(relevant.values()))


def union2(e1: ShLin2Element, e2: ShLin2Element) -> ShLin2Element:
    return two_element(e1.maximals | e2.maximals, same_interest(e1, e2))


def embed_cap2(e: ShLin2Element) -> ShLinOmegaElement:
    """Concretization with exponents capped at 2 (exact for clipping checks,
    since any multiplicity of at least 2 clips to 2)."""
    return omega_element(down_closure(e.maximals), e.interest)


def prop_abstraction2_check(b: Multiset, v: Iterable[str], xs: Iterable[Multiset]) -> bool:
    """Evaluate the four clipping laws on concrete inputs (test utility):
    support preservation, commutation with restriction, commutation with
    multiset sums, and squaring."""
    vs = frozenset(v)
    xs = list(xs)
    clause1 = b.support == b.clip(2).support
    clause2 = b.restrict(vs).clip(2) == b.clip(2).restrict(vs)
    total = EMPTY
    for x in xs:
        total = total + x
    lhs = total.clip(2)
    rhs = EMPTY
    for x in xs:
        rhs = oplus(rhs, x.clip(2))
    clause3 = lhs == rhs
    clause4 = (b + b).clip(2) == oplus(b.clip(2), b.clip(2))
    return clause1 and clause2 and clause3 and clause4


def _read_two_group(sc: Scanner) -> Multiset:
    """Written counts above 1 and repeated variables clip to 2."""
    exps: dict[str, int] = {}
    for v, n in sc.group(star=True):
        exps[v] = 2 if v in exps or n != 1 else 1
    return Multiset._from_clean(exps)


def parse_two_group(text: str) -> Multiset:
    return Scanner(text).whole(_read_two_group)


def parse_two(text: str) -> ShLin2Element:
    """Parse ``[x^*y, xz^*]_{x,y,z}``; the groups listed are the maximals."""
    sc = Scanner(text)
    sc.expect("[")
    groups = sc.sequence(_read_two_group, "]")
    return two_element(groups, sc.interest())
