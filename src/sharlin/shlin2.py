"""2-sharing groups: multiplicities clipped to {0, 1, infinity}.

A 2-sharing group records, per variable, whether a hidden existential
variable occurs never, exactly once, or possibly more than once. Groups
with equal support are ordered by pointwise exponent comparison, elements
are downward-closed sets of groups, and an element is represented by its
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

The textual form writes infinity as ``^*`` (``^inf`` accepted on input),
e.g. ``[x^*y, xz^*]_{x,y,z}``.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import product

from .multiset import EMPTY, Multiset, fold_subsets
from .shlin_omega import ShLinOmegaElement, injective_renaming, omega_element, same_interest
from .terms import Scanner

__all__ = [
    "INF",
    "TwoSharingGroup",
    "ShLin2Element",
    "EMPTY2",
    "TooLarge",
    "two_group",
    "alpha2_group",
    "oplus",
    "square",
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


class TwoSharingGroup:
    """Map from variables to exponents 1 or INF; absent means 0.

    ``items`` is sorted by variable and must not be reassigned; the hash is
    computed once and the support on first use.
    """

    __slots__ = ("items", "_hash", "_support")

    def __init__(self, items: tuple[tuple[str, float], ...]):
        self.items = items
        self._hash = hash(items)
        self._support: frozenset[str] | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoSharingGroup) and self.items == other.items

    def __hash__(self) -> int:
        return self._hash

    def exp(self, var: str) -> float:
        for v, e in self.items:
            if v == var:
                return e
        return 0

    @property
    def support(self) -> frozenset[str]:
        if self._support is None:
            self._support = frozenset(v for v, _ in self.items)
        return self._support

    def restrict(self, variables) -> "TwoSharingGroup":
        return TwoSharingGroup(tuple((v, e) for v, e in self.items if v in variables))

    def leq(self, other: "TwoSharingGroup") -> bool:
        """Same support and pointwise exponent order."""
        if len(self.items) != len(other.items):
            return False
        return all(v == w and e <= f for (v, e), (w, f) in zip(self.items, other.items))

    def sort_key(self):
        return (tuple(v for v, _ in self.items), self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def __str__(self) -> str:
        if not self.items:
            return "0"
        return "".join(v if e == 1 else f"{v}^*" for v, e in self.items)

    def __repr__(self) -> str:
        return f"TwoSharingGroup({str(self)!r})"


def two_group(exps: Mapping[str, float] | Iterable[tuple[str, float]]) -> TwoSharingGroup:
    pairs = exps.items() if isinstance(exps, Mapping) else exps
    clean: dict[str, float] = {}
    for v, e in pairs:
        if e == 0:
            continue
        if e not in (1, INF):
            raise ValueError(f"exponent for {v!r} must be 1 or INF")
        clean[v] = max(clean.get(v, 0), e)
    return TwoSharingGroup(tuple(sorted(clean.items())))


EMPTY2 = TwoSharingGroup(())


def alpha2_group(b: Multiset) -> TwoSharingGroup:
    """Clip exact multiplicities: 1 stays, anything larger becomes INF."""
    return TwoSharingGroup(
        tuple((v, 1 if n == 1 else INF) for v, n in b.items())
    )


def _add(e: float, f: float) -> float:
    if e == 0:
        return f
    if f == 0:
        return e
    return INF


def oplus(o: TwoSharingGroup, p: TwoSharingGroup) -> TwoSharingGroup:
    """Pointwise saturating sum: 1 + 1 and anything + INF give INF."""
    if not o.items:
        return p
    if not p.items:
        return o
    exps: dict[str, float] = dict(o.items)
    for v, e in p.items:
        exps[v] = _add(exps.get(v, 0), e)
    return TwoSharingGroup(tuple(sorted(exps.items())))


def square(o: TwoSharingGroup) -> TwoSharingGroup:
    """Delinearization: the group summed with itself."""
    return TwoSharingGroup(tuple((v, INF) for v, _ in o.items))


def antichain_max(groups: Iterable[TwoSharingGroup]) -> frozenset[TwoSharingGroup]:
    """Maximal elements; groups equal under the order are deduplicated."""
    # Only groups over the same variables are comparable.
    buckets: dict[frozenset[str], list[TwoSharingGroup]] = {}
    for g in set(groups):
        buckets.setdefault(g.support, []).append(g)
    out: list[TwoSharingGroup] = []
    for bucket in buckets.values():
        if len(bucket) == 1:
            out.append(bucket[0])
        else:
            out.extend(g for g in bucket if not any(g is not h and g.leq(h) for h in bucket))
    return frozenset(out)


def down_closure(groups: Iterable[TwoSharingGroup]) -> set[TwoSharingGroup]:
    """All groups below some given group (same support, lowered exponents)."""
    out: set[TwoSharingGroup] = set()
    for g in groups:
        fixed = [(v, e) for v, e in g.items if e == 1]
        wide = [v for v, e in g.items if e == INF]
        for choice in product((1, INF), repeat=len(wide)):
            out.add(two_group(dict(fixed) | dict(zip(wide, choice))))
    return out


@dataclass(frozen=True)
class ShLin2Element:
    """Downward-closed set of 2-sharing groups, stored as its maximals."""

    maximals: frozenset[TwoSharingGroup]
    interest: frozenset[str]

    def is_bottom(self) -> bool:
        return not self.maximals

    def __str__(self) -> str:
        gs = sorted((g for g in self.maximals if g), key=TwoSharingGroup.sort_key)
        if not gs and self.maximals:
            body = "0"
        else:
            body = ", ".join(str(g) for g in gs)
        vs = ", ".join(sorted(self.interest))
        return f"[{body}]_{{{vs}}}"

    def __repr__(self) -> str:
        return f"ShLin2Element({set(map(str, self.maximals))!r}, {set(self.interest)!r})"


def two_element(groups: Iterable[TwoSharingGroup], interest: Iterable[str]) -> ShLin2Element:
    u = frozenset(interest)
    gs = set(groups)
    for g in gs:
        if not g.support <= u:
            raise ValueError(f"group {g} not over interest set {sorted(u)}")
    if gs:
        gs.add(EMPTY2)
    return ShLin2Element(antichain_max(gs), u)


def alpha2(e: ShLinOmegaElement) -> ShLin2Element:
    """Elementwise clipping followed by maximal-antichain normalization."""
    return two_element({alpha2_group(b) for b in e.groups}, e.interest)


def gamma2_contains(e: ShLin2Element, b: Multiset) -> bool:
    """Is the exact-multiplicity group ``b`` in the concretization of ``e``?"""
    return el2_contains(e, alpha2_group(b))


def el2_contains(e: ShLin2Element, o: TwoSharingGroup) -> bool:
    return any(o.leq(m) for m in e.maximals)


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
        t1_full.add(EMPTY2)
    if e2.maximals:
        t2_full.add(EMPTY2)
    t2_pass = {o for o in t2_full if not o.support & u1}
    t2_rest = t2_full - t2_pass

    # The star set {sum of X | X subseteq T'' union squares} has at most
    # 3^|U2| members, so it is folded one generator at a time instead of
    # enumerating the subsets themselves.
    generators = sorted(t2_rest | {square(o) for o in t2_rest}, key=TwoSharingGroup.sort_key)
    star = {EMPTY2}
    for g in generators:
        star |= {oplus(s, g) for s in star}

    out = set(t2_pass)
    names = sorted(u)
    for exps in product((0, 1, INF), repeat=len(names)):
        o = two_group({v: e for v, e in zip(names, exps) if e})
        if o.restrict(u1) in t1_full and o.restrict(u2) in star:
            out.add(o)
    return two_element(out, u)


def _wedge(o: TwoSharingGroup, osum: TwoSharingGroup, u1, u2) -> TwoSharingGroup:
    exps: dict[str, float] = {}
    for v in o.support | osum.support:
        if v in u1 and v not in u2:
            e = o.exp(v)
        elif v in u1 and v in u2:
            e = min(o.exp(v), osum.exp(v))
        else:
            e = osum.exp(v)
        if e:
            exps[v] = e
    return two_group(exps)


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
    o1 that X already covers would make the linearized sum infinite there;
    that only grows with X, so the branch is pruned. Of the subsets giving
    a group, the provenance names the smallest bitmask over the sorted
    second-argument groups.
    """
    u1, u2 = frozenset(u1), frozenset(u2)
    t2 = set(t2)
    t2_pass = {o for o in t2 if not o.support & u1}
    t2_rest = sorted(t2 - t2_pass, key=TwoSharingGroup.sort_key)
    out: dict[TwoSharingGroup, tuple] = {}
    for o in sorted(t2_pass, key=TwoSharingGroup.sort_key):
        out.setdefault(o, ("pass", o))
    for o1 in sorted(t1, key=TwoSharingGroup.sort_key):
        ones = frozenset(v for v, e in o1.items if e == 1)
        cover = o1.support & u2

        def step(state, op):
            xsum, xbar = state
            if op.support & ones & xsum.support:
                return None
            # X-bar holds the groups whose shared variables are all
            # infinite in o1
            return oplus(xsum, op), (xbar if op.support & ones else oplus(xbar, op))

        fits = {op: 1 for op in t2_rest if op.support & u1 <= o1.support}
        states = fold_subsets((EMPTY2, EMPTY2), fits, step)
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


def match2_opt(t1, u1, t2, u2) -> frozenset[TwoSharingGroup]:
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
        two_group({relevant[v]: x for v, x in g.items}) for g in e.maximals
    }
    return two_element(groups, set(relevant.values()))


def union2(e1: ShLin2Element, e2: ShLin2Element) -> ShLin2Element:
    return two_element(e1.maximals | e2.maximals, same_interest(e1, e2))


def embed_cap2(e: ShLin2Element) -> ShLinOmegaElement:
    """Concretization with exponents capped at 2 (exact for clipping checks,
    since any multiplicity of at least 2 clips to infinity)."""
    groups = {
        Multiset({v: 1 if x == 1 else 2 for v, x in g.items})
        for g in down_closure(e.maximals)
    }
    if e.maximals:
        groups.add(EMPTY)
    return omega_element(groups, e.interest)


def prop_abstraction2_check(b: Multiset, v: Iterable[str], xs: Iterable[Multiset]) -> bool:
    """Evaluate the four clipping laws on concrete inputs (test utility):
    support preservation, commutation with restriction, commutation with
    multiset sums, and squaring."""
    vs = frozenset(v)
    xs = list(xs)
    clause1 = b.support == alpha2_group(b).support
    clause2 = alpha2_group(b.restrict(vs)) == alpha2_group(b).restrict(vs)
    total = EMPTY
    for x in xs:
        total = total + x
    lhs = alpha2_group(total)
    rhs = EMPTY2
    for x in xs:
        rhs = oplus(rhs, alpha2_group(x))
    clause3 = lhs == rhs
    clause4 = alpha2_group(b + b) == square(alpha2_group(b))
    return clause1 and clause2 and clause3 and clause4


def _read_two_group(sc: Scanner) -> TwoSharingGroup:
    """Written counts above 1 and repeated variables clip to INF."""
    exps: dict[str, float] = {}
    for v, n in sc.group(star=True):
        exps[v] = INF if v in exps or n != 1 else 1
    return two_group(exps)


def parse_two_group(text: str) -> TwoSharingGroup:
    return Scanner(text).whole(_read_two_group)


def parse_two(text: str) -> ShLin2Element:
    """Parse ``[x^*y, xz^*]_{x,y,z}``; the groups listed are the maximals."""
    sc = Scanner(text)
    sc.expect("[")
    groups = sc.sequence(_read_two_group, "]")
    return two_element(groups, sc.interest())
