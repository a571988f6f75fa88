"""Sharing groups with exact multiplicities and their matching operator.

An element ``[S]_U`` is a finite set of variable multisets (sharing groups)
over the interest set U. A group records, for one hidden existential
variable, how many times it occurs in the binding of each interest
variable. Nonempty elements always contain the empty group, which keeps
the abstraction map surjective; the element with no groups at all is the
bottom of the order (no substitution is approximated).

Matching joins each group of the first argument with every way the second
argument's groups can sum up to it on the shared variables; groups of the
second argument that do not touch the first interest set pass through
unchanged. The search over summand multisets is bounded: every usable
summand contributes at least one occurrence on the shared variables, so it
may repeat as often as it fits into the target. ``_sums`` packs each
summand in one pass over its counts and folds these bounded repetitions
over integers packed by a ``multiset.Layout``, keeping the distinct sums
off the shared variables grouped by what is left of the target, so each
summand is tested once per such vector (a ``multiset.fold_frontier`` over
(left, tail) states moves each tail alone, and measured slower). Each tail
that uses up a target is decoded once, into counts that are merged
straight into the first-argument groups over that target: their supports
are disjoint, so the merge is the multiset sum.
``star_decompose`` folds what is left of one group with ``fold_frontier``,
a field at the ceiling staying at zero once a summand overshoots it, and
reads the summands off the links back from nothing left.

Projection, renaming, union, ``extend``, ``join_disjoint``, ``clip`` and
``groups_of`` build through the element's own class, so they serve all
three domains and are defined here alone (``sharlin.domains`` lists them):
ShLin^2's element is this one with a ceiling of 2, and Sharing x Lin's
has that ceiling and uniform linearity. So does the forward binding rule
``amgu`` (folded by ``_bind``), an entry of every domain's record, which
saturates at the element's ceiling, or else at the analysis cap.
"""
from __future__ import annotations

from typing import Iterable, Mapping

from . import existential
from ._record import Record, setfield
from .existential import ExistentialSubstitution
from .multiset import EMPTY, Layout, Multiset, fold_frontier, format_group, random_groups
from .terms import Scanner, occurrences, preimages

__all__ = [
    "ShLinOmegaElement",
    "InterestMismatch",
    "omega_element",
    "alpha_omega",
    "leq_omega",
    "star_decompose",
    "match_omega",
    "project_omega",
    "rename_omega",
    "union_omega",
    "parse_omega",
]


class InterestMismatch(ValueError):
    """Operation requires equal interest sets."""


class ShLinOmegaElement(Record):
    """A set of sharing groups over an interest set; bottom has no groups.

    ``ceiling`` is the largest count a group may hold (``None``: exact); a
    count at the ceiling reads "that many or more" and prints as ``^*``.
    ``normalize`` picks the groups stored. Subclasses (``ShLin2Element``,
    ``ShLinElement``) set both, and elements of different classes never
    compare equal.
    """

    groups: frozenset[Multiset]
    interest: frozenset[str]
    ceiling = None
    normalize = staticmethod(frozenset)

    def __init__(self, groups: frozenset[Multiset], interest: frozenset[str]):
        setfield(self, "groups", groups)
        setfield(self, "interest", interest)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.groups == other.groups and self.interest == other.interest
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.groups, self.interest))

    @classmethod
    def of(cls, groups: Iterable[Multiset], interest: Iterable[str]):
        """Build an element, inserting the empty group into nonempty ones.
        The error names the first group in ``Multiset.sort_key`` order that
        is not over the interest set or has a count above the ceiling."""
        u = frozenset(interest)
        gs = set(groups)
        top = cls.ceiling
        for g in gs:
            if not g.support <= u or top and any(n > top for _, n in g.items()):
                for h in sorted(gs, key=Multiset.sort_key):
                    if not h.support <= u:
                        raise ValueError(
                            f"group {format_group(h, top)} not over interest set {sorted(u)}")
                    if top and any(n > top for _, n in h.items()):
                        raise ValueError(f"group {h} has a count above {top}")
        if gs:
            gs.add(EMPTY)
        return cls(cls.normalize(gs), u)

    def is_bottom(self) -> bool:
        return not self.groups

    def __str__(self) -> str:
        gs = sorted((g for g in self.groups if g), key=Multiset.sort_key)
        if not gs and self.groups:
            body = "0"  # only the empty group: success with everything ground
        else:
            body = ", ".join(format_group(g, self.ceiling) for g in gs)
        vs = ", ".join(sorted(self.interest))
        return f"[{body}]_{{{vs}}}"

    def __repr__(self) -> str:
        groups = {format_group(g, self.ceiling) for g in self.groups}
        return f"{type(self).__name__}({groups!r}, {set(self.interest)!r})"


omega_element = ShLinOmegaElement.of


def alpha_omega(c: ExistentialSubstitution) -> ShLinOmegaElement:
    """Best abstraction of a substitution class: all its restricted pre-images.

    Only variables occurring in the representative or in the interest set can
    yield a nonempty group; any other variable contributes the empty group,
    which the element carries anyway. The groups are ``terms.preimages``, one
    pass; the representative binds only interest variables, so none is cut.
    """
    groups = {Multiset._from_clean(counts) for counts in preimages(c.rep, c.interest).values()}
    groups.add(EMPTY)
    return ShLinOmegaElement(frozenset(groups), c.interest)


def leq_omega(e1: ShLinOmegaElement, e2: ShLinOmegaElement) -> bool:
    return e1.interest == e2.interest and e1.groups <= e2.groups


def star_decompose(
    x: Multiset, s: Iterable[Multiset], ceiling: int | None = None
) -> tuple[bool, tuple[tuple[Multiset, int], ...] | None]:
    """Is ``x`` a finite sum of groups from ``s``? Returns (answer, witness).

    A count of ``x`` at ``ceiling`` reads "that many or more": the sum may
    exceed it there, and must equal ``x`` elsewhere. The witness lists
    (group, repetition) pairs, distinct groups in ``Multiset.sort_key``
    order, so it does not depend on the order of ``s``; their sum clipped
    at the ceiling is ``x``. Empty groups are ignored. A state is what is
    left of ``x``, packed by a guarded ``Layout`` of its variables: taking
    a group away is a subtraction, a field at the ceiling taken below zero
    is left at zero, and the group fits when every other guard survives.
    ``fold_frontier`` takes each group up to the largest ⌈x(v)/n⌉ over its
    fields; the summands are read off the links back from nothing left.
    """
    w = max((n for _, n in x.items()), default=0).bit_length()
    lay = Layout.of(x.support, w, True)
    guards, start, low = lay.guards, lay.guards | lay.pack(x.items()), (1 << w) - 1
    sat = sum(1 << lay.offsets[v] + w for v, n in x.items() if n == ceiling)
    fits = {(lay.pack((v, min(n, x.count(v))) for v, n in g.items()), g):
            max(-(-x.count(v) // n) for v, n in g.items())
            for g in sorted({g for g in s if g and g.support <= x.support}, key=Multiset.sort_key)
            if all(n <= x.count(v) or x.count(v) == ceiling for v, n in g.items())}
    links = {start: None}

    def advance(frontier, part):
        reached = set()
        for left in frontier:
            r = left - part[0]
            if r & guards != guards:
                lost = guards & ~r
                if lost & ~sat:
                    continue
                r = r & ~((lost >> w) * low) | lost
            reached.add(r)
            links.setdefault(r, (left, part))
        return reached

    if guards not in fold_frontier(start, fits, advance):
        return False, None
    # the links from the goal take the parts in reverse fold order
    counts: dict[Multiset, int] = {}
    state = guards
    while links[state]:
        state, (_, g) = links[state]
        counts[g] = counts.get(g, 0) + 1
    return True, tuple(reversed(counts.items()))


def _sums(targets, groups, common):
    """Each nonempty target (a group over ``common``) that some multiset of
    ``groups``, which all meet ``common``, sums to on ``common``, with the
    distinct sums of those multisets off ``common`` (the tails).

    A guarded ``Layout`` of the targets' variables, its fields as wide as
    the largest target count, serves every target; an unguarded one of the
    other variables of ``groups`` packs the tails, wide enough for any
    tail, since every summand adds at least one to the target's mass. Each
    group is packed in one pass over its counts, into its part on
    ``common`` and its part off it; the pass drops the group at a count on
    ``common`` above every target's, or on a variable no target holds, as
    then it fits no target. A state is what is left of the target, guards
    set, and the tails that reach it; states are grouped by what is left,
    as whether a group fits depends on nothing else. Taking ``on`` from
    ``left`` leaves ``r = left - on``, and the group fits exactly when
    ``r`` keeps every guard. A group may repeat as often as it fits, and
    groups with equal ``on`` move together, each step adding any one of
    their tails. ``r`` is below ``left``, so walking the states from the
    top down, each tail set has received everything from above before it
    moves. Only the tails that use up a target are unpacked, each once,
    into a dict of counts off ``common``.
    """
    targets = [t for t in targets if t]
    if not targets or not groups:
        return
    top = max(n for t in targets for _, n in t.items())
    lay = Layout.of(frozenset().union(*(t.support for t in targets)), top.bit_length(), True)
    off_names, most = set(), 0
    for g in groups:
        for v, n in g.items():
            if v not in common:
                off_names.add(v)
                if n > most:
                    most = n
    tail = Layout.of(frozenset(off_names), (most * max(t.mass() for t in targets)).bit_length())
    pos, guards, off_pos = lay.offsets, lay.guards, tail.offsets
    parts: dict[int, set[int]] = {}
    for g in groups:
        on = off = 0
        for v, n in g.items():
            if (p := off_pos.get(v)) is not None:
                off += n << p
            elif n <= top and (p := pos.get(v)) is not None:
                on += n << p
            else:  # a shared count above ``top``, or on no target's variable
                break
        else:
            parts.setdefault(on, set()).add(off)
    for target in targets:
        start = guards | lay.pack(target.items())
        fitting = [(on, offs) for on, offs in parts.items() if (start - on) & guards == guards]
        if not fitting:
            continue
        states = {start: {0}}
        for on, offs in fitting:
            for left in sorted(states, reverse=True):
                r = left - on
                if r & guards != guards:
                    continue
                tails = states[left]
                while True:
                    moved = {t + off for t in tails for off in offs}
                    have = states.get(r)
                    if have is not None:  # it moves later in this walk
                        have |= moved
                        break
                    states[r] = tails = moved
                    r -= on
                    if r & guards != guards:
                        break
        if guards in states:
            yield target, list(map(tail.unpack, states[guards]))


def match_omega(e1: ShLinOmegaElement, e2: ShLinOmegaElement) -> ShLinOmegaElement:
    """Abstract matching: exact enumeration of the joinable group sums.

    Second-argument groups that do not touch the first interest set pass
    through. For each distinct shared part ``target`` of a first-argument
    group, ``_sums`` finds the multisets of the touching groups whose
    shared parts sum to the target; each such sum joins its part off the
    shared variables (its tail) onto every first-argument group over the
    target. The group lies over u1 and the tail off it, so merging their
    count dicts gives their sum. An empty target takes only the empty sum.
    """
    u1, u2 = e1.interest, e2.interest
    common = u1 & u2
    out, touching = set(), []
    for b in e2.groups:
        if b.support & u1:
            touching.append(b)
        else:
            out.add(b)
    by_target: dict[Multiset, list[Multiset]] = {}
    for b in e1.groups:
        by_target.setdefault(b.restrict(common), []).append(b)
    out.update(by_target.get(EMPTY, ()))
    for target, tails in _sums(by_target, touching, common):
        out.update(Multiset._from_clean(b._counts | tail)
                   for b in by_target[target] for tail in tails)
    return omega_element(out, u1 | u2)


def project_omega(e: ShLinOmegaElement, variables: Iterable[str]) -> ShLinOmegaElement:
    v = frozenset(variables)
    return e.of({g.restrict(v) for g in e.groups}, e.interest & v)


def rename_omega(e: ShLinOmegaElement, rho: Mapping[str, str]) -> ShLinOmegaElement:
    """Apply ``rho`` (the identity where it is silent), which must be
    injective on the interest set, to groups and interest set."""
    relevant = {v: rho.get(v, v) for v in e.interest}
    if len(set(relevant.values())) != len(relevant):
        raise ValueError("renaming is not injective on the interest set")
    return e.of({Multiset({relevant[v]: n for v, n in g.items()}) for g in e.groups},
                relevant.values())


def union_omega(e1: ShLinOmegaElement, e2: ShLinOmegaElement) -> ShLinOmegaElement:
    if e1.interest == e2.interest:
        return e1.of(e1.groups | e2.groups, e1.interest)
    raise InterestMismatch(f"interest sets differ: {sorted(e1.interest)} vs {sorted(e2.interest)}")


def extend(e, new_vars):
    """``e`` with fresh independent linear variables ``new_vars``."""
    return e.of(e.groups | {Multiset({v: 1}) for v in new_vars}, e.interest.union(new_vars))


def join_disjoint(e1, e2):
    """The union of two elements over disjoint interest sets."""
    return e1.of(e1.groups | e2.groups, e1.interest | e2.interest)


def clip(e, cap: int):
    """Saturate counts at the analysis cap, unless the element has a
    ceiling of its own: the library operators are exact."""
    return e if e.ceiling else e.of({g.clip(cap) for g in e.groups}, e.interest)


def groups_of(e) -> set[str]:
    """Canonical textual group set, for precision diffs."""
    return {format_group(g, e.ceiling) for g in e.groups if g}


def parse_omega(text: str) -> ShLinOmegaElement:
    """Parse ``[x^2, xz]_{x,y,z}``; ``[]_{...}`` is bottom, ``[0]_{...}`` the
    element with only the empty group."""
    sc = Scanner(text)
    sc.expect("[")
    groups = [Multiset(g) for g in sc.sequence(Scanner.group, "]")]
    return omega_element(groups, sc.interest())


# --- the domain record (see ``sharlin.domains``) ------------------------------

above = existential
parse, leq, match, alpha = parse_omega, leq_omega, match_omega, alpha_omega


def gen(rng, variables, cap: int) -> ShLinOmegaElement:
    groups = random_groups(rng, variables, lambda: rng.randint(1, cap))
    return omega_element(set(map(Multiset, groups)), variables)


def bottom(interest) -> ShLinOmegaElement:
    return ShLinOmegaElement(frozenset(), frozenset(interest))


def amgu(e, var, term, cap: int, drop=frozenset()):
    """Bind ``var`` to ``term``, projecting ``drop``, variables of the
    binding, away; an element's own ceiling overrides the analysis cap."""
    return e.of(_bind(e.groups, var, term, e.ceiling or cap, drop), e.interest - drop)


def _bind(groups, var, term, ceiling, drop=frozenset()):
    """The sharing groups after binding ``var`` to ``term``: the groups
    that touch neither side, and the joins that replace the others, with
    counts saturated at ``ceiling`` (at least 1) and the variables in
    ``drop`` projected away. Only variables of the binding may be dropped:
    no group that touches neither side holds one, so leaving them out of
    the joins is the same as projecting afterwards.

    The binding is linear when ``var`` is not in the term, the term is
    linear, no group holds ``var`` or a term variable more than once, and
    no group holds two term variables; then relevant groups are joined
    pairwise. Otherwise the joins are the sums of relevant groups that meet
    both sides (a shared group covers both), each group repeated up to
    ``ceiling`` times, beyond which sums saturate. The rule is not sound
    yet: the linear join reaches only chains of two groups, even when a
    group holds both ``var`` and a term variable. In ``two``,
    ``[vw, wy, y]`` bound by ``w/y`` answers ``[vw^*y, w^*y^*]``, but a
    concrete instance abstracts to ``[vw^*y^*]``.

    One walk over the groups and their counts sorts them into those that
    hold ``var``, those that hold a term variable and the rest, and makes
    the group half of the linearity test.

    The sums are folded as count vectors packed by a guarded ``Layout`` of
    the relevant variables, so a step adds two integers; it sets every
    field that went over to the ceiling (a SWAR saturating add), so only
    the pairwise joins need clipping. ``fold_frontier`` adds each group to
    a whole frontier of sums at a time, and only the sums that touch both
    sides are unpacked into groups.
    """
    names = occurrences(term)
    tvars = frozenset(names)
    linear = var not in tvars and len(names) == len(tvars)
    rx, rt, rest = set(), set(), set()
    for g in groups:
        nx, nt, ts = 0, 0, 0  # the count of var, the count and number of term variables
        for v, n in g.items():
            if v == var:
                nx = n
            if v in tvars:
                nt, ts = n, ts + 1
        if nx:
            rx.add(g)
        if ts:
            rt.add(g)
        elif not nx:
            rest.add(g)
        if nx > 1 or nt > 1 or ts > 1:
            linear = False
    if not rt:  # a ground term, or one whose variables are all ground
        return rest
    if linear:
        # a group on both sides can also survive unchanged: the same
        # existential variable may align with itself
        cut = {g: g.restrict(g.support - drop) if g.support & drop else g for g in rx | rt}
        joins = {cut[gx] + cut[gt] for gx in rx for gt in rt} | {cut[g] for g in rx & rt}
        return rest | {g.clip(ceiling) for g in joins}
    relevant = sorted(rx | rt, key=Multiset.sort_key)
    # a field holds at most the ceiling and the sum of two fits up to its
    # guard bit; lifting a field by 2^w - 1 - ceiling sets that bit exactly
    # when it is over, and then the field, guard bit too, is set to ceiling
    w = ceiling.bit_length()
    lay = Layout.of(frozenset().union(*(g.support for g in relevant)), w, True)
    lift, guard, field = lay.ones * ((1 << w) - 1 - ceiling), lay.guards, (2 << w) - 1
    # min(s + g, c) = min(s + min(g, c), c), so counts are clipped to fit
    # the fields; groups that clip alike merge, which loses no sum, as
    # ``ceiling`` repeats of a group already saturate each of its fields
    packed = dict.fromkeys((lay.pack((v, min(n, ceiling)) for v, n in g.items())
                            for g in relevant), ceiling)

    def saturated(frontier, g):
        return {(x & ~(o * field)) | o * ceiling for s in frontier
                for x in (s + g,) for o in (((x + lift) & guard) >> w,)}

    sums = fold_frontier(0, packed, saturated)
    tmask, xmask, keep = lay.mask(tvars), lay.mask((var,)), ~lay.mask(drop)
    return rest | {Multiset._from_clean(lay.unpack(s & keep))
                   for s in sums if s & xmask and s & tmask}
