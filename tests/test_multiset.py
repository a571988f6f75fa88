import itertools
import random

import pytest

from sharlin.multiset import (
    EMPTY,
    Layout,
    Multiset,
    fold_frontier,
    format_group,
    parse_group,
)


def test_sum_pointwise():
    assert parse_group("a^3c^5") + parse_group("ab^2") == parse_group("a^4b^2c^5")


def test_sum_identity():
    assert EMPTY + parse_group("x^2") == parse_group("x^2")


def test_sum_of_preimage_groups():
    # uvxz^2 rewritten through {v/a, w/s(x,x)}: u + empty + xw^2 + z + z
    parts = [parse_group("u"), EMPTY, parse_group("xw^2"), parse_group("z"), parse_group("z")]
    total = EMPTY
    for p in parts:
        total = total + p
    assert total == parse_group("uw^2xz^2")


def test_restrict_full_support():
    g = parse_group("uvxz^2")
    assert g.restrict({"u", "v", "x", "z"}) == g


def test_restrict_returns_itself_when_nothing_is_dropped():
    g = parse_group("uvxz^2")
    assert g.restrict({"u", "v", "w", "x", "z"}) is g
    assert g.restrict(frozenset("uvxz")) is g
    assert EMPTY.restrict(set()) is EMPTY
    assert g.restrict({"u", "v", "x"}) == parse_group("uvx")


def test_restrict_empty():
    assert parse_group("x^2y").restrict(set()) == EMPTY


def test_restrict_drops_variables():
    assert parse_group("uvxz^2").restrict({"w", "x", "y", "z"}) == parse_group("xz^2")


def test_support():
    assert parse_group("a^3b^2c").support == {"a", "b", "c"}
    assert EMPTY.support == frozenset()
    assert parse_group("x^2y").support == {"x", "y"}


def test_zero_counts_never_stored():
    m = Multiset({"x": 2, "y": 0})
    assert m.items() == (("x", 2),)
    with pytest.raises(ValueError):
        Multiset({"x": -1})
    with pytest.raises(TypeError):
        Multiset({"x": 1.5})


def test_format_and_parse_round_trip():
    for text in ("0", "w", "x^2y", "uvxz^2", "w1w2^3x"):
        assert format_group(parse_group(text)) == text
    assert str(EMPTY) == "0"
    with pytest.raises(ValueError):
        parse_group("x^0")
    with pytest.raises(ValueError):
        parse_group("x+y")


def _random_multiset(rng):
    return Multiset({v: rng.randint(1, 4) for v in rng.sample("uvwxyz", rng.randint(0, 4))})


def test_algebraic_properties():
    rng = random.Random(7)
    for _ in range(500):
        a, b, c = (_random_multiset(rng) for _ in range(3))
        xs = set(rng.sample("uvwxyz", rng.randint(0, 5)))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + EMPTY == a
        assert (a + b).restrict(xs) == a.restrict(xs) + b.restrict(xs)
        assert (a + b).support == a.support | b.support


def test_mass_and_scale():
    g = parse_group("x^2y")
    assert g.mass() == 3
    assert g.scale(3) == parse_group("x^6y^3")
    assert g.scale(0) == EMPTY
    big = Multiset({"x": 2**40})
    assert (big + big).count("x") == 2**41  # arbitrary precision, no wrap


def _random_layouts(seed):
    # the variables, field width and guard of a layout, and counts that fit
    rng = random.Random(seed)
    for _ in range(300):
        names = rng.sample("uvwxyz", rng.randint(0, 6))
        width, guard = rng.randint(1, 4), rng.random() < 0.5
        yield rng, names, width, guard, {v: rng.randint(0, (1 << width) - 1) for v in names}


def test_layout_pack_then_unpack_round_trips():
    for _, names, width, guard, counts in _random_layouts(59):
        lay = Layout(names, width, guard)
        assert lay.unpack(lay.pack(counts.items())) == {
            v: n for v, n in sorted(counts.items()) if n}
        assert list(lay.unpack(lay.pack(counts.items()))) == sorted(v for v in names if counts[v])
        assert lay.ones == lay.pack((v, 1) for v in names)


def test_layout_mask_covers_exactly_the_named_fields():
    # names outside the layout have no field to cover
    for rng, names, width, guard, counts in _random_layouts(61):
        lay = Layout(names, width, guard)
        named = rng.sample(names, rng.randint(0, len(names)))
        top = (1 << width) - 1
        assert lay.mask(named + ["q"]) == lay.pack((v, top) for v in named)
        assert lay.unpack(lay.pack(counts.items()) & lay.mask(named)) == {
            v: n for v, n in sorted(counts.items()) if n and v in named}


def test_layout_guards_sit_above_each_field():
    # a guarded vector minus one that it covers keeps every guard, and
    # minus one that it does not cover loses one
    for rng, names, width, guard, counts in _random_layouts(67):
        lay = Layout(names, width, guard)
        if not guard:
            assert lay.guards == 0
            continue
        assert lay.guards == lay.pack((v, 1 << width) for v in names)
        assert lay.guards & lay.mask(names) == 0
        taken = {v: rng.randint(0, (1 << width) - 1) for v in names}
        left = (lay.guards | lay.pack(counts.items())) - lay.pack(taken.items())
        covers = all(taken[v] <= counts[v] for v in names)
        assert (left & lay.guards == lay.guards) == covers
        if covers:
            assert lay.unpack(left) == {
                v: n - taken[v] for v, n in sorted(counts.items()) if n > taken[v]}


def test_layouts_of_the_same_variables_pack_alike():
    for rng, names, width, guard, counts in _random_layouts(71):
        lay, other = Layout(names, width, guard), Layout(set(names), width, guard)
        assert list(other.offsets) == sorted(names)
        assert other.offsets == lay.offsets and other.fields == lay.fields
        pairs = list(counts.items())
        assert other.pack(rng.sample(pairs, len(pairs))) == lay.pack(pairs)


def test_fold_frontier_reaches_every_subset_sum():
    # a state is the sum of a subset, pruned above a limit; the reference
    # walks every bitmask
    rng = random.Random(47)
    for _ in range(200):
        gens = list(enumerate(rng.randint(1, 5) for _ in range(rng.randint(0, 7))))
        limit = rng.randint(0, 15)
        states = fold_frontier(
            0, dict.fromkeys(gens, 1),
            lambda f, g: {s + g[1] for s in f if s + g[1] <= limit},
        )
        expected = set()
        for mask in range(1 << len(gens)):
            total = sum(n for i, n in gens if mask >> i & 1)
            if total <= limit:
                expected.add(total)
        assert states == expected


def test_fold_frontier_repeats_each_generator_up_to_its_bound():
    # a state is a pair of sums over generators taken up to their bounds:
    # the first pruned above a limit, the second saturating at a cap, so
    # that repeats can meet states of other chains; the reference walks
    # every count vector. The links ``advance`` records walk back to the
    # start through real steps, each generator within its bound
    rng = random.Random(53)
    for _ in range(300):
        gens = {
            (i, rng.randint(1, 4), rng.randint(0, 3)): rng.randint(0, 4)
            for i in range(rng.randint(0, 5))
        }
        limit, cap = rng.randint(0, 20), rng.randint(1, 6)

        def step(s, g):
            return (s[0] + g[1], min(s[1] + g[2], cap)) if s[0] + g[1] <= limit else None

        links = {(0, 0): None}

        def advance(frontier, g):
            reached = set()
            for s in frontier:
                t = step(s, g)
                if t is not None:
                    reached.add(t)
                    links.setdefault(t, (s, g))
            return reached

        states = fold_frontier((0, 0), gens, advance)
        expected = set()
        for counts in itertools.product(*(range(bound + 1) for bound in gens.values())):
            total = sum(n * g[1] for n, g in zip(counts, gens))
            if total <= limit:
                expected.add((total, min(sum(n * g[2] for n, g in zip(counts, gens)), cap)))
        assert states == expected
        assert set(links) == states
        order = list(links)
        for state in states:
            taken = dict.fromkeys(gens, 0)
            while links[state] is not None:
                prev, g = links[state]
                assert step(prev, g) == state
                assert order.index(prev) < order.index(state)
                taken[g] += 1
                state = prev
            assert state == (0, 0)
            assert all(taken[g] <= bound for g, bound in gens.items())
