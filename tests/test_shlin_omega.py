import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sharlin.existential import canonicalize, ematch
from sharlin.multiset import EMPTY, Multiset, parse_group
from sharlin.shlin2 import alpha2, match2, match2_ref
from sharlin.shlin_omega import (
    InterestMismatch,
    alpha_omega,
    leq_omega,
    match_omega,
    omega_element,
    parse_omega,
    project_omega,
    rename_omega,
    star_decompose,
    union_omega,
)
from sharlin.terms import EPSILON, ParseError, parse_substitution


def _class(text, u):
    return canonicalize(parse_substitution(text), u)


EX2 = _class("{x/s(y,u,y), z/s(u,u), v/u}", {"w", "x", "y", "z"})
EX3_T1 = _class("{x/r(w1,w2,w2,w3,w3), y/a, z/r(w1)}", {"x", "y", "z"})
EX3_T2 = _class("{x/r(w4,w5,w6,w8,w8), u/r(w4,w7), v/r(w7,w8)}", {"u", "v", "x"})


def test_alpha_examples():
    assert alpha_omega(EX2) == parse_omega("[x^2y, xz^2, w]_{w,x,y,z}")
    assert alpha_omega(EX3_T1) == parse_omega("[x^2, xz]_{x,y,z}")
    free = canonicalize(EPSILON, {"x"})
    assert alpha_omega(free) == parse_omega("[x]_{x}")


def test_leq():
    assert leq_omega(parse_omega("[x]_{x}"), parse_omega("[x, x^2]_{x}"))
    assert not leq_omega(parse_omega("[x]_{x}"), parse_omega("[x]_{x,y}"))
    concrete = ematch(EX3_T1, EX3_T2)
    abstract = match_omega(alpha_omega(EX3_T1), alpha_omega(EX3_T2))
    assert leq_omega(alpha_omega(concrete), abstract)


def test_approx():
    # e approximates c when alpha(c) lies below it
    assert leq_omega(alpha_omega(EX2), parse_omega("[x^2y, xz^2, w]_{w,x,y,z}"))
    assert leq_omega(alpha_omega(_class("{x/a}", {"x"})), parse_omega("[x]_{x}"))
    assert not leq_omega(alpha_omega(canonicalize(EPSILON, {"w", "x"})), parse_omega("[w]_{w,x}"))


def test_star_decompose():
    s = [parse_group("ux"), parse_group("vx^2"), parse_group("x")]
    ok, witness = star_decompose(parse_group("u^2x^2"), s)
    assert ok and dict(witness) == {parse_group("ux"): 2}
    ok, witness = star_decompose(EMPTY, s)
    assert ok and witness == ()
    ok, witness = star_decompose(parse_group("ux^3"), s)
    assert ok and dict(witness) == {parse_group("ux"): 1, parse_group("x"): 2}
    ok, witness = star_decompose(parse_group("u"), s)
    assert not ok and witness is None


def test_star_decompose_randomized_against_count_vectors():
    rng = random.Random(20)
    outcomes = []
    for _ in range(400):
        s = [Multiset({v: rng.randint(0, 2) for v in "uvx"}) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.5:
            x = sum((g.scale(rng.randint(0, 2)) for g in s), EMPTY)
        else:
            x = Multiset({v: rng.randint(0, 4) for v in "uvx"})
        groups = sorted({g for g in s if g}, key=Multiset.sort_key)
        tops = [min(x.count(v) // n for v, n in g.items()) for g in groups]
        expected = any(
            sum((g.scale(k) for g, k in zip(groups, ks)), EMPTY) == x
            for ks in product(*(range(t + 1) for t in tops))
        )
        ok, witness = star_decompose(x, s)
        assert ok == expected
        outcomes.append(ok)
        if ok:
            assert sum((g.scale(k) for g, k in witness), EMPTY) == x
            used = [g for g, _ in witness]
            assert used == sorted(set(used), key=Multiset.sort_key)
            assert set(used) <= set(groups) and all(k >= 1 for _, k in witness)
        else:
            assert witness is None
        rng.shuffle(s)
        assert star_decompose(x, s) == (ok, witness)
    assert 100 < sum(outcomes) < 300


def test_star_decompose_at_a_ceiling():
    """A count at the ceiling reads "that many or more": the sum may pass
    it there, and a group may repeat until its every field is used up."""
    xy, x2 = parse_group("xy"), parse_group("x^2")
    ok, witness = star_decompose(parse_group("x^2y"), [xy, x2], 2)
    assert ok and dict(witness) == {x2: 1, xy: 1}
    assert star_decompose(parse_group("x^2y"), [xy, x2]) == (False, None)
    assert star_decompose(parse_group("x^2y^2"), [xy], 2) == (True, ((xy, 2),))
    u2v = parse_group("u^2v")
    assert star_decompose(parse_group("u^2v^2"), [u2v], 2) == (True, ((u2v, 2),))
    assert star_decompose(parse_group("xy"), [parse_group("x^2y")], 2) == (False, None)


def test_star_decompose_at_ceiling_2_against_repetition_vectors():
    rng = random.Random(7)
    names = "uvxy"
    found = overshoot = 0
    for _ in range(4000):
        x = Multiset({v: rng.randint(1, 2) for v in rng.sample(names, rng.randint(1, 4))})
        s = [Multiset({v: rng.randint(1, 2) for v in rng.sample(names, rng.randint(1, 4))})
             for _ in range(rng.randint(1, 4))]
        vecs = [tuple(g.count(v) for v in names) for g in s]
        want = tuple(x.count(v) for v in names)
        expected = any(
            all(n >= 2 if w == 2 else n == w
                for w, n in zip(want, (sum(k * g[i] for k, g in zip(ks, vecs))
                                       for i in range(len(names)))))
            for ks in product(range(4), repeat=len(s))
        )
        ok, witness = star_decompose(x, s, 2)
        assert ok == expected, (x, s)
        if ok:
            assert sum((g.scale(k) for g, k in witness), EMPTY).clip(2) == x
            assert {g for g, _ in witness} <= set(s) and all(k >= 1 for _, k in witness)
        else:
            assert witness is None
        found += ok
        overshoot += ok and not star_decompose(x, s)[0]
    assert 250 < found < 450 and overshoot > 50


def test_match_worked_example():
    r = match_omega(parse_omega("[x^2, xz]_{x,y,z}"), parse_omega("[uv, ux, vx^2, x]_{u,v,x}"))
    assert r == parse_omega("[uv, uxz, xz, u^2x^2, ux^2, vx^2, x^2]_{u,v,x,y,z}")
    # groups of the concrete match abstraction are all in there
    assert leq_omega(parse_omega("[uv, uxz, vx^2, x^2]_{u,v,x,y,z}"), r)


def test_match_bottom_first_argument_passes_groups_through():
    e2 = parse_omega("[uv, ux]_{u,v,x}")
    r = match_omega(omega_element((), {"x", "y"}), e2)
    assert r == parse_omega("[uv]_{u,v,x,y}")


def test_match_additive_in_first_argument():
    rng = random.Random(3)
    for _ in range(100):
        e1 = _random_element(rng, frozenset("xyz"))
        e2 = _random_element(rng, frozenset("uvx"))
        whole = match_omega(e1, e2)
        parts = omega_element((), e1.interest | e2.interest)
        for b in e1.groups:
            single = omega_element({b}, e1.interest)
            parts = union_omega(parts, match_omega(single, e2))
        if e1.groups:
            assert parts == whole
        else:
            assert whole == match_omega(e1, e2)


def test_match_output_restriction_and_pass_through():
    rng = random.Random(9)
    for _ in range(150):
        e1 = _random_element(rng, frozenset("wxyz"))
        e2 = _random_element(rng, frozenset("uvx"))
        r = match_omega(e1, e2)
        pass_through = {b for b in e2.groups if not b.support & e1.interest}
        assert pass_through <= r.groups
        for x in r.groups:
            if x in pass_through:
                continue
            assert x.restrict(e1.interest) in e1.groups


def test_project():
    assert project_omega(parse_omega("[uvx, vwz]_{u,v,w,x,z}"), {"u", "v", "w"}) == parse_omega(
        "[uv, vw]_{u,v,w}"
    )
    e = parse_omega("[x^2y]_{x,y}")
    assert project_omega(e, e.interest) == e
    assert project_omega(e, set()) == parse_omega("[0]_{}")


def test_rename_and_union():
    assert rename_omega(parse_omega("[xz]_{x,z}"), {"x": "u", "z": "w"}) == parse_omega(
        "[uw]_{u,w}"
    )
    assert union_omega(parse_omega("[x]_{x}"), parse_omega("[x^2]_{x}")) == parse_omega(
        "[x, x^2]_{x}"
    )
    with pytest.raises(InterestMismatch):
        union_omega(parse_omega("[x]_{x}"), parse_omega("[y]_{y}"))
    with pytest.raises(ValueError):
        rename_omega(parse_omega("[x, y]_{x,y}"), {"x": "y"})


def test_renaming_must_be_injective_in_every_domain():
    from sharlin.shlin2 import parse_two
    from sharlin.shlin_sl import parse_sl

    for rename, e in (
        (rename_omega, parse_omega("[x, y]_{x,y}")),
        (rename_omega, parse_two("[x^*, y]_{x,y}")),
        (rename_omega, parse_sl("[{x, y}, lin={x}]_{x,y}")),
    ):
        with pytest.raises(ValueError, match="^renaming is not injective on the interest set$"):
            rename(e, {"x": "y"})
        # a renaming that is injective on the interest set is accepted
        assert rename(e, {"x": "y", "y": "x", "z": "x"}).interest == e.interest


def test_normalization_inserts_empty_group():
    e = omega_element({parse_group("x")}, {"x"})
    assert EMPTY in e.groups
    assert omega_element((), {"x"}).is_bottom()
    with pytest.raises(ValueError):
        omega_element({parse_group("xq")}, {"x"})


def test_parse_print_round_trip():
    for text in ("[]_{x}", "[0]_{x}", "[x^2, xz]_{x, y, z}", "[uv, uxz]_{u, v, x, z}"):
        assert str(parse_omega(text)) == text
    # empty interest names and empty groups are rejected, with a position
    for bad in ("[x]_{x,,y}", "[x, ]_{x}", "[,]_{x}", "[y", "[x^*]_{x}"):
        with pytest.raises(ParseError):
            parse_omega(bad)


def _random_element(rng, variables):
    groups = set()
    for _ in range(rng.randint(0, 3)):
        groups.add(
            Multiset({v: rng.randint(1, 3) for v in variables if rng.random() < 0.5})
        )
    return omega_element(groups, variables)


def test_match_result_mass_is_bounded():
    # every emitted group's shared-part mass equals the mass of a first
    # argument group, which bounds the result size
    rng = random.Random(13)
    for _ in range(100):
        e1 = _random_element(rng, frozenset("xyz"))
        e2 = _random_element(rng, frozenset("uvx"))
        common = e1.interest & e2.interest
        r = match_omega(e1, e2)
        bound = max((b.mass() for b in e1.groups), default=0)
        for x in r.groups:
            if x.support & e1.interest or x in e2.groups:
                continue
            assert x.restrict(common).mass() <= bound


def _match_omega_by_definition(e1, e2):
    """Every first-argument group joined with every multiset of touching
    second-argument groups whose shared part sums to the group's shared
    part; each repetition count is bounded by the largest shared mass of a
    first-argument group, since every touching group adds at least one."""
    u1, u2 = e1.interest, e2.interest
    common = u1 & u2
    touching = sorted((g for g in e2.groups if g.support & u1), key=Multiset.sort_key)
    out = {g for g in e2.groups if not g.support & u1}
    bound = max((b.restrict(common).mass() for b in e1.groups), default=0)
    for counts in product(range(bound + 1), repeat=len(touching)):
        total = EMPTY
        for g, k in zip(touching, counts):
            total = total + g.scale(k)
        for b in e1.groups:
            if total.restrict(common) == b.restrict(common):
                out.add(b + total.restrict(u2 - u1))
    return omega_element(out, u1 | u2)


@st.composite
def _omega_pairs(draw):
    names = draw(st.permutations("uvwx"))
    cut1 = draw(st.integers(1, 4))
    cut2 = draw(st.integers(0, 3))
    u1, u2 = names[:cut1], names[cut2:]

    def element(variables, groups, top):
        group = st.dictionaries(st.sampled_from(variables), st.integers(1, top), max_size=3)
        return omega_element(map(Multiset, draw(st.lists(group, max_size=groups))), variables)

    return element(u1, 3, 5), element(u2, 3, 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_omega_pairs())
def test_match_omega_equals_the_definition(pair):
    e1, e2 = pair
    assert match_omega(e1, e2) == _match_omega_by_definition(e1, e2)


@pytest.mark.parametrize("top", [4, 8, 9])
def test_match_omega_equals_the_definition_across_field_widths(top):
    # first-argument counts reach ``top``: 4 and 8 need a wider shared field
    # than 3 and 7, and 9 fills the 4-bit field. Second-argument groups
    # carry counts up to 3 off the shared variables, so a tail can reach
    # the target's mass times 3, beyond any target count
    rng = random.Random(top)
    shared, joined = frozenset("wx"), 0
    for trial in range(60):
        u1, u2 = frozenset("vwx"), frozenset("wxyz")
        touching = [
            Multiset({v: rng.randint(1, 3) for v in sorted(u2) if rng.random() < 0.5}
                     | {rng.choice("wx"): rng.randint(1, 2)})
            for _ in range(rng.randint(1, 3))
        ]
        firsts = set()
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                # a sum of touching groups' shared parts, kept within ``top``
                total = EMPTY
                for g in touching:
                    step = g.restrict(shared).scale(rng.randint(0, 3))
                    if all(n <= top for _, n in (total + step).items()):
                        total = total + step
            else:
                total = Multiset({v: rng.randint(0, top) for v in sorted(shared)})
            firsts.add(total + Multiset({"v": rng.randint(0, 2)}))
        firsts.add(Multiset({rng.choice("wx"): top}))
        if trial % 10 == 0:
            firsts.add(Multiset({"v": 1}))  # an empty shared part
        e1 = omega_element(firsts, u1)
        e2 = omega_element(touching + [Multiset({"y": 2})], u2)
        got = match_omega(e1, e2)
        assert got == _match_omega_by_definition(e1, e2), (str(e1), str(e2))
        joined += any(g.support & u1 and g.support & {"y", "z"} for g in got.groups)
        # a bottom first argument passes the groups off its interest set
        bottom = omega_element((), u1)
        assert match_omega(bottom, e2) == _match_omega_by_definition(bottom, e2)
    assert joined > 15


def test_ladder_shaped_pairs_equal_the_references():
    # pairs shaped like the benchmark ladder's: a first argument over
    # {u,v,w,x,y}, and up to 5 second-argument groups over
    # {w,x,y,z,z1,z2}, each touching the shared {w,x,y}. They hold the
    # cases where packing drops a group (a shared count above every
    # target count, a shared variable no target holds), groups with
    # nothing off the shared variables, and first-argument groups with
    # an empty shared part
    rng = random.Random(71)
    u1, u2 = frozenset("uvwxy"), frozenset(("w", "x", "y", "z", "z1", "z2"))
    shared, edges = ("w", "x", "y"), set()
    for trial in range(48):
        held = shared if trial % 3 else shared[:2]  # the targets' variables
        firsts = [Multiset({v: 1 for v in "uv" if rng.random() < 0.5}
                           | {v: rng.choice((1, 1, 2)) for v in rng.sample(held, rng.randint(1, 2))})
                  for _ in range(rng.randint(1, 3))]
        if trial % 4 == 0:
            firsts.append(Multiset({rng.choice("uv"): rng.randint(1, 2)}))
        seconds = [Multiset({v: rng.choice((1, 1, 2, 3, 4))
                             for v in rng.sample(shared, rng.randint(1, 2))}
                            | {v: rng.randint(1, 2) for v in ("z", "z1", "z2") if rng.random() < 0.4})
                   for _ in range(rng.randint(1, 5))]
        e1, e2 = omega_element(firsts, u1), omega_element(seconds, u2)
        assert match_omega(e1, e2) == _match_omega_by_definition(e1, e2), (str(e1), str(e2))
        t1, t2 = alpha2(e1), alpha2(e2)
        assert match2(t1, t2) == match2_ref(t1, t2), (str(t1), str(t2))
        targets = [b.restrict(shared) for b in firsts]
        top = max(n for t in targets for _, n in t.items())
        covered = frozenset().union(*(t.support for t in targets))
        edges |= {
            any(n > top for g in seconds for v, n in g.items() if v in shared) and "above top",
            any(g.support & set(shared) - covered for g in seconds) and "no target",
            any(g.support <= set(shared) for g in seconds) and "shared only",
            not all(targets) and "empty shared part",
        }
    assert {"above top", "no target", "shared only", "empty shared part"} <= edges
