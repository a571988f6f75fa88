import random

import pytest

from sharlin.multiset import EMPTY, Multiset, format_group, parse_group
from sharlin.shlin_omega import match_omega, parse_omega
from sharlin.shlin2 import (
    INF,
    TooLarge,
    alpha2,
    antichain_max,
    down_closure,
    el2_contains,
    embed_cap2,
    gamma2_contains,
    leq2,
    match2,
    match2_opt,
    match2_opt_generators,
    match2_ref,
    oplus,
    parse_two,
    parse_two_group,
    project2,
    prop_abstraction2_check,
    rename2,
    two_element,
    two_group,
    union2,
)
from sharlin.shlin_omega import InterestMismatch
from sharlin.terms import ParseError

T1 = parse_two("[x^*, xz]_{x,y,z}")
T2 = parse_two("[uv, ux, vx^*, x]_{u,v,x}")
ANOPT = parse_two("[uv, u^*v^*x^*, uxz, u^*x^*, v^*x^*, vxz, x^*, xz]_{u,v,x,y,z}")


def test_alpha2_group():
    # the abstraction of one group is the count clip at 2
    assert parse_group("xy^2z").clip(2) == parse_two_group("xy^*z")
    assert parse_group("xy^3z").clip(2) == parse_two_group("xy^*z")
    assert parse_group("xz").clip(2) == parse_two_group("xz")
    assert EMPTY.clip(2) == EMPTY
    assert format_group(parse_group("xy^3z").clip(2), star=True) == "xy^*z"


def test_oplus():
    ux = parse_two_group("ux")
    assert oplus(ux, ux) == parse_two_group("u^*x^*")
    assert oplus(parse_two_group("vx^*"), EMPTY) == parse_two_group("vx^*")
    assert oplus(parse_two_group("x"), parse_two_group("vx^*")) == parse_two_group("vx^*")
    rng = random.Random(47)
    for _ in range(300):
        o, p = (two_group({v: rng.choice((0, 1, 2)) for v in "uvxy"}) for _ in range(2))
        assert oplus(o, p) == (o + p).clip(2)


def test_square():
    # delinearization: a group summed with itself, clipped
    def square(o):
        return o.scale(2).clip(2)

    assert square(parse_two_group("ux")) == parse_two_group("u^*x^*")
    assert square(EMPTY) == EMPTY
    assert square(parse_two_group("vx^*")) == parse_two_group("v^*x^*")


def test_alpha2_examples():
    assert alpha2(parse_omega("[x^2y, xz^2, w]_{w,x,y,z}")) == parse_two(
        "[x^*y, xz^*, w]_{w,x,y,z}"
    )
    assert alpha2(parse_omega("[x^2, xz]_{x,y,z}")) == T1


def test_gamma2_contains():
    e = parse_two("[xy^*z]_{x,y,z}")
    assert gamma2_contains(e, parse_group("xy^3z"))
    assert gamma2_contains(e, parse_group("xyz"))
    assert not gamma2_contains(e, parse_group("x^2yz"))
    assert not gamma2_contains(e, parse_group("xy"))


def test_prop_abstraction2_examples():
    assert prop_abstraction2_check(parse_group("x^2y"), {"x"}, [])
    assert prop_abstraction2_check(EMPTY, set(), [parse_group("ux"), parse_group("ux")])
    assert prop_abstraction2_check(parse_group("xz"), {"x", "z"}, [parse_group("xz")])


def test_match2_ref_worked_example():
    assert match2_ref(T1, T2) == ANOPT


def test_match2_opt_matches_reference_on_worked_example():
    assert match2(T1, T2) == ANOPT
    raw = match2_opt(T1.maximals, T1.interest, T2.maximals, T2.interest)
    names = {format_group(g, star=True) for g in raw if g}
    assert names == {
        "uv", "u^*x^*", "v^*x^*", "x^*", "u^*v^*x^*", "uxz", "vxz", "xz",
    }


def test_match2_contains_omega_abstraction():
    mo = match_omega(parse_omega("[x^2, xz]_{x,y,z}"), parse_omega("[uv, ux, vx^2, x]_{u,v,x}"))
    assert alpha2(mo) == parse_two("[uv, u^*x^*, uxz, vx^*, x^*, xz]_{u,v,x,y,z}")
    assert leq2(alpha2(mo), ANOPT)


def test_match2_ref_bottom_first_argument():
    # only the second argument's groups without shared variables remain
    r = match2_ref(two_element((), {"x", "y"}), T2)
    assert r == parse_two("[uv]_{u,v,x,y}")
    assert match2(two_element((), {"x", "y"}), T2) == r


def test_match2_ref_too_large():
    e1 = two_element({two_group({"u1": 1})}, {f"u{i}" for i in range(8)})
    e2 = two_element({two_group({"v1": 1})}, {f"v{i}" for i in range(8)})
    with pytest.raises(TooLarge):
        match2_ref(e1, e2, cap=10)


def test_project_rename_union():
    assert project2(parse_two("[u^*x^*y^*]_{u,v,x,y,z}"), {"u", "v"}) == parse_two(
        "[u^*]_{u,v}"
    )
    e = parse_two("[xz^*]_{x,z}")
    assert rename2(e, {}) == e
    assert union2(parse_two("[x]_{x}"), parse_two("[x^*]_{x}")) == parse_two("[x^*]_{x}")
    with pytest.raises(InterestMismatch):
        union2(parse_two("[x]_{x}"), parse_two("[y]_{y}"))


def test_antichain_and_down_closure():
    a = two_group({"x": 1, "z": 1})
    b = two_group({"x": INF, "z": 1})
    assert antichain_max({a, b}) == frozenset({b})
    assert down_closure({b}) == {a, b}
    # different supports are incomparable
    c = two_group({"x": 1})
    assert antichain_max({a, c}) == frozenset({a, c})


def test_antichain_max_keeps_exactly_the_maximal_groups():
    rng = random.Random(23)
    exps = (0, 0, 1, INF)
    for _ in range(300):
        gs = {
            two_group({v: rng.choice(exps) for v in "xyz"}) for _ in range(rng.randint(0, 6))
        }
        expected = {
            g for g in gs
            if not any(g != h and g.support == h.support and g.leq(h) for h in gs)
        }
        assert antichain_max(gs) == expected


def _random_two(rng, variables):
    groups = set()
    for _ in range(rng.randint(0, 3)):
        exps = {}
        for v in variables:
            if rng.random() < 0.5:
                exps[v] = INF if rng.random() < 0.4 else 1
        groups.add(two_group(exps))
    return two_element(groups, variables)


def _wedge_by_definition(o1, xsum, u1, u2):
    """o1 on its own variables, the sum on the second argument's own
    variables, and the smaller exponent on the shared ones."""
    exps = {}
    for v in u1 | u2:
        if v not in u2:
            exps[v] = o1.count(v)
        elif v not in u1:
            exps[v] = xsum.count(v)
        else:
            exps[v] = min(o1.count(v), xsum.count(v))
    return two_group(exps)


def test_match2_provenance_rebuilds_every_group():
    rng = random.Random(43)
    for _ in range(300):
        names = rng.sample("uvwxyz", rng.randint(2, 6))
        u1 = frozenset(names[: rng.randint(1, len(names))])
        u2 = frozenset(names[rng.randint(0, len(names) - 1):])
        e1, e2 = _random_two(rng, u1), _random_two(rng, u2)
        e2 = union2(e2, _random_two(rng, u2))
        generators = match2_opt_generators(e1.maximals, u1, e2.maximals, u2)
        for group, provenance in generators.items():
            if provenance[0] == "pass":
                assert provenance == ("pass", group) and group in e2.maximals
                assert not group.support & u1
                continue
            kind, o1, x, xbar = provenance
            assert kind == "gen" and o1 in e1.maximals
            assert set(xbar) <= set(x) <= e2.maximals and len(set(x)) == len(x)
            xsum, xbar_sum = EMPTY, EMPTY
            for op in x:
                xsum = oplus(xsum, op)
            for op in xbar:
                xbar_sum = oplus(xbar_sum, op)
            assert oplus(_wedge_by_definition(o1, xsum, u1, u2), xbar_sum) == group


def test_galois_insertion_round_trip():
    rng = random.Random(19)
    for _ in range(200):
        e = _random_two(rng, frozenset(rng.sample("uvwxyz", rng.randint(1, 4))))
        assert alpha2(embed_cap2(e)) == e


def test_equivalence_theorem_on_random_instances():
    rng = random.Random(23)
    for _ in range(300):
        names = rng.sample("uvwxy", rng.randint(2, 5))
        cut = rng.randint(1, len(names))
        u1 = frozenset(names[:cut])
        u2 = frozenset(names[rng.randint(0, len(names) - 1):])
        e1, e2 = _random_two(rng, u1), _random_two(rng, u2)
        assert match2_ref(e1, e2) == match2(e1, e2)


def test_correctness_against_exact_domain():
    # cap-2 concretization is exact for this check: clipping saturates at 2
    rng = random.Random(29)
    for _ in range(150):
        u1 = frozenset(rng.sample("uvwx", rng.randint(1, 3)))
        u2 = frozenset(rng.sample("uvwx", rng.randint(1, 3)))
        e1, e2 = _random_two(rng, u1), _random_two(rng, u2)
        lifted = alpha2(match_omega(embed_cap2(e1), embed_cap2(e2)))
        assert leq2(lifted, match2_ref(e1, e2))


def test_monotonicity_of_both_matchers():
    rng = random.Random(31)
    for _ in range(150):
        u1 = frozenset(rng.sample("uvwx", rng.randint(1, 3)))
        u2 = frozenset(rng.sample("uvwx", rng.randint(1, 3)))
        small1, small2 = _random_two(rng, u1), _random_two(rng, u2)
        big1 = union2(small1, _random_two(rng, u1))
        big2 = union2(small2, _random_two(rng, u2))
        for f in (match2_ref, match2):
            assert leq2(f(small1, small2), f(big1, big2))


def test_every_operation_preserves_the_antichain_invariant():
    rng = random.Random(37)
    for _ in range(150):
        u = frozenset(rng.sample("uvwxyz", rng.randint(1, 4)))
        e = _random_two(rng, u)
        others = [
            match2(e, _random_two(rng, u)),
            union2(e, _random_two(rng, u)),
            project2(e, set(rng.sample(sorted(u), rng.randint(0, len(u))))),
        ]
        for r in others:
            assert antichain_max(r.maximals) == r.maximals


def test_prop_abstraction2_random():
    rng = random.Random(41)
    for _ in range(500):
        b = Multiset({v: rng.randint(1, 4) for v in rng.sample("uvwxyz", rng.randint(0, 4))})
        vs = set(rng.sample("uvwxyz", rng.randint(0, 5)))
        xs = [
            Multiset({v: rng.randint(1, 3) for v in rng.sample("uvwxyz", rng.randint(0, 3))})
            for _ in range(rng.randint(0, 3))
        ]
        assert prop_abstraction2_check(b, vs, xs)


def test_parse_print_round_trip():
    for text in ("[]_{x}", "[0]_{x}", "[x^*y, xz^*]_{x, y, z}", "[uv]_{u, v}"):
        assert str(parse_two(text)) == text
    assert parse_two_group("x^inf") == parse_two_group("x^*")
    assert parse_two_group("x^2") == parse_two_group("x^*")  # written counts clip
    for bad in ("[x]_{x,,y}", "[x, ]_{x}", "[,]_{x}", "[x^0]_{x}"):
        with pytest.raises(ParseError):
            parse_two(bad)


def test_el2_contains_requires_equal_support():
    e = parse_two("[x^*y]_{x,y}")
    assert el2_contains(e, two_group({"x": 1, "y": 1}))
    assert not el2_contains(e, two_group({"x": 1}))


def test_two_group_and_two_element_reject_bad_input():
    assert two_group({"x": INF, "y": 1}) == two_group({"x": 2, "y": 1}) == parse_two_group("x^*y")
    for bad in (3, 0.5, -1):
        with pytest.raises(ValueError, match="must be 1, 2 or INF"):
            two_group({"x": bad})
    with pytest.raises(ValueError, match="count above 2"):
        two_element({Multiset({"x": 3})}, {"x"})
    with pytest.raises(ValueError) as err:
        two_element({two_group({"x": INF})}, {"y"})
    assert str(err.value) == "group x^* not over interest set ['y']"
