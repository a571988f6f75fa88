import random

import pytest

from sharlin.existential import canonicalize
from sharlin.shlin_omega import InterestMismatch, alpha_omega
from sharlin.shlin2 import INF, alpha2, match2, match2_ref, parse_two, two_group
from sharlin.shlin_sl import (
    alpha_sl,
    gamma_sl,
    gamma_sl_maximals,
    leq_sl,
    match_sl,
    nl,
    parse_sl,
    project_sl,
    rename_sl,
    sl_element,
    union_sl,
)
from sharlin.terms import ParseError, parse_substitution

S1 = parse_sl("[{x, xz}, lin={y,z}]_{x,y,z}")
S2 = parse_sl("[{uv, ux, vx, x}, lin={u,v}]_{u,v,x}")


def test_alpha_sl_examples():
    full = alpha_sl(
        alpha2(
            alpha_omega(
                canonicalize(
                    parse_substitution("{x/s(y,u,y), z/s(u,u), v/u}"),
                    {"w", "x", "y", "z"},
                )
            )
        )
    )
    assert full == parse_sl("[{xy, xz, w}, lin={y,w}]_{w,x,y,z}")
    assert alpha_sl(parse_two("[x^*, xz]_{x,y,z}")) == S1
    # empty element: everything ground, hence everything linear
    empty = alpha_sl(parse_two("[0]_{u,v}"))
    assert empty == parse_sl("[{0}, lin={u,v}]_{u,v}")


def test_gamma_sl_maximals():
    got = gamma_sl_maximals(S1)
    # x is not linear, so both its groups delinearize on x; z stays linear
    assert got == frozenset(
        {two_group({}), two_group({"x": INF}), two_group({"x": INF, "z": 1})}
    )
    all_linear = sl_element([frozenset("uv")], {"u", "v"}, {"u", "v"})
    assert gamma_sl(all_linear) == parse_two("[uv]_{u,v}")
    assert gamma_sl(sl_element([], {"u"}, {"u"})).is_bottom()


def test_galois_insertion_round_trip():
    rng = random.Random(3)
    for _ in range(300):
        e = _random_sl(rng, frozenset(rng.sample("uvwxyz", rng.randint(1, 4))))
        assert alpha_sl(gamma_sl(e)) == e


def test_nl():
    assert nl([frozenset("ux"), frozenset("vx")]) == frozenset("x")
    assert nl([frozenset("uv")]) == frozenset()
    assert nl([frozenset("ux"), frozenset("vx"), frozenset("x")]) == frozenset("x")


def test_match_sl_worked_example():
    r = match_sl(S1, S2)
    assert r == parse_sl(
        "[{uv, uvx, ux, vx, x, uvxz, uxz, xz, vxz}, lin={y,z}]_{u,v,x,y,z}"
    )
    # strictly more precise through the clipped domain on this instance:
    # uvxz does not appear in the composed result
    composed = alpha_sl(match2(gamma_sl(S1), gamma_sl(S2)))
    assert leq_sl(composed, r) or leq_sl(r, composed)


def test_match_sl_singleton_empty_first_argument():
    e1 = sl_element([frozenset()], {"x", "y"}, {"x", "y"})
    r = match_sl(e1, S2)
    assert r.sharing == frozenset({frozenset(), frozenset("uv")})


def _check_match_sl_against_composition(rng, alphabet, sizes, trials):
    """``match_sl`` against the composition through ``match2`` and through
    ``match2_ref``, which shares no code with it. Each pair is also checked
    with siblings added to e1: groups with the same shared part as one of
    e1's and another part off u2."""
    siblings = 0
    for _ in range(trials):
        names = rng.sample(alphabet, rng.randint(*sizes))
        cut = rng.randint(1, len(names))
        u1 = frozenset(names[:cut])
        u2 = frozenset(names[rng.randint(0, len(names) - 1):])
        e1, e2 = _random_sl(rng, u1), _random_sl(rng, u2)
        off = sorted(u1 - u2)
        wider = sl_element(e1.sharing | {b | {v} for b in e1.sharing if b & u2 for v in off},
                           e1.linear, u1)
        for e in {e1, wider}:
            direct = match_sl(e, e2)
            assert direct == alpha_sl(match2(gamma_sl(e), gamma_sl(e2))), (str(e), str(e2))
            assert direct == alpha_sl(match2_ref(gamma_sl(e), gamma_sl(e2))), (str(e), str(e2))
        siblings += wider != e1
    assert siblings >= trials // 15


def test_match_sl_equals_composition():
    _check_match_sl_against_composition(random.Random(7), "uvwxy", (2, 5), 300)


def test_match_sl_equals_composition_over_six_and_seven_variables():
    rng = random.Random(17)
    _check_match_sl_against_composition(rng, "stuvwxy", (6, 7), 200)
    # an empty shared part, a first argument off u2, and a bottom one
    u1, u2 = frozenset("stuv"), frozenset("uvwxy")
    e2 = parse_sl("[{uw, vx, uvy, wy}, lin={u,w,y}]_{u,v,w,x,y}")
    for e1 in (
        parse_sl("[{s, tu, suv}, lin={s,u}]_{s,t,u,v}"),
        parse_sl("[{s, st}, lin={s}]_{s,t,u,v}"),
        sl_element((), u1, u1),
    ):
        assert match_sl(e1, e2) == alpha_sl(match2(gamma_sl(e1), gamma_sl(e2))), str(e1)


def test_match_sl_monotone():
    rng = random.Random(11)
    for _ in range(150):
        u1 = frozenset(rng.sample("uvwx", rng.randint(1, 3)))
        u2 = frozenset(rng.sample("uvwx", rng.randint(1, 3)))
        s1, s2 = _random_sl(rng, u1), _random_sl(rng, u2)
        b1 = union_sl(s1, _random_sl(rng, u1))
        b2 = union_sl(s2, _random_sl(rng, u2))
        assert leq_sl(match_sl(s1, s2), match_sl(b1, b2))


def test_linearity_invariant():
    rng = random.Random(13)
    for _ in range(200):
        u1 = frozenset(rng.sample("uvwx", rng.randint(1, 3)))
        u2 = frozenset(rng.sample("uvwx", rng.randint(1, 3)))
        r = match_sl(_random_sl(rng, u1), _random_sl(rng, u2))
        covered = frozenset().union(*r.sharing) if r.sharing else frozenset()
        assert r.linear >= r.interest - covered


def test_project_union_rename():
    e = parse_sl("[{uvx, vwz}, lin={u,v,w,x,z}]_{u,v,w,x,z}")
    p = project_sl(e, {"x", "z"})
    assert p == parse_sl("[{x, z}, lin={x,z}]_{x,z}")
    assert union_sl(e, e) == e
    assert rename_sl(e, {}) == e
    with pytest.raises(InterestMismatch):
        union_sl(S1, S2)
    # projection re-establishes groundness-implies-linearity
    q = project_sl(parse_sl("[{uv}, lin={}]_{u,v}"), {"u"})
    assert q == parse_sl("[{u}, lin={}]_{u}")
    r = project_sl(parse_sl("[{uv}, lin={}]_{u,v,w}"), {"w"})
    assert r.linear == frozenset("w")


def test_parse_print_round_trip():
    for text in (
        "[{}, lin={u}]_{u}",
        "[{0}, lin={u}]_{u}",
        "[{uv, ux}, lin={u, v}]_{u, v, x}",
    ):
        assert str(parse_sl(text)) == text
    with pytest.raises(ValueError):
        parse_sl("[{u^2}, lin={}]_{u}")
    for bad in ("[{x}, lin={x,}]_{x}", "[{x, }, lin={}]_{x}", "[{x}, lin={x}]_{x,,y}"):
        with pytest.raises(ParseError):
            parse_sl(bad)


def test_parse_sl_rejects_a_linear_variable_outside_the_interest_set():
    # a written lin={q} over {x} is a typo, not x non-linear
    with pytest.raises(ValueError, match="'q'"):
        parse_sl("[{x}, lin={q}]_{x}")
    # the normalizing constructor stays lenient
    assert sl_element([{"x"}], {"q"}, {"x"}) == parse_sl("[{x}, lin={}]_{x}")


def _random_sl(rng, variables):
    k = rng.randint(0, 3)
    groups = [frozenset(v for v in sorted(variables) if rng.random() < 0.5) for _ in range(k)]
    covered = frozenset().union(*groups) if groups else frozenset()
    linear = {v for v in sorted(covered) if rng.random() < 0.6}
    return sl_element(groups, linear, variables)
