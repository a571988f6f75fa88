import random

import pytest

from sharlin import shlin2, shlin_omega, shlin_sl
from sharlin.existential import canonicalize
from sharlin.multiset import Multiset
from sharlin.shlin_omega import (InterestMismatch, alpha_omega, project_omega, rename_omega,
                                  union_omega)
from sharlin.shlin2 import INF, alpha2, match2, match2_ref, parse_two, two_element, two_group
from sharlin.shlin_sl import (
    alpha_sl,
    gamma_sl,
    leq_sl,
    match_sl,
    nl,
    parse_sl,
    sl_element,
)
from sharlin.terms import App, ParseError, Var, parse_substitution, term_vars

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
    got = gamma_sl(S1).groups
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
    # the same through the reference matcher, which shares no code with it
    assert r == alpha_sl(match2_ref(gamma_sl(S1), gamma_sl(S2)))


def test_match_sl_singleton_empty_first_argument():
    e1 = sl_element([frozenset()], {"x", "y"}, {"x", "y"})
    r = match_sl(e1, S2)
    assert r.sharing == frozenset({frozenset(), frozenset("uv")})


def _check_match_sl_against_composition(rng, alphabet, sizes, trials):
    """``match_sl``, the abstraction of ``match2`` on the embeddings,
    against the same composition through ``match2_ref``, which shares no
    code with it, and ``match2`` against ``match2_ref`` on the embeddings
    before the abstraction. Each pair is also checked with siblings added
    to e1: groups with the same shared part as one of e1's and another
    part off u2."""
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
            ref = match2_ref(gamma_sl(e), gamma_sl(e2))
            assert match2(gamma_sl(e), gamma_sl(e2)) == ref, (str(e), str(e2))
            assert match_sl(e, e2) == alpha_sl(ref), (str(e), str(e2))
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
        assert match_sl(e1, e2) == alpha_sl(match2_ref(gamma_sl(e1), gamma_sl(e2))), str(e1)


def test_match_sl_monotone():
    rng = random.Random(11)
    for _ in range(150):
        u1 = frozenset(rng.sample("uvwx", rng.randint(1, 3)))
        u2 = frozenset(rng.sample("uvwx", rng.randint(1, 3)))
        s1, s2 = _random_sl(rng, u1), _random_sl(rng, u2)
        b1 = union_omega(s1, _random_sl(rng, u1))
        b2 = union_omega(s2, _random_sl(rng, u2))
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
    p = project_omega(e, {"x", "z"})
    assert p == parse_sl("[{x, z}, lin={x,z}]_{x,z}")
    assert union_omega(e, e) == e
    assert rename_omega(e, {}) == e
    with pytest.raises(InterestMismatch):
        union_omega(S1, S2)
    # projection re-establishes groundness-implies-linearity
    q = project_omega(parse_sl("[{uv}, lin={}]_{u,v}"), {"u"})
    assert q == parse_sl("[{u}, lin={}]_{u}")
    r = project_omega(parse_sl("[{uv}, lin={}]_{u,v,w}"), {"w"})
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


def test_groups_of_shows_linearity():
    # the precision diff of two elements that differ only in linearity
    linear = parse_sl("[{xy}, lin={x,y}]_{x,y}")
    shared = parse_sl("[{xy}, lin={}]_{x,y}")
    assert shlin_omega.groups_of(linear) == {"xy"}
    assert shlin_omega.groups_of(shared) == {"x^*y^*"}


# --- the set-level operations on (sharing, linear, interest) triples --------


def _triple(sharing, linear, interest):
    """Add the empty group to nonempty sharing, keep linearity within the
    interest set, and mark ground variables linear."""
    u = frozenset(interest)
    groups = {frozenset(g) for g in sharing}
    if groups:
        groups.add(frozenset())
    covered = frozenset().union(*groups)
    return frozenset(groups), (frozenset(linear) & u) | (u - covered), u


def _project_ref(t, variables):
    (s, lin, u), v = t, frozenset(variables)
    return _triple({g & v for g in s}, lin & v, u & v)


def _union_ref(t1, t2):
    return _triple(t1[0] | t2[0], t1[1] & t2[1], t1[2])


def _rename_ref(t, rho):
    s, lin, u = t
    r = {v: rho.get(v, v) for v in u}
    return _triple({frozenset(r[v] for v in g) for g in s}, {r[v] for v in lin}, r.values())


def _extend_ref(t, new):
    s, lin, u = t
    return _triple(s | {frozenset({v}) for v in new}, lin | new, u | new)


def _join_disjoint_ref(t1, t2):
    return _triple(t1[0] | t2[0], t1[1] | t2[1], t1[2] | t2[2])


def _amgu_ref(t, var, term, cap, drop):
    """Embed in ShLin^2, bind there and forget the exponents."""
    s, lin, u = t
    embedded = two_element({Multiset({v: 1 if v in lin else 2 for v in g}) for g in s}, u)
    r = shlin2.amgu(embedded, var, term, cap, drop)
    stars = {v for g in r.groups for v, n in g.items() if n == 2}
    return _triple({g.support for g in r.groups}, r.interest - stars, r.interest)


def _random_term(rng, names, depth):
    if depth and rng.random() < 0.5:
        return App("f", (_random_term(rng, names, depth - 1), _random_term(rng, names, depth - 1)))
    return App("a") if rng.random() < 0.2 else Var(rng.choice(names))


def test_record_operations_equal_the_set_level_operations():
    """The record's operations, ShLin^omega's own on the uniform groups,
    against the set-level operations on triples; one in ten elements is
    bottom and one in ten holds only the empty group."""
    rng = random.Random(25)
    bottoms = ground = disjoint = 0

    def element(u, i):
        if i % 10 == 0:
            return sl_element((), u, u)
        if i % 10 == 1:
            return sl_element([frozenset()], u, u)
        return _random_sl(rng, u)

    def same(got, want):
        assert got == sl_element(*want)
        assert (got.sharing, got.linear, got.interest) == want

    for i in range(2000):
        names = rng.sample("uvwxyz", rng.randint(1, 5))
        u = frozenset(names)
        e = element(u, i)
        t = (e.sharing, e.linear, e.interest)
        bottoms += e.is_bottom()
        ground += e.sharing == {frozenset()}
        keep = {v for v in sorted(u) if rng.random() < 0.5}
        same(shlin_omega.project_omega(e, keep), _project_ref(t, keep))
        other = _random_sl(rng, u) if i % 3 else element(u, i + 1)
        same(shlin_omega.union_omega(e, other), _union_ref(t, (other.sharing, other.linear, u)))
        rho = dict(zip(sorted(u), rng.sample("pqrstuvwxyz", len(u))))
        same(shlin_omega.rename_omega(e, rho), _rename_ref(t, rho))
        new = frozenset(rng.sample(sorted(set("pqrst")), rng.randint(0, 2)))
        same(shlin_omega.extend(e, new), _extend_ref(t, new))
        off = frozenset(rng.sample("pqrst", rng.randint(1, 3)))
        apart = element(off, i + rng.randint(0, 9))
        disjoint += not (apart.interest & u)
        same(shlin_omega.join_disjoint(e, apart),
             _join_disjoint_ref(t, (apart.sharing, apart.linear, apart.interest)))
        var, term = rng.choice(names), _random_term(rng, names, rng.randint(0, 2))
        binding = sorted({var} | term_vars(term))
        drop = frozenset(v for v in binding if rng.random() < 0.3)
        same(shlin_sl.amgu(e, var, term, 3, drop), _amgu_ref(t, var, term, 3, drop))
    assert min(bottoms, ground, disjoint) >= 100, (bottoms, ground, disjoint)
