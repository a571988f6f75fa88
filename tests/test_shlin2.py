import ast
import itertools
import random
from functools import reduce

import pytest

from sharlin import shlin2, shlin_omega, shlin_sl
from sharlin.multiset import EMPTY, Multiset, format_group, parse_group
from sharlin.shlin_omega import (ShLinOmegaElement, match_omega, omega_element, parse_omega,
                                  project_omega, rename_omega, union_omega)
from sharlin.shlin2 import (
    INF,
    TooLarge,
    alpha2,
    antichain_max,
    down_closure,
    el2_contains,
    gamma2_contains,
    leq2,
    linear_subsets,
    match2,
    match2_opt_generators,
    match2_ref,
    oplus,
    parse_two,
    two_element,
    two_group,
)
from sharlin.shlin_omega import InterestMismatch
from sharlin.oracle import _realize
from sharlin.shlin_sl import parse_sl
from sharlin.terms import ParseError, Scanner

T1 = parse_two("[x^*, xz]_{x,y,z}")
T2 = parse_two("[uv, ux, vx^*, x]_{u,v,x}")
ANOPT = parse_two("[uv, u^*v^*x^*, uxz, u^*x^*, v^*x^*, vxz, x^*, xz]_{u,v,x,y,z}")


def parse_two_group(text):
    """One group, read as ``parse_two`` reads the groups of an element."""
    return Scanner(text).whole(lambda sc: Multiset(sc.group(star=2)).clip(2))


def embed_cap2(e):
    """Concretization with exponents capped at 2 (exact for clipping checks,
    since any multiplicity of at least 2 clips to 2)."""
    return omega_element(down_closure(e.groups), e.interest)


def test_alpha2_group():
    # the abstraction of one group is the count clip at 2
    assert parse_group("xy^2z").clip(2) == parse_two_group("xy^*z")
    assert parse_group("xy^3z").clip(2) == parse_two_group("xy^*z")
    assert parse_group("xz").clip(2) == parse_two_group("xz")
    assert EMPTY.clip(2) == EMPTY
    assert format_group(parse_group("xy^3z").clip(2), ceiling=2) == "xy^*z"


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
    """The four clipping laws on fixed triples; criterion 9 draws 10000."""
    ux, xz = parse_group("ux"), parse_group("xz")
    for b, vs, xs in ((parse_group("x^2y"), {"x"}, []), (EMPTY, set(), [ux, ux]),
                      (xz, {"x", "z"}, [xz])):
        assert b.clip(2).support == b.support
        assert b.restrict(vs).clip(2) == b.clip(2).restrict(vs)
        assert sum(xs, EMPTY).clip(2) == reduce(oplus, [x.clip(2) for x in xs], EMPTY)
        assert (b + b).clip(2) == oplus(b.clip(2), b.clip(2))


def test_match2_ref_worked_example():
    assert match2_ref(T1, T2) == ANOPT


def test_match2_opt_matches_reference_on_worked_example():
    assert match2(T1, T2) == ANOPT
    raw = match2(T1, T2).groups
    names = {format_group(g, ceiling=2) for g in raw if g}
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
        match2_ref(e1, e2)


def _match2_ref_by_multisets(e1, e2):
    """``match2_ref`` as its candidate loop read before it keyed count
    tuples: a validated multiset per candidate, restricted to each interest
    set and looked up among multisets."""
    u1, u2 = e1.interest, e2.interest
    u = u1 | u2
    t1_full = down_closure(e1.groups)
    t2_full = down_closure(e2.groups)
    if e1.groups:
        t1_full.add(EMPTY)
    if e2.groups:
        t2_full.add(EMPTY)
    t2_pass = {o for o in t2_full if not o.support & u1}
    t2_rest = t2_full - t2_pass
    generators = sorted(t2_rest | {oplus(o, o) for o in t2_rest}, key=Multiset.sort_key)
    star = {EMPTY}
    for g in generators:
        star |= {oplus(s, g) for s in star}
    out = set(t2_pass)
    names = sorted(u)
    for exps in itertools.product((0, 1, 2), repeat=len(names)):
        o = Multiset(zip(names, exps))
        if o.restrict(u1) in t1_full and o.restrict(u2) in star:
            out.add(o)
    return two_element(out, u)


def test_match2_ref_equals_the_multiset_candidate_loop():
    rng = random.Random(61)
    edges = dict.fromkeys(("bottom", "empty group", "pass-through", "disjoint"), 0)
    for i in range(2000):
        names = rng.sample("tuvwxyz", rng.randint(2, 6))
        cut = rng.randint(1, len(names) - 1)
        u1 = frozenset(names[: rng.randint(1, len(names))])
        u2 = frozenset(names[rng.randint(0, len(names) - 1):])
        if i % 8 == 5:
            u1, u2 = frozenset(names[:cut]), frozenset(names[cut:])
        e1 = union_omega(_random_two(rng, u1), _random_two(rng, u1))
        e2 = union_omega(_random_two(rng, u2), _random_two(rng, u2))
        if i % 8 == 1:
            e1, e2 = rng.choice([(two_element((), u1), e2), (e1, two_element((), u2)),
                                 (two_element((), u1), two_element((), u2))])
        elif i % 8 == 2:
            e1, e2 = rng.choice([(two_element({EMPTY}, u1), e2), (e1, two_element({EMPTY}, u2))])
        elif i % 8 == 3:
            e2 = two_element(project_omega(e2, u2 - u1).groups, u2)
        ref = _match2_ref_by_multisets(e1, e2)
        assert match2_ref(e1, e2) == ref, (str(e1), str(e2))
        edges["bottom"] += e1.is_bottom() or e2.is_bottom()
        edges["empty group"] += EMPTY in e1.groups and len(e1.groups) == 1 or \
            EMPTY in e2.groups and len(e2.groups) == 1
        edges["pass-through"] += bool(e2.groups) and not any(g.support & u1 for g in e2.groups)
        edges["disjoint"] += not u1 & u2
    assert min(edges.values()) >= 100, edges


def test_match2_ref_over_eight_variables():
    u1, u2 = frozenset("stuvwx"), frozenset("uvwxyz")
    e1 = parse_two("[s^*tu, uv^*w, wx, s]_{s,t,u,v,w,x}")
    e2 = parse_two("[uy, v^*z^*, wxy^*, z, xu]_{u,v,w,x,y,z}")
    ref = match2_ref(e1, e2)
    assert ref.interest == u1 | u2
    assert ref == _match2_ref_by_multisets(e1, e2) == match2(e1, e2)


def test_project_rename_union():
    assert project_omega(parse_two("[u^*x^*y^*]_{u,v,x,y,z}"), {"u", "v"}) == parse_two(
        "[u^*]_{u,v}"
    )
    e = parse_two("[xz^*]_{x,z}")
    assert rename_omega(e, {}) == e
    assert union_omega(parse_two("[x]_{x}"), parse_two("[x^*]_{x}")) == parse_two("[x^*]_{x}")
    with pytest.raises(InterestMismatch):
        union_omega(parse_two("[x]_{x}"), parse_two("[y]_{y}"))


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
        for v in sorted(variables):
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


def test_realize_rebuilds_every_raw_group_of_match2():
    """The oracle's realization lifts each raw group of
    ``match2_opt_generators`` to an exact group ``c`` that clips back to
    it: ``c`` on u1 lies below the first argument, and each summand below
    the second."""
    rng = random.Random(43)
    for _ in range(300):
        names = rng.sample("uvwxyz", rng.randint(2, 6))
        u1 = frozenset(names[: rng.randint(1, len(names))])
        u2 = frozenset(names[rng.randint(0, len(names) - 1):])
        e1, e2 = _random_two(rng, u1), _random_two(rng, u2)
        e2 = union_omega(e2, _random_two(rng, u2))
        if e1.is_bottom():
            continue
        _, realize = _realize(e1, e2)
        below1, below2 = down_closure(e1.groups), down_closure(e2.groups)
        for group in match2_opt_generators(e1.groups, u1, e2.groups, u2):
            xs, c, _ = realize(group)
            assert c.clip(2) == group, (str(e1), str(e2), group)
            assert c.restrict(u1).clip(2) in below1
            assert all(g.clip(2) in below2 for g in xs if g)


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
        big1 = union_omega(small1, _random_two(rng, u1))
        big2 = union_omega(small2, _random_two(rng, u2))
        for f in (match2_ref, match2):
            assert leq2(f(small1, small2), f(big1, big2))


def test_every_operation_preserves_the_antichain_invariant():
    rng = random.Random(37)
    for _ in range(150):
        u = frozenset(rng.sample("uvwxyz", rng.randint(1, 4)))
        e = _random_two(rng, u)
        others = [
            match2(e, _random_two(rng, u)),
            union_omega(e, _random_two(rng, u)),
            project_omega(e, set(rng.sample(sorted(u), rng.randint(0, len(u))))),
        ]
        for r in others:
            assert antichain_max(r.groups) == r.groups


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


def _repr_parts(e, name):
    """The class name and the (group strings, interest) of ``repr(e)``,
    whose set order follows the hash seed."""
    text = repr(e)
    assert text.startswith(name + "(")
    return ast.literal_eval(text[len(name):])


def test_one_element_body_serves_both_domains():
    x2 = Multiset({"x": 2})
    omega = omega_element({x2}, {"x"})
    two = two_element({x2}, {"x"})
    assert isinstance(two, ShLinOmegaElement)
    assert (omega.groups, omega.interest) == (two.groups, two.interest)
    assert omega != two and two != omega
    assert len({omega, two}) == 2
    for parse, name, star in ((parse_omega, "ShLinOmegaElement", "x^2"),
                              (parse_two, "ShLin2Element", "x^*")):
        bottom, ground, groups = parse("[]_{x}"), parse("[0]_{x}"), parse(f"[{star}]_{{x}}")
        assert bottom.is_bottom() and not ground.is_bottom()
        assert (str(bottom), str(ground), str(groups)) == ("[]_{x}", "[0]_{x}", f"[{star}]_{{x}}")
        assert _repr_parts(bottom, name) == (set(), {"x"})
        assert _repr_parts(ground, name) == ({"0"}, {"x"})
        assert _repr_parts(groups, name) == ({"0", star}, {"x"})
    with pytest.raises(ValueError) as err:
        omega_element({x2}, {"y"})
    assert str(err.value) == "group x^2 not over interest set ['y']"
    with pytest.raises(ValueError) as err:
        two_element({x2}, {"y"})
    assert str(err.value) == "group x^* not over interest set ['y']"
    with pytest.raises(ValueError) as err:
        two_element({Multiset({"x": 1, "y": 3})}, {"x", "y"})
    assert str(err.value) == "group xy^3 has a count above 2"
    assert omega_element({Multiset({"y": 3})}, {"y"}).groups == {EMPTY, Multiset({"y": 3})}


def test_one_element_body_serves_sharing_times_lin():
    x2 = Multiset({"x": 2})
    sl, two = parse_sl("[{x}, lin={}]_{x}"), two_element({x2}, {"x"})
    assert isinstance(sl, ShLinOmegaElement)
    assert (sl.groups, sl.interest) == (two.groups, two.interest)
    assert sl != two and two != sl
    assert len({sl, two}) == 2
    for text, parts in (("[{}, lin={x}]_{x}", (set(), {"x"}, {"x"})),
                        ("[{0}, lin={x}]_{x}", ({""}, {"x"}, {"x"})),
                        ("[{x}, lin={}]_{x}", ({"", "x"}, set(), {"x"}))):
        e = parse_sl(text)
        assert str(e) == text
        assert _repr_parts(e, "ShLinElement") == parts
    # the shared operations are ShLin^omega's alone; the forward rule is
    # each record's entry, ShLin^omega's too
    shared = ("project", "union", "rename", "project_omega", "union_omega", "rename_omega",
              "extend", "join_disjoint", "clip", "groups_of")
    for module in (shlin2, shlin_sl):
        assert [op for op in shared if hasattr(module, op)] == [], module.__name__
        assert module.amgu is shlin_omega.amgu


def _random_wide_pair(rng, i):
    """A pair over six or seven variables (states up to 21 bits); every
    fourth pair is an edge: a bottom first argument, a first argument off
    u2, only ``^*`` counts, or no second-argument group touching u1."""
    names = rng.sample("tuvwxyz", rng.randint(6, 7))
    u1 = frozenset(names[: rng.randint(2, 5)])
    u2 = frozenset(names[rng.randint(1, len(u1)):])
    e1 = union_omega(_random_two(rng, u1), _random_two(rng, u1))
    e2 = union_omega(union_omega(_random_two(rng, u2), _random_two(rng, u2)), _random_two(rng, u2))
    edge = i % 16
    if edge == 0:
        e1 = two_element((), u1)
    elif edge == 4:
        e1 = two_element(project_omega(e1, u1 - u2).groups, u1)
    elif edge == 8:
        e1, e2 = (two_element({Multiset({v: 2 for v, _ in g.items()}) for g in e.groups},
                              e.interest) for e in (e1, e2))
    elif edge == 12:
        e2 = two_element(project_omega(e2, u2 - u1).groups, u2)
    return e1, e2


def _with_siblings(rng, e1, u2, same_linear):
    """``e1`` plus, for each group touching u2, a group with the same part
    on u2 and the other variables off it; its counts on u2 are the same,
    or one of them is flipped between 1 and ``^*``."""
    off = sorted(e1.interest - u2)
    groups = set(e1.groups)
    for o in sorted(e1.groups, key=Multiset.sort_key):
        shared = sorted(o.support & u2)
        if shared:
            exps = {v: o.count(v) for v in shared}
            if not same_linear:
                v = rng.choice(shared)
                exps[v] = 3 - exps[v]
            exps.update({v: rng.choice((1, 2)) for v in off if v not in o.support})
            groups.add(Multiset(exps))
    return two_element(groups, e1.interest)


def _sibling_kinds(e1, u2):
    """Which kinds of groups sharing their part on u2 ``e1`` holds: with
    the same linear variables there, or with different ones."""
    parts = {}
    for o in e1.groups:
        if o.support & u2:
            ones = frozenset(v for v in o.support & u2 if o.count(v) == 1)
            parts.setdefault(o.support & u2, []).append(ones)
    kinds = set()
    for ones in parts.values():
        if len(set(ones)) < len(ones):
            kinds.add("same")
        if len(set(ones)) > 1:
            kinds.add("different")
    return kinds


def test_match2_equals_reference_over_six_and_seven_variables():
    rng = random.Random(59)
    touched = untouched = 0
    for i in range(96):
        e1, e2 = _random_wide_pair(rng, i)
        assert match2(e1, e2) == match2_ref(e1, e2), (str(e1), str(e2))
        if any(g.support & e1.interest for g in e2.groups):
            touched += 1
        else:
            untouched += 1
    assert touched > 40 and untouched >= 4
    # first arguments whose groups share their part on u2, with the same
    # linear variables there or not: one fold serves each such pair
    kinds = []
    for i in range(64):
        e1, e2 = _random_wide_pair(rng, 1 + 2 * i)
        e1 = _with_siblings(rng, e1, e2.interest, same_linear=i % 2 == 0)
        assert match2(e1, e2) == match2_ref(e1, e2), (str(e1), str(e2))
        kinds += _sibling_kinds(e1, e2.interest)
    assert kinds.count("same") >= 8 and kinds.count("different") >= 8


def _match2_raw_by_subsets(t1, u1, t2, u2):
    """The raw groups of ``match2_opt_generators``, one subset X of the
    touching groups at a time: X fits inside o1 on u1, covers o1's shared
    part, and covers no variable linear in o1 twice; the part of X off
    o1's linear variables is taken twice."""
    out = {o for o in t2 if not o.support & u1}
    rest = [o for o in t2 if o.support & u1]
    for o1 in t1:
        ones = {v for v, e in o1.items() if e == 1}
        fits = [o for o in rest if o.support & u1 <= o1.support]
        for mask in range(1 << len(fits)):
            x = [o for i, o in enumerate(fits) if mask >> i & 1]
            if any(sum(1 for o in x if v in o.support) > 1 for v in ones):
                continue
            xsum = xbar = EMPTY
            for o in x:
                xsum = oplus(xsum, o)
                if not o.support & ones:
                    xbar = oplus(xbar, o)
            if xsum.support & u1 == o1.support & u2:
                out.add(oplus(_wedge_by_definition(o1, xsum, u1, u2), xbar))
    return out


def test_match2_raw_groups_equal_the_subset_enumeration():
    rng = random.Random(61)
    for i in range(150):
        names = rng.sample("uvwxyz", rng.randint(4, 6))
        u1 = frozenset(names[: rng.randint(2, len(names))])
        u2 = frozenset(names[rng.randint(1, min(len(u1) - 1, len(names) - 3)):])
        e1 = union_omega(_random_two(rng, u1), _random_two(rng, u1))
        shared = sorted(u1 & u2)
        t2 = {EMPTY}
        while sum(1 for g in t2 if g.support & u1) < i % 9:  # 0 to 8 touching
            exps = {v: rng.choice((1, 2)) for v in sorted(u2) if rng.random() < 0.4}
            exps[rng.choice(shared)] = rng.choice((1, 2))
            t2.add(Multiset(exps))
        for _ in range(rng.randint(0, 2)):
            t2.add(Multiset({v: rng.choice((1, 2)) for v in sorted(u2 - u1) if rng.random() < 0.6}))
        raw = match2_opt_generators(e1.groups, u1, t2, u2)
        assert set(raw) == _match2_raw_by_subsets(e1.groups, u1, t2, u2), (str(e1), t2)


def _linear_subsets_by_subsets(rest, n, m1, cover, linear):
    """The states of ``linear_subsets``, one subset X of the fitting groups
    at a time, dropping X when two of its groups meet on ``linear``."""
    fits = [g for g in rest if not g[1] & m1 & ~cover]
    states = set()
    for mask in range(1 << len(fits)):
        x = [g for i, g in enumerate(fits) if mask >> i & 1]
        union = stars = doubled = 0
        for _, gm, gs in x:
            stars |= union & gm | gs
            union |= gm
            if not gm & linear:
                doubled |= gm
        if not any(a[1] & b[1] & linear for i, a in enumerate(x) for b in x[:i]):
            states.add(union | stars << n | doubled << 2 * n)
    return states


def test_linear_subsets_equal_the_subset_enumeration():
    rng = random.Random(67)
    edges = set()
    for i in range(240):
        n = rng.randint(2, 7)
        full = (1 << n) - 1
        m1 = rng.randint(1, full)
        cover = (0, m1, rng.randint(0, full) & m1)[i % 3]
        linear = (0, cover, rng.randint(0, full) & cover)[i // 3 % 3]
        rest = []
        for key in range(i % 9):  # 0 to 8 groups, some off the cover
            gm = rng.randint(1, full)
            if rng.random() < 0.7:
                gm &= ~m1 | cover
            rest.append((key, gm or 1 << rng.randrange(n), rng.randint(0, full) & gm))
        edges |= {cover == 0 and "no cover", linear == cover and "all linear",
                  linear == 0 and "none linear", any(g[1] & m1 & ~cover for g in rest) and "off"}
        states = linear_subsets(rest, n, m1, cover, linear)
        assert states == _linear_subsets_by_subsets(rest, n, m1, cover, linear), i
    assert {"no cover", "all linear", "none linear", "off"} <= edges
