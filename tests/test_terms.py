import random

import pytest

from sharlin.multiset import EMPTY, Multiset, parse_group
from sharlin.terms import (
    App,
    Clash,
    EPSILON,
    OccurCheck,
    Substitution,
    Var,
    format_term,
    is_linear_term,
    mgu_terms,
    occ,
    occurrences,
    parse_substitution,
    parse_term,
    preimage_group,
    preimage_var,
    preimages,
    term_vars,
)


def test_occ_counts():
    assert occ("y", parse_term("s(y,u,y)")) == 2
    assert occ("x", parse_term("a")) == 0
    assert occ("u", parse_term("s(u,u)")) == 2


def test_occurrences_lists_variables_left_to_right_with_repeats():
    assert occurrences(parse_term("f(x, g(y, x), z)")) == ["x", "y", "x", "z"]
    assert occurrences(parse_term("[u, v|u]")) == ["u", "v", "u"]
    assert occurrences(parse_term("a")) == []
    assert occurrences(Var("w")) == ["w"]


def test_preimages_is_one_map_of_every_preimage():
    theta = parse_substitution("{x/s(y,u,y), z/s(u,u), v/u}")
    # u and y occur in bindings; w is of interest and unbound; x is bound
    pre = preimages(theta, ("w", "x"))
    assert pre == {"u": {"v": 1, "x": 1, "z": 2}, "y": {"x": 2}, "w": {"w": 1}}
    for v in "uwxyz":
        assert preimage_var(theta, v) == Multiset(preimages(theta, (v,)).get(v, {}))


def test_apply():
    theta = parse_substitution("{x/a}")
    assert theta.apply(parse_term("f(x,y)")) == parse_term("f(a,y)")
    assert EPSILON.apply(parse_term("f(x,y)")) == parse_term("f(x,y)")
    assert parse_substitution("{y/b}").apply(parse_term("r(y)")) == parse_term("r(b)")


def test_apply_fix_resolves_binding_chains():
    theta = parse_substitution("{x/f(y), y/g(z), z/a}")
    assert theta.apply_fix(parse_term("h(x, y, x)")) == parse_term("h(f(g(a)), g(a), f(g(a)))")
    # a long variable-to-variable chain needs no deep Python stack
    chain = Substitution({f"x{i}": Var(f"x{i + 1}") for i in range(5000)})
    assert chain.apply_fix(Var("x0")) == Var("x5000")
    assert parse_substitution("{x/f(x)}").apply_fix(parse_term("f(y)")) == parse_term("f(y)")


@pytest.mark.parametrize("text", ["{x/f(x)}", "{x/y, y/x}", "{x/f(y), y/g(x)}"])
def test_apply_fix_rejects_cyclic_bindings(text):
    with pytest.raises(ValueError, match="cyclic"):
        parse_substitution(text).apply_fix(parse_term("k(x)"))


def test_compose_worked_example():
    theta = parse_substitution("{v/a, w/s(x,x)}")
    eta = parse_substitution("{x/s(y,u,y), z/s(u,u), v/u}")
    composed = theta.compose(eta)
    assert composed == parse_substitution(
        "{v/a, w/s(s(y,u,y), s(y,u,y)), x/s(y,u,y), z/s(u,u)}"
    )
    assert EPSILON.compose(theta) == theta
    assert theta.compose(EPSILON) == theta


def test_mgu_example():
    theta = mgu_terms(
        [
            (parse_term("x"), parse_term("a")),
            (parse_term("z"), parse_term("r(y)")),
            (parse_term("y"), parse_term("b")),
        ]
    )
    assert theta == parse_substitution("{x/a, y/b, z/r(b)}")


def test_mgu_trivial_and_failures():
    assert mgu_terms([(parse_term("x"), parse_term("x"))]) == EPSILON
    with pytest.raises(Clash):
        mgu_terms([(parse_term("a"), parse_term("f(a)"))])
    with pytest.raises(Clash):
        mgu_terms([(parse_term("f(x)"), parse_term("g(x)"))])
    with pytest.raises(OccurCheck):
        mgu_terms([(parse_term("x"), parse_term("f(x)"))])


def test_preimage_var_examples():
    theta = parse_substitution("{x/s(y,u,y), z/s(u,u), v/u}")
    assert preimage_var(theta, "u") == parse_group("uvxz^2")
    assert preimage_var(theta, "y") == parse_group("x^2y")
    assert preimage_var(theta, "z") == EMPTY
    # untouched variables are their own singleton group
    assert preimage_var(theta, "w") == parse_group("w")


def test_preimage_group_examples():
    theta = parse_substitution("{v/a, w/s(x,x)}")
    assert preimage_group(theta, parse_group("uvxz^2")) == parse_group("uw^2xz^2")
    assert preimage_group(EPSILON, parse_group("x^2y")) == parse_group("x^2y")
    assert preimage_group(theta, EMPTY) == EMPTY


def _random_term(rng, pool, depth):
    if depth and rng.random() < 0.5:
        return App("t", tuple(_random_term(rng, pool, depth - 1) for _ in range(2)))
    if rng.random() < 0.3:
        return App("a")
    return Var(rng.choice(pool))


def _random_subst(rng, variables, pool, depth=2):
    return Substitution(
        {v: _random_term(rng, pool, depth) for v in variables if rng.random() < 0.7}
    )


def test_mgu_idempotent_and_unifies():
    rng = random.Random(11)
    for _ in range(300):
        pool = ["p", "q", "r"]
        eqs = []
        for _ in range(rng.randint(1, 3)):
            eqs.append(
                (
                    _random_term(rng, ["x", "y", "z"], 2),
                    _random_term(rng, ["x", "y", "z"], 2),
                )
            )
        del pool
        try:
            theta = mgu_terms(eqs)
        except (Clash, OccurCheck):
            continue
        assert theta.is_idempotent()
        for s, t in eqs:
            assert theta.apply(s) == theta.apply(t)
        for v in theta.domain:
            term = theta.apply(Var(v))
            assert theta.apply(term) == term


def test_composition_law_on_preimages():
    # (composition of theta then eta) pulls groups back in two stages
    rng = random.Random(23)
    for _ in range(300):
        theta = _random_subst(rng, "uvw", ["x", "y"])
        eta = _random_subst(rng, "xyz", ["k", "m"])
        b = parse_group("".join(rng.sample("xyz", rng.randint(1, 3))))
        lhs = preimage_group(theta.compose(eta), b)
        rhs = preimage_group(theta, preimage_group(eta, b))
        assert lhs == rhs


def test_occ_bilinearity():
    rng = random.Random(31)
    for _ in range(300):
        theta = _random_subst(rng, "xyz", ["p", "q"])
        t = _random_term(rng, ["x", "y", "z"], 2)
        for v in ("p", "q", "x"):
            total = sum(occ(w, t) * occ(v, theta.lookup(w)) for w in term_vars(t))
            assert occ(v, theta.apply(t)) == total


def test_is_idempotent():
    assert parse_substitution("{x/f(y)}").is_idempotent()
    assert not parse_substitution("{x/f(x)}").is_idempotent()
    assert not parse_substitution("{x/y, y/a}").is_idempotent()


def test_parse_format_round_trip():
    for text in ("x", "a", "f(x, g(y, a))", "[]", "[x, y]", "[x|y]", "member(u, [u|v])"):
        assert format_term(parse_term(text)) == text
    assert format_term(parse_term("[x,y|z]")) == "[x, y|z]"
    assert str(parse_substitution("{x/[y], z/a}")) == "{x/[y], z/a}"
    with pytest.raises(ValueError):
        parse_term("f(x")
    with pytest.raises(ValueError):
        parse_substitution("{a/x}")


def test_linear_term():
    assert is_linear_term(parse_term("f(x, z)"))
    assert not is_linear_term(parse_term("f(x, x)"))


def test_rename_vars():
    theta = Substitution({"x": App("f", (Var("q"),)), "y": Var("q")})
    renamed = theta.rename_vars({"q": "p", "x": "w"})
    assert renamed == Substitution({"w": App("f", (Var("p"),)), "y": Var("p")})
