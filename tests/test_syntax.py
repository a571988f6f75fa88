"""Properties of the one scanner behind every textual form: printing and
parsing round-trip, and nesting depth is not bounded by the Python stack."""
from hypothesis import given, settings, strategies as st

from sharlin.analyzer import parse_goal
from sharlin.existential import ExistentialSubstitution
from sharlin.multiset import EMPTY, Multiset
from sharlin.shlin_omega import alpha_omega, omega_element, parse_omega
from sharlin.shlin2 import INF, alpha2, parse_two, two_element, two_group
from sharlin.shlin_sl import parse_sl, sl_element
from sharlin.terms import (
    App,
    CONS,
    NIL,
    Substitution,
    Var,
    format_term,
    is_linear_term,
    occ,
    occurrences,
    parse_substitution,
    parse_term,
    preimage_var,
    term_vars,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

VAR_NAMES = st.from_regex(r"[u-z][a-z0-9_]{0,3}|_[1-9][0-9]?", fullmatch=True)
SYMBOLS = st.from_regex(r"[a-t0-9'][A-Za-z0-9_']{0,3}", fullmatch=True)
# any identifier may take arguments, a variable name included
FUNCTORS = st.from_regex(r"[A-Za-z0-9'][A-Za-z0-9_']{0,3}", fullmatch=True)


def _extend(children):
    compound = st.builds(
        lambda f, args: App(f, tuple(args)), FUNCTORS, st.lists(children, min_size=1, max_size=3)
    )
    cons = st.builds(lambda h, t: App(CONS, (h, t)), children, children)
    return compound | cons


TERMS = st.recursive(
    st.builds(Var, VAR_NAMES) | st.builds(App, SYMBOLS) | st.just(App(NIL)),
    _extend,
    max_leaves=12,
)
GROUP_VARS = ("u", "v", "w", "x", "y", "z", "w1", "x12")
INTEREST = st.sets(st.sampled_from(GROUP_VARS), max_size=5).map(sorted)


@PROPERTY
@given(TERMS)
def test_term_round_trip(t):
    assert parse_term(format_term(t)) == t


@PROPERTY
@given(st.dictionaries(VAR_NAMES, TERMS, max_size=4))
def test_substitution_round_trip(bindings):
    s = Substitution(bindings)
    assert parse_substitution(str(s)) == s


def _elements(groups_over):
    """(interest, groups), every group drawn by ``groups_over(interest)``."""
    return INTEREST.flatmap(lambda u: st.tuples(
        st.just(u), st.lists(groups_over(u), max_size=4) if u else st.just([])
    ))


@PROPERTY
@given(_elements(lambda u: st.dictionaries(st.sampled_from(u), st.integers(1, 4))))
def test_omega_element_round_trip(case):
    u, groups = case
    e = omega_element(map(Multiset, groups), u)
    assert parse_omega(str(e)) == e


@PROPERTY
@given(_elements(lambda u: st.dictionaries(st.sampled_from(u), st.sampled_from((1, INF)))))
def test_two_element_round_trip(case):
    u, groups = case
    e = two_element(map(two_group, groups), u)
    assert parse_two(str(e)) == e


@PROPERTY
@given(_elements(lambda u: st.dictionaries(st.sampled_from(u), st.integers(1, 4))))
def test_two_reads_an_omega_element_as_its_abstraction(case):
    """``^*`` and written counts above 2 read as the ceiling, so the text of
    an exact element parses to its clipping."""
    u, groups = case
    e = omega_element(map(Multiset, groups), u)
    assert parse_two(str(e)) == alpha2(e)


@PROPERTY
@given(_elements(lambda u: st.sets(st.sampled_from(u))), st.sets(st.sampled_from(GROUP_VARS)))
def test_sl_element_round_trip(case, linear):
    u, sharing = case
    e = sl_element(sharing, linear, u)  # keeps only the linear names in u
    assert parse_sl(str(e)) == e


DEPTH = 3000


def _nested(depth: int) -> str:
    return "f(" * depth + "x" + ")" * depth


def test_deep_term_parses_without_recursion():
    # checked with the iterative helpers: term equality still recurses
    t = parse_term(_nested(DEPTH))
    assert term_vars(t) == {"x"}
    assert occ("x", t) == 1
    assert occurrences(t) == ["x"]
    assert is_linear_term(t)
    assert preimage_var(Substitution({"y": t}), "x") == Multiset({"x": 1, "y": 1})
    c = ExistentialSubstitution(Substitution({"x": t}), frozenset({"x"}))
    assert alpha_omega(c).groups == {EMPTY, Multiset({"x": 1})}
    depth = 0
    while isinstance(t, App):
        (t,) = t.args
        depth += 1
    assert depth == DEPTH and t == Var("x")


def test_deep_goal_parses_without_recursion():
    atom = parse_goal("p(" + _nested(DEPTH) + ", [y|z]).")
    assert atom.pred == "p" and len(atom.args) == 2
    assert atom.variables == {"x", "y", "z"}
    assert occ("x", atom.args[0]) == 1
