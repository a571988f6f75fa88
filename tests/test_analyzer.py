import gc
import itertools
import random
import sys
import time
import weakref
from pathlib import Path

import pytest

from sharlin import analyzer, existential, shlin2, shlin_omega
from sharlin.analyzer import (
    AnalysisRequest,
    Atom,
    FixpointLimitExceeded,
    ParseError,
    PredicateMismatch,
    analyze,
    backward_unify,
    baseline_amgu,
    forward_unify,
    parse_goal,
    parse_injection,
    parse_program,
    DOMAINS,
)
from sharlin.existential import canonicalize, emgu_subst, parse_existential
from sharlin.multiset import EMPTY, Multiset, fold_frontier
from sharlin.shlin_omega import alpha_omega, leq_omega, omega_element, parse_omega, project_omega
from sharlin.shlin2 import (
    alpha2,
    leq2,
    oplus,
    parse_two,
    two_element,
)
from sharlin.shlin_sl import alpha_sl, parse_sl
from sharlin.terms import (
    App,
    EPSILON,
    Substitution,
    UnificationError,
    Var,
    is_linear_term,
    mgu_terms,
    parse_substitution,
    parse_term,
    term_vars,
)

MEMBER = """
member(u, [u|v]).
member(u, [v|w]) :- member(u, w).
"""

P61 = "p(u,v,w)."


def test_parse_program():
    prog = parse_program(P61)
    assert len(prog.clauses) == 1
    assert str(prog.clauses[0]) == "p(u, v, w)."
    prog = parse_program(MEMBER)
    assert str(prog.clauses[0].head) == "member(u, [u|v])"
    assert prog.clauses[1].body[0].pred == "member"
    # list sugar desugars to the cons symbol
    assert prog.clauses[0].head.args[1] == App(".", (Var("u"), Var("v")))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_program("p(x :-")
    assert exc.value.lineno == 1
    with pytest.raises(ParseError):
        parse_goal("p(x), q(y)")
    with pytest.raises(ParseError) as exc:
        parse_program("p(x).\nq(y")
    assert exc.value.lineno == 2
    assert exc.value.column == 4
    assert str(exc.value).count("(line 2, column 4)") == 1
    assert "(line 2)" not in str(exc.value)


def test_parse_goal():
    g = parse_goal("member(x, [y]).")
    assert g == Atom("member", (Var("x"), App(".", (Var("y"), App("[]")))))


def test_baseline_amgu_two_examples():
    e = shlin_omega.extend(parse_two("[xy, xz]_{x,y,z}"), {"u"})
    r = baseline_amgu(e, "x", Var("u"), "two")
    assert project_omega(r, {"u", "x", "y", "z"}) == parse_two("[uxy, uxz]_{u,x,y,z}")

    e = parse_two("[uvxy, uxz, w]_{u,v,w,x,y,z}")
    r = baseline_amgu(e, "w", App("[]"), "two")
    assert r == parse_two("[uvxy, uxz]_{u,v,w,x,y,z}")


def test_baseline_amgu_omega_chain():
    e = shlin_omega.extend(parse_omega("[x, z]_{x,z}"), {"u", "v", "w"})
    e = baseline_amgu(e, "u", parse_term("x"), "omega")
    e = baseline_amgu(e, "v", parse_term("f(x,z)"), "omega")
    e = baseline_amgu(e, "w", parse_term("z"), "omega")
    assert e == parse_omega("[uvx, vwz]_{u,v,w,x,z}")


def test_baseline_amgu_rejects_foreign_variables():
    with pytest.raises(ValueError):
        baseline_amgu(parse_omega("[x]_{x}"), "x", Var("q"), "omega")


def test_baseline_amgu_rejects_a_negative_cap():
    # an uncapped omega analysis has no finite sound answer, so 0 and None
    # are rejected like a negative cap, by every entry point
    e = parse_omega("[x^2, y]_{x,y}")
    goal, head = parse_goal("p(x, y)"), parse_goal("p(u, v)")
    for cap in (-1, 0, None):
        entry_points = [
            lambda: baseline_amgu(e, "x", Var("y"), "omega", cap=cap),
            lambda: forward_unify(e, goal, head, "omega", cap),
            lambda: backward_unify(e, e, e, Substitution({}), "mgu", "omega", {"x", "y"}, cap),
        ]
        for entry in entry_points:
            with pytest.raises(ValueError, match=f"cap .* not {cap}$"):
                entry()


@pytest.mark.parametrize("cap", [4, 5, 6])
def test_baseline_amgu_covers_the_concrete_answer_at_high_caps(cap):
    # {w/t(_1,_1)} abstracts to [v, w^2]; bound by v/f(w, w) it gives
    # v^4w^2, which a repetition bound below the cap missed
    delta = parse_substitution("{v/f(w,w)}")
    concrete = alpha_omega(emgu_subst(parse_existential("[{w/t(_1,_1)}]_{v,w}"), delta))
    assert concrete == parse_omega("[v^4w^2]_{v,w}")
    answer = baseline_amgu(parse_omega("[v, w^2]_{v,w}"), "v", parse_term("f(w, w)"),
                           "omega", cap)
    for g in concrete.groups:
        assert g.clip(cap) in answer.groups, (cap, str(answer))


def _copies_bind(groups, var, term, exp, add, copies, zero):
    """The binding rule written with scaled group copies: the non-linear
    joins are the sums of subsets of the relevant groups and of their
    ``copies(relevant)``, equal copies counted once. Reference for the
    bounded-repetition rule of ``baseline_amgu``."""
    tvars = frozenset(term_vars(term))
    rx = {g for g in groups if exp(g, var)}
    rt = {g for g in groups if g.support & tvars}
    rest = {g for g in groups if g not in rx and g not in rt}
    if not rt:
        return rest, set()
    linear = (
        var not in tvars
        and all(exp(g, var) <= 1 for g in groups)
        and is_linear_term(term)
        and all(all(exp(g, v) <= 1 for g in groups) for v in tvars)
        and not any(len(g.support & tvars) > 1 for g in groups)
    )
    if linear:
        return rest, {add(gx, gt) for gx in rx for gt in rt} | (rx & rt)
    relevant = sorted(rx | rt, key=lambda g: g.sort_key())
    sums = fold_frontier(zero, dict.fromkeys(relevant + copies(relevant), 1),
                         lambda frontier, g: {add(s, g) for s in frontier})
    return rest, {s for s in sums if exp(s, var) and any(exp(s, v) for v in tvars)}


def _abstract(x, source, d):
    """``x``, an element of the module ``source``, abstracted down the
    ``above`` chain to the domain module ``d``."""
    return x if d is source else d.alpha(_abstract(x, source, d.above))


def _copies_amgu(e, var, term, domain, cap):
    if domain == "sl":
        sl = DOMAINS["sl"]
        return sl.alpha(_copies_amgu(sl.gamma(e), var, term, "two", cap))
    if domain == "two":
        rest, joins = _copies_bind(
            e.groups, var, term, Multiset.count, oplus,
            lambda relevant: [oplus(g, g) for g in relevant], EMPTY,
        )
        return two_element(rest | joins, e.interest)

    def copies(relevant):
        top = max(n for g in relevant for _, n in g.items())
        top = min(top, cap)
        return [g.scale(k) for g in relevant for k in range(2, max(top, 2) + 1)]

    rest, joins = _copies_bind(
        e.groups, var, term, Multiset.count, lambda a, b: (a + b).clip(cap), copies, EMPTY,
    )
    return omega_element(rest | {g.clip(cap) for g in joins}, e.interest)


def _random_binding(rng):
    """An omega element over three or four variables with multiplicities up
    to 3, and a binding of one of them to a term over them."""
    variables = ["u", "x", "y", "z"][: rng.randint(3, 4)]
    groups = []
    for _ in range(rng.randint(1, 4)):
        g = {v: rng.randint(1, 3) if rng.random() < 0.3 else 1
             for v in variables if rng.random() < 0.5}
        groups.append(Multiset(g))
    e = omega_element(groups, variables)

    def term(depth):
        if depth == 0 or rng.random() < 0.4:
            return Var(rng.choice(variables)) if rng.random() < 0.85 else App("a")
        return App(rng.choice("fg"), tuple(term(depth - 1) for _ in range(rng.randint(1, 3))))

    return e, rng.choice(variables), term(2)


def test_baseline_amgu_repetition_bounds_match_the_copies_rule():
    rng = random.Random(61)
    for _ in range(300):
        e, var, t = _random_binding(rng)
        two = alpha2(e)
        sl = alpha_sl(two)
        for cap in (1, 2, 3, 4):
            assert baseline_amgu(two, var, t, "two", cap) == _copies_amgu(two, var, t, "two", cap)
            assert baseline_amgu(sl, var, t, "sl", cap) == _copies_amgu(sl, var, t, "sl", cap)
            new = baseline_amgu(e, var, t, "omega", cap)
            old = _copies_amgu(e, var, t, "omega", cap)
            # the copies rule repeats a group at most 1 + 2 + ... + k times,
            # which falls short of a cap of 4 or more
            assert new == old if cap <= 3 else leq_omega(old, new), (str(e), var, str(t), cap)


def _tuple_bind(groups, var, term, ceiling):
    """The binding rule folding its non-linear sums as count tuples, one
    saturating add per variable and step. Reference for the packed fold of
    ``baseline_amgu``."""
    tvars = frozenset(term_vars(term))
    rx = {g for g in groups if g.count(var)}
    rt = {g for g in groups if g.support & tvars}
    rest = {g for g in groups if g not in rx and g not in rt}
    if not rt:
        return rest
    linear = (
        var not in tvars
        and all(g.count(var) <= 1 for g in groups)
        and is_linear_term(term)
        and all(all(g.count(v) <= 1 for g in groups) for v in tvars)
        and not any(len(g.support & tvars) > 1 for g in groups)
    )
    if linear:
        joins = {gx + gt for gx in rx for gt in rt} | (rx & rt)
    else:
        relevant = sorted(rx | rt, key=Multiset.sort_key)
        names = sorted(set().union(*(g.support for g in relevant)))

        def step(s, g):
            return tuple(min(a + b, ceiling) for a, b in zip(s, g))

        counts = {tuple(map(g.count, names)): ceiling for g in relevant}
        sums = (Multiset({v: n for v, n in zip(names, s) if n})
                for s in fold_frontier((0,) * len(names), counts,
                                       lambda frontier, g: {step(s, g) for s in frontier}))
        joins = {s for s in sums if s.count(var) and any(s.count(v) for v in tvars)}
    return rest | {g.clip(ceiling) for g in joins}


def _wide_bindings(rng, caps, n):
    """``n`` random (cap, omega element, variable, term) bindings over up to
    seven variables with counts up to 9, cycling through ``caps``."""
    for i in range(n):
        cap = caps[i % len(caps)]
        variables = list("tuvwxyz"[: rng.randint(2, 7)])
        most = rng.choice((2, 3, 9))
        groups = [Multiset({v: rng.randint(1, most) if rng.random() < 0.4 else 1
                            for v in variables if rng.random() < 0.5})
                  for _ in range(rng.randint(1, 4))]
        args = [Var(rng.choice(variables)) for _ in range(rng.randint(1, 3))]
        t = args[0] if rng.random() < 0.3 else App("f", tuple(args))
        yield cap, omega_element(groups, variables), rng.choice(variables), t


def test_baseline_amgu_packed_fold_matches_the_tuple_fold():
    caps = (1, 2, 3, 4, 5, 6, 7)
    # a step from x^c y^c by itself sums every field to exactly 2c
    edge = [(c, omega_element([Multiset({"x": c, "y": c}), Multiset({"y": 9})], ["x", "y"]),
             "x", Var("y")) for c in range(1, 8)]
    for cap, e, var, t in edge + list(_wide_bindings(random.Random(90), caps, 1800)):
        expected = omega_element(_tuple_bind(e.groups, var, t, cap), e.interest)
        assert baseline_amgu(e, var, t, "omega", cap) == expected, (str(e), var, str(t), cap)
        two = alpha2(e)
        expected = two_element(_tuple_bind(two.groups, var, t, 2), two.interest)
        assert baseline_amgu(two, var, t, "two", cap) == expected, (str(two), var, str(t))


APP = "app([], v, v).\napp([u|v], w, [u|x]) :- app(v, w, x).\n"


@pytest.mark.parametrize("program, goal, call, answer", [
    (
        APP,
        "app(x, y, z)",
        "[xy, z]_{x,y,z}",
        "[xyz, xyz^2, xyz^3, x^2y^2z, x^2y^2z^2, x^2y^2z^3, x^3y^3z, x^3y^3z^2, x^3y^3z^3]"
        "_{x,y,z}",
    ),
    (MEMBER, "member(x, y)", "[xy, x^2]_{x,y}", "[xy, x^2y^2, x^3y, x^3y^2, x^3y^3]_{x,y}"),
    (APP, "app(x, x, y)", "[xy, y]_{x,y}", "[xy, xy^2, xy^3, x^2y^2, x^2y^3, x^3y^3]_{x,y}"),
    (APP, "app([x|y], z, z)", "[yz]_{x,y,z}", "[yz, y^2z^2, y^3z^3]_{x,y,z}"),
], ids=["app-alias", "member", "app-xxy", "app-cons"])
def test_omega_mgu_answers_of_the_copies_rule(program, goal, call, answer):
    # the first two are the answers the scaled-copies rule gave, after 19 s
    # and 21 s on a 2-core x86 box where the bounded-repetition fold needs
    # under 2 s; the last two took about 20 s each on that box while the
    # backward step folded every variable to the end, and about 2.5 s since
    res = analyze(AnalysisRequest(
        program=parse_program(program), goal=parse_goal(goal), call=parse_omega(call),
        domain="omega", mode="mgu",
    ))
    assert res.answer == parse_omega(answer)


def test_forward_unify_61():
    call = parse_omega("[x, z]_{x,z}")
    goal = parse_goal("p(x, f(x,z), z)")
    head = parse_goal("p(u, v, w)")
    full, entry, theta = forward_unify(call, goal, head, "omega")
    assert full == parse_omega("[uvx, vwz]_{u,v,w,x,z}")
    assert entry == parse_omega("[uv, vw]_{u,v,w}")
    assert theta == Substitution(
        {"u": Var("x"), "v": parse_term("f(x,z)"), "w": Var("z")}
    )


def test_forward_unify_62_second_clause_entry():
    # the derived entry substitution: uxz meets {u,v,w} in u alone, so the
    # singleton group is u (the narrative's other printed variant); either
    # variant projects to the same body-atom call
    call = parse_two("[xy, xz]_{x,y,z}")
    goal = parse_goal("member(x, [y])")
    head = parse_goal("member(u, [v|w])")
    full, entry, theta = forward_unify(call, goal, head, "two")
    assert full == parse_two("[uvxy, uxz]_{u,v,w,x,y,z}")
    assert entry == parse_two("[uv, u]_{u,v,w}")
    assert project_omega(entry, {"u", "w"}) == project_omega(parse_two("[uv, v]_{u,v,w}"),
                                                             {"u", "w"})


def test_forward_unify_failure_gives_bottom():
    call = parse_omega("[x]_{x}")
    full, entry, theta = forward_unify(
        call, parse_goal("p(a)"), parse_goal("p(b)"), "omega"
    )
    assert full.is_bottom() and entry.is_bottom() and theta is None


def test_forward_unify_mismatch():
    with pytest.raises(PredicateMismatch):
        forward_unify(parse_omega("[x]_{x}"), parse_goal("p(x)"), parse_goal("q(x)"), "omega")
    with pytest.raises(PredicateMismatch):
        forward_unify(parse_omega("[x]_{x}"), parse_goal("p(x)"), parse_goal("p(x, y)"), "omega")


def test_backward_unify_61():
    call = parse_omega("[x, z]_{x,z}")
    goal = parse_goal("p(x, f(x,z), z)")
    head = parse_goal("p(u, v, w)")
    full, entry, theta = forward_unify(call, goal, head, "omega")
    ans = backward_unify(call, entry, full, theta, "matching", "omega", {"x", "z"})
    assert ans == parse_omega("[x, z]_{x,z}")
    ans2 = backward_unify(call, entry, full, theta, "mgu", "omega", {"x", "z"}, cap=3)
    assert "xz" in {str(g) for g in ans2.groups}


def test_backward_unify_62_steps():
    # injected printed intermediates; backward steps computed both ways
    call = parse_two("[xy, xz]_{x,y,z}")
    exit_elem = parse_two("[u^*]_{u,v}")
    full = parse_two("[u^*x^*y^*]_{u,v,x,y,z}")
    theta = Substitution({"x": Var("u"), "y": Var("u"), "v": App("[]")})
    m = backward_unify(call, exit_elem, full, theta, "matching", "two", {"x", "y", "z"})
    assert m == parse_two("[x^*y^*]_{x,y,z}")
    g = backward_unify(call, exit_elem, full, theta, "mgu", "two", {"x", "y", "z"})
    assert g == parse_two("[x^*y^*, x^*y^*z^*]_{x,y,z}")


def _mgu_step_without_drops(call, exit_elem, theta, domain, goal_vars, cap):
    """The ``mgu`` backward step folding every binding over the whole joined
    element, and projecting onto the goal variables only at the end."""
    ops = DOMAINS[domain]
    shared = sorted(exit_elem.interest & call.interest)
    primed = {v: f"_b{i}" for i, v in enumerate(shared)}
    e = shlin_omega.join_disjoint(call, shlin_omega.rename_omega(exit_elem, primed))
    bindings = [(primed[v], Var(v)) for v in shared] + list(theta.bindings())
    steps = []
    for v, t in bindings:
        steps.append((e, v, t))
        e = ops.amgu(e, v, t, cap)
    return project_omega(e, goal_vars), steps


def _random_backward_step(rng, domain):
    """A call over some of w, x, y, z, an answer over the clause variables
    t, u, v and perhaps some call variables, head bindings from unifying
    random head and goal arguments, and goal variables, some of which may
    be read by no binding."""
    def element(variables):
        groups = [Multiset({v: rng.randint(1, 3) if rng.random() < 0.3 else 1
                            for v in variables if rng.random() < 0.5})
                  for _ in range(rng.randint(1, 3))]
        return _abstract(omega_element(groups, variables), shlin_omega, DOMAINS[domain])

    def term(variables, depth):
        if depth == 0 or rng.random() < 0.5:
            return Var(rng.choice(variables)) if rng.random() < 0.75 else App("a")
        return App(rng.choice("fg"), tuple(term(variables, depth - 1)
                                           for _ in range(rng.randint(1, 2))))

    call_vars = rng.sample("wxyz", rng.randint(2, 3))
    clause_vars = rng.sample("tuv", rng.randint(1, 3))
    if rng.random() < 0.2:  # a body atom's answer: no head bindings
        answer_vars, theta = rng.sample(call_vars, rng.randint(1, len(call_vars))), EPSILON
    else:
        answer_vars = clause_vars + [v for v in call_vars if rng.random() < 0.3]
        pairs = [(term(clause_vars, 2), term(call_vars, 2)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            pairs.append((Var(rng.choice(clause_vars)), App("a")))
        try:
            theta = mgu_terms(pairs)
        except UnificationError:
            theta = mgu_terms([(Var(v), Var(rng.choice(call_vars))) for v in clause_vars])
    goal_vars = {v for v in call_vars + answer_vars if rng.random() < 0.6}
    return element(call_vars), element(answer_vars), theta, goal_vars


@pytest.mark.parametrize("domain, cap", [("omega", 1), ("omega", 2), ("omega", 3),
                                         ("omega", 4), ("two", 3), ("sl", 3)])
def test_mgu_backward_step_drops_variables_exactly(domain, cap):
    # dropping each variable at its last use must answer what folding every
    # binding over the whole element and projecting at the end answers
    rng = random.Random(1500 + cap + len(domain))
    seen = dict.fromkeys(("shared", "dies early", "ground", "linear"), 0)
    d = DOMAINS[domain]
    for _ in range(1000):
        call, exit_elem, theta, goal_vars = _random_backward_step(rng, domain)
        got = backward_unify(call, exit_elem, None, theta, "mgu", domain, goal_vars, cap)
        expected, steps = _mgu_step_without_drops(call, exit_elem, theta, domain, goal_vars, cap)
        assert got == expected, (str(call), str(exit_elem), str(theta), sorted(goal_vars))
        last = {u: i for i, (_, v, t) in enumerate(steps) for u in (v, *term_vars(t))}
        seen["shared"] += any(v.startswith("_b") for _, v, _ in steps)
        seen["dies early"] += any(i < len(steps) - 1 for u, i in last.items()
                                  if u not in goal_vars)
        seen["ground"] += any(not term_vars(t) for _, _, t in steps)
        for e, v, t in steps:
            groups = (d.gamma(e) if hasattr(d, "gamma") else e).groups
            tvars = term_vars(t)
            seen["linear"] += bool(
                any(g.support & tvars for g in groups)
                and v not in tvars and is_linear_term(t)
                and all(g.count(u) <= 1 for g in groups for u in tvars | {v})
                and not any(len(g.support & tvars) > 1 for g in groups)
            )
    assert min(seen.values()) >= 100, seen


def test_analyze_61_end_to_end():
    prog = parse_program(P61)
    goal = parse_goal("p(x, f(x,z), z)")
    call = parse_omega("[x, z]_{x,z}")
    res = analyze(AnalysisRequest(program=prog, goal=goal, call=call, domain="omega"))
    assert res.answer == parse_omega("[x, z]_{x,z}")
    res2 = analyze(
        AnalysisRequest(program=prog, goal=goal, call=call, domain="omega", mode="mgu")
    )
    assert "xz" in {str(g) for g in res2.answer.groups}


INJECT_62 = """
# printed forward intermediates for the first and second clause
0 0 [u^*x^*y^*]_{u,v,x,y,z}
0 1 [u^*]_{u,v}
1 0 [uvxy, uxz]_{u,v,w,x,y,z}
1 1 [uv, v]_{u,v,w}
"""


def test_analyze_62_with_injection():
    prog = parse_program(MEMBER)
    goal = parse_goal("member(x, [y])")
    call = parse_two("[xy, xz]_{x,y,z}")
    injection = parse_injection(INJECT_62, "two")
    res = analyze(
        AnalysisRequest(
            program=prog, goal=goal, call=call, domain="two",
            mode="matching", injection=injection,
        )
    )
    assert res.answer == parse_two("[x^*y^*]_{x,y,z}")
    res2 = analyze(
        AnalysisRequest(
            program=prog, goal=goal, call=call, domain="two",
            mode="mgu", injection=injection,
        )
    )
    assert res2.answer == parse_two("[x^*y^*, x^*y^*z^*]_{x,y,z}")


def test_analyze_62_without_injection_is_sound_but_less_precise():
    prog = parse_program(MEMBER)
    goal = parse_goal("member(x, [y])")
    call = parse_two("[xy, xz]_{x,y,z}")
    res = analyze(AnalysisRequest(program=prog, goal=goal, call=call, domain="two"))
    assert leq2(parse_two("[x^*y^*]_{x,y,z}"), res.answer)


def test_analyze_deterministic_and_traced():
    prog = parse_program(MEMBER)
    goal = parse_goal("member(x, [y])")
    call = parse_two("[xy, xz]_{x,y,z}")
    req = AnalysisRequest(program=prog, goal=goal, call=call, domain="two")
    r1, r2 = analyze(req), analyze(req)
    assert r1.answer == r2.answer
    assert r1.trace == r2.trace
    assert r1.passes == r2.passes
    assert any(step.depth == 1 for step in r1.trace)


def test_fixpoint_terminates_in_finite_domains():
    prog = parse_program("loop(u) :- loop(u).\nloop(a).")
    goal = parse_goal("loop(x)")
    for domain, call in (("two", parse_two("[x]_{x}")), ("sl", parse_sl("[{x}, lin={x}]_{x}"))):
        res = analyze(AnalysisRequest(program=prog, goal=goal, call=call, domain=domain))
        assert res.passes <= 4


def test_fixpoint_limit():
    prog = parse_program("loop(u) :- loop(u).")
    goal = parse_goal("loop(x)")
    # the first pass always adds a table entry, so one pass never settles
    with pytest.raises(FixpointLimitExceeded):
        analyze(
            AnalysisRequest(
                program=prog,
                goal=goal,
                call=parse_two("[x]_{x}"),
                domain="two",
                max_passes=1,
            )
        )


def test_mgu_backward_step_folds_few_groups(monkeypatch):
    # each variable leaves the backward step once nothing reads it, so the
    # aliased app call hands _bind at most 137 groups; folding every
    # variable to the end handed it up to 425
    sizes, inside = [], []
    bind, backward = shlin_omega._bind, analyzer.backward_unify

    def measured_bind(groups, *args):
        if inside:
            sizes.append(len(groups))
        return bind(groups, *args)

    def marked_backward(*args):
        inside.append(True)
        try:
            return backward(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(shlin_omega, "_bind", measured_bind)
    monkeypatch.setattr(analyzer, "backward_unify", marked_backward)
    analyze(AnalysisRequest(program=parse_program(APP), goal=parse_goal("app(x, y, z)"),
                            call=parse_omega("[xy, z]_{x,y,z}"), domain="omega", mode="mgu"))
    assert sizes and max(sizes) <= 150, max(sizes)


@pytest.mark.parametrize("passes", [0, -2])
def test_analyze_rejects_max_passes_below_1(passes):
    req = AnalysisRequest(program=parse_program("p(u)."), goal=parse_goal("p(x)"),
                          call=parse_two("[x]_{x}"), domain="two", max_passes=passes)
    with pytest.raises(ValueError, match=f"max_passes must be at least 1, not {passes}"):
        analyze(req)


NREV = """
app([], v, v).
app([u|v], w, [u|x]) :- app(v, w, x).
nrev([], []).
nrev([u|v], w) :- nrev(v, x), app(x, [u], w).
"""


def test_step_table_is_live_and_per_analysis(monkeypatch):
    forward, clauses, pieces, engines = [], [], [], []
    unify, rename = analyzer.forward_unify, analyzer._Engine._rename_clause
    init = analyzer._Engine.__init__
    # the engine's own code: a piece it computes is called from one of these
    engine_code = {f.__code__ for f in vars(analyzer._Engine).values() if callable(f)}

    def tracked_init(self, req):
        init(self, req)
        engines.append(weakref.ref(self))

    def counted_unify(*args):
        forward.append(args)
        return unify(*args)

    def counted_rename(self, clause, avoid):
        clauses.append(clause)
        return rename(self, clause, avoid)

    def counted_piece(name, f):
        def piece(*args):
            if sys._getframe(1).f_code in engine_code:
                pieces.append((name, args))
            return f(*args)
        return piece

    monkeypatch.setattr(analyzer, "forward_unify", counted_unify)
    monkeypatch.setattr(analyzer._Engine, "_rename_clause", counted_rename)
    monkeypatch.setattr(analyzer._Engine, "__init__", tracked_init)
    # call patterns, renamed clauses and renamings, and the projections,
    # unions and the domain's bottoms between the steps (``two`` is shlin2)
    for module, names in ((analyzer, ("_pattern", "_rename_apart", "_rename")),
                          (shlin_omega, ("project_omega", "union_omega")),
                          (shlin2, ("bottom",))):
        for name in names:
            monkeypatch.setattr(module, name, counted_piece(name, getattr(module, name)))
    req = AnalysisRequest(program=parse_program(NREV), goal=parse_goal("nrev(x, y)"),
                          call=parse_two("[x, y]_{x,y}"), domain="two", mode="mgu")
    result = analyze(req)
    assert result.passes == 5
    # every clause evaluation of every pass needs a forward step, but only
    # the distinct ones run: later passes repeat the first one's arguments
    assert len(forward) == len(set(forward)) < len(clauses)
    # so does every other piece of the engine: each runs once per analysis
    assert {name for name, _ in pieces} == {"_pattern", "_rename_apart", "_rename",
                                            "project_omega", "union_omega", "bottom"}
    assert len(pieces) == len(set(pieces))
    # the tables belong to their analysis: the same request runs them again
    first, first_pieces = len(forward), len(pieces)
    assert analyze(req) == result
    assert forward[first:] == forward[:first]
    assert pieces[first_pieces:] == pieces[:first_pieces]
    # and go when the analysis returns, not at the next cyclic collection
    gc.disable()
    try:
        analyze(req)
    finally:
        gc.enable()
    assert len(engines) == 3 and all(ref() is None for ref in engines)


# (program, goal, call, answer): a renamed clause variable must not be a
# call variable. `p(u)` renamed `u` to `u1`, and `x1` + `1` and `x` + `11`
# both gave `x11`, which joined the call's independent variables.
RENAMING = [
    ("p(u).", "p(x)", "[x, u1]_{u1,x}", "[u1, x]_{u1,x}"),
    ("q(x1, y) :- s, r(y, x1).\n" + "s.\n" * 9 + "r(x, w).\n", "q(u, v)", "[u, v]_{u,v}",
     "[u, v]_{u,v}"),
]


@pytest.mark.parametrize("program, goal, call, answer", RENAMING, ids=["u1", "x11"])
@pytest.mark.parametrize("domain", ["omega", "two", "sl"])
@pytest.mark.parametrize("mode", ["matching", "mgu"])
def test_clauses_are_not_renamed_onto_call_variables(program, goal, call, answer, domain,
                                                     mode):
    def as_domain(text):
        return _abstract(parse_omega(text), shlin_omega, DOMAINS[domain])

    req = AnalysisRequest(program=parse_program(program), goal=parse_goal(goal),
                          call=as_domain(call), domain=domain, mode=mode)
    assert analyze(req).answer == as_domain(answer)


def test_matching_at_least_as_precise_on_the_worked_instances():
    prog = parse_program(P61)
    goal = parse_goal("p(x, f(x,z), z)")
    call = parse_omega("[x, z]_{x,z}")
    m = analyze(AnalysisRequest(program=prog, goal=goal, call=call, domain="omega")).answer
    g = analyze(
        AnalysisRequest(program=prog, goal=goal, call=call, domain="omega", mode="mgu")
    ).answer
    assert leq_omega(m, g) and m != g

    prog = parse_program(MEMBER)
    goal = parse_goal("member(x, [y])")
    call = parse_two("[xy, xz]_{x,y,z}")
    injection = parse_injection(INJECT_62, "two")
    m = analyze(
        AnalysisRequest(
            program=prog, goal=goal, call=call, domain="two", injection=injection
        )
    ).answer
    g = analyze(
        AnalysisRequest(
            program=prog, goal=goal, call=call, domain="two", mode="mgu",
            injection=injection,
        )
    ).answer
    assert leq2(m, g) and m != g


def test_matching_mode_never_less_precise_randomized():
    # regression values first: these once came out incomparable, due to a
    # missing shared-group survivor in the binding rule and to the exact
    # matcher escaping the analysis cap
    prog = parse_program(MEMBER)
    goal = parse_goal("member(x, [y, z])")
    call = parse_omega("[yz]_{x,y,z}")
    m = analyze(AnalysisRequest(program=prog, goal=goal, call=call, domain="omega")).answer
    g = analyze(
        AnalysisRequest(program=prog, goal=goal, call=call, domain="omega", mode="mgu")
    ).answer
    assert m == parse_omega("[yz]_{x,y,z}")
    assert g == parse_omega("[yz, y^2z^2]_{x,y,z}")
    assert leq_omega(m, g)
    # both cover every concrete answer (x ground forces y and z ground)
    theta = parse_substitution("{x/a, y/w1, z/w1}")
    answers = list(_sld_answers(prog, (goal,), theta, depth=6))
    assert answers
    for sigma in answers:
        concrete = alpha_omega(canonicalize(sigma, {"x", "y", "z"}))
        assert leq_omega(concrete, m) and leq_omega(concrete, g)

    rng = random.Random(21)
    progs = [parse_program(MEMBER), parse_program(P61), parse_program("dup(u, t(u, u)).")]
    goals = [
        ["member(x, [y, z])", "member(x, [f(x, y)])"],
        ["p(x, f(x,z), z)", "p(x, y, x)"],
        ["dup(x, y)", "dup(f(x,y), z)"],
    ]
    for _ in range(40):
        pi = rng.randrange(len(progs))
        goal = parse_goal(rng.choice(goals[pi]))
        domain = rng.choice(("omega", "two", "sl"))
        call = _random_call(rng, domain, goal.variables)
        req = dict(program=progs[pi], goal=goal, call=call, domain=domain, max_passes=40)
        try:
            m = analyze(AnalysisRequest(**req)).answer
            g = analyze(AnalysisRequest(mode="mgu", **req)).answer
        except FixpointLimitExceeded:
            continue
        assert DOMAINS[domain].leq(m, g), (domain, str(goal), str(call), str(m), str(g))


def _random_call(rng, domain, variables):
    variables = sorted(variables)
    groups = []
    for _ in range(rng.randint(1, 3)):
        g = [v for v in variables if rng.random() < 0.6]
        if g:
            groups.append(g)
    if domain != "sl":
        return DOMAINS[domain].parse(
            "[" + ", ".join("".join(g) for g in groups) + "]_{" + ",".join(variables) + "}"
        )
    lin = [v for v in variables if rng.random() < 0.7]
    return DOMAINS["sl"].parse(
        "[{" + ", ".join("".join(g) for g in groups) + "}, lin={" + ",".join(lin) + "}]_{"
        + ",".join(variables) + "}"
    )


# --- soundness against a concrete resolution semantics -----------------------


def _sld_answers(program, goal_atoms, theta, depth, counter=None):
    """Depth-bounded resolution: yields accumulated substitutions."""
    if counter is None:
        counter = itertools.count(1)
    if not goal_atoms:
        yield theta
        return
    if depth == 0:
        return
    first, rest = goal_atoms[0], goal_atoms[1:]
    for clause in program.clauses:
        if clause.head.pred != first.pred or len(clause.head.args) != len(first.args):
            continue
        n = next(counter)
        rho = {v: f"{v}c{n}" for v in clause.variables}
        sub = Substitution({v: Var(w) for v, w in rho.items()})
        head = Atom(clause.head.pred, tuple(sub.apply(a) for a in clause.head.args))
        body = tuple(
            Atom(a.pred, tuple(sub.apply(t) for t in a.args)) for a in clause.body
        )
        try:
            mgu = mgu_terms(
                [(theta.apply(g), theta.apply(h)) for g, h in zip(first.args, head.args)]
            )
        except UnificationError:
            continue
        new_theta = theta.compose(mgu)
        yield from _sld_answers(program, body + rest, new_theta, depth - 1, counter)


def test_abstract_answers_cover_concrete_resolution():
    prog = parse_program(MEMBER)
    cases = [
        ("member(x, [y, z])", EPSILON),
        ("member(x, w)", Substitution({"w": parse_term("[a, b]")})),
        ("member(x, [y])", Substitution({"x": parse_term("g(k, k)")})),
    ]
    for text, theta in cases:
        goal = parse_goal(text)
        u = goal.variables
        call_class = canonicalize(theta, u)
        answers = list(_sld_answers(prog, (goal,), theta, depth=6))
        assert answers
        for domain, d in DOMAINS.items():
            call = _abstract(call_class, existential, d)
            for mode in ("matching", "mgu"):
                res = analyze(
                    AnalysisRequest(
                        program=prog, goal=goal, call=call, domain=domain, mode=mode
                    )
                )
                for sigma in answers:
                    concrete = _abstract(canonicalize(sigma, u), existential, d)
                    assert d.leq(concrete, res.answer), (
                        domain, mode, str(sigma), str(res.answer),
                    )


def test_omega_matching_on_aliased_append_answers_in_time():
    # the matching fold once gave no answer within 60 s on this call: its
    # tails reach counts of 9 at cap 3, since the exact matcher runs before
    # the clip
    source = Path(__file__).resolve().parents[1] / "perfbench" / "programs" / "app.pl"
    prog = parse_program(source.read_text())
    goal = parse_goal("app([x|y], z, z)")
    theta = parse_substitution("{x/a, y/w1, z/w1}")
    u = goal.variables
    call = alpha_omega(canonicalize(theta, u))
    assert call == parse_omega("[yz]_{x,y,z}")
    start = time.perf_counter()
    answer = analyze(AnalysisRequest(program=prog, goal=goal, call=call, domain="omega")).answer
    assert time.perf_counter() - start < 60.0
    assert answer == parse_omega("[yz, y^2z^2, y^3z^3]_{x,y,z}")
    # appending a nonempty list to z never gives z, so depth-bounded
    # resolution finds no answer for the answer to cover
    for sigma in _sld_answers(prog, (goal,), theta, depth=6):
        assert leq_omega(alpha_omega(canonicalize(sigma, u)), answer), str(sigma)


def test_injection_rejects_unknown_variables():
    prog = parse_program(MEMBER)
    goal = parse_goal("member(x, [y])")
    call = parse_two("[xy]_{x,y}")
    injection = {(0, 0): parse_two("[k^*]_{k}")}
    with pytest.raises(ValueError):
        analyze(
            AnalysisRequest(
                program=prog, goal=goal, call=call, domain="two", injection=injection
            )
        )


@pytest.mark.parametrize("idx", [7, 2, -1], ids=["past-the-end", "other-predicate", "negative"])
def test_injection_must_name_a_clause_of_the_goal(idx):
    # member/2 has clauses 0 and 1; clause 2 belongs to other/1
    prog = parse_program(MEMBER + "other(a).\n")
    req = AnalysisRequest(program=prog, goal=parse_goal("member(x, [y])"),
                          call=parse_two("[xy, xz]_{x,y,z}"), domain="two",
                          injection=parse_injection(f"{idx} 1 [u^*]_{{u,v}}", "two"))
    with pytest.raises(ValueError, match=f"^injected clause index {idx} names no clause "
                                         "of member/2$"):
        analyze(req)


@pytest.mark.parametrize("line", ["x 0 [u]_{u}", "0 1.5 [u]_{u}", "0 1", "0"])
def test_injection_entries_need_two_integer_indices(line):
    with pytest.raises(ValueError, match="^bad injection entry on line 2: "):
        parse_injection("# clause step element\n" + line, "two")


def test_injection_entry_may_not_repeat_a_clause_and_step():
    # the second entry for one (clause, step) used to replace the first
    with pytest.raises(ValueError, match="^duplicate entry for clause 0 step 0 on line 3$"):
        parse_injection("0 0 [u]_{u}\n0 1 [u]_{u}\n0 0 [u^*]_{u}\n", "two")
    assert set(parse_injection("0 0 [u]_{u}\n0 1 [u]_{u}\n1 0 [u]_{u}\n", "two")) == {
        (0, 0), (0, 1), (1, 0)}


def test_call_interest_must_cover_goal():
    prog = parse_program(P61)
    with pytest.raises(ValueError):
        analyze(
            AnalysisRequest(
                program=prog,
                goal=parse_goal("p(x, f(x,z), z)"),
                call=parse_omega("[x]_{x}"),
                domain="omega",
            )
        )
