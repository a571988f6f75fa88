import itertools
import random

import pytest

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
from sharlin.existential import canonicalize
from sharlin.multiset import EMPTY, Multiset, fold_subsets
from sharlin.shlin_omega import alpha_omega, leq_omega, omega_element, parse_omega
from sharlin.shlin2 import (
    alpha2,
    leq2,
    oplus,
    parse_two,
    project2,
    two_element,
)
from sharlin.shlin_sl import alpha_sl, gamma_sl, leq_sl, parse_sl
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
    ops = DOMAINS["two"]
    e = ops.extend(parse_two("[xy, xz]_{x,y,z}"), {"u"})
    r = baseline_amgu(e, "x", Var("u"), "two")
    assert ops.project(r, {"u", "x", "y", "z"}) == parse_two("[uxy, uxz]_{u,x,y,z}")

    e = parse_two("[uvxy, uxz, w]_{u,v,w,x,y,z}")
    r = baseline_amgu(e, "w", App("[]"), "two")
    assert r == parse_two("[uvxy, uxz]_{u,v,w,x,y,z}")


def test_baseline_amgu_omega_chain():
    ops = DOMAINS["omega"]
    e = ops.extend(parse_omega("[x, z]_{x,z}"), {"u", "v", "w"})
    e = baseline_amgu(e, "u", parse_term("x"), "omega")
    e = baseline_amgu(e, "v", parse_term("f(x,z)"), "omega")
    e = baseline_amgu(e, "w", parse_term("z"), "omega")
    assert e == parse_omega("[uvx, vwz]_{u,v,w,x,z}")


def test_baseline_amgu_rejects_foreign_variables():
    with pytest.raises(ValueError):
        baseline_amgu(parse_omega("[x]_{x}"), "x", Var("q"), "omega")


def test_baseline_amgu_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="cap .* not -1"):
        baseline_amgu(parse_omega("[x^2, y]_{x,y}"), "x", Var("y"), "omega", cap=-1)


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
    sums = fold_subsets(zero, dict.fromkeys(relevant + copies(relevant), 1), add)
    return rest, {s for s in sums if exp(s, var) and any(exp(s, v) for v in tvars)}


def _clip(g, cap):
    return Multiset({v: min(n, cap) if cap else n for v, n in g.items()})


def _copies_amgu(e, var, term, domain, cap):
    if domain == "sl":
        return alpha_sl(_copies_amgu(gamma_sl(e), var, term, "two", cap))
    if domain == "two":
        rest, joins = _copies_bind(
            e.maximals, var, term, Multiset.count, oplus,
            lambda relevant: [oplus(g, g) for g in relevant], EMPTY,
        )
        return two_element(rest | joins, e.interest)

    def copies(relevant):
        top = max(n for g in relevant for _, n in g.items())
        top = min(top, cap) if cap else top
        return [g.scale(k) for g in relevant for k in range(2, max(top, 2) + 1)]

    rest, joins = _copies_bind(
        e.groups, var, term, Multiset.count, lambda a, b: _clip(a + b, cap), copies, EMPTY,
    )
    return omega_element(rest | {_clip(g, cap) for g in joins}, e.interest)


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
        for cap in (None, 0, 1, 2, 3, 4):
            assert baseline_amgu(two, var, t, "two", cap) == _copies_amgu(two, var, t, "two", cap)
            assert baseline_amgu(sl, var, t, "sl", cap) == _copies_amgu(sl, var, t, "sl", cap)
            new = baseline_amgu(e, var, t, "omega", cap)
            old = _copies_amgu(e, var, t, "omega", cap)
            # with no cap, equal copies of different groups were counted
            # once, so the copies rule missed some sums
            assert new == old if cap else leq_omega(old, new), (str(e), var, str(t), cap)


@pytest.mark.parametrize("program, goal, call, answer", [
    (
        "app([], v, v).\napp([u|v], w, [u|x]) :- app(v, w, x).\n",
        "app(x, y, z)",
        "[xy, z]_{x,y,z}",
        "[xyz, xyz^2, xyz^3, x^2y^2z, x^2y^2z^2, x^2y^2z^3, x^3y^3z, x^3y^3z^2, x^3y^3z^3]"
        "_{x,y,z}",
    ),
    (MEMBER, "member(x, y)", "[xy, x^2]_{x,y}", "[xy, x^2y^2, x^3y, x^3y^2, x^3y^3]_{x,y}"),
], ids=["app-alias", "member"])
def test_omega_mgu_answers_of_the_copies_rule(program, goal, call, answer):
    # the answers the scaled-copies rule gave, after 19 s and 21 s on a
    # 2-core x86 box where the bounded-repetition fold needs under 2 s
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
    assert project2(entry, {"u", "w"}) == project2(parse_two("[uv, v]_{u,v,w}"), {"u", "w"})


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


def test_fixpoint_terminates_without_cap_in_finite_domains():
    prog = parse_program("loop(u) :- loop(u).\nloop(a).")
    goal = parse_goal("loop(x)")
    for domain, call in (("two", parse_two("[x]_{x}")), ("sl", parse_sl("[{x}, lin={x}]_{x}"))):
        res = analyze(
            AnalysisRequest(program=prog, goal=goal, call=call, domain=domain, cap=0)
        )
        assert res.passes <= 4


def test_fixpoint_limit():
    prog = parse_program("loop(u) :- loop(u).")
    goal = parse_goal("loop(x)")
    with pytest.raises(FixpointLimitExceeded):
        analyze(
            AnalysisRequest(
                program=prog,
                goal=goal,
                call=parse_two("[x]_{x}"),
                domain="two",
                max_passes=0,
            )
        )


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
    leqs = {"omega": leq_omega, "two": leq2, "sl": leq_sl}
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
        assert leqs[domain](m, g), (domain, str(goal), str(call), str(m), str(g))


def _random_call(rng, domain, variables):
    variables = sorted(variables)
    groups = []
    for _ in range(rng.randint(1, 3)):
        g = [v for v in variables if rng.random() < 0.6]
        if g:
            groups.append(g)
    if domain == "omega":
        return parse_omega(
            "[" + ", ".join("".join(g) for g in groups) + "]_{" + ",".join(variables) + "}"
        )
    if domain == "two":
        return parse_two(
            "[" + ", ".join("".join(g) for g in groups) + "]_{" + ",".join(variables) + "}"
        )
    lin = [v for v in variables if rng.random() < 0.7]
    return parse_sl(
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
    alphas = {
        "omega": lambda c: alpha_omega(c),
        "two": lambda c: alpha2(alpha_omega(c)),
        "sl": lambda c: alpha_sl(alpha2(alpha_omega(c))),
    }
    leqs = {"omega": leq_omega, "two": leq2, "sl": leq_sl}
    for text, theta in cases:
        goal = parse_goal(text)
        u = goal.variables
        call_class = canonicalize(theta, u)
        answers = list(_sld_answers(prog, (goal,), theta, depth=6))
        assert answers
        for domain in ("omega", "two", "sl"):
            call = alphas[domain](call_class)
            for mode in ("matching", "mgu"):
                res = analyze(
                    AnalysisRequest(
                        program=prog, goal=goal, call=call, domain=domain, mode=mode
                    )
                )
                for sigma in answers:
                    concrete = alphas[domain](canonicalize(sigma, u))
                    assert leqs[domain](concrete, res.answer), (
                        domain, mode, str(sigma), str(res.answer),
                    )


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
