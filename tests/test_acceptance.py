"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``. The randomized criteria
(6, 7, 8) are executed once via module-scoped fixtures and re-executed by
criterion 12 in two chunks through the CLI's parallel suite runner, which
byte-compares the rendered reports.
"""
import time
from functools import partial

import pytest

from sharlin.analyzer import AnalysisRequest, analyze, parse_goal, parse_injection, parse_program
from sharlin.cli import _run as run_suite, main as cli_main
from sharlin.existential import UNDEFINED, canonicalize, ematch, parse_existential
from sharlin.multiset import Multiset
from sharlin.oracle import (
    TrialConfig,
    check_equivalences,
    render_report,
    run_correctness,
    run_optimality,
)
from sharlin.shlin_omega import alpha_omega, match_omega, parse_omega
from sharlin.shlin2 import match2, match2_ref, parse_two, prop_abstraction2_check
from sharlin.shlin_sl import match_sl, parse_sl
from sharlin.terms import parse_substitution

CORRECTNESS_CFG = TrialConfig(seed=42, trials=100_000, max_term_depth=2, max_vars=4,
                              multiplicity_cap=3)
OPTIMALITY_CFG = TrialConfig(seed=7, trials=350, max_term_depth=2, max_vars=4,
                             multiplicity_cap=3)
EQUIV_CFG = TrialConfig(seed=11, trials=10_000, max_vars=5)

MEMBER = "member(u, [u|v]).\nmember(u, [v|w]) :- member(u, w).\n"
INJECT_62 = (
    "0 0 [u^*x^*y^*]_{u,v,x,y,z}\n"
    "0 1 [u^*]_{u,v}\n"
    "1 0 [uvxy, uxz]_{u,v,w,x,y,z}\n"
    "1 1 [uv, v]_{u,v,w}\n"
)


def _verdict(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


def _best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


@pytest.fixture(scope="module")
def correctness_run():
    t0 = time.perf_counter()
    report = run_correctness(CORRECTNESS_CFG)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def optimality_runs():
    t0 = time.perf_counter()
    reports = {d: run_optimality(OPTIMALITY_CFG, d) for d in ("omega", "two", "sl")}
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def equivalence_run():
    t0 = time.perf_counter()
    report = check_equivalences(EQUIV_CFG)
    return report, time.perf_counter() - t0


def test_criterion_1_alpha_omega_example():
    c = canonicalize(
        parse_substitution("{x/s(y,u,y), z/s(u,u), v/u}"), {"w", "x", "y", "z"}
    )
    alpha_omega(c)  # warm-up
    got, elapsed = _best_of(lambda: alpha_omega(c))
    ok = got == parse_omega("[x^2y, xz^2, w]_{w,x,y,z}") and elapsed < 1e-3
    _verdict(1, f"exact abstraction of the worked substitution in {elapsed*1e3:.3f} ms", ok)


def test_criterion_2_concrete_matching_example():
    c1 = parse_existential("[{x/a, y/b}]_{x,y}")
    c2 = parse_existential("[{z/r(y)}]_{y,z}")
    got = ematch(c1, c2)
    ok = (
        got == parse_existential("[{x/a, y/b, z/r(b)}]_{x,y,z}")
        and ematch(c2, c1) is UNDEFINED
    )
    _verdict(2, "concrete matching result and undefined swap", ok)


def test_criterion_3_match_omega_example():
    e1 = parse_omega("[x^2, xz]_{x,y,z}")
    e2 = parse_omega("[uv, ux, vx^2, x]_{u,v,x}")
    match_omega(e1, e2)  # warm-up
    got, elapsed = _best_of(lambda: match_omega(e1, e2))
    expected = parse_omega("[uv, uxz, xz, u^2x^2, ux^2, vx^2, x^2]_{u,v,x,y,z}")
    nonempty = {g for g in got.groups if g}
    ok = (
        got == expected
        and len(nonempty) == 7
        and Multiset() in got.groups
        and elapsed < 1e-2
    )
    _verdict(3, f"seven-group matching result plus empty in {elapsed*1e3:.3f} ms", ok)


def test_criterion_4_two_domain_matchers_agree_on_example():
    t1 = parse_two("[x^*, xz]_{x,y,z}")
    t2 = parse_two("[uv, ux, vx^*, x]_{u,v,x}")
    expected = parse_two("[uv, u^*v^*x^*, uxz, u^*x^*, v^*x^*, vxz, x^*, xz]_{u,v,x,y,z}")
    ref = match2_ref(t1, t2)
    opt = match2(t1, t2)
    ok = ref == expected and opt == expected
    _verdict(4, "reference and antichain matchers both give the worked set", ok)


def test_criterion_5_sharing_linearity_example():
    s1 = parse_sl("[{x, xz}, lin={y,z}]_{x,y,z}")
    s2 = parse_sl("[{uv, ux, vx, x}, lin={u,v}]_{u,v,x}")
    got = match_sl(s1, s2)
    expected = parse_sl(
        "[{uv, uvx, ux, vx, x, uvxz, uxz, xz, vxz}, lin={y,z}]_{u,v,x,y,z}"
    )
    ok = got == expected
    _verdict(5, "sharing and linear components of the worked matching", ok)


def test_criterion_6_correctness_trials(correctness_run):
    report, elapsed = correctness_run
    ok = (
        report["trials"] == 100_000
        and all(n == 100_000 for n in report["domains"].values())
        and not report["failures"]
        and elapsed < 60.0
    )
    _verdict(
        6,
        f"100000 random pairs correct in all three domains in {elapsed:.1f} s",
        ok,
    )


def test_criterion_7_optimality_witnesses(optimality_runs):
    reports, elapsed = optimality_runs
    instances = sum(r["trials"] for r in reports.values())
    groups = sum(r["groups"] for r in reports.values())
    ok = (
        instances >= 1000
        and all(not r["failures"] for r in reports.values())
        and groups > instances  # every matching result yielded witnesses
        and elapsed < 120.0
    )
    _verdict(
        7,
        f"{groups} groups witnessed over {instances} instances in {elapsed:.1f} s",
        ok,
    )


def test_criterion_8_equivalence_theorems(equivalence_run):
    report, elapsed = equivalence_run
    ok = (
        report["checks"]["two_ref_vs_opt"] == 10_000
        and report["checks"]["sl_vs_composition"] == 10_000
        and not report["failures"]
        and elapsed < 60.0
    )
    _verdict(8, f"10000 equivalence instances, zero mismatches, {elapsed:.1f} s", ok)


def test_criterion_9_clipping_laws():
    import random

    rng = random.Random(13)
    failures = 0
    for _ in range(10_000):
        b = Multiset(
            {v: rng.randint(1, 4) for v in rng.sample("uvwxyz", rng.randint(0, 4))}
        )
        vs = set(rng.sample("uvwxyz", rng.randint(0, 5)))
        xs = [
            Multiset(
                {v: rng.randint(1, 3) for v in rng.sample("uvwxyz", rng.randint(0, 3))}
            )
            for _ in range(rng.randint(0, 3))
        ]
        if not prop_abstraction2_check(b, vs, xs):
            failures += 1
    _verdict(9, "all four clipping laws on 10000 random triples", failures == 0)


def test_criterion_10_end_to_end_61(tmp_path, capsys):
    prog = parse_program("p(u,v,w).")
    goal = parse_goal("p(x, f(x,z), z)")
    call = parse_omega("[x, z]_{x,z}")
    matching = analyze(
        AnalysisRequest(program=prog, goal=goal, call=call, domain="omega")
    ).answer
    mgu = analyze(
        AnalysisRequest(program=prog, goal=goal, call=call, domain="omega", mode="mgu")
    ).answer
    progfile = tmp_path / "p.pl"
    progfile.write_text("p(u,v,w).\n")
    rc = cli_main(
        [
            "diff",
            "--program", str(progfile),
            "--goal", "p(x, f(x,z), z)",
            "--call", "[{x, z}, lin={x,z}]_{x,z}",
            "--domain", "sl",
        ]
    )
    out = capsys.readouterr().out
    ok = (
        matching == parse_omega("[x, z]_{x,z}")
        and "xz" in {str(g) for g in mgu.groups}
        and rc == 0
        and "difference: {x^*, x^*z^*, z^*}" in out
    )
    _verdict(10, "goal-dependent analysis of the three-argument fact", ok)


def test_criterion_11_member_with_injection():
    prog = parse_program(MEMBER)
    goal = parse_goal("member(x, [y])")
    call = parse_two("[xy, xz]_{x,y,z}")
    injection = parse_injection(INJECT_62, "two")
    matching = analyze(
        AnalysisRequest(
            program=prog, goal=goal, call=call, domain="two",
            mode="matching", injection=injection,
        )
    ).answer
    mgu = analyze(
        AnalysisRequest(
            program=prog, goal=goal, call=call, domain="two",
            mode="mgu", injection=injection,
        )
    ).answer
    ok = matching == parse_two("[x^*y^*]_{x,y,z}") and mgu == parse_two(
        "[x^*y^*, x^*y^*z^*]_{x,y,z}"
    )
    _verdict(11, "member analysis with injected forward intermediates", ok)


def test_criterion_12_reports_byte_identical(correctness_run, optimality_runs, equivalence_run):
    first_corr = render_report(correctness_run[0])
    first_opt = {d: render_report(r) for d, r in optimality_runs[0].items()}
    first_eq = render_report(equivalence_run[0])

    # the rerun goes through the --jobs path: two chunks, merged
    def again(suite, cfg):
        return render_report(run_suite(suite, cfg.trials, 2))

    again_corr = again(
        partial(run_correctness, CORRECTNESS_CFG, ("omega", "two", "sl")), CORRECTNESS_CFG
    )
    again_opt = {
        d: again(partial(run_optimality, OPTIMALITY_CFG, d), OPTIMALITY_CFG)
        for d in ("omega", "two", "sl")
    }
    again_eq = again(partial(check_equivalences, EQUIV_CFG), EQUIV_CFG)

    ok = first_corr == again_corr and first_opt == again_opt and first_eq == again_eq
    _verdict(12, "repeated runs render byte-identical reports", ok)
