import os
import random
import subprocess
import sys
from functools import partial

import pytest

from sharlin.existential import UNDEFINED, canonicalize, ematch
from sharlin.domains import DOMAINS
from sharlin.multiset import Multiset, parse_group
from sharlin.oracle import (
    NotInMatch,
    TrialConfig,
    _rng,
    _split_universe,
    check_equivalences,
    check_match_correct,
    check_optimality,
    gen_existential,
    merge_reports,
    render_report,
    run_correctness,
    run_optimality,
    witness_theta1,
    witness_theta2,
)
from sharlin.shlin_omega import alpha_omega, leq_omega, parse_omega
from sharlin import oracle, shlin2, shlin_sl
from sharlin.shlin2 import parse_two
from sharlin.shlin_sl import parse_sl
from sharlin.terms import parse_substitution, preimage_var

PINNED_WITNESSES = os.path.join(os.path.dirname(__file__), "expected", "optimality_witnesses.txt")
PINNED_FAILURES = os.path.join(os.path.dirname(__file__), "expected", "failing_suites.txt")
CORR_TRIALS, OPT_TRIALS, EQ_TRIALS = 12, 3, 12

EX3_T1 = canonicalize(
    parse_substitution("{x/r(w1,w2,w2,w3,w3), y/a, z/r(w1)}"), {"x", "y", "z"}
)
EX3_T2 = canonicalize(
    parse_substitution("{x/r(w4,w5,w6,w8,w8), u/r(w4,w7), v/r(w7,w8)}"), {"u", "v", "x"}
)


def test_gen_deterministic_and_idempotent():
    cfg = TrialConfig(seed=99, trials=1)
    a = gen_existential({"x", "y"}, cfg)
    b = gen_existential({"x", "y"}, cfg)
    assert a == b
    rng = random.Random("invariants")
    for _ in range(10_000):
        c = gen_existential({"u", "x", "y"}, cfg, rng)
        assert c.rep.is_idempotent()
        assert c.rep.domain <= c.interest


def test_check_match_correct_on_worked_pair():
    for domain in ("omega", "two", "sl"):
        assert check_match_correct(EX3_T1, EX3_T2, domain)
    # swapped direction is undefined, hence vacuously correct
    assert ematch(EX3_T2, EX3_T1) is UNDEFINED
    for domain in ("omega", "two", "sl"):
        assert check_match_correct(EX3_T2, EX3_T1, domain)


def test_witness_theta2_realizes_groups():
    xs = {parse_group("ux"): 2}
    theta2 = witness_theta2(xs, {"u", "v", "x"})
    groups = {
        preimage_var(theta2, v).restrict({"u", "v", "x"})
        for v in theta2.range_vars()
    }
    assert parse_group("ux") in groups
    # the abstraction sits between the needed groups and any second argument
    a = alpha_omega(canonicalize(theta2, {"u", "v", "x"}))
    assert a == parse_omega("[ux]_{u,v,x}")

    theta2 = witness_theta2({parse_group("uv"): 1}, {"u", "v"})
    got = {preimage_var(theta2, v).restrict({"u", "v"}) for v in theta2.range_vars()}
    assert got == {parse_group("uv")}

    ground = witness_theta2({}, {"u", "v"})
    assert str(ground) == "{u/a, v/a}"


def test_witness_theta1_cases():
    e1 = parse_omega("[x^2, xz]_{x,y,z}")
    # combined-group case, with the fixed second substitution of the example
    for b in (parse_group("xz"), parse_group("u^2x^2"), parse_group("ux^2")):
        theta1 = witness_theta1(e1, EX3_T2, b)
        res = ematch(theta1, EX3_T2)
        assert res is not UNDEFINED
        assert b in alpha_omega(res).groups
        assert leq_omega(alpha_omega(theta1), e1)
    # pass-through case
    theta1 = witness_theta1(e1, EX3_T2, parse_group("uv"))
    res = ematch(theta1, EX3_T2)
    assert parse_group("uv") in alpha_omega(res).groups
    with pytest.raises(NotInMatch):
        witness_theta1(e1, EX3_T2, parse_group("y^5"))


def test_check_optimality_worked_instance():
    e1 = parse_omega("[x^2, xz]_{x,y,z}")
    e2 = parse_omega("[uv, ux, vx^2, x]_{u,v,x}")
    reports = check_optimality(e1, e2, "omega")
    nonempty = [r for r in reports if r.group]
    assert len(nonempty) == 7
    assert all(r.verified for r in reports)
    got = {str(r.group) for r in nonempty}
    assert got == {"uv", "uxz", "xz", "u^2x^2", "ux^2", "vx^2", "x^2"}


def test_check_optimality_lemma_mode():
    e1 = parse_omega("[x^2, xz]_{x,y,z}")
    reports = check_optimality(e1, EX3_T2, "omega")
    assert reports and all(r.verified for r in reports)
    assert all(r.theta2 == EX3_T2 for r in reports)


@pytest.mark.parametrize("domain, first", [("two", "[x^*]_{x}"), ("sl", "[{x}, lin={}]_{x}")])
def test_check_optimality_lemma_mode_needs_omega(domain, first):
    e1 = DOMAINS[domain].parse(first)
    c2 = gen_existential({"u", "x"}, TrialConfig())
    with pytest.raises(ValueError, match="concrete second argument needs the omega domain"):
        check_optimality(e1, c2, domain)


def test_check_optimality_two_and_sl():
    reports = check_optimality(
        parse_two("[x^*, xz]_{x,y,z}"), parse_two("[uv, ux, vx^*, x]_{u,v,x}"), "two"
    )
    assert reports and all(r.verified for r in reports)
    maxima = {str(g) for g in parse_two(
        "[uv, u^*v^*x^*, uxz, u^*x^*, v^*x^*, vxz, x^*, xz]_{u,v,x,y,z}"
    ).groups}
    assert len(reports) == len(maxima)

    sl_reports = check_optimality(
        parse_sl("[{x, xz}, lin={y,z}]_{x,y,z}"),
        parse_sl("[{uv, ux, vx, x}, lin={u,v}]_{u,v,x}"),
        "sl",
    )
    assert sl_reports and all(r.verified for r in sl_reports)


WITNESS_SCRIPT = """
from sharlin.oracle import check_optimality
from sharlin.shlin_omega import parse_omega
from sharlin import shlin2, shlin_sl
from sharlin.shlin2 import parse_two
from sharlin.shlin_sl import parse_sl
for parse, domain, first, second in (
    (parse_omega, "omega", "[x^2, xz]_{x,y,z}", "[uv, ux, vx^2, x]_{u,v,x}"),
    (parse_two, "two", "[x^*, xz]_{x,y,z}", "[uv, ux, vx^*, x]_{u,v,x}"),
    (parse_sl, "sl", "[{x, xz}, lin={y,z}]_{x,y,z}", "[{uv, ux, vx, x}, lin={u,v}]_{u,v,x}"),
):
    for r in check_optimality(parse(first), parse(second), domain):
        print(domain, r.group, r.theta1, r.theta2, r.verified)
"""


def test_check_optimality_witnesses_independent_of_hash_seed():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", WITNESS_SCRIPT], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count(b"omega ") == 8 and outs[0].count(b"two ") == 9
    assert outs[0].count(b"sl ") == 10
    assert b"False" not in outs[0]


def witness_lines():
    """One line per optimality report, ``domain trial group theta1 theta2
    verified``, on the suite's seeded instances: 25 per domain, every 7th
    second argument and every 11th first argument bottom, then 10
    exact-multiplicity instances with a concrete second argument."""
    cfg = TrialConfig(seed=27)
    instances = []
    for domain, d in DOMAINS.items():
        for i in range(25):
            rng = _rng(cfg, f"opt:{domain}", i)
            u1, u2 = _split_universe(rng, 5)
            e1 = d.gen(rng, u1, cfg.multiplicity_cap)
            e2 = d.gen(rng, u2, cfg.multiplicity_cap)
            if i % 11 == 10:
                e1 = d.bottom(u1)
            if i % 7 == 6:
                e2 = d.bottom(u2)
            instances.append((domain, i, e1, e2))
    omega = DOMAINS["omega"]
    for i in range(10):
        rng = _rng(cfg, "opt:lemma", i)
        u1, u2 = _split_universe(rng, 5)
        e1 = omega.gen(rng, u1, cfg.multiplicity_cap)
        instances.append(("omega", f"lemma{i}", e1, gen_existential(u2, cfg, rng)))
    for domain, i, e1, second in instances:
        for r in check_optimality(e1, second, domain):
            yield f"{domain} {i} {r.group} {r.theta1} {r.theta2} {r.verified}\n"


def test_optimality_witnesses_are_pinned():
    with open(PINNED_WITNESSES, encoding="utf-8") as fh:
        assert "".join(witness_lines()) == fh.read()


def test_check_optimality_empty_first_argument():
    # the element with only the empty group: pass-through groups only
    e1 = parse_omega("[0]_{x,y}")
    e2 = parse_omega("[uv, ux]_{u,v,x}")
    reports = check_optimality(e1, e2, "omega")
    assert reports and all(r.verified for r in reports)
    assert {str(r.group) for r in reports} == {"0", "uv"}


def _dropping(good):
    """``good`` without its largest nonempty group when it has three or more."""
    def match(e1, e2):
        m = good(e1, e2)
        nonempty = sorted((g for g in m.groups if g), key=Multiset.sort_key)
        if len(nonempty) < 3:
            return m
        return type(m)(m.groups - {nonempty[-1]}, m.interest)
    return match


def _adding(good):
    """``good`` plus one spurious group holding every variable at the
    ceiling (at 9 where counts are exact)."""
    def match(e1, e2):
        m = good(e1, e2)
        top = m.ceiling or 9
        return type(m).of(m.groups | {Multiset({v: top for v in m.interest})}, m.interest)
    return match


@pytest.mark.parametrize("domain", ["omega", "two", "sl"])
def test_optimality_fails_when_the_record_match_adds_a_group(monkeypatch, domain):
    """The suite reads the ``match`` entry that the analyzer calls: one
    spurious group, all variables at the ceiling, makes it fail."""
    d = DOMAINS[domain]
    cfg = TrialConfig(seed=3, trials=30)
    assert run_optimality(cfg, domain)["failures"] == []
    monkeypatch.setattr(d, "match", _adding(d.match))
    assert run_optimality(cfg, domain)["failures"]


def _with_all_twos(generators):
    """``match2_opt_generators`` plus one group holding every variable at 2."""
    def spurious(t1, u1, t2, u2):
        return generators(t1, u1, t2, u2) | {Multiset(dict.fromkeys(set(u1) | set(u2), 2))}
    return spurious


def _blind_to_the_ceiling(decompose):
    """``star_decompose`` reading every count as exact."""
    return lambda x, s, ceiling=None: decompose(x, s)


@pytest.mark.parametrize("domain", ["two", "sl"])
@pytest.mark.parametrize("name, mutant", [("match2_opt_generators", _with_all_twos),
                                          ("star_decompose", _blind_to_the_ceiling)])
def test_a_group_no_sum_realizes_is_a_failed_witness(monkeypatch, domain, name, mutant):
    """A group of the matching witnessed that no decomposition realizes
    is reported as failed, with no pair, and nothing is raised. A group
    whose realization must overshoot the ceiling, as ``v^*xy^*`` over
    ``[vx^*, v^*y]`` does, is rare: 400 trials hold two per domain."""
    cfg = TrialConfig(seed=3, trials=400)
    assert run_optimality(cfg, domain)["failures"] == []
    monkeypatch.setattr(oracle, name, mutant(getattr(oracle, name)))
    failures = run_optimality(cfg, domain)["failures"]
    assert any(f["theta1"] == f["theta2"] == "None" for f in failures)


def _equivalence_failures(check):
    report = check_equivalences(TrialConfig(seed=3, trials=60, max_vars=5))
    return [f for f in report["failures"] if f["check"] == check]


def test_equivalences_fail_when_the_two_record_match_drops_a_group(monkeypatch):
    """The suite reads ``shlin2``'s record ``match``: dropping its largest
    nonempty group, when it has three or more, is caught."""
    assert _equivalence_failures("two_ref_vs_opt") == []
    monkeypatch.setattr(shlin2, "match", _dropping(shlin2.match))
    assert _equivalence_failures("two_ref_vs_opt")


def test_equivalences_fail_when_the_sl_record_match_adds_a_group(monkeypatch):
    """The suite reads ``shlin_sl``'s record ``match``: one spurious group
    holding every variable at 2 is caught."""
    assert _equivalence_failures("sl_vs_composition") == []
    monkeypatch.setattr(shlin_sl, "match", _adding(shlin_sl.match))
    assert _equivalence_failures("sl_vs_composition")


def failing_suites():
    """Every suite rendered on a few trials with every record's ``match``
    mutated, first by ``_dropping`` and then by ``_adding``."""
    out = []
    for mutant in (_dropping, _adding):
        with pytest.MonkeyPatch.context() as mp:
            for d in DOMAINS.values():
                mp.setattr(d, "match", mutant(d.match))
            reports = [run_correctness(TrialConfig(seed=4, trials=CORR_TRIALS))]
            reports += [run_optimality(TrialConfig(seed=4, trials=OPT_TRIALS), d) for d in DOMAINS]
            reports.append(check_equivalences(TrialConfig(seed=4, trials=EQ_TRIALS)))
        out.extend(map(render_report, reports))
    return "".join(out)


def test_failing_suites_are_pinned():
    """The failure fields, their order and their rendering, for every
    failure kind: correctness and optimality in each domain, and both
    equivalence checks."""
    text = failing_suites()
    for kind in [f"domain={d} c1=" for d in DOMAINS] + [f"domain={d} group=" for d in DOMAINS]:
        assert kind in text
    assert "check=two_ref_vs_opt" in text and "check=sl_vs_composition" in text
    with open(PINNED_FAILURES, encoding="utf-8") as fh:
        assert text == fh.read()


def test_an_empty_trial_range_gives_a_zero_report():
    cfg = TrialConfig(seed=6, trials=10)
    assert run_correctness(cfg, lo=4, hi=4) == run_correctness(cfg, lo=10) == {
        "kind": "correctness", "seed": 6, "trials": 0, "defined": 0,
        "domains": {"omega": 0, "two": 0, "sl": 0}, "failures": []}
    assert run_correctness(cfg, ("sl",), 3, 3)["domains"] == {"sl": 0}
    for domain in DOMAINS:
        assert run_optimality(cfg, domain, 7, 7) == {
            "kind": "optimality", "seed": 6, "domain": domain, "trials": 0, "groups": 0,
            "failures": []}
    assert check_equivalences(cfg, 0, 0) == {
        "kind": "equivalence", "seed": 6, "trials": 0,
        "checks": {"two_ref_vs_opt": 0, "sl_vs_composition": 0}, "failures": []}


def test_suites_pass_and_render_deterministically():
    cfg = TrialConfig(seed=5, trials=300)
    rep1 = run_correctness(cfg)
    rep2 = run_correctness(cfg)
    assert not rep1["failures"]
    assert render_report(rep1) == render_report(rep2)
    assert rep1["defined"] > 100  # generation bias keeps the suite non-vacuous

    opt = run_optimality(TrialConfig(seed=5, trials=40), "omega")
    assert not opt["failures"]
    eq = check_equivalences(TrialConfig(seed=5, trials=150))
    assert not eq["failures"]
    assert render_report(eq).startswith("kind=equivalence seed=5 trials=150")


def test_suites_chunk_merge_invariance():
    # the same trials computed in two uneven halves merge into the whole report
    cfg = TrialConfig(seed=8, trials=100)
    domains = ("omega", "two", "sl")
    suites = [partial(run_correctness, cfg, domains), partial(check_equivalences, cfg)]
    suites += [partial(run_optimality, cfg, d) for d in domains]
    for suite in suites:
        assert merge_reports([suite(0, 37), suite(37, 100)]) == suite(0, 100)
    # failures are concatenated in order; the seed is kept, not summed
    a = {"kind": "optimality", "seed": 8, "domain": "two", "trials": 2, "groups": 3,
         "failures": [{"trial": 0}]}
    b = dict(a, trials=1, groups=1, failures=[{"trial": 2}])
    merged = merge_reports(iter([a, b]))
    assert merged == dict(a, trials=3, groups=4, failures=[{"trial": 0}, {"trial": 2}])
    # the inputs are left as they were
    assert a["groups"] == 3 and a["failures"] == [{"trial": 0}] and len(b["failures"]) == 1
    c = {"kind": "equivalence", "seed": 8, "trials": 1, "checks": {"x": 1, "y": 2},
         "failures": []}
    assert merge_reports([c, c])["checks"] == {"x": 2, "y": 4}
    assert c["checks"] == {"x": 1, "y": 2}


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(trials=0)
    with pytest.raises(ValueError):
        TrialConfig(max_vars=-1)


if __name__ == "__main__":
    sys.stdout.write(failing_suites() if sys.argv[1:] == ["failures"] else "".join(witness_lines()))
