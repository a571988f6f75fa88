import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import sharlin.cli
import sharlin.shlin_omega
import sharlin.shlin_sl
from sharlin.cli import main
from sharlin.shlin_omega import omega_element
from sharlin.shlin2 import parse_two
from sharlin.shlin_sl import parse_sl


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PROGRAM_61 = "p(u,v,w).\n"
PROGRAM_62 = "member(u, [u|v]).\nmember(u, [v|w]) :- member(u, w).\n"
# a ground term nested far deeper than the recursion limit
DEEP = "f(" * 3000 + "a" + ")" * 3000
# no deep term, but a chain of calls deeper than the analyzer's recursion
CHAIN = "".join(f"p{i}(x) :- p{i + 1}(x).\n" for i in range(1000)) + "p1000(a).\n"
INJECT_62 = (
    "0 0 [u^*x^*y^*]_{u,v,x,y,z}\n"
    "0 1 [u^*]_{u,v}\n"
    "1 0 [uvxy, uxz]_{u,v,w,x,y,z}\n"
    "1 1 [uv, v]_{u,v,w}\n"
)
TRACE_62 = """\
[x^*y^*, x^*y^*z^*]_{x, y, z}
# passes=2 table=2
# depth=0 clause=0 goal=member(x, [y])
#   call   [xy, xz]_{x, y, z}
#   full   [u1^*x^*y^*, u1x^*yz]_{u1, v1, x, y, z}
#   entry  [u1^*]_{u1, v1}
#   exit   [u1^*]_{u1, v1}
#   answer [x^*y^*, x^*y^*z^*]_{x, y, z}
# depth=1 clause=0 goal=member(u2, w2)
#   call   [u2]_{u2, w2}
#   full   [0]_{u2, u3, v3, w2}
#   entry  [0]_{u3, v3}
#   exit   [0]_{u3, v3}
#   answer [0]_{u2, w2}
# depth=1 clause=1 goal=member(u2, w2)
#   call   [u2]_{u2, w2}
#   full   [u2u4]_{u2, u4, v4, w2, w4}
#   entry  [u4]_{u4, v4, w4}
#   exit   [0]_{u4, v4, w4}
#   answer [0]_{u2, w2}
# depth=0 clause=1 goal=member(x, [y])
#   call   [xy, xz]_{x, y, z}
#   full   [u2v2xy, u2xz]_{u2, v2, w2, x, y, z}
#   entry  [u2, u2v2]_{u2, v2, w2}
#   exit   [0]_{u2, v2, w2}
#   answer [0]_{x, y, z}
"""


def test_eval_match_omega(capsys):
    rc = main(
        [
            "eval",
            "--domain", "omega",
            "--op", "match",
            "[x^2, xz]_{x,y,z}",
            "[uv, ux, vx^2, x]_{u,v,x}",
        ]
    )
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert out == "[uv, ux^2, u^2x^2, uxz, vx^2, x^2, xz]_{u, v, x, y, z}"


def test_eval_match_two_anopt(capsys):
    rc = main(
        [
            "eval",
            "--domain", "two",
            "--op", "match",
            "[x^*, xz]_{x,y,z}",
            "[uv, ux, vx^*, x]_{u,v,x}",
        ]
    )
    out = capsys.readouterr().out.strip()
    assert rc == 0
    expected = parse_two("[uv, u^*v^*x^*, uxz, u^*x^*, v^*x^*, vxz, x^*, xz]_{u,v,x,y,z}")
    assert out == str(expected)


def test_eval_project(capsys):
    rc = main(["eval", "--domain", "omega", "--op", "project", "[uvx, vwz]_{u,v,w,x,z}", "{u,v,w}"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "[uv, vw]_{u, v, w}"


def test_eval_alpha_and_concrete_match(capsys):
    rc = main(
        ["eval", "--domain", "omega", "--op", "alpha", "[{x/s(y,u,y), z/s(u,u), v/u}]_{w,x,y,z}"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "[w, x^2y, xz^2]_{w, x, y, z}"

    rc = main(
        ["eval", "--domain", "concrete", "--op", "match", "[{x/a, y/b}]_{x,y}", "[{z/r(y)}]_{y,z}"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "[{x/a, y/b, z/r(b)}]_{x, y, z}"

    rc = main(
        ["eval", "--domain", "concrete", "--op", "match", "[{z/r(y)}]_{y,z}", "[{x/a, y/b}]_{x,y}"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "undefined"


def test_eval_jobs_deterministic(capsys):
    # as text and as --json, which prints every field of the merged report
    for base, jobs in (
        (["verify", "correctness", "--domain", "two", "--trials", "120", "--seed", "3"], "3"),
        (["verify", "optimality", "--trials", "60", "--seed", "3"], "2"),
        (["equiv", "--trials", "80", "--seed", "3"], "2"),
    ):
        for as_json in ([], ["--json"]):
            assert main(base + as_json) == 0
            seq = capsys.readouterr().out
            assert main(base + as_json + ["--jobs", jobs]) == 0
            par = capsys.readouterr().out
            assert seq == par
            if as_json:
                trials = int(base[base.index("--trials") + 1])
                assert {json.loads(line)["trials"] for line in seq.splitlines()} == {trials}


def test_jobs_pool_is_bounded_by_the_cpu_count(monkeypatch):
    # a stub executor records the pool size and runs the chunks in-process,
    # so no worker process is started
    pools = []

    class StubPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    def suite(lo, hi):
        return {"kind": "stub", "seed": 5, "trials": hi - lo, "failures": [(lo, hi)]}

    monkeypatch.setattr(sharlin.cli, "ProcessPoolExecutor", StubPool)
    for cpus, trials, jobs, chunks, workers in (
        (2, 3000, 3000, 3000, 2),
        (2, 30, 3, 3, 2),
        (8, 30, 3, 3, 3),
        (None, 30, 4, 4, 1),
    ):
        monkeypatch.setattr(sharlin.cli.os, "cpu_count", lambda: cpus)
        pools.clear()
        report = sharlin.cli._run(suite, trials, jobs)
        assert pools == [workers]
        size = -(-trials // jobs)
        assert report["failures"] == [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
        assert len(report["failures"]) == chunks
        assert (report["trials"], report["seed"]) == (trials, 5)
    pools.clear()
    assert sharlin.cli._run(suite, 30, 1)["failures"] == [(0, 30)]
    assert pools == []


def test_eval_parse_error_exits_1(capsys):
    rc = main(["eval", "--domain", "two", "--op", "match", "[x^2, xz]_{x}", "[uv]_{u,v}"])
    assert rc == 1
    assert "sharlin:" in capsys.readouterr().err


def test_analyze_61(tmp_path, capsys):
    prog = tmp_path / "p.pl"
    prog.write_text(PROGRAM_61)
    rc = main(
        [
            "analyze",
            "--program", str(prog),
            "--goal", "p(x, f(x,z), z)",
            "--call", "[x, z]_{x,z}",
            "--domain", "omega",
            "--mode", "matching",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "[x, z]_{x, z}"


def test_analyze_61_mgu_contains_xz(tmp_path, capsys):
    prog = tmp_path / "p.pl"
    prog.write_text(PROGRAM_61)
    rc = main(
        [
            "analyze",
            "--program", str(prog),
            "--goal", "p(x, f(x,z), z)",
            "--call", "[x, z]_{x,z}",
            "--domain", "omega",
            "--mode", "mgu",
            "--trace",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "xz" in out.splitlines()[0]
    assert "# passes=" in out


def test_analyze_trace_text(tmp_path, capsys):
    prog = tmp_path / "member.pl"
    prog.write_text(PROGRAM_62)
    rc = main(["analyze", "--program", str(prog), "--goal", "member(x, [y])",
               "--call", "[xy, xz]_{x,y,z}", "--domain", "two", "--trace"])
    assert rc == 0
    assert capsys.readouterr().out == TRACE_62


def test_analyze_omega_matching_with_a_squared_call(tmp_path, capsys):
    # exact-multiplicity matching finishes this call only by folding
    # deduplicated partial sums
    prog = tmp_path / "member.pl"
    prog.write_text(PROGRAM_62)
    rc = main(
        [
            "analyze",
            "--program", str(prog),
            "--goal", "member(x, y)",
            "--call", "[xy, x^2]_{x,y}",
            "--domain", "omega",
            "--mode", "matching",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "[xy, x^2y^2, x^3y, x^3y^2, x^3y^3]_{x, y}"


def test_analyze_missing_file_exits_2(capsys):
    rc = main(
        [
            "analyze",
            "--program", "/nonexistent/prog.pl",
            "--goal", "p(x)",
            "--call", "[x]_{x}",
            "--domain", "omega",
        ]
    )
    assert rc == 2


def test_analyze_injection(tmp_path, capsys):
    prog = tmp_path / "member.pl"
    prog.write_text(PROGRAM_62)
    inj = tmp_path / "inject.txt"
    inj.write_text(INJECT_62)
    rc = main(
        [
            "analyze",
            "--program", str(prog),
            "--goal", "member(x, [y])",
            "--call", "[xy, xz]_{x,y,z}",
            "--domain", "two",
            "--mode", "matching",
            "--inject", str(inj),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "[x^*y^*]_{x, y, z}"


def test_sl_linear_variable_outside_the_interest_set_is_an_input_error(tmp_path, capsys):
    argv = ["eval", "--domain", "sl", "--op", "union", "[{x}, lin={q}]_{x}", "[{x}, lin={x}]_{x}"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "sharlin: linear variables ['q'] not in interest set ['x']\n")
    # in an injection file, the error names its line
    prog = tmp_path / "member.pl"
    prog.write_text(PROGRAM_62)
    inj = tmp_path / "inject.txt"
    inj.write_text("# typo: lin={q}\n0 1 [{u}, lin={q}]_{u,v}\n")
    rc = main(["analyze", "--program", str(prog), "--goal", "member(x, [y])",
               "--call", "[{xy}, lin={x,y}]_{x,y}", "--domain", "sl", "--inject", str(inj)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == (
        "sharlin: linear variables ['q'] not in interest set ['u', 'v'] on line 2\n")


@pytest.mark.parametrize("entry, message", [
    ("7 0 [u]_{u}", "injected clause index 7 names no clause of member/2"),
    ("2 0 [u]_{u}", "injected clause index 2 names no clause of member/2"),
    ("-1 0 [u]_{u}", "injected clause index -1 names no clause of member/2"),
    ("x 0 [u]_{u}", "bad injection entry on line 1: 'x 0 [u]_{u}'"),
    ("# a syntax error names its place in the file\n\n0 1 [x^]_{x}",
     "unexpected character '^' (line 3, column 7)"),
    ("# so does an element that parses but is invalid\n\n0 1 [x]_{y}",
     "group x not over interest set ['y'] on line 3"),
    ("0 0 [u]_{u}\n0 0 [u^*]_{u}", "duplicate entry for clause 0 step 0 on line 2"),
], ids=["past-the-end", "other-predicate", "negative", "not-an-integer", "bad-element",
        "invalid-element", "duplicate"])
def test_analyze_rejects_a_bad_injection(tmp_path, capsys, entry, message):
    prog = tmp_path / "member.pl"
    prog.write_text(PROGRAM_62 + "other(a).\n")
    inj = tmp_path / "inject.txt"
    inj.write_text(entry + "\n")
    rc = main(["analyze", "--program", str(prog), "--goal", "member(x, [y])",
               "--call", "[xy, xz]_{x,y,z}", "--domain", "two", "--inject", str(inj)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"sharlin: {message}\n"


def test_verify_correctness_json_deterministic(capsys):
    argv = [
        "verify", "correctness",
        "--domain", "omega",
        "--trials", "200",
        "--seed", "42",
        "--json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["failures"] == []
    assert payload["trials"] == 200


def test_verify_optimality(capsys):
    rc = main(
        ["verify", "optimality", "--domain", "two", "--trials", "20", "--seed", "7"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.endswith("result: PASS\n")


def test_verify_detects_injected_bug(capsys, monkeypatch):
    # harness self-check: break the matcher, expect a counterexample exit
    def broken(e1, e2):
        return omega_element((), e1.interest | e2.interest)

    monkeypatch.setattr(sharlin.shlin_omega, "match", broken)
    rc = main(
        ["verify", "correctness", "--domain", "omega", "--trials", "100", "--seed", "42"]
    )
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL" in out


def test_equiv(capsys):
    rc = main(["equiv", "--trials", "150", "--seed", "11", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["checks"]["two_ref_vs_opt"] == 150
    assert payload["checks"]["sl_vs_composition"] == 150


# the suites the workflow's other Python versions run and diff against the file
SHORT_SUITES = (
    ["verify", "correctness", "--trials", "200"],
    ["verify", "optimality", "--trials", "100"],
    ["equiv", "--trials", "100"],
)


def test_short_suite_reports_are_pinned(capsys):
    for argv in SHORT_SUITES:
        assert main(argv) == 0
    pinned = os.path.join(os.path.dirname(__file__), "expected", "short_suites.txt")
    with open(pinned, encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_equiv_max_vars_bounds_the_instances(capsys, monkeypatch):
    # a broken matcher makes every instance a counterexample, so the report
    # shows each instance's elements
    monkeypatch.setattr(sharlin.shlin_sl, "match", lambda s1, s2: None)
    widths = []
    for n in (2, 5):
        assert main(["equiv", "--trials", "20", "--seed", "3", "--max-vars", str(n), "--json"]) == 3
        failures = json.loads(capsys.readouterr().out)["failures"]
        widths.append(max(len(parse_sl(f["e1"]).interest | parse_sl(f["e2"]).interest)
                          for f in failures))
    assert widths == [2, 5]


def test_diff_61_sl(tmp_path, capsys):
    prog = tmp_path / "p.pl"
    prog.write_text(PROGRAM_61)
    rc = main(
        [
            "diff",
            "--program", str(prog),
            "--goal", "p(x, f(x,z), z)",
            "--call", "[{x, z}, lin={x,z}]_{x,z}",
            "--domain", "sl",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "difference: {x^*, x^*z^*, z^*}" in out


def test_diff_member_injected(tmp_path, capsys):
    prog = tmp_path / "member.pl"
    prog.write_text(PROGRAM_62)
    inj = tmp_path / "inject.txt"
    inj.write_text(INJECT_62)
    rc = main(
        [
            "diff",
            "--program", str(prog),
            "--goal", "member(x, [y])",
            "--call", "[xy, xz]_{x,y,z}",
            "--domain", "two",
            "--inject", str(inj),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "difference: {x^*y^*z^*}" in out


def test_diff_agreeing_modes_empty_difference(tmp_path, capsys):
    prog = tmp_path / "p.pl"
    prog.write_text(PROGRAM_61)
    rc = main(
        [
            "diff",
            "--program", str(prog),
            "--goal", "p(x, y, z)",
            "--call", "[{0}, lin={x,y,z}]_{x,y,z}",  # ground call: modes agree
            "--domain", "sl",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "difference: {}" in out


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "sharlin.cfg"
    cfg.write_text("trials=120\nseed=5\n")
    rc = main(["--config", str(cfg), "equiv", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["trials"] == 120
    assert payload["seed"] == 5
    # explicit flags still win
    assert main(["--config", str(cfg), "equiv", "--trials", "60", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 60


def test_config_file_rejects_a_key_no_subcommand_knows(tmp_path, capsys):
    # one file serves every subcommand: ``mode`` is analyze's, so equiv
    # leaves it alone, but ``trails`` is nobody's
    cfg = tmp_path / "sharlin.cfg"
    cfg.write_text("mode=mgu\ntrials=60\n")
    assert main(["--config", str(cfg), "equiv", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 60
    cfg.write_text("mode=mgu\n  trails = 5\n")
    assert main(["--config", str(cfg), "verify", "correctness", "--trials", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sharlin: unknown config key 'trails' on line 2\n"


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--domain", "omega"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--domain", "omega", "--op", "union", "[x]_{x}", "[y]_{y}"],
        ["verify", "correctness", "--trials", "0"],
        ["verify", "optimality", "--trials", "-3"],
        ["equiv", "--max-vars", "0"],
        ["analyze", "--goal", "member(x, [y])", "--call", "[xy]_{x,y}", "--domain", "two",
         "--max-passes", "0"],
        ["eval", "--domain", "omega", "--op", "match", "[y", "[x]_{x}"],
        ["eval", "--domain", "omega", "--op", "project", "[x]_{x}", "{x"],
        ["eval", "--domain", "two", "--op", "union", "[x]_{x}", "[y]_{y}"],
        ["eval", "--domain", "sl", "--op", "union", "[{x}, lin={x}]_{x}", "[{y}, lin={y}]_{y}"],
        ["analyze", "--goal", "p(x)", "--call", "[x]_{x}", "--domain", "omega", "--cap", "-1"],
        ["equiv", "--max-vars", "1"],
        ["eval", "--domain", "concrete", "--op", "match", f"[{{x/{DEEP}}}]_{{x}}", "[{y/a}]_{y}"],
        ["eval", "--domain", "omega", "--op", "alpha", f"[{{x/{DEEP}}}]_{{x}}"],
        ["analyze", "--goal", "q(x)", "--call", "[x]_{x}", "--domain", "two"],
    ],
)
def test_input_errors_exit_1_with_one_line(argv, tmp_path, capsys):
    if argv[0] == "analyze":
        prog = tmp_path / "prog.pl"
        prog.write_text(PROGRAM_62 + "p(f(u,u,u,u,u)).\n" + f"q({DEEP}).\n")
        argv = argv + ["--program", str(prog)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("sharlin: ")
    assert "Traceback" not in err
    if "union" in argv:
        assert err == "sharlin: interest sets differ: ['x'] vs ['y']\n"
    if "--cap" in argv:
        assert err == "sharlin: --cap must be at least 1, not -1\n"
    if "q(x)" in argv or any(DEEP in a for a in argv):
        assert err == "sharlin: a term is nested too deeply\n"


def test_analyze_answers_a_chain_of_a_thousand_calls(tmp_path, capsys):
    # body atoms are solved from an explicit stack, not by recursion
    prog = tmp_path / "chain.pl"
    prog.write_text(CHAIN)
    rc = main(["analyze", "--program", str(prog), "--goal", "p0(x)", "--call", "[x]_{x}",
               "--domain", "two", "--trace"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[:2] == ["[0]_{x}", "# passes=2 table=1001"]


# formatted with str.format, so the call's braces are doubled
ANALYZE_MISSING = ["--program", "{missing}", "--goal", "p(x)", "--call", "[x]_{{x}}",
                   "--domain", "two"]


@pytest.mark.parametrize("argv, error", [
    (["verify", "correctness", "--cap", "0"], "--cap must be at least 1, not 0"),
    (["verify", "optimality", "--depth", "0"], "--depth must be at least 1, not 0"),
    (["verify", "correctness", "--trials", "-2"], "--trials must be at least 1, not -2"),
    (["verify", "correctness", "--max-vars", "0"], "--max-vars must be at least 1, not 0"),
    (["equiv", "--trials", "0"], "--trials must be at least 1, not 0"),
    (["equiv", "--max-vars", "1"], "--max-vars must be at least 2, not 1"),
    (["--config", "{cfg}", "verify", "optimality"], "--depth must be at least 1, not 0"),
    (["--config", "{cfg}", "equiv"], "--max-vars must be at least 2, not 0"),
    (["verify", "correctness", "--jobs", "0"], "--jobs must be at least 1, not 0"),
    (["verify", "optimality", "--jobs", "-3", "--trials", "5"], "--jobs must be at least 1, not -3"),
    (["equiv", "--jobs", "0"], "--jobs must be at least 1, not 0"),
    (["--config", "{cfg}", "equiv", "--max-vars", "2"], "--jobs must be at least 1, not -1"),
    # the program file does not exist: the flag is checked before it is read
    (["analyze", "--max-passes", "0", *ANALYZE_MISSING], "--max-passes must be at least 1, not 0"),
    (["--config", "{cfg}", "analyze", *ANALYZE_MISSING], "--max-passes must be at least 1, not 0"),
    (["analyze", "--cap", "0", *ANALYZE_MISSING], "--cap must be at least 1, not 0"),
    (["diff", "--cap", "0", *ANALYZE_MISSING], "--cap must be at least 1, not 0"),
    (["--config", "{cap_cfg}", "analyze", *ANALYZE_MISSING], "--cap must be at least 1, not 0"),
    (["--config", "{cap_cfg}", "diff", *ANALYZE_MISSING], "--cap must be at least 1, not 0"),
])
def test_suite_flag_errors_name_the_flag(argv, error, tmp_path, capsys):
    cfg = tmp_path / "sharlin.cfg"
    cfg.write_text("depth=0\nmax_vars=0\njobs=-1\nmax_passes=0\n")
    cap_cfg = tmp_path / "cap.cfg"
    cap_cfg.write_text("cap=0\n")
    argv = [a.format(cfg=cfg, cap_cfg=cap_cfg, missing=tmp_path / "missing.pl") for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sharlin: {error}\n"


@pytest.mark.parametrize("text, argv", [
    ("trace=no\n", ["analyze", *ANALYZE_MISSING]),
    ("trials=60\njson=no\n", ["equiv"]),
    ("json=1\n", ["verify", "correctness", "--trials", "3"]),
])
def test_config_switch_takes_only_true_or_false(text, argv, tmp_path, capsys):
    # a switch's value is not guessed: "no" does not turn it on
    cfg = tmp_path / "sharlin.cfg"
    cfg.write_text(text)
    argv = [a.format(missing=tmp_path / "missing.pl") for a in argv]
    assert main(["--config", str(cfg), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    key, value = text.splitlines()[-1].split("=")
    ln = len(text.splitlines())
    assert captured.err == (
        f"sharlin: config key {key!r} on line {ln} takes true or false, not {value!r}\n")


def test_config_switch_false_leaves_it_off(tmp_path, capsys):
    cfg = tmp_path / "sharlin.cfg"
    cfg.write_text("trials=5\njson=false\n")
    assert main(["--config", str(cfg), "equiv"]) == 0
    assert capsys.readouterr().out.startswith("kind=")
    cfg.write_text("trials=5\njson=true\n")
    assert main(["--config", str(cfg), "equiv"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 5


@pytest.mark.parametrize("text, argv, flag", [
    ("trials=true\n", ["equiv"], "--trials"),
    ("cap=true\n", ["analyze", *ANALYZE_MISSING], "--cap"),
    ("seed=x1\n", ["verify", "optimality"], "--seed"),
])
def test_config_values_convert_with_the_flags_type(text, argv, flag, tmp_path, capsys):
    # "true" is not the integer 1: the flag's own type rejects it
    cfg = tmp_path / "sharlin.cfg"
    cfg.write_text(text)
    argv = [a.format(missing=tmp_path / "missing.pl") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), *argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    value = text.strip().split("=")[1]
    assert len(captured.err.splitlines()) == 1
    assert f"argument {flag}: invalid int value: {value!r}" in captured.err


@pytest.mark.parametrize("text, argv, error", [
    ("seed=3\ntrials=true\n", ["equiv"], "argument --trials: invalid int value: 'true'"),
    ("trials=2\ndomain=bogus\n", ["verify", "correctness", "--trials", "2"],
     "argument --domain: invalid choice: 'bogus'"),
    # checked against the running subcommand's choices, even when overridden
    ("domain=concrete\n", ["analyze", *ANALYZE_MISSING],
     "argument --domain: invalid choice: 'concrete'"),
    ("trials=2\n\nmode=fast\n", ["analyze", *ANALYZE_MISSING],
     "argument --mode: invalid choice: 'fast'"),
])
def test_config_value_errors_name_the_key_and_line(text, argv, error, tmp_path, capsys):
    cfg = tmp_path / "sharlin.cfg"
    cfg.write_text(text)
    argv = [a.format(missing=tmp_path / "missing.pl") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), *argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    key = text.splitlines()[-1].split("=")[0]
    ln = len(text.splitlines())
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"sharlin: config key {key!r} on line {ln}: {error}")


def test_config_value_is_checked_against_its_own_subcommands_choices(tmp_path, capsys):
    # eval's --domain accepts "concrete"; analyze's (checked above) does not
    cfg = tmp_path / "sharlin.cfg"
    cfg.write_text("domain=concrete\n")
    argv = ["--config", str(cfg), "eval", "--domain", "concrete", "--op", "match",
            "[{x/a}]_{x}", "[{y/a}]_{y}"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "[{x/a, y/a}]_{x, y}\n"


def test_least_flag_values_still_run(tmp_path, capsys):
    assert main(["verify", "correctness", "--jobs", "1", "--trials", "5"]) == 0
    assert "result: PASS" in capsys.readouterr().out
    prog = tmp_path / "p.pl"
    prog.write_text("p(u).\n")
    # one pass runs the analysis; settling takes a second pass
    argv = ["analyze", "--program", str(prog), "--goal", "p(x)", "--call", "[x]_{x}",
            "--domain", "two", "--max-passes"]
    assert main(argv + ["1"]) == 1
    assert capsys.readouterr().err == "sharlin: no fixpoint after 1 passes\n"
    assert main(argv + ["2"]) == 0
    assert capsys.readouterr().out == "[x]_{x}\n"


def test_out_of_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(req):
        raise MemoryError

    monkeypatch.setattr(sharlin.cli, "analyze", exhausted)
    prog = tmp_path / "app.pl"
    prog.write_text("app([], v, v).\napp([u|v], w, [u|x]) :- app(v, w, x).\n")
    argv = ["analyze", "--program", str(prog), "--goal", "app(x, y, z)",
            "--call", "[xy, z]_{x,y,z}", "--domain", "omega", "--mode", "mgu"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sharlin: out of memory\n"
    assert "Traceback" not in captured.err


def test_optimality_report_independent_of_hash_seed():
    argv = [sys.executable, "-m", "sharlin.cli",
            "verify", "optimality", "--trials", "200", "--seed", "7"]
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


COUNT_SCRIPT = """
from sharlin.multiset import Multiset
from sharlin.shlin2 import two_element
two_element([Multiset({"x": 3}), Multiset({"y": 3})], {"x", "y"})
"""


@pytest.mark.parametrize("argv, stderr", [
    (["-m", "sharlin.cli", "eval", "--domain", "two", "--op", "match",
      "[xy, z^*, u]_{}", "[x]_{x}"], b"sharlin: group u not over interest set []\n"),
    (["-c", COUNT_SCRIPT], b"ValueError: group x^3 has a count above 2\n"),
])
def test_element_errors_name_the_first_offending_group_under_any_hash_seed(argv, stderr):
    """Of several offending groups, the first in ``Multiset.sort_key``
    order is named, whatever the hash seed."""
    errs = []
    for hash_seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=120)
        assert proc.returncode == 1
        errs.append(proc.stderr)
    assert errs == [errs[0]] * 4
    assert errs[0].endswith(stderr)


def _run_cli_into(args, stdout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "sharlin.cli", *args], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_output_device_exits_2_with_one_line():
    with open("/dev/full", "w") as full:
        proc = _run_cli_into(["equiv", "--trials", "20"], full)
    assert proc.returncode == 2
    assert proc.stderr == b"sharlin: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_help_into_a_full_output_device_exits_2_with_one_line():
    with open("/dev/full", "w") as full:
        proc = _run_cli_into(["verify", "--help"], full)
    assert proc.returncode == 2
    assert proc.stderr == b"sharlin: [Errno 28] No space left on device\n"


def test_output_pipe_closed_early_exits_2_with_one_line():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    try:
        proc = _run_cli_into(["verify", "optimality", "--trials", "20", "--json"], write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b"sharlin: [Errno 32] Broken pipe\n"


# well-formed operands per domain, and strings built from the pieces of every
# textual form, most of them near misses
ELEMENTS = {
    "omega": ["[x]_{x}", "[y]_{y}", "[xy, x^2]_{x,y}", "[0]_{x,y}"],
    "two": ["[x^*]_{x}", "[y]_{y}", "[x^*y, y]_{x,y}", "[]_{x,y}"],
    "sl": ["[{x}, lin={x}]_{x}", "[{y}, lin={}]_{y}", "[{xy}, lin={x}]_{x,y}"],
    "concrete": ["[{x/f(y, y)}]_{x,y}", "[{x/a}]_{x}", "[{y/x}]_{x,y}"],
}
FRAGMENTS = st.sampled_from(
    ["[", "]", "_{", "{", "}", ",", " ", "x", "y", "z", "u", "0", "^", "*", "2", "^*",
     "x^2", "lin=", "/", "|", "f(", ")", "a", "_1", ":-", ".", "%", "\n", "(", "=", "q"]
)
NEAR_MISSES = st.lists(FRAGMENTS, max_size=14).map("".join)


def _mostly(valid):
    """A well-formed choice two times in three, a near miss otherwise."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), NEAR_MISSES)


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@st.composite
def eval_argv(draw):
    domain = draw(st.sampled_from(sorted(ELEMENTS)))
    op = draw(st.sampled_from(["match", "union", "project", "alpha"]))
    operand = _mostly(ELEMENTS[domain] + (["{x}", "{x,y}"] if op == "project" else []))
    operands = [draw(operand) for _ in range(1 if op == "alpha" else 2)]
    return ["eval", "--domain", domain, "--op", op, "--", *operands]


@st.composite
def analyze_argv(draw, program_dir):
    domain = draw(st.sampled_from(["omega", "two", "sl"]))
    program = draw(_mostly(["", "p(x).\n", "member(u, u) :- p(u).\n"]))
    goal = draw(_mostly(["member(x, [y])", "member(x, y)", "p(x)"]))
    call = draw(_mostly(ELEMENTS[domain]))
    path = os.path.join(program_dir, "p.pl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PROGRAM_62 + program)
    mode = draw(st.sampled_from(["matching", "mgu"]))
    return ["analyze", "--program", path, "--domain", domain, "--mode", mode,
            "--goal=" + goal, "--call=" + call]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(eval_argv())
def test_fuzz_eval_never_crashes(argv):
    assert _exit_code(argv) in (0, 1)


def test_fuzz_analyze_never_crashes(tmp_path):
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(analyze_argv(str(tmp_path)))
    def check(argv):
        assert _exit_code(argv) in (0, 1)

    check()
