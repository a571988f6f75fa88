import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import sharlin.cli
import sharlin.oracle
from sharlin.cli import main
from sharlin.shlin_omega import omega_element
from sharlin.shlin2 import parse_two
from sharlin.shlin_sl import parse_sl


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PROGRAM_61 = "p(u,v,w).\n"
PROGRAM_62 = "member(u, [u|v]).\nmember(u, [v|w]) :- member(u, w).\n"
# a ground term nested far deeper than the recursion limit
DEEP = "f(" * 3000 + "a" + ")" * 3000
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
    for base, jobs in (
        (["verify", "correctness", "--domain", "two", "--trials", "120", "--seed", "3"], "3"),
        (["verify", "optimality", "--trials", "60", "--seed", "3"], "2"),
        (["equiv", "--trials", "80", "--seed", "3"], "2"),
    ):
        assert main(base) == 0
        seq = capsys.readouterr().out
        assert main(base + ["--jobs", jobs]) == 0
        par = capsys.readouterr().out
        assert seq == par


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

    monkeypatch.setattr(sharlin.oracle, "match_omega", broken)
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


def test_equiv_max_vars_bounds_the_instances(capsys, monkeypatch):
    # a broken matcher makes every instance a counterexample, so the report
    # shows each instance's elements
    monkeypatch.setattr(sharlin.oracle, "match_sl", lambda s1, s2: None)
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
    assert "difference: {xz}" in out


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
        assert err == "sharlin: the multiplicity cap must be 0 (no cap) or more, not -1\n"
    if "q(x)" in argv or any(DEEP in a for a in argv):
        assert err == "sharlin: a term is nested too deeply\n"


def test_out_of_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(req):
        raise MemoryError

    monkeypatch.setattr(sharlin.cli, "analyze", exhausted)
    prog = tmp_path / "app.pl"
    prog.write_text("app([], v, v).\napp([u|v], w, [u|x]) :- app(v, w, x).\n")
    argv = ["analyze", "--program", str(prog), "--goal", "app(x, y, z)",
            "--call", "[xy, z]_{x,y,z}", "--domain", "omega", "--mode", "mgu", "--cap", "0"]
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
