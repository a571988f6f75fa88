"""Smoke tests of the benchmark itself, on short configurations.

    python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                   "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    lines = proc.stdout.splitlines()
    for m in declared:
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']}" in line
                   for line in lines), m["name"]
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _prepared(workload, seed=5):
    harness.require_sources()
    wl = workloads.WORKLOADS[workload](workloads.SMOKE)
    sh, _, _ = run.setup(wl, seed)
    return wl, sh


@pytest.mark.parametrize("workload", ["match-ladder", "verify-suites"])
def test_wrong_matcher_result_counts_as_failed(workload):
    wl, sh = _prepared(workload)
    two = sh.shlin2
    good = two.match2

    def wrong(e1, e2):
        out = good(e1, e2)
        return two.two_element((), out.interest)

    harness.rebind(good, wrong)
    meter = run.Meter()
    run.measure(wl, 0.1, meter, None)
    assert meter.ops > 0
    assert sum(meter.failures.values()) > 0


def test_runaway_analysis_hits_the_limit():
    wl, sh = _prepared("analyze-corpus")

    def never(req):
        while True:
            time.sleep(0.01)

    harness.rebind(sh.analyzer.analyze, never)
    meter = run.Meter()
    t0 = time.perf_counter()
    run.measure(wl, 0.0, meter, None)
    elapsed = time.perf_counter() - t0
    assert meter.ops == len(wl.keys) == len(meter.latencies)
    assert sum(meter.failures.values()) + sum(meter.known.values()) == meter.ops
    assert sum(meter.known.values()) == 1  # app-alias omega mgu, a known defect
    assert all("time limit" in cause for cause in meter.failures | meter.known)
    assert all(lat == workloads.SMOKE.limit_s for lat in meter.latencies)
    assert elapsed < 3 * len(wl.keys) * workloads.SMOKE.limit_s


def test_only_the_listed_failure_of_a_unit_is_a_known_defect():
    wl, _ = _prepared("analyze-corpus")
    limit = ("app-alias", "omega", "mgu")
    assert wl.check(limit, workloads.TIMED_OUT)[1:] == (
        [], [f"app-alias omega mgu: time limit {workloads.SMOKE.limit_s} s hit"])
    crash = workloads.Crash(ValueError("boom"))
    assert wl.check(limit, crash)[1:] == (["app-alias omega mgu: ValueError: boom"], [])
    assert wl.check(("app-alias", "two", "mgu"), workloads.TIMED_OUT)[2] == []


def test_inputs_identical_under_different_hash_seeds():
    code = (
        "import harness, workloads\n"
        "harness.require_sources()\n"
        "sh = harness.load_sharlin()\n"
        "print([w(workloads.Config()).prepare(sh, 7) for w in workloads.WORKLOADS.values()])\n"
    )
    outs = set()
    for hashseed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_untraced_run_does_not_load_the_tracer():
    code = (
        "import runpy, sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "sys.argv = ['run.py', '--workload', 'verify-suites', '--seed', '1',"
        " '--seconds', '0.2', '--smoke']\n"
        "try:\n"
        "    runpy.run_path('perfbench/run.py', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        "print('tracer loaded:', 'tracing' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("tracer loaded: False")


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "verify-suites", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
