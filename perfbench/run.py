#!/usr/bin/env python3
"""Benchmark for sharlin: one in-process, single-threaded run of one workload.

    python3 perfbench/run.py --workload verify-suites --seed 1 --seconds 30 --trace 0

Workloads: ``verify-suites``, ``analyze-corpus`` and ``match-ladder`` (see
perfbench/README.md). With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it runs a share of the same units untraced,
replays them under the span tracer and reports the per-layer metrics and
the tracing overhead. ``--smoke`` shrinks limits and ladders for the
benchmark's own tests.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The run also writes its record, and in a traced run its
spans, under ``.perfbench/`` in the checkout. Without ``src/sharlin`` in
the checkout it exits with status 2 and prints no result.
"""
from __future__ import annotations

import sys

# sources are compiled on every import, in this process and its children,
# so no run leaves bytecode in the checkout or starts from a warmer cache
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

TRACE_SHARE = 3  # the untraced part of a traced run lasts seconds / TRACE_SHARE
REF_WARMUP = 3  # reference loops before the first set-up, so it has a local speed
CLI_PROGRAM = "perfbench/programs/member.pl"
CLI_ARGS = ["--goal", "member(x, [y, z])", "--call", "[x, y, z]_{x,y,z}", "--domain", "two"]


class Meter:
    """What a sequence of units did: operations, failures, latencies, and
    the reference-loop times taken next to them."""

    def __init__(self):
        self.ops = 0
        self.failures: Counter[str] = Counter()
        self.known: Counter[str] = Counter()  # failures listed as known defects
        self.latencies: list[float] = []
        self.keys: list = []
        self.run_s = 0.0  # time inside run() over all units
        self.cli_s: list[float] = []
        self.refs: list[float] = []
        self.latency_refs: list[int | None] = []  # index into refs, per latency
        self.cli_refs: list[int] = []

    def reference(self) -> int:
        self.refs.append(harness.reference_loop())
        return len(self.refs) - 1

    def local_ref(self, i: int) -> float:
        """The machine's speed around reference sample ``i``: the median of
        the seven reference loops centred on it."""
        return harness.median(self.refs[max(0, i - 3):i + 4])

    def in_refs(self, values, at) -> list[float]:
        """Seconds in reference loops. A latency recorded at a time limit
        has no speed of its own and converts at the nominal loop time."""
        return [v / (harness.REF_NOMINAL_S if i is None else self.local_ref(i))
                for v, i in zip(values, at)]


def execute(wl, key, meter: Meter, tracer=None) -> None:
    ref = meter.reference()
    depth = tracer.mark() if tracer else 0
    if tracer:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out = wl.run(key)
    except Exception as exc:  # a failing operation is counted, not fatal
        out = workloads.Crash(exc)
    measured = time.perf_counter() - t0
    if tracer:
        tracer.active = False
        tracer.restore(depth)
    capped = out is workloads.TIMED_OUT
    seconds = wl.cfg.limit_s if capped else measured
    wl.observe(key, seconds)
    ops, failures, known = wl.check(key, out)
    meter.ops += ops
    meter.failures.update(failures)
    meter.known.update(known)
    meter.run_s += measured
    meter.keys.append(key)
    if wl.is_sample(key):
        meter.latencies.append(seconds)
        meter.latency_refs.append(None if capped else ref)


def cli_sample(expected: str, meter: Meter) -> None:
    """One cold start of ``python -m sharlin.cli analyze`` on a small item."""
    args = ["-m", "sharlin.cli", "analyze", "--program", CLI_PROGRAM, *CLI_ARGS]
    meter.ops += 1
    ref = meter.reference()
    try:
        seconds, proc = harness.run_python(args)
    except subprocess.TimeoutExpired:
        meter.failures["cli analyze: timed out"] += 1
        return
    meter.cli_s.append(seconds)
    meter.cli_refs.append(ref)
    if proc.returncode != 0 or proc.stdout != expected + "\n":
        meter.failures[f"cli analyze: exit {proc.returncode}, output {proc.stdout.strip()!r}"] += 1


def cli_expected(sh) -> str:
    analyzer = sh.analyzer
    req = analyzer.AnalysisRequest(
        program=analyzer.parse_program((harness.ROOT / CLI_PROGRAM).read_text()),
        goal=analyzer.parse_goal(CLI_ARGS[1]),
        call=sh.shlin2.parse_two(CLI_ARGS[3]),
        domain="two",
    )
    return str(analyzer.analyze(req).answer)


def setup(wl, seed: int):
    """Import sharlin afresh and build the workload's inputs; returns the
    modules, the inputs digest and the seconds taken."""
    t0 = time.perf_counter()
    sh = harness.load_sharlin()
    inputs = wl.prepare(sh, seed)
    return sh, inputs, time.perf_counter() - t0


class Samples:
    """Set-up and CLI cold-start samples, spread evenly over the measured
    seconds so that a run's medians see the machine at several moments.
    A set-up sample imports sharlin again and prepares a fresh copy of the
    workload; the measured copy keeps the modules it was built with."""

    def __init__(self, wl, seed: int, first_setup, expected_cli: str):
        self.wl, self.seed, self.expected = wl, seed, expected_cli
        self.setup_s, self.setup_refs = [first_setup[0]], [first_setup[1]]
        self.taken = 0

    def due(self, fraction: float, meter: Meter) -> None:
        count = self.wl.cfg.samples
        while self.taken < count and self.taken <= fraction * count:
            cli_sample(self.expected, meter)
            if self.taken:
                self.setup_refs.append(meter.reference())
                self.setup_s.append(setup(type(self.wl)(self.wl.cfg), self.seed)[2])
            self.taken += 1


def measure(wl, seconds: float, meter: Meter, samples: Samples | None = None) -> None:
    """Run whole batches until ``seconds`` have passed since the first
    sampled unit started."""
    start = None
    for batch in wl.batches():
        for key in batch:
            if start is None and wl.is_sample(key):
                start = time.perf_counter()
            execute(wl, key, meter)
        if start is None:
            continue
        fraction = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
        if samples:
            samples.due(fraction, meter)
        if fraction >= 1:
            break
    if samples:
        samples.due(1.0, meter)


def end_to_end(meter: Meter, samples: Samples) -> dict:
    """The bounded metrics. Latencies are in reference loops (``ref``): each
    unit's wall time divided by the local reference-loop time, which takes
    out the host's changes of speed between and within runs. Set-up time
    is measured the same way and given in seconds at the nominal loop time."""
    lat = meter.in_refs(meter.latencies, meter.latency_refs)
    tail = harness.tail_percentile(len(lat))
    setup_refs = meter.in_refs(samples.setup_s, samples.setup_refs)
    return {
        "setup_s": (harness.REF_NOMINAL_S * harness.median(setup_refs), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        "latency_p50_ref": (harness.percentile(lat, 50), "ref"),
        "latency_p90_ref": (harness.percentile(lat, tail), "ref"),
        "latency_mean_ref": (sum(lat) / len(lat), "ref"),
        "cli_cold_start_ref": (harness.median(meter.in_refs(meter.cli_s, meter.cli_refs)), "ref"),
    }


def wall_clock(meter: Meter, samples: Samples) -> list:
    """The same figures in wall-clock time, printed for reading."""
    lat = meter.latencies
    tail = harness.tail_percentile(len(lat))
    n = f"{len(lat)} units"
    return [
        ("setup_wall_s", harness.median(samples.setup_s), "s",
         f"median of {len(samples.setup_s)}"),
        ("latency_ms_p50", 1e3 * harness.percentile(lat, 50), "ms", n),
        (f"latency_ms_p{tail}", 1e3 * harness.percentile(lat, tail), "ms", n),
        ("throughput_per_s", len(lat) / sum(lat), "1/s", n),
        ("cli_cold_start_ms", 1e3 * harness.median(meter.cli_s), "ms",
         f"{len(meter.cli_s)} samples"),
        ("reference_loop_ms", 1e3 * harness.median(meter.refs), "ms",
         f"median of {len(meter.refs)}"),
    ]


def import_cost(samples: int) -> float:
    """Seconds to import sharlin.cli in a fresh interpreter, minus bare start-up."""
    bare = [harness.run_python(["-c", "pass"])[0] for _ in range(samples)]
    full = [harness.run_python(["-c", "import sharlin.cli"])[0] for _ in range(samples)]
    return harness.median(full) - harness.median(bare)


def run_traced(wl, sh, seconds: float):
    """The same units untraced, then replayed under the tracer."""
    untraced = Meter()
    measure(wl, seconds / TRACE_SHARE, untraced)

    import tracing

    tracer = tracing.Tracer()
    tracer.install(sh)
    traced = Meter()
    for key in untraced.keys:
        execute(wl, key, traced, tracer)
    overhead = traced.run_s - untraced.run_s
    metrics = tracer.metrics({
        "cli.import_s": import_cost(wl.cfg.samples),
        "trace.overhead_s": overhead,
    })
    harness.OUT.mkdir(exist_ok=True)
    tracer.write(harness.OUT / f"spans-{wl.name}.bin")
    units = {name: (metrics[name], unit) for name, unit, _ in tracing.metric_names()}
    notes = [f"traced {len(untraced.keys)} units: {traced.run_s:.3f} s traced, "
             f"{untraced.run_s:.3f} s untraced, overhead {overhead:.3f} s"]
    return traced, units, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short limits and ladders, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        harness.require_sources()
    except harness.MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    cfg = workloads.SMOKE if args.smoke else workloads.Config()
    wl = workloads.WORKLOADS[args.workload](cfg)
    meter = Meter()
    for _ in range(REF_WARMUP):
        meter.reference()
    ref = meter.reference()
    sh, inputs, setup_s = setup(wl, args.seed)
    env = harness.environment(args.seed)
    env["inputs"] = inputs

    named = []
    if args.trace:
        meter, metrics, notes = run_traced(wl, sh, args.seconds)
    else:
        samples = Samples(wl, args.seed, (setup_s, ref), cli_expected(sh))
        measure(wl, args.seconds, meter, samples)
        metrics = end_to_end(meter, samples)
        named = wall_clock(meter, samples) + wl.summary(meter.latencies)
        notes = [f"latency_p90_ref is p{harness.tail_percentile(len(meter.latencies))} "
                 f"of {len(meter.latencies)} units; cli_cold_start_ref is the median "
                 f"of {len(meter.cli_s)}; setup_s the median of {len(samples.setup_s)}"]

    failed = sum(meter.failures.values())
    known = sum(meter.known.values())
    print(f"# perfbench {wl.name} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value, unit, note in named:
        print(f"{name} {value:.6g} {unit}  ({note})")
    print(f"failed_ops_ratio {(failed + known) / meter.ops:.6g} ratio  "
          f"({failed + known} of {meter.ops} ops, {known} of them known defects)")
    for cause, count in sorted(meter.failures.items()):
        print(f"failure x{count}: {cause}")
    for cause, count in sorted(meter.known.items()):
        print(f"known defect x{count}: {cause}")

    record = {
        "workload": wl.name,
        "trace": args.trace,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named": {n: {"value": v, "unit": u, "note": note} for n, v, u, note in named},
        "ops": meter.ops,
        "failures": dict(meter.failures),
        "known_defects": dict(meter.known),
    }
    harness.OUT.mkdir(exist_ok=True)
    out = harness.OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": meter.ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
