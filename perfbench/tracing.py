"""Span tracer for the traced run (``--trace 1``); the untraced run never
imports this module.

``install`` rebinds each traced sharlin function, in every ``sharlin.*``
namespace that holds it, to a wrapper that records a span (name, parent,
start, end) while the tracer is active, plus the bound ``amgu`` and
``match`` methods of the analyzer's domain instances. Spans live in one
flat float array, four numbers per span, and are written out at the end.
A name's self time is its spans' durations minus the time their direct
child spans cover. Probes that count sizes run after a span closes and are
recorded as ``trace.probe`` child spans, so their cost lands in the
tracing overhead and not in any layer's self time.
"""
from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter

from harness import rebind

# (module, function, extra stats) in the order the metrics are listed
FUNCTIONS = (
    ("terms", "mgu_terms", ()),
    ("existential", "canonicalize", ()),
    ("existential", "emgu", ()),
    ("existential", "ematch", ("defined_ratio",)),
    ("oracle", "witness_theta1", ()),
    ("oracle", "witness_theta2", ()),
    ("shlin_omega", "alpha_omega", ()),
    ("shlin2", "alpha2", ()),
    ("shlin_sl", "alpha_sl", ()),
    ("shlin_sl", "gamma_sl", ()),
    ("shlin2", "leq2", ()),
    ("shlin_sl", "leq_sl", ()),
    ("shlin_omega", "leq_omega", ()),
    ("shlin2", "match2_opt_generators", ("masks", "emitted")),
    ("shlin_sl", "match_sl", ("masks", "useful_ratio")),
    ("shlin_omega", "match_omega", ("out_groups",)),
    ("shlin_omega", "star_decompose", ()),
    ("shlin2", "antichain_max", ("in_groups",)),
    ("shlin2", "match2_ref", ()),
    ("analyzer", "analyze", ("passes", "table_size")),
    ("analyzer", "forward_unify", ()),
    ("analyzer", "backward_unify", ()),
)
# suite runners: their self time is the oracle's generation and glue
ORACLE_GLUE = ("run_correctness", "run_optimality", "check_equivalences", "check_optimality")
DOMAIN_OPS = ("amgu", "match")
DOMAINS = ("omega", "two", "sl")


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for module, fn, extras in FUNCTIONS:
        base = f"{module}.{fn}"
        out += [(f"{base}.calls", "count", "lower"), (f"{base}.self_s", "s", "lower")]
        for stat in extras:
            if stat.endswith("_ratio"):
                out.append((f"{base}.{stat}", "ratio", "higher"))
            else:
                out.append((f"{base}.{stat}", "count", "lower"))
        if fn == "match2_opt_generators":
            out.append(("shlin2.match2.useful_ratio", "ratio", "higher"))
        if fn == "witness_theta2":
            out.append(("oracle.self_s", "s", "lower"))
    for d in DOMAINS:
        for op in DOMAIN_OPS:
            out += [(f"analyzer.{d}.{op}.calls", "count", "lower"),
                    (f"analyzer.{d}.{op}.self_s", "s", "lower")]
    out += [
        ("analyzer.repeat_ratio", "ratio", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.spans = array("d")  # name id, parent index, start, end
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.seen_calls: set = set()
        self.probe_id = self._id("trace.probe")

    def _id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name, fn, probe=None):
        nid = float(self._id(name))
        spans, stack = self.spans, self.stack
        probe_id = float(self.probe_id)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(spans) // 4
            spans.extend((nid, stack[-1], 0.0, 0.0))
            stack.append(idx)
            spans[4 * idx + 2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * idx + 3] = perf_counter()
                stack.pop()
            if probe is not None:
                t0 = perf_counter()
                probe(tracer.counts, args, result)
                spans.extend((probe_id, stack[-1], t0, perf_counter()))
            return result

        traced.__wrapped__ = fn
        return traced

    # a time limit can interrupt a wrapper anywhere; runs call these around
    # each unit so an aborted call leaves the stack as it found it
    def mark(self) -> int:
        return len(self.stack)

    def restore(self, depth: int) -> None:
        if len(self.stack) > depth:
            now = perf_counter()
            for idx in self.stack[depth:]:
                if self.spans[4 * idx + 3] == 0.0:
                    self.spans[4 * idx + 3] = now
            del self.stack[depth:]

    def install(self, sh) -> None:
        """Rebind the traced functions throughout the loaded sharlin modules."""
        probes = _probes(sh)
        for module, fn, _ in FUNCTIONS:
            name = f"{module}.{fn}"
            original = getattr(getattr(sh, module), fn)
            rebind(original, self.wrap(name, original, probes.get(name)))
        for fn in ORACLE_GLUE:
            original = getattr(sh.oracle, fn)
            rebind(original, self.wrap(f"oracle.{fn}", original))
        for d in DOMAINS:
            ops = sh.analyzer.DOMAINS[d]
            for op in DOMAIN_OPS:
                probe = _repeat_probe(f"{d}.{op}", self.seen_calls)
                setattr(ops, op, self.wrap(f"analyzer.{d}.{op}", getattr(ops, op), probe))

    def stats(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        spans = self.spans
        n = len(spans) // 4
        covered = [0.0] * n
        for i in range(n):
            start, end = spans[4 * i + 2], spans[4 * i + 3]
            parent = int(spans[4 * i + 1])
            if start and end >= start and parent >= 0:
                covered[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i in range(n):
            start, end = spans[4 * i + 2], spans[4 * i + 3]
            if not start or end < start:
                continue  # never started: cut off by a time limit
            name = self.names[int(spans[4 * i])]
            calls[name] += 1
            self_s[name] += end - start - covered[i]
        return {name: (calls[name], self_s[name]) for name in calls}

    def metrics(self, extra: dict[str, float]) -> dict[str, float]:
        stats = self.stats()
        c = self.counts

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        values = {}
        for name, (calls, self_s) in stats.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        values["oracle.self_s"] = sum(
            stats.get(f"oracle.{fn}", (0, 0.0))[1] for fn in ORACLE_GLUE
        )
        values["existential.ematch.defined_ratio"] = ratio("ematch.defined", "ematch.calls")
        values["shlin2.match2_opt_generators.masks"] = c["match2.masks"]
        values["shlin2.match2_opt_generators.emitted"] = c["match2.emitted"]
        values["shlin2.match2.useful_ratio"] = ratio("match2.emitted", "match2.masks")
        values["shlin_sl.match_sl.masks"] = c["match_sl.masks"]
        values["shlin_sl.match_sl.useful_ratio"] = ratio("match_sl.emitted", "match_sl.masks")
        values["shlin_omega.match_omega.out_groups"] = c["match_omega.out_groups"]
        values["shlin2.antichain_max.in_groups"] = c["antichain_max.in_groups"]
        values["analyzer.analyze.passes"] = c["analyze.passes"]
        values["analyzer.analyze.table_size"] = c["analyze.table_size"]
        values["analyzer.repeat_ratio"] = ratio("domain_ops.repeats", "domain_ops.calls")
        values["trace.spans"] = len(self.spans) // 4
        values.update(extra)
        return {name: float(values.get(name, 0)) for name, _, _ in metric_names()}

    def write(self, path) -> None:
        """Spans as raw doubles (name id, parent, start, end) plus a JSON
        side file naming the ids."""
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
        with open(f"{path}.names.json", "w") as fh:
            json.dump(self.names, fh)


def _repeat_probe(label, seen):
    """Counts domain-op calls whose arguments repeat an earlier call exactly."""

    def probe(counts, args, result):
        key = (label, args)
        counts["domain_ops.calls"] += 1
        if key in seen:
            counts["domain_ops.repeats"] += 1
        else:
            seen.add(key)

    return probe


def _probes(sh):
    undefined = sh.existential.UNDEFINED

    def ematch(counts, args, result):
        counts["ematch.calls"] += 1
        counts["ematch.defined"] += result is not undefined

    def match2_opt_generators(counts, args, result):
        t1, u1, t2, _ = args
        u1 = frozenset(u1)
        rest = sum(1 for o in t2 if o.support & u1)
        counts["match2.masks"] += len(t1) * (1 << rest)
        counts["match2.emitted"] += len(result)

    def match_sl(counts, args, result):
        e1, e2 = args
        rest = sum(1 for b in e2.sharing if b & e1.interest)
        counts["match_sl.masks"] += len(e1.sharing) * (1 << rest)
        counts["match_sl.emitted"] += len(result.sharing)

    def match_omega(counts, args, result):
        counts["match_omega.out_groups"] += len(result.groups)

    def antichain_max(counts, args, result):
        if hasattr(args[0], "__len__"):
            counts["antichain_max.in_groups"] += len(args[0])

    def analyze(counts, args, result):
        counts["analyze.passes"] += result.passes
        counts["analyze.table_size"] += result.table_size

    return {
        "existential.ematch": ematch,
        "shlin2.match2_opt_generators": match2_opt_generators,
        "shlin_sl.match_sl": match_sl,
        "shlin_omega.match_omega": match_omega,
        "shlin2.antichain_max": antichain_max,
        "analyzer.analyze": analyze,
    }
