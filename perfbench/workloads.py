"""The three workloads: what each runs, how its outputs are checked, and
what it reports under its own metric names.

A workload is driven by ``run.py`` through four methods:

* ``prepare(sh, seed)`` builds the inputs from the seed (part of set-up
  time) and returns a digest of them;
* ``batches()`` yields batches of unit keys; the run stops only between
  batches, so every batch is measured whole;
* ``run(key)`` is the timed call into sharlin;
* ``check(key, out)`` runs untimed and returns (operations, failures,
  known defects): a failure listed in ``KNOWN_DEFECTS`` for its unit is
  reported as a known defect, not as a failed operation.

All sharlin functions are looked up on their modules at call time, so the
tracer's rebinding reaches them.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from pathlib import Path

from harness import LimitHit, call_with_limit, digest, median, percentile, tail_percentile

PROGRAMS = Path(__file__).resolve().parent / "programs"
DOMAINS = ("omega", "two", "sl")
MODES = ("matching", "mgu")


@dataclass(frozen=True)
class Config:
    limit_s: float = 1.0  # per analysis
    ladder_top: int = 25
    samples: int = 15  # set-up and CLI cold-start samples per run


SMOKE = Config(limit_s=0.2, ladder_top=8, samples=1)
LADDER_CUTOFF_S = 1.0  # the per-call target every matcher's climb is held to
SLD_DEPTH = 6

# Defects of sharlin that the corpus keeps in on purpose, as (item, domain,
# mode) -> the text their failure carries. Every sweep still runs and checks
# these analyses and the run prints each failure; only a failure of exactly
# this kind on exactly this unit is a known defect rather than a failed
# operation. Any other failure of the same unit still counts as failed.
KNOWN_DEFECTS = {
    ("app-alias", "omega", "mgu"): "time limit",  # runs for minutes
    ("nonlinear", "omega", "matching"): "does not cover",  # [x, x^2, x^3] vs [x^5]
    ("nonlinear", "omega", "mgu"): "does not cover",
}


@dataclass
class Crash:
    """A call that raised: counted as a failed operation."""

    error: BaseException

    def __str__(self) -> str:
        return f"{type(self.error).__name__}: {self.error}"


class TimedOut:
    """A unit stopped at the time limit; it is recorded at the limit."""


TIMED_OUT = TimedOut()


class Workload:
    name = ""

    def __init__(self, cfg: Config):
        self.cfg = cfg

    def is_sample(self, key) -> bool:
        """Does this unit's latency enter the latency metrics?"""
        return True

    def observe(self, key, seconds: float) -> None:
        """Called after each unit, before the next key is drawn."""

    def summary(self, latencies) -> list:
        """The workload's own metrics as (name, value, unit, note)."""
        return []


# --- verify-suites -------------------------------------------------------------


class VerifySuites(Workload):
    """Rounds of the three seeded oracle suites in their acceptance
    configuration, each round continuing the trial indices of the last.
    Round sizes give each suite about a third of a round's time."""

    name = "verify-suites"
    ROUND = {"correctness": 40, "optimality": 10, "equivalence": 22}

    def prepare(self, sh, seed):
        self.sh = sh
        tc = sh.oracle.TrialConfig
        self.corr = tc(seed=seed, trials=100_000, max_term_depth=2, max_vars=4,
                       multiplicity_cap=3)
        self.opt = tc(seed=seed, trials=350, max_term_depth=2, max_vars=4,
                      multiplicity_cap=3)
        self.equiv = tc(seed=seed, trials=10_000, max_vars=5)
        self.parts = {"correctness": [0, 0.0], "optimality": [0, 0.0], "equivalence": [0, 0.0]}
        return digest([self.corr, self.opt, self.equiv, sorted(self.ROUND.items())])

    def batches(self):
        for k in itertools.count():
            yield [k]

    def _window(self, suite, k):
        n = self.ROUND[suite]
        return n * k, n * (k + 1)

    def run(self, k):
        oracle = self.sh.oracle
        t0 = time.perf_counter()
        corr = oracle.run_correctness(self.corr, oracle.DOMAIN_TAGS, *self._window("correctness", k))
        t1 = time.perf_counter()
        opt = [oracle.run_optimality(self.opt, d, *self._window("optimality", k))
               for d in oracle.DOMAIN_TAGS]
        t2 = time.perf_counter()
        equiv = oracle.check_equivalences(self.equiv, *self._window("equivalence", k))
        t3 = time.perf_counter()
        return {"reports": [corr, *opt, equiv], "times": (t1 - t0, t2 - t1, t3 - t2)}

    def check(self, k, out):
        if isinstance(out, Crash):
            return self.ops_per_round(), [f"round {k}: {out}"], []
        corr, *opt, equiv = out["reports"]
        t_corr, t_opt, t_equiv = out["times"]
        self._add("correctness", corr["trials"], t_corr)
        self._add("optimality", sum(r["groups"] for r in opt), t_opt)
        self._add("equivalence", equiv["trials"], t_equiv)
        failed = set()
        for report in out["reports"]:
            label = report["kind"] + (f" {report['domain']}" if "domain" in report else "")
            for f in report["failures"]:
                failed.add(f"{label} trial {f['trial']}")
        return self.ops_per_round(), sorted(failed), []

    def ops_per_round(self):
        return (self.ROUND["correctness"] + len(DOMAINS) * self.ROUND["optimality"]
                + self.ROUND["equivalence"])

    def _add(self, part, count, seconds):
        self.parts[part][0] += count
        self.parts[part][1] += seconds

    def summary(self, latencies):
        names = {
            "correctness": "correctness_pairs_per_s",
            "optimality": "optimality_groups_per_s",
            "equivalence": "equivalence_instances_per_s",
        }
        return [
            (names[p], count / seconds, "1/s", f"{count} in {seconds:.3f} s")
            for p, (count, seconds) in self.parts.items() if seconds
        ]


# --- analyze-corpus ------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    name: str
    program: str
    goal: str
    call: str
    why: str


def load_items() -> list[Item]:
    items = []
    for raw in (PROGRAMS / "items.txt").read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 5:
            raise ValueError(f"bad corpus line {raw!r}")
        items.append(Item(*fields))
    return items


def resolve(sh, program, goals, theta, depth, counter):
    """Depth-bounded SLD resolution: yields the accumulated substitutions
    of the refutations found within ``depth`` steps."""
    terms, analyzer = sh.terms, sh.analyzer
    if not goals:
        yield theta
        return
    if depth == 0:
        return
    first, rest = goals[0], goals[1:]
    for clause in program.clauses:
        if clause.head.pred != first.pred or len(clause.head.args) != len(first.args):
            continue
        n = next(counter)
        sub = terms.Substitution({v: terms.Var(f"{v}c{n}") for v in sorted(clause.variables)})
        head = [sub.apply(a) for a in clause.head.args]
        body = tuple(
            analyzer.Atom(a.pred, tuple(sub.apply(t) for t in a.args)) for a in clause.body
        )
        try:
            mgu = terms.mgu_terms(
                [(theta.apply(g), theta.apply(h)) for g, h in zip(first.args, head)]
            )
        except terms.UnificationError:
            continue
        yield from resolve(sh, program, body + rest, theta.compose(mgu), depth - 1, counter)


class AnalyzeCorpus(Workload):
    """Sweeps of every corpus item in every domain and backward mode, in a
    seeded order, each analysis under the benchmark's time limit."""

    name = "analyze-corpus"

    def prepare(self, sh, seed):
        self.sh = sh
        self.items = {it.name: it for it in load_items()}
        self.parsed = {}
        for it in self.items.values():
            program = sh.analyzer.parse_program((PROGRAMS / it.program).read_text())
            goal = sh.analyzer.parse_goal(it.goal)
            theta = sh.terms.parse_substitution(it.call)
            call_class = sh.existential.canonicalize(theta, goal.variables)
            calls = {d: self.alpha(d, call_class) for d in DOMAINS}
            self.parsed[it.name] = (program, goal, theta, calls)
        self.keys = [(n, d, m) for n in sorted(self.items) for d in DOMAINS for m in MODES]
        self.rng = random.Random(f"perfbench-corpus:{seed}")
        self.concrete = {}
        self.last_sweep = {}
        return digest([str(p[0]) + str(p[1]) + str(p[2]) + str(sorted(map(str, p[3].values())))
                       for _, p in sorted(self.parsed.items())])

    def alpha(self, domain, c):
        sh = self.sh
        e = sh.shlin_omega.alpha_omega(c)
        if domain == "omega":
            return e
        e = sh.shlin2.alpha2(e)
        return e if domain == "two" else sh.shlin_sl.alpha_sl(e)

    def leq(self, domain, a, b):
        sh = self.sh
        return {"omega": sh.shlin_omega.leq_omega, "two": sh.shlin2.leq2,
                "sl": sh.shlin_sl.leq_sl}[domain](a, b)

    def batches(self):
        while True:
            sweep = list(self.keys)
            self.rng.shuffle(sweep)
            yield sweep

    def request(self, key):
        name, domain, mode = key
        program, goal, _, calls = self.parsed[name]
        return self.sh.analyzer.AnalysisRequest(
            program=program, goal=goal, call=calls[domain], domain=domain, mode=mode
        )

    def run(self, key):
        req = self.request(key)
        analyzer = self.sh.analyzer
        try:
            return call_with_limit(lambda: analyzer.analyze(req), self.cfg.limit_s)
        except LimitHit:
            return TIMED_OUT

    def concrete_answers(self, name):
        """Abstractions, per domain, of the answers resolution finds."""
        if name not in self.concrete:
            program, goal, theta, _ = self.parsed[name]
            sigmas = list(resolve(self.sh, program, (goal,), theta, SLD_DEPTH,
                                  itertools.count(1)))
            if not sigmas:
                raise ValueError(f"corpus item {name} has no concrete answer within depth "
                                 f"{SLD_DEPTH}")
            canon = [self.sh.existential.canonicalize(s, goal.variables) for s in sigmas]
            self.concrete[name] = {d: sorted({self.alpha(d, c) for c in canon}, key=str)
                                   for d in DOMAINS}
        return self.concrete[name]

    def check(self, key, out):
        failures = self._failures(key, out)
        known = KNOWN_DEFECTS.get(key)
        if failures and known and all(known in f for f in failures):
            return 1, [], failures
        return 1, failures, []

    def _failures(self, key, out):
        name, domain, mode = key
        label = f"{name} {domain} {mode}"
        if out is TIMED_OUT:
            self.last_sweep.pop(key, None)
            return [f"{label}: time limit {self.cfg.limit_s} s hit"]
        if isinstance(out, Crash):
            self.last_sweep.pop(key, None)
            return [f"{label}: {out}"]
        answer = out.answer
        self.last_sweep[key] = answer
        for conc in self.concrete_answers(name)[domain]:
            if not self.leq(domain, conc, answer):
                return [f"{label}: answer {answer} does not cover concrete {conc}"]
        return []

    def strict_wins(self) -> int:
        """Decided (item, domain) pairs whose matching answer lies strictly
        below the mgu answer."""
        wins = 0
        for name in self.items:
            for d in DOMAINS:
                m = self.last_sweep.get((name, d, "matching"))
                g = self.last_sweep.get((name, d, "mgu"))
                if m is not None and g is not None and m != g and self.leq(d, m, g):
                    wins += 1
        return wins

    def summary(self, latencies):
        p = tail_percentile(len(latencies))
        return [
            ("analysis_ms_p50", 1e3 * percentile(latencies, 50), "ms",
             f"{len(latencies)} analyses"),
            (f"analysis_ms_p{p}", 1e3 * percentile(latencies, p), "ms",
             f"{len(latencies)} analyses"),
            ("precision_strict_wins", self.strict_wins(), "count",
             f"of {len(self.items) * len(DOMAINS)} (item, domain) pairs"),
        ]


# --- match-ladder --------------------------------------------------------------

U1 = ("u", "v", "w", "x", "y")
U2 = ("w", "x", "y", "z", "z1", "z2")
SHARED = ("w", "x", "y")
LADDER_BOTTOM = 4
FIXED_RUNGS = (("two", 7), ("sl", 9), ("omega", 18))
MATCHERS = ("two", "sl", "omega")
VARIANTS = 8  # instances per pass: order effects inside the matchers average out


def ladder_instance(sh, variant, seed, top):
    """First arguments, and second arguments for every rung, of one
    instance. The structure of instance ``variant`` is fixed; the seed
    renames variables within each of the classes U1-only, shared and
    U2-only, which changes the inputs but not the work, so that every
    seed measures the same amount of enumeration. Draws are made over
    sorted sequences only."""
    rng = random.Random(f"perfbench-ladder-structure:{variant}")
    inf = sh.shlin2.INF
    supports = sorted(
        s for k in range(1, len(U2) + 1) for s in itertools.combinations(U2, k)
        if set(s) & set(SHARED)
    )
    order = rng.sample(supports, top)
    exps2 = [{v: inf if rng.random() < 0.4 else 1 for v in s} for s in order]
    mult2 = [{v: rng.randint(1, 2) for v in s} for s in order]
    lin2 = [v for v in U2 if rng.random() < 0.6]
    firsts = sorted(
        s for k in (2, 3) for s in itertools.combinations(U1, k) if set(s) & set(SHARED)
    )
    s1 = rng.sample(firsts, 3)
    exps1 = [{v: inf if v in SHARED and rng.random() < 0.5 else 1 for v in s} for s in s1]
    mult1 = [{v: rng.randint(1, 3) for v in s} for s in s1]
    lin1 = [v for v in U1 if rng.random() < 0.5]

    names = random.Random(f"perfbench-ladder:{seed}:{variant}")
    rho = {}
    for cls in (tuple(v for v in U1 if v not in SHARED), SHARED,
                tuple(v for v in U2 if v not in SHARED)):
        rho.update(zip(cls, names.sample(cls, len(cls))))
    order = [tuple(rho[v] for v in s) for s in order]
    exps2, mult2, exps1, mult1 = (
        [{rho[v]: e for v, e in g.items()} for g in gs] for gs in (exps2, mult2, exps1, mult1)
    )
    s1 = [tuple(rho[v] for v in s) for s in s1]
    lin1, lin2 = [rho[v] for v in lin1], [rho[v] for v in lin2]

    two, sl, om, ms = sh.shlin2, sh.shlin_sl, sh.shlin_omega, sh.multiset
    first = {
        "two": two.two_element([two.two_group(e) for e in exps1], U1),
        "sl": sl.sl_element([frozenset(s) for s in s1], lin1, U1),
        "omega": om.omega_element([ms.Multiset(m) for m in mult1], U1),
    }
    second = {}
    for n in range(LADDER_BOTTOM, top + 1):
        second["two", n] = two.two_element([two.two_group(e) for e in exps2[:n]], U2)
        second["sl", n] = sl.sl_element([frozenset(s) for s in order[:n]], lin2, U2)
        second["omega", n] = om.omega_element([ms.Multiset(m) for m in mult2[:n]], U2)
    return first, second


class MatchLadder(Workload):
    """Each matcher climbs a ladder of second arguments whose groups all
    touch the first interest set; rung n holds the first n groups of an
    instance's list. A climb stops at the first call over the cut-off.
    Then passes over fixed rungs of every instance run for the measured
    seconds."""

    name = "match-ladder"

    def prepare(self, sh, seed):
        self.sh = sh
        top = self.cfg.ladder_top
        self.instances = [ladder_instance(sh, v, seed, top) for v in range(VARIANTS)]
        self.fixed = [(v, m, min(n, top)) for v in range(VARIANTS) for m, n in FIXED_RUNGS]
        self.climb_times = {}
        self.reference = {}
        return digest([first[m] for first, _ in self.instances for m in MATCHERS]
                      + [second[k] for _, second in self.instances for k in sorted(second)])

    def batches(self):
        yield self._climb()
        for i in itertools.count():
            yield [("pass", i)]

    def _climb(self):
        for matcher in MATCHERS:
            for n in range(LADDER_BOTTOM, self.cfg.ladder_top + 1):
                key = ("climb", matcher, n)
                yield key
                if self.climb_times.get(key, 0.0) > LADDER_CUTOFF_S:
                    break

    def is_sample(self, key):
        return key[0] == "pass"

    def calls(self, key):
        """The (instance, matcher, groups) calls a unit makes."""
        return [(0, key[1], key[2])] if key[0] == "climb" else self.fixed

    def run(self, key):
        sh = self.sh
        matchers = {"two": sh.shlin2.match2, "sl": sh.shlin_sl.match_sl,
                    "omega": sh.shlin_omega.match_omega}
        out = []
        for v, m, n in self.calls(key):
            first, second = self.instances[v]
            out.append(matchers[m](first[m], second[m, n]))
        return out

    def observe(self, key, seconds):
        if key[0] == "climb":
            self.climb_times[key] = seconds

    def _verify(self, call, out):
        """Compare one matcher result with an independent path through the
        reference 2-sharing matcher (exact for two and sl, an upper bound
        after clipping for omega)."""
        two, sl = self.sh.shlin2, self.sh.shlin_sl
        v, matcher, n = call
        first, second = self.instances[v]
        e1, e2 = first[matcher], second[matcher, n]
        if call not in self.reference:
            if matcher == "two":
                ref = two.match2_ref(e1, e2)
            elif matcher == "sl":
                ref = sl.alpha_sl(two.match2_ref(sl.gamma_sl(e1), sl.gamma_sl(e2)))
            else:
                ref = two.match2_ref(two.alpha2(e1), two.alpha2(e2))
            self.reference[call] = ref
        ref = self.reference[call]
        ok = two.leq2(two.alpha2(out), ref) if matcher == "omega" else out == ref
        return [] if ok else [f"{matcher} at {n} groups (instance {v}) differs from the reference path"]

    def check(self, key, out):
        calls = self.calls(key)
        if isinstance(out, Crash):
            return len(calls), [f"{key}: {out}"], []
        failures = []
        for call, o in zip(calls, out):
            failures += self._verify(call, o)
        return len(calls), failures, []

    def max_groups(self, matcher):
        done = [n for (_, m, n), t in self.climb_times.items()
                if m == matcher and t <= LADDER_CUTOFF_S]
        return max(done, default=LADDER_BOTTOM - 1)

    def summary(self, latencies):
        rungs = ", ".join(f"{m}@{n}" for m, n in FIXED_RUNGS)
        out = []
        if latencies:
            out.append(("ladder_fixed_s", median(latencies), "s",
                        f"median of {len(latencies)} passes over {rungs} "
                        f"on {VARIANTS} instances"))
        for m in MATCHERS:
            out.append((f"ladder_max_groups_{m}", self.max_groups(m), "count",
                        f"largest rung within {LADDER_CUTOFF_S} s, "
                        f"top {self.cfg.ladder_top}"))
        return out


WORKLOADS = {w.name: w for w in (VerifySuites, AnalyzeCorpus, MatchLadder)}
