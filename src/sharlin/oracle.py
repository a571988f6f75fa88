"""Randomized verification of the matching operators against concrete matching.

Three kinds of checks, all seeded and reproducible:

* correctness: abstract matching of the abstractions approximates the
  abstraction of the concrete matching, in all three domains (vacuously
  true when the concrete matching is undefined);
* optimality: every group in an abstract matching result is realized by a
  constructed pair of substitutions whose concrete matching actually
  produces that group. The constructions mirror the completeness and
  optimality proofs: the second substitution binds each interest variable
  to a term stacking one fresh variable per needed group, and the first is
  assembled from an instance of the second plus bindings for its private
  variables. One loop builds every witness, fed per group by a small
  realization of the witnessing domain: the exact-multiplicity domain, or
  the clipped one, which lifts through the exact domain with
  concretization representatives whose multiplicities respect the linear
  variables of the first argument, and in which sharing+linearity is
  witnessed through its ``gamma``. The record's ``match`` must give the
  matching witnessed;
* equivalence: the reference matcher and the clipped record's ``match``
  agree, and the sharing+linearity record's ``match`` equals the reference
  through the embedding.

The suites look every domain operation up on the domain's record in
``DOMAINS``, taking abstractions down its ``above`` chain. Only the spec
is called by name: the witness builders, the matching being witnessed
(``match_omega``, ``match2_opt_generators``) and ``match2_ref``.

Each suite is one function of a trial index that gives the report of that
trial alone (``trials`` 1, its counts, its failures), and a suite's report
over a range of trials is the ``merge_reports`` of those one-trial reports.
Per-trial random streams are derived from (seed, label, index), so trials
are order-independent and can be partitioned across processes;
``merge_reports``, which takes any iterable of reports, joins the reports
of consecutive trial ranges the same way, and they render byte-identically
for identical configurations.

Bottom elements are excluded from optimality generation: an element with no
groups approximates no substitution, so no witness pair can exist for the
pass-through groups a matching against bottom still emits.
"""
from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from . import existential, shlin2, shlin_omega
from .domains import DOMAINS
from .existential import (
    ExistentialSubstitution,
    UNDEFINED,
    canonicalize,
    ematch,
)
from .multiset import Multiset
from .shlin_omega import (
    ShLinOmegaElement,
    alpha_omega,
    match_omega,
    omega_element,
    star_decompose,
)
from .shlin2 import match2_opt_generators, match2_ref, two_element
from .terms import App, Substitution, Term, Var, preimages, term_vars

__all__ = [
    "TrialConfig",
    "WitnessReport",
    "NotInMatch",
    "gen_existential",
    "check_match_correct",
    "witness_theta2",
    "witness_theta1",
    "check_optimality",
    "check_equivalences",
    "run_correctness",
    "run_optimality",
    "merge_reports",
    "render_report",
    "DOMAIN_TAGS",
]

DOMAIN_TAGS = tuple(DOMAINS)

_UNIVERSE = ("u", "v", "w", "x", "y", "z")


class NotInMatch(Exception):
    """The group to witness is not in the abstract matching result."""


@dataclass(frozen=True)
class TrialConfig:
    seed: int = 42
    trials: int = 1000
    max_term_depth: int = 2
    max_vars: int = 4
    multiplicity_cap: int = 3

    def __post_init__(self):
        for field in ("trials", "max_term_depth", "max_vars", "multiplicity_cap"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")


@dataclass
class WitnessReport:
    group: Multiset
    theta1: ExistentialSubstitution
    theta2: ExistentialSubstitution
    verified: bool


def _rng(cfg: TrialConfig, label: str, index: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{label}:{index}")


# --- random generation -------------------------------------------------------


def _gen_term(rng: random.Random, pool: list[str], depth: int) -> Term:
    if depth > 0 and rng.random() < 0.45:
        return App("t", (_gen_term(rng, pool, depth - 1), _gen_term(rng, pool, depth - 1)))
    if rng.random() < 0.3:
        return App("a")
    # bias toward reusing existential variables so groups are nontrivial
    if pool and rng.random() < 0.5:
        return Var(rng.choice(pool))
    name = f"q{len(pool)}"
    pool.append(name)
    return Var(name)


def _gen_substitution(rng: random.Random, variables, depth: int) -> Substitution:
    pool: list[str] = []
    bindings = {}
    for v in sorted(variables):
        if rng.random() < 0.3:
            continue  # leave free
        bindings[v] = _gen_term(rng, pool, depth)
    return Substitution(bindings)


def gen_existential(u, cfg: TrialConfig, rng: random.Random | None = None) -> ExistentialSubstitution:
    """A random substitution class over ``u``; deterministic per config seed."""
    if rng is None:
        rng = _rng(cfg, "gen", 0)
    return canonicalize(_gen_substitution(rng, u, cfg.max_term_depth), u)


def _instance_of(rng: random.Random, theta: Substitution, depth: int) -> Substitution:
    """An instance of theta: some of its range variables get instantiated."""
    pool: list[str] = []
    delta = {}
    for w in sorted(theta.range_vars()):
        if rng.random() < 0.5:
            delta[w] = _gen_term(rng, pool, max(depth - 1, 0))
    return theta.compose(Substitution(delta))


def _gen_pair(rng: random.Random, cfg: TrialConfig):
    """Two substitution classes over overlapping interest sets, biased so the
    concrete matching is defined reasonably often."""
    n = min(cfg.max_vars, len(_UNIVERSE))
    u1 = frozenset(rng.sample(_UNIVERSE, rng.randint(1, n)))
    u2 = frozenset(rng.sample(_UNIVERSE, rng.randint(1, n)))
    theta2 = _gen_substitution(rng, u2, cfg.max_term_depth)
    if rng.random() < 0.5:
        base = _instance_of(rng, theta2, cfg.max_term_depth).restrict(u1)
        extra = _gen_substitution(rng, u1 - theta2.domain, cfg.max_term_depth)
        theta1 = Substitution(dict(base.bindings()) | dict(extra.bindings()))
    else:
        theta1 = _gen_substitution(rng, u1, cfg.max_term_depth)
    return canonicalize(theta1, u1), canonicalize(theta2, u2)


def _split_universe(rng: random.Random, limit: int):
    total = rng.randint(2, min(limit, len(_UNIVERSE)))
    names = rng.sample(_UNIVERSE, total)
    cut1 = rng.randint(1, total)
    cut2 = rng.randint(0, total - 1)
    return frozenset(names[:cut1]), frozenset(names[cut2:])


# --- correctness -------------------------------------------------------------


def _abstracted(d, chain: dict) -> tuple:
    """Concrete classes taken down to ``d``: ``chain`` maps ``existential``
    to a tuple of them and keeps each domain's abstractions of it on the
    way down ``above``."""
    if d not in chain:
        chain[d] = tuple(map(d.alpha, _abstracted(d.above, chain)))
    return chain[d]


def _match_correct(d, triples: dict) -> bool:
    a1, a2, conc = _abstracted(d, triples)
    return d.leq(conc, d.match(a1, a2))


def check_match_correct(c1, c2, domain: str) -> bool:
    """Abstract matching approximates the concrete matching on this pair."""
    concrete = ematch(c1, c2)
    if concrete is UNDEFINED:
        return True
    return _match_correct(DOMAINS[domain], {existential: (c1, c2, concrete)})


# --- optimality witnesses ----------------------------------------------------


def _fresh_names(count: int, avoid, stem: str) -> list[str]:
    names: list[str] = []
    i = 0
    while len(names) < count:
        name = f"{stem}{i}"
        if name not in avoid:
            names.append(name)
        i += 1
    return names


def witness_theta2(xs, u2) -> Substitution:
    """A substitution whose sharing groups over ``u2`` are exactly the
    distinct groups of the multiset ``xs``.

    Each interest variable is bound to one term stacking, for every group,
    as many copies of that group's private variable as the group counts for
    it; a variable in no group is bound to the constant, and single-copy
    stacks still wear the function symbol for uniformity.
    """
    u2 = frozenset(u2)
    counts: dict[Multiset, int] = {}
    for g, n in xs.items():
        if g:
            counts[g] = counts.get(g, 0) + n
    supp = sorted(counts, key=Multiset.sort_key)
    avoid = set(u2)
    for g in supp:
        avoid |= g.support
    by_group = dict(zip(supp, _fresh_names(len(supp), avoid, "v_h")))
    bindings = {}
    for u in sorted(u2):
        args: list[Term] = []
        for g in supp:
            args.extend([Var(by_group[g])] * g.count(u))
        bindings[u] = App("t", tuple(args)) if args else App("a")
    return Substitution(bindings)


def _rep_with_full_domain(c: ExistentialSubstitution) -> Substitution:
    """A representative binding every interest variable; free ones get a
    fresh variable, which stays in the same class."""
    bindings = dict(c.rep.bindings())
    free = sorted(c.interest - c.rep.domain)
    for u, name in zip(free, _fresh_names(len(free), c.rep.all_vars() | set(c.interest), "_d")):
        bindings[u] = Var(name)
    return Substitution(bindings)


def _find_group_var(pre: Mapping[str, dict[str, int]], group: Multiset, u2) -> str:
    for v in sorted(pre):
        if Multiset(pre[v]).restrict(u2) == group:
            return v
    raise NotInMatch(f"no variable realizes group {group}")


def witness_theta1(
    e1: ShLinOmegaElement, c2: ExistentialSubstitution, b: Multiset
) -> ExistentialSubstitution:
    """The first-argument witness for group ``b`` of the matching of ``e1``
    with the abstraction of ``c2``.

    Pass-through groups are realized by grounding everything the shared
    interest variables reach; combined groups by instantiating, inside an
    instance of ``c2``, each needed private variable with a stack of one
    shared fresh variable, plus bindings realizing ``b`` on the first
    argument's own variables.
    """
    u1, u2 = e1.interest, c2.interest
    s2 = alpha_omega(c2)
    m = match_omega(e1, s2)
    if b not in m.groups:
        raise NotInMatch(f"{b} not in {m}")
    rep2 = _rep_with_full_domain(c2)
    shared = sorted(u1 & u2)
    reach: set[str] = set()
    for u in shared:
        term_vars(rep2.lookup(u), reach)

    if not b.restrict(u1) and b in s2.groups:
        delta = Substitution({x: App("a") for x in sorted(reach)})
        bindings: dict[str, Term] = {u: delta.apply(rep2.lookup(u)) for u in shared}
        for x in sorted(u1 - u2):
            bindings[x] = App("a")
        return canonicalize(Substitution(bindings), u1)

    if b.restrict(u1) not in e1.groups:
        raise NotInMatch(f"{b} restricted to {sorted(u1)} not in first argument")
    rest = [g for g in s2.groups if g.support & u1]
    ok, witness = star_decompose(b.restrict(u2), rest)
    if not ok:  # pragma: no cover - matching only emits decomposable groups
        raise NotInMatch(f"{b} has no decomposition over the second argument")

    fresh = _fresh_names(1, reach | set(u1) | set(u2) | rep2.all_vars(), "v_s")[0]
    delta_bindings: dict[str, Term] = {}
    pre = preimages(rep2)
    for group, count in witness:
        v_h = _find_group_var(pre, group, u2)
        delta_bindings[v_h] = App("t", tuple([Var(fresh)] * count))
    for y in sorted(reach):
        if y not in delta_bindings:
            delta_bindings[y] = App("a")
    delta = Substitution(delta_bindings)

    bindings = {}
    for w in sorted(u1 - u2):
        n = b.count(w)
        bindings[w] = App("t", tuple([Var(fresh)] * n)) if n else App("a")
    for u in shared:
        bindings[u] = delta.apply(rep2.lookup(u))
    return canonicalize(Substitution(bindings), u1)


def _realize_omega(e1: ShLinOmegaElement, e2: ShLinOmegaElement):
    """The exact-multiplicity matching and, for each group ``b`` of it,
    the groups of ``e2`` whose sum realizes ``b`` on u2 (``b`` alone when
    it passes through), ``b`` as the group realized and ``e1``."""
    u1, u2 = e1.interest, e2.interest
    rest = [g for g in e2.groups if g.support & u1]

    def realize(b: Multiset):
        if not b.restrict(u1) and b in e2.groups:
            return {b: 1}, b, e1
        ok, witness = star_decompose(b.restrict(u2), rest)
        if not ok:  # pragma: no cover - matching only emits decomposable groups
            raise NotInMatch(f"{b} undecomposable")
        return dict(witness), b, e1

    return match_omega(e1, e2), realize


def _realize_two(e1, e2):
    """The clipped matching and, for each maximal group ``o`` of it, the
    exact-multiplicity groups realizing its generator, the group ``c``
    they realize and the one-group element of ``c`` on u1. A chosen group
    enters once at multiplicity 1 where the first argument demands
    linearity, so the realization stays below the generator's first
    group; a doubled one enters twice as it is."""
    u1, u2 = e1.interest, e2.interest
    generators = match2_opt_generators(e1.groups, u1, e2.groups, u2)

    def realize(o: Multiset):
        kind = generators[o]
        if kind[0] == "pass":
            xs: dict[Multiset, int] = {o: 1} if o else {}
            c = o
        else:
            _, o1, x, xbar = kind
            doubled = set(xbar)
            xs = {}
            for op in x:
                n = 2 if op in doubled else 1
                if n == 1:
                    op = Multiset({v: 1 if e == 1 or (v in u1 and o1.count(v) == 1) else 2
                                   for v, e in op.items()})
                xs[op] = xs.get(op, 0) + n
            c = o.restrict(u1 - u2)
            for rep, n in xs.items():
                c = c + rep.scale(n)
        return xs, c, omega_element({c.restrict(u1)}, u1)

    return two_element(generators, u1 | u2), realize


_REALIZATIONS = {shlin_omega: _realize_omega, shlin2: _realize_two}


def check_optimality(e1, second, domain: str) -> list[WitnessReport]:
    """Constructive optimality check: one report per group of the abstract
    matching result, each carrying the realizing substitution pair. The
    second argument may be an abstract element or, for the exact domain, a
    concrete substitution class kept fixed across all groups. A domain
    with a ``gamma`` is witnessed in the domain above, through ``alpha``.

    The witnessing domain's realization gives the matching and, per group,
    the groups a second substitution must realize, the exact-multiplicity
    group to realize and the first argument to realize it under; a
    concrete second argument is kept in place of those groups. The
    witness is judged by the witnessing domain's record: the concrete
    matching's abstraction holds the group, and the pair's abstractions
    lie below the arguments. The record's ``match`` must give the matching
    witnessed."""
    d = DOMAINS[domain]
    lemma = isinstance(second, ExistentialSubstitution)
    if lemma and d.above is not existential:
        raise ValueError(f"a concrete second argument needs the omega domain, not {domain}")
    e2 = d.alpha(second) if lemma else second
    w, f1, f2 = (d.above, d.gamma(e1), d.gamma(e2)) if hasattr(d, "gamma") else (d, e1, e2)
    m, realize = _REALIZATIONS[w](f1, f2)
    u2 = f2.interest
    reports: list[WitnessReport] = []
    for group in [] if e1.is_bottom() else sorted(m.groups, key=Multiset.sort_key):
        xs, target, first = realize(group)
        c2 = second if lemma else canonicalize(witness_theta2(xs, u2), u2)
        theta1 = witness_theta1(first, c2, target)
        concrete = ematch(theta1, c2)
        ok = concrete is not UNDEFINED
        if ok:
            got, a1, a2 = _abstracted(w, {existential: (concrete, theta1, c2)})
            ok = w.leq(m.of({group}, m.interest), got) and w.leq(a1, f1) and w.leq(a2, f2)
        reports.append(WitnessReport(target, theta1, c2, ok))
    if d.match(e1, e2) != (m if w is d else d.alpha(m)):
        for r in reports:
            r.verified = False
    return reports


# --- suites ------------------------------------------------------------------


def _zero(report: dict) -> dict:
    """``report``'s shape with every count at zero and no failures."""
    return {k: [] if k == "failures" else dict.fromkeys(v, 0) if isinstance(v, dict)
            else 0 if isinstance(v, int) and k != "seed" else v for k, v in report.items()}


def merge_reports(reports: Iterable[dict]) -> dict:
    """One report from the reports of one suite over consecutive trial
    ranges, or over its single trials: failures are concatenated in order,
    every count except the seed is summed (dicts of counts key by key), and
    the rest is kept. One pass over any iterable; the inputs are left as
    they are."""
    out = None
    for r in reports:
        out = out or _zero(r)
        for key, value in r.items():
            if key == "failures":
                out[key] += value
            elif isinstance(value, dict):
                for k, n in value.items():
                    out[key][k] += n
            elif isinstance(value, int) and key != "seed":
                out[key] += value
    return out


def _suite(lo: int, hi: int | None, cfg: TrialConfig, trial) -> dict:
    """The merge of the one-trial reports ``trial(i)`` for ``lo <= i < hi``,
    ``hi`` defaulting to ``cfg.trials``. An empty range gives the zero
    report, shaped by trial ``lo``'s."""
    hi = cfg.trials if hi is None else hi
    if lo >= hi:
        return _zero(trial(lo))
    return merge_reports(map(trial, range(lo, hi)))


def run_correctness(
    cfg: TrialConfig,
    domains: Iterable[str] = DOMAIN_TAGS,
    lo: int = 0,
    hi: int | None = None,
) -> dict:
    domains = tuple(domains)

    def trial(i: int) -> dict:
        c1, c2 = _gen_pair(_rng(cfg, "corr", i), cfg)
        concrete = ematch(c1, c2)
        triples = {existential: (c1, c2, concrete)}
        defined = concrete is not UNDEFINED
        ok = {d: not defined or _match_correct(DOMAINS[d], triples) for d in domains}
        return {"kind": "correctness", "seed": cfg.seed, "trials": 1, "defined": int(defined),
                "domains": {d: int(ok[d]) for d in domains},
                "failures": [{"trial": i, "domain": d, "c1": str(c1), "c2": str(c2)}
                             for d in domains if not ok[d]]}

    return _suite(lo, hi, cfg, trial)


def run_optimality(cfg: TrialConfig, domain: str, lo: int = 0, hi: int | None = None) -> dict:
    d = DOMAINS[domain]

    def trial(i: int) -> dict:
        rng = _rng(cfg, f"opt:{domain}", i)
        u1, u2 = _split_universe(rng, 5)
        e1 = d.gen(rng, u1, cfg.multiplicity_cap)
        e2 = d.gen(rng, u2, cfg.multiplicity_cap)
        reports = check_optimality(e1, e2, domain)
        return {"kind": "optimality", "seed": cfg.seed, "domain": domain, "trials": 1,
                "groups": len(reports),
                "failures": [{"trial": i, "domain": domain, "group": str(r.group), "e1": str(e1),
                              "e2": str(e2), "theta1": str(r.theta1), "theta2": str(r.theta2)}
                             for r in reports if not r.verified]}

    return _suite(lo, hi, cfg, trial)


def check_equivalences(cfg: TrialConfig, lo: int = 0, hi: int | None = None) -> dict:
    """Randomized equality of the two matchers and of the composed
    sharing+linearity matcher; failures carry the full counterexample."""
    if cfg.max_vars < 2:
        raise ValueError("equivalence trials need max_vars of at least 2")
    two, sl = DOMAINS["two"], DOMAINS["sl"]

    def trial(i: int) -> dict:
        rng = _rng(cfg, "equiv", i)
        u1, u2 = _split_universe(rng, cfg.max_vars)
        e1 = two.gen(rng, u1, cfg.multiplicity_cap)
        e2 = two.gen(rng, u2, cfg.multiplicity_cap)
        ref, opt = match2_ref(e1, e2), two.match(e1, e2)
        failures = [] if ref == opt else [{"trial": i, "check": "two_ref_vs_opt", "e1": str(e1),
                                           "e2": str(e2), "ref": str(ref), "opt": str(opt)}]
        s1 = sl.gen(rng, u1, cfg.multiplicity_cap)
        s2 = sl.gen(rng, u2, cfg.multiplicity_cap)
        direct = sl.match(s1, s2)
        composed = sl.alpha(match2_ref(sl.gamma(s1), sl.gamma(s2)))
        if direct != composed:
            failures.append({"trial": i, "check": "sl_vs_composition", "e1": str(s1),
                             "e2": str(s2), "direct": str(direct), "composed": str(composed)})
        return {"kind": "equivalence", "seed": cfg.seed, "trials": 1,
                "checks": {"two_ref_vs_opt": 1, "sl_vs_composition": 1}, "failures": failures}

    return _suite(lo, hi, cfg, trial)


def render_report(report: dict) -> str:
    """Line-oriented deterministic rendering of a suite report."""
    lines = [f"kind={report['kind']} seed={report['seed']} trials={report['trials']}"]
    if report["kind"] == "correctness":
        lines.append(f"defined={report['defined']}")
        for d, n in report["domains"].items():
            lines.append(f"domain {d}: pass={n}")
    elif report["kind"] == "optimality":
        lines.append(f"domain {report['domain']}: groups={report['groups']}")
    else:
        for name, n in report["checks"].items():
            lines.append(f"check {name}: instances={n}")
    for f in report["failures"]:
        parts = " ".join(f"{k}={v}" for k, v in f.items())
        lines.append(f"FAIL {parts}")
    lines.append(f"result: {'PASS' if not report['failures'] else 'FAIL'}")
    return "\n".join(lines) + "\n"
