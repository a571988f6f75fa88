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
  variables. Clipped-domain results are witnessed by lifting through the
  exact-multiplicity domain, choosing concretization representatives whose
  multiplicities respect the linear variables of the first argument;
* equivalence: the reference and maximal-antichain matchers agree, and the
  sharing+linearity matcher equals its composition through the embedding.

Per-trial random streams are derived from (seed, label, index), so trials
are order-independent and can be partitioned across processes;
``merge_reports`` joins the reports of consecutive trial ranges, and they
render byte-identically for identical configurations.

Bottom elements are excluded from optimality generation: an element with no
groups approximates no substitution, so no witness pair can exist for the
pass-through groups a matching against bottom still emits.
"""
from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .existential import (
    ExistentialSubstitution,
    UNDEFINED,
    canonicalize,
    ematch,
)
from .multiset import EMPTY, Multiset
from .shlin_omega import (
    ShLinOmegaElement,
    alpha_omega,
    approx_omega,
    leq_omega,
    match_omega,
    omega_element,
    star_decompose,
)
from .shlin2 import (
    ShLin2Element,
    alpha2,
    el2_contains,
    leq2,
    match2,
    match2_opt_generators,
    match2_ref,
    two_element,
)
from .shlin_sl import (
    ShLinElement,
    alpha_sl,
    gamma_sl,
    leq_sl,
    match_sl,
    sl_element,
)
from .terms import App, Substitution, Term, Var, preimage_var, term_vars

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

DOMAIN_TAGS = ("omega", "two", "sl")

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


def _gen_groups(rng: random.Random, variables, exponent) -> list[dict[str, int]]:
    """One to three random groups: each variable is kept with probability
    0.45, and only then given ``exponent()``."""
    return [
        {v: exponent() for v in sorted(variables) if rng.random() < 0.45}
        for _ in range(rng.randint(1, 3))
    ]


def _gen_omega_element(rng: random.Random, variables, cfg: TrialConfig) -> ShLinOmegaElement:
    groups = _gen_groups(rng, variables, lambda: rng.randint(1, cfg.multiplicity_cap))
    return omega_element(set(map(Multiset, groups)), variables)


def _gen_two_element(rng: random.Random, variables) -> ShLin2Element:
    groups = _gen_groups(rng, variables, lambda: 2 if rng.random() < 0.4 else 1)
    return two_element(set(map(Multiset, groups)), variables)


def _gen_sl_element(rng: random.Random, variables) -> ShLinElement:
    groups = [frozenset(g) for g in _gen_groups(rng, variables, lambda: 1)]
    covered = frozenset().union(*groups)
    linear = {v for v in sorted(covered) if rng.random() < 0.6}
    return sl_element(groups, linear, variables)


def _split_universe(rng: random.Random, limit: int):
    total = rng.randint(2, min(limit, len(_UNIVERSE)))
    names = rng.sample(_UNIVERSE, total)
    cut1 = rng.randint(1, total)
    cut2 = rng.randint(0, total - 1)
    return frozenset(names[:cut1]), frozenset(names[cut2:])


# --- correctness -------------------------------------------------------------


def _abstractions(c1, c2, concrete):
    """First argument, second argument and concrete answer, abstracted in
    the exact-multiplicity domain and then clipped."""
    omega = (alpha_omega(c1), alpha_omega(c2), alpha_omega(concrete))
    return omega, tuple(map(alpha2, omega))


def _match_correct(domain: str, omega, two) -> bool:
    """One domain's correctness check from precomputed ``_abstractions``."""
    if domain == "omega":
        a1, a2, conc = omega
        return leq_omega(conc, match_omega(a1, a2))
    a1, a2, conc = two
    if domain == "two":
        return leq2(conc, match2(a1, a2))
    if domain == "sl":
        return leq_sl(alpha_sl(conc), match_sl(alpha_sl(a1), alpha_sl(a2)))
    raise ValueError(f"unknown domain {domain!r}")


def check_match_correct(c1, c2, domain: str) -> bool:
    """Abstract matching approximates the concrete matching on this pair."""
    concrete = ematch(c1, c2)
    if concrete is UNDEFINED:
        return True
    return _match_correct(domain, *_abstractions(c1, c2, concrete))


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
    items = xs.items() if isinstance(xs, Mapping) else ((g, 1) for g in xs)
    for g, n in items:
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
    taken = c.rep.all_vars() | set(c.interest)
    i = 0
    for u in sorted(c.interest - c.rep.domain):
        while f"_d{i}" in taken:
            i += 1
        bindings[u] = Var(f"_d{i}")
        i += 1
    return Substitution(bindings)


def _find_group_var(rep2: Substitution, group: Multiset, u2) -> str:
    for v in sorted(rep2.range_vars()):
        if preimage_var(rep2, v).restrict(u2) == group:
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
    ok, witness = star_decompose(b.restrict(u2), rest, u1)
    if not ok:  # pragma: no cover - matching only emits decomposable groups
        raise NotInMatch(f"{b} has no decomposition over the second argument")

    fresh = _fresh_names(1, reach | set(u1) | set(u2) | rep2.all_vars(), "v_s")[0]
    delta_bindings: dict[str, Term] = {}
    for group, count in witness:
        v_h = _find_group_var(rep2, group, u2)
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


def _omega_witness_reports(e1: ShLinOmegaElement, second) -> list[WitnessReport]:
    """One report per group of the exact-multiplicity matching.

    A concrete ``second`` (lemma mode) stays fixed for all groups, matched
    through its abstraction; for an abstract ``second`` the second
    substitution is rebuilt per group from the decomposition.
    """
    reports: list[WitnessReport] = []
    if e1.is_bottom():
        return reports
    lemma = isinstance(second, ExistentialSubstitution)
    e2 = alpha_omega(second) if lemma else second
    m = match_omega(e1, e2)
    u1, u2 = e1.interest, e2.interest
    rest = [g for g in e2.groups if g.support & u1]
    for b in sorted(m.groups, key=Multiset.sort_key):
        if lemma:
            c2 = second
        elif not b.restrict(u1) and b in e2.groups:
            c2 = canonicalize(witness_theta2({b: 1}, u2), u2)
        else:
            ok, witness = star_decompose(b.restrict(u2), rest, u1)
            if not ok:  # pragma: no cover - see above
                raise NotInMatch(f"{b} undecomposable")
            c2 = canonicalize(witness_theta2(dict(witness), u2), u2)
        theta1 = witness_theta1(e1, c2, b)
        concrete = ematch(theta1, c2)
        ok = (
            concrete is not UNDEFINED
            and b in alpha_omega(concrete).groups
            and approx_omega(e1, theta1)
            and leq_omega(alpha_omega(c2), e2)
        )
        reports.append(WitnessReport(b, theta1, c2, ok))
    return reports


def _two_witness_reports(e1: ShLin2Element, e2: ShLin2Element) -> list[WitnessReport]:
    """One report per maximal group of the clipped matching, witnessed by an
    exact-multiplicity realization rebuilt from the group's generator."""
    reports: list[WitnessReport] = []
    if e1.is_bottom():
        return reports
    u1, u2 = e1.interest, e2.interest
    generators = match2_opt_generators(e1.maximals, u1, e2.maximals, u2)
    result = two_element(generators, u1 | u2)
    for o in sorted(result.maximals, key=Multiset.sort_key):
        kind = generators[o]
        if kind[0] == "pass":
            c_group = o
            xs: dict[Multiset, int] = {c_group: 1} if c_group else {}
        else:
            _, o1, x, xbar = kind
            doubled = set(xbar)
            xs = {}
            for op in x:
                if op in doubled:
                    xs[op] = xs.get(op, 0) + 2
                else:
                    # multiplicity 1 where the first argument demands
                    # linearity, so the realization stays below o1
                    rep = Multiset(
                        {
                            v: (1 if e == 1 or (v in u1 and o1.count(v) == 1) else 2)
                            for v, e in op.items()
                        }
                    )
                    xs[rep] = xs.get(rep, 0) + 1
            total = EMPTY
            for rep, n in xs.items():
                total = total + rep.scale(n)
            c_group = o.restrict(u1 - u2) + total
        theta2 = witness_theta2(xs, u2)
        c2 = canonicalize(theta2, u2)
        e1_omega = omega_element({c_group.restrict(u1)}, u1)
        theta1 = witness_theta1(e1_omega, c2, c_group)
        concrete = ematch(theta1, c2)
        ok = (
            concrete is not UNDEFINED
            and el2_contains(alpha2(alpha_omega(concrete)), o)
            and leq2(alpha2(alpha_omega(theta1)), e1)
            and leq2(alpha2(alpha_omega(c2)), e2)
        )
        reports.append(WitnessReport(c_group, theta1, c2, ok))
    return reports


def check_optimality(e1, second, domain: str, cfg: TrialConfig) -> list[WitnessReport]:
    """Constructive optimality check: one report per group of the abstract
    matching result, each carrying the realizing substitution pair. The
    second argument may be an abstract element or, for the exact domain, a
    concrete substitution class kept fixed across all groups."""
    if domain == "omega":
        return _omega_witness_reports(e1, second)
    if domain == "two":
        return _two_witness_reports(e1, second)
    if domain == "sl":
        t1, t2 = gamma_sl(e1), gamma_sl(second)
        reports = _two_witness_reports(t1, t2)
        if match_sl(e1, second) != alpha_sl(match2(t1, t2)):
            for r in reports:
                r.verified = False
        return reports
    raise ValueError(f"unknown domain {domain!r}")


# --- suites ------------------------------------------------------------------


def run_correctness(
    cfg: TrialConfig,
    domains: Iterable[str] = DOMAIN_TAGS,
    lo: int = 0,
    hi: int | None = None,
) -> dict:
    domains = tuple(domains)
    hi = cfg.trials if hi is None else hi
    counts = {d: 0 for d in domains}
    defined = 0
    failures = []
    for i in range(lo, hi):
        rng = _rng(cfg, "corr", i)
        c1, c2 = _gen_pair(rng, cfg)
        concrete = ematch(c1, c2)
        if concrete is UNDEFINED:
            for d in domains:
                counts[d] += 1
            continue
        defined += 1
        omega, two = _abstractions(c1, c2, concrete)
        for d in domains:
            if _match_correct(d, omega, two):
                counts[d] += 1
            else:
                failures.append({"trial": i, "domain": d, "c1": str(c1), "c2": str(c2)})
    return {
        "kind": "correctness",
        "seed": cfg.seed,
        "trials": hi - lo,
        "defined": defined,
        "domains": {d: counts[d] for d in domains},
        "failures": failures,
    }


def run_optimality(cfg: TrialConfig, domain: str, lo: int = 0, hi: int | None = None) -> dict:
    hi = cfg.trials if hi is None else hi
    groups_checked = 0
    failures = []
    for i in range(lo, hi):
        rng = _rng(cfg, f"opt:{domain}", i)
        u1, u2 = _split_universe(rng, 5)
        if domain == "omega":
            e1 = _gen_omega_element(rng, u1, cfg)
            e2 = _gen_omega_element(rng, u2, cfg)
        elif domain == "two":
            e1 = _gen_two_element(rng, u1)
            e2 = _gen_two_element(rng, u2)
        elif domain == "sl":
            e1 = _gen_sl_element(rng, u1)
            e2 = _gen_sl_element(rng, u2)
        else:
            raise ValueError(f"unknown domain {domain!r}")
        reports = check_optimality(e1, e2, domain, cfg)
        groups_checked += len(reports)
        for r in reports:
            if not r.verified:
                failures.append(
                    {
                        "trial": i,
                        "domain": domain,
                        "group": str(r.group),
                        "e1": str(e1),
                        "e2": str(e2),
                        "theta1": str(r.theta1),
                        "theta2": str(r.theta2),
                    }
                )
    return {
        "kind": "optimality",
        "seed": cfg.seed,
        "domain": domain,
        "trials": hi - lo,
        "groups": groups_checked,
        "failures": failures,
    }


def check_equivalences(cfg: TrialConfig, lo: int = 0, hi: int | None = None) -> dict:
    """Randomized equality of the two matchers and of the composed
    sharing+linearity matcher; failures carry the full counterexample."""
    if cfg.max_vars < 2:
        raise ValueError("equivalence trials need max_vars of at least 2")
    hi = cfg.trials if hi is None else hi
    two_checked = sl_checked = 0
    failures = []
    for i in range(lo, hi):
        rng = _rng(cfg, "equiv", i)
        u1, u2 = _split_universe(rng, cfg.max_vars)
        e1 = _gen_two_element(rng, u1)
        e2 = _gen_two_element(rng, u2)
        ref = match2_ref(e1, e2)
        opt = match2(e1, e2)
        two_checked += 1
        if ref != opt:
            failures.append(
                {
                    "trial": i,
                    "check": "two_ref_vs_opt",
                    "e1": str(e1),
                    "e2": str(e2),
                    "ref": str(ref),
                    "opt": str(opt),
                }
            )
        s1 = _gen_sl_element(rng, u1)
        s2 = _gen_sl_element(rng, u2)
        direct = match_sl(s1, s2)
        composed = alpha_sl(match2(gamma_sl(s1), gamma_sl(s2)))
        sl_checked += 1
        if direct != composed:
            failures.append(
                {
                    "trial": i,
                    "check": "sl_vs_composition",
                    "e1": str(s1),
                    "e2": str(s2),
                    "direct": str(direct),
                    "composed": str(composed),
                }
            )
    return {
        "kind": "equivalence",
        "seed": cfg.seed,
        "trials": hi - lo,
        "checks": {"two_ref_vs_opt": two_checked, "sl_vs_composition": sl_checked},
        "failures": failures,
    }


def merge_reports(reports: list[dict]) -> dict:
    """One report from the reports of one suite over consecutive trial
    ranges: failures are concatenated in order, every count except the
    seed is summed (dicts of counts key by key), and the rest is kept."""
    out = dict(reports[0])
    for key, value in reports[0].items():
        if key == "failures":
            out[key] = [f for r in reports for f in r[key]]
        elif isinstance(value, dict):
            out[key] = {k: sum(r[key][k] for r in reports) for k in value}
        elif isinstance(value, int) and key != "seed":
            out[key] = sum(r[key] for r in reports)
    return out


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
