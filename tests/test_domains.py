"""The domain records of ``sharlin.domains``: every module in ``DOMAINS``
supplies the names its docstring lists, after the domain above it, and a
matcher rebound in every ``sharlin`` namespace, as the benchmark's tracer
rebinds it, reaches both the analyzer and the oracle."""
import random
import re
import sys

import pytest

from sharlin import analyzer, domains, existential, oracle, shlin2, shlin_omega, shlin_sl
from sharlin.analyzer import AnalysisRequest, analyze, parse_goal, parse_program
from sharlin.domains import DOMAINS

RECORD = re.findall(r"^\* ``(\w+)", domains.__doc__, re.MULTILINE)


def test_the_docstring_lists_the_record():
    assert {"parse", "leq", "match", "gen", "above", "alpha", "amgu", "groups_of"} <= set(RECORD)


@pytest.mark.parametrize("domain", list(DOMAINS))
def test_every_domain_supplies_the_record(domain):
    assert [n for n in RECORD if not hasattr(DOMAINS[domain], n)] == []


def test_each_domain_comes_after_the_one_above_it():
    order = [existential, *DOMAINS.values()]
    for i, d in enumerate(order[1:], 1):
        assert d.above in order[:i], d.__name__
    assert callable(existential.parse)


def test_the_oracle_and_the_analyzer_share_the_domains():
    assert oracle.DOMAIN_TAGS == tuple(DOMAINS)
    assert analyzer.DOMAINS is DOMAINS


def _rebind(monkeypatch, original, replacement):
    """Replace ``original`` in every loaded ``sharlin`` namespace, aliases
    included."""
    for name, module in list(sys.modules.items()):
        if name == "sharlin" or name.startswith("sharlin."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


CALLS = {"omega": "[x, z]_{x,z}", "two": "[x, z]_{x,z}", "sl": "[{x, z}, lin={x,z}]_{x,z}"}


def test_rebound_matchers_reach_the_analyzer_and_the_oracle(monkeypatch):
    calls = dict.fromkeys(("match_omega", "match2", "match_sl"), 0)
    for module, name in zip((shlin_omega, shlin2, shlin_sl), calls):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)

        _rebind(monkeypatch, getattr(module, name), counted)
    for domain, call in CALLS.items():
        analyze(AnalysisRequest(program=parse_program("p(u, v, w)."),
                                goal=parse_goal("p(x, f(x, z), z)"),
                                call=DOMAINS[domain].parse(call), domain=domain))
    assert min(calls.values()) > 0, calls
    calls.update(dict.fromkeys(calls, 0))
    report = oracle.run_correctness(oracle.TrialConfig(trials=50))
    assert report["failures"] == []
    assert min(calls.values()) > 0, calls


def _leq_law_violations(d, leq, pairs=300):
    """Seeded pairs over one interest set, each with ``j = d.union(e1,
    e2)``, on which ``leq`` breaks its law: both below j, antisymmetric,
    and j below e1 only when j is e1. Returns the violations and the
    number of pairs where j is strictly above e1."""
    rng = random.Random(f"leq:{d.__name__}")
    violations, strict = [], 0
    for i in range(pairs):
        u = frozenset(rng.sample("uvwxyz", rng.randint(1, 4)))
        e1, e2 = d.gen(rng, u, 3), d.gen(rng, u, 3)
        j = d.union(e1, e2)
        strict += j != e1
        if not (leq(e1, j) and leq(e2, j)):
            violations.append((i, "below the union"))
        if any(leq(a, b) and leq(b, a) and a != b for a, b in ((e1, e2), (e1, j), (e2, j))):
            violations.append((i, "antisymmetry"))
        if j != e1 and leq(j, e1):
            violations.append((i, "the union below e1"))
    return violations, strict


@pytest.mark.parametrize("domain", list(DOMAINS))
def test_each_order_holds_its_law_and_can_be_false(domain):
    d = DOMAINS[domain]
    violations, strict = _leq_law_violations(d, d.leq)
    assert violations == [] and strict >= 100, (violations[:5], strict)
    assert _leq_law_violations(d, lambda a, b: True)[0]
