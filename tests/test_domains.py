"""The domain records of ``sharlin.domains``: every module in ``DOMAINS``
supplies the names its docstring lists, after the domain above it, and a
matcher rebound in every ``sharlin`` namespace, as the benchmark's tracer
rebinds it, reaches both the analyzer and the oracle. The operations the
domains share are bound in ``shlin_omega`` alone, so rebinding one there
reaches every caller."""
import os
import random
import re
import sys

import pytest

from sharlin import analyzer, domains, existential, oracle, shlin2, shlin_omega, shlin_sl
from sharlin.analyzer import AnalysisRequest, analyze, parse_goal, parse_program
from sharlin.cli import main
from sharlin.domains import DOMAINS

RECORD = re.findall(r"^\* ``(\w+)", domains.__doc__, re.MULTILINE)


def test_the_docstring_lists_the_record():
    assert {"parse", "leq", "match", "gen", "above", "alpha", "bottom", "amgu"} == set(RECORD)


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
    """Seeded pairs over one interest set, each with ``j =
    union_omega(e1, e2)``, on which ``leq`` breaks its law: both below j, antisymmetric,
    and j below e1 only when j is e1. Returns the violations and the
    number of pairs where j is strictly above e1."""
    rng = random.Random(f"leq:{d.__name__}")
    violations, strict = [], 0
    for i in range(pairs):
        u = frozenset(rng.sample("uvwxyz", rng.randint(1, 4)))
        e1, e2 = d.gen(rng, u, 3), d.gen(rng, u, 3)
        j = shlin_omega.union_omega(e1, e2)
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


SHARED = ("project_omega", "rename_omega", "union_omega", "extend", "join_disjoint", "clip",
          "groups_of")
RECORD_ALIASES = ("project", "union", "rename")
ALIASES = ("project2", "rename2", "union2", "project_sl", "rename_sl", "union_sl")


def test_the_shared_operations_are_bound_in_shlin_omega_alone():
    """Each shared operation has one binding, in ``shlin_omega``, among
    the package's modules (the package re-exports its public names); no
    other domain binds one by any name, and the old aliases are gone."""
    shared = [getattr(shlin_omega, name) for name in SHARED]
    for name, module in list(sys.modules.items()):
        if name.startswith("sharlin."):
            held = [attr for attr, value in vars(module).items()
                    if any(value is op for op in shared)]
            assert held == (list(SHARED) if module is shlin_omega else []), name
    for d in DOMAINS.values():
        names = RECORD_ALIASES + ALIASES + (() if d is shlin_omega else SHARED)
        assert [n for n in names if hasattr(d, n)] == [], d.__name__
    for alias in ALIASES:
        with pytest.raises(ImportError):
            exec(f"from sharlin import {alias}", {})


MEMBER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "programs", "member.pl")
# per domain, the corpus item member's call, whose answer is the union of
# its two clauses' answers, and two elements for ``eval --op union``
OPERANDS = {"omega": ("[x, y, z]_{x,y,z}", "[x]_{x,y}", "[y]_{x,y}"),
            "two": ("[x, y, z]_{x,y,z}", "[x^*]_{x,y}", "[y]_{x,y}"),
            "sl": ("[{x, y, z}, lin={x,y,z}]_{x,y,z}", "[{x}, lin={}]_{x,y}",
                   "[{y}, lin={y}]_{x,y}")}


def test_a_union_that_keeps_one_side_reaches_every_caller(monkeypatch, capsys):
    """The mutant ``union`` that keeps its first argument's groups, bound
    on ``shlin_omega`` alone, changes the analyzer's answer in every
    domain and what ``sharlin eval --op union`` prints."""
    with open(MEMBER, encoding="utf-8") as fh:
        program = parse_program(fh.read())
    goal = parse_goal("member(x, [y, z])")

    def outputs():
        out = []
        for domain, (call, e1, e2) in OPERANDS.items():
            req = AnalysisRequest(program=program, goal=goal, call=DOMAINS[domain].parse(call),
                                  domain=domain)
            assert main(["eval", "--domain", domain, "--op", "union", e1, e2]) == 0
            out += [str(analyze(req).answer), capsys.readouterr().out.strip()]
        return out

    # the answers are the ones pinned in tests/expected/corpus_answers.txt
    assert outputs() == ["[xy, xz, y, z]_{x, y, z}", "[x, y]_{x, y}",
                         "[xy, xz, y, z]_{x, y, z}", "[x^*, y]_{x, y}",
                         "[{xy, xz, y, z}, lin={x, y, z}]_{x, y, z}", "[{x, y}, lin={y}]_{x, y}"]

    def keeps_one_side(e1, e2):
        return e1.of(e1.groups, e1.interest)

    monkeypatch.setattr(shlin_omega, "union_omega", keeps_one_side)
    assert outputs() == ["[]_{x, y, z}", "[x]_{x, y}", "[]_{x, y, z}", "[x^*]_{x, y}",
                         "[{}, lin={x, y, z}]_{x, y, z}", "[{x}, lin={y}]_{x, y}"]
