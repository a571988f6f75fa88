"""The analyzer's answers on the benchmark corpus, pinned byte for byte.

Run as a script, this prints the answers in the pinned format:
``PYTHONPATH=src python tests/test_corpus.py``. It needs no test
dependencies, so other Python versions can diff it against the pin.
"""
import os
import sys

from sharlin.analyzer import AnalysisRequest, analyze, parse_goal, parse_program
from sharlin.existential import canonicalize
from sharlin.shlin_omega import alpha_omega
from sharlin.shlin2 import alpha2
from sharlin.shlin_sl import alpha_sl
from sharlin.terms import parse_substitution

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAMS = os.path.join(ROOT, "perfbench", "programs")
PINNED = os.path.join(ROOT, "tests", "expected", "corpus_answers.txt")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def corpus_answers() -> str:
    """One ``<item> <domain> <mode>: <answer>`` line per corpus item of
    ``items.txt``, domain and backward mode, at the default cap. Each
    domain's call abstracts the item's concrete call."""
    lines = []
    for raw in _read(os.path.join(PROGRAMS, "items.txt")).splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        name, program, goal, call, _ = (f.strip() for f in raw.split("|"))
        program = parse_program(_read(os.path.join(PROGRAMS, program)))
        goal = parse_goal(goal)
        omega = alpha_omega(canonicalize(parse_substitution(call), goal.variables))
        calls = {"omega": omega, "two": alpha2(omega), "sl": alpha_sl(alpha2(omega))}
        for domain, e in calls.items():
            for mode in ("matching", "mgu"):
                req = AnalysisRequest(program=program, goal=goal, call=e, domain=domain,
                                      mode=mode)
                lines.append(f"{name} {domain} {mode}: {analyze(req).answer}\n")
    return "".join(lines)


def test_corpus_answers_are_pinned():
    # The two `nonlinear omega` lines are the known-unsound answers
    # [x, x^2, x^3] against a concrete [x^5], pinned as they are: making the
    # analysis cap sound (ROADMAP, Fix first, item 1) will change them.
    assert corpus_answers() == _read(PINNED)


if __name__ == "__main__":
    sys.stdout.write(corpus_answers())
