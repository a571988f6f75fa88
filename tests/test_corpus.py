"""The analyzer's answers, ``analyze --trace`` reports and ``sharlin
diff`` lines on the benchmark corpus, pinned byte for byte.

Run as a script, this prints them in the pinned formats:
``PYTHONPATH=src python tests/test_corpus.py`` prints the answers,
``PYTHONPATH=src python tests/test_corpus.py traces`` the trace reports and
``PYTHONPATH=src python tests/test_corpus.py diffs`` the diff lines. It
needs no test dependencies, so other Python versions can diff it against
the pins.
"""
import contextlib
import io
import os
import sys

from sharlin import existential
from sharlin.analyzer import DOMAINS, AnalysisRequest, analyze, parse_goal, parse_program
from sharlin.cli import main
from sharlin.existential import canonicalize
from sharlin.shlin_omega import extend
from sharlin.terms import parse_substitution

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAMS = os.path.join(ROOT, "perfbench", "programs")
PINNED = os.path.join(ROOT, "tests", "expected", "corpus_answers.txt")
PINNED_DIFFS = os.path.join(ROOT, "tests", "expected", "corpus_diffs.txt")
PINNED_TRACES = os.path.join(ROOT, "tests", "expected", "corpus_traces.txt")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _items():
    """(name, program file, goal text, domain -> call) per corpus item of
    ``items.txt``. Each domain's call abstracts the item's concrete call."""
    for raw in _read(os.path.join(PROGRAMS, "items.txt")).splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        name, program, goal, call, _ = (f.strip() for f in raw.split("|"))
        abstracted = {existential: canonicalize(parse_substitution(call),
                                                parse_goal(goal).variables)}
        for d in DOMAINS.values():  # each comes after the domain above it
            abstracted[d] = d.alpha(abstracted[d.above])
        calls = {domain: abstracted[d] for domain, d in DOMAINS.items()}
        yield name, os.path.join(PROGRAMS, program), goal, calls


def corpus_answers() -> str:
    """One ``<item> <domain> <mode>: <answer>`` line per corpus item,
    domain and backward mode, at the default cap."""
    lines = []
    for name, path, goal, calls in _items():
        program, atom = parse_program(_read(path)), parse_goal(goal)
        for domain, e in calls.items():
            for mode in ("matching", "mgu"):
                req = AnalysisRequest(program=program, goal=atom, call=e, domain=domain,
                                      mode=mode)
                lines.append(f"{name} {domain} {mode}: {analyze(req).answer}\n")
    return "".join(lines)


def _cli(args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    assert code == 0, args
    return out.getvalue()


def corpus_traces() -> str:
    """What ``sharlin analyze --trace`` prints for each corpus item, domain
    and backward mode, at the default cap, under a ``== <item> <domain>
    <mode>`` line: the answer, the passes and table size, and every clause
    step of the final pass."""
    lines = []
    for name, path, goal, calls in _items():
        for domain, e in calls.items():
            for mode in ("matching", "mgu"):
                lines.append(f"== {name} {domain} {mode}\n")
                lines.append(_cli(["analyze", "--program", path, "--goal", goal,
                                   "--call", str(e), "--domain", domain, "--mode", mode,
                                   "--trace"]))
    return "".join(lines)


def corpus_diffs() -> str:
    """One ``<item> <domain>: difference: {...}`` line per corpus item and
    domain: the last line ``sharlin diff`` prints, at the default cap."""
    lines = []
    for name, path, goal, calls in _items():
        for domain, e in calls.items():
            out = _cli(["diff", "--program", path, "--goal", goal, "--call", str(e),
                        "--domain", domain])
            lines.append(f"{name} {domain}: {out.splitlines()[-1]}\n")
    return "".join(lines)


def test_corpus_answers_are_pinned():
    # The two `nonlinear omega` lines are the known-unsound answers
    # [x, x^2, x^3] against a concrete [x^5], pinned as they are: making the
    # analysis cap sound (ROADMAP, Fix first, item 1) will change them.
    assert corpus_answers() == _read(PINNED)


def test_corpus_traces_are_pinned():
    # passes, table sizes and every step of the final pass, not only the
    # answers: the analyzer's control flow is pinned along with its results
    assert corpus_traces() == _read(PINNED_TRACES)


def test_answers_do_not_depend_on_variable_names():
    # a call variable that is not in the goal, named like a renamed clause
    # variable, stays an independent linear variable, and nothing else moves
    for name, path, goal, calls in _items():
        program, atom = parse_program(_read(path)), parse_goal(goal)
        for domain, e in calls.items():
            for mode in ("matching", "mgu"):
                def answer(call):
                    return analyze(AnalysisRequest(program=program, goal=atom, call=call,
                                                   domain=domain, mode=mode)).answer
                base = answer(e)
                for extra in ("u1", "x11", "v21"):
                    assert answer(extend(e, {extra})) == extend(base, {extra}), (
                        name, domain, mode, extra)


def test_corpus_diffs_are_pinned():
    # `nonlinear omega` reads the same unsound answers as above
    assert corpus_diffs() == _read(PINNED_DIFFS)


if __name__ == "__main__":
    pins = {"diffs": corpus_diffs, "traces": corpus_traces}
    sys.stdout.write(pins.get(sys.argv[-1], corpus_answers)())
