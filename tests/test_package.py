"""The package's public names are its library modules' ``__all__`` lists,
each stated once, by the module that defines the name."""
import ast
import copy
import importlib
import inspect
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sharlin

ROOT = Path(__file__).resolve().parent.parent

MODULES = ("multiset", "terms", "existential", "shlin_omega", "shlin2", "shlin_sl",
           "domains", "oracle", "analyzer")


def _defined_at_top_level(module) -> set[str]:
    """The names a module's own source binds by ``def``, ``class`` or assignment."""
    out = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                out.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return out


def test_the_package_exports_each_modules_all_and_nothing_else():
    owner: dict[str, str] = {}
    for name in MODULES:
        module = importlib.import_module(f"sharlin.{name}")
        assert set(module.__all__) <= _defined_at_top_level(module), name
        for public in module.__all__:
            assert public not in owner, f"{public} is in {owner[public]} and {name}"
            owner[public] = name
            assert getattr(sharlin, public) is getattr(module, public), public
    exported = {name for name, value in vars(sharlin).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == set(owner)


def test_importing_the_package_leaves_the_cli_out():
    code = "import sys, sharlin; print('sharlin.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_importing_the_package_loads_none_of_its_modules():
    code = "import sys, sharlin; print(sorted(m for m in sys.modules if m.startswith('sharlin')))"
    assert _fresh(code).stdout == "['sharlin']\n"


# what the package should export, computed after the names under test were read
_EXPECTED = """
import importlib
expected = {}
for m in %r:
    module = expected[m] = importlib.import_module("sharlin." + m)
    expected.update((name, getattr(module, name)) for name in module.__all__)
""" % (MODULES,)


def test_the_package_surface_before_any_attribute_access():
    code = ("import sys, sharlin\n"
            "listed = [n for n in dir(sharlin) if not n.startswith('_')]\n"
            + _EXPECTED +
            "assert listed == sorted(expected), listed\n"
            "assert all(getattr(sharlin, n) is v for n, v in expected.items())\n"
            "assert 'sharlin.cli' not in sys.modules\n")
    _fresh(code)
    code = ("import sys\n"
            "star = {}\n"
            "exec('from sharlin import *', star)\n"
            "del star['__builtins__']\n"
            + _EXPECTED +
            "assert star.keys() == expected.keys(), sorted(star.keys() ^ expected.keys())\n"
            "assert all(star[n] is v for n, v in expected.items())\n"
            "assert 'sharlin.cli' not in sys.modules\n")
    _fresh(code)


# runs the CLI as ``python -m sharlin.cli`` does, then lists what it loaded
_LOADED_BY = """
import runpy, sys
try:
    runpy.run_module("sharlin.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(*sorted(sys.modules), file=sys.stderr)
"""
_MEMBER = str(ROOT / "perfbench" / "programs" / "member.pl")
_ANALYSIS = ("--program", _MEMBER, "--goal", "member(x, [y, z])",
             "--call", "[x, y, z]_{x,y,z}", "--domain", "two")


@pytest.mark.parametrize("argv, oracle, pool", [
    (("eval", "--domain", "two", "--op", "match", "[xy, x^*]_{x,y}", "[x]_{x}"), False, False),
    (("eval", "--domain", "concrete", "--op", "match", "[{x/f(y)}]_{x,y}", "[{}]_{x,y}"),
     False, False),
    (("analyze", *_ANALYSIS), False, False),
    (("diff", *_ANALYSIS), False, False),
    (("verify", "correctness", "--trials", "4"), True, False),
    (("verify", "optimality", "--trials", "4", "--domain", "two"), True, False),
    (("equiv", "--trials", "4"), True, False),
    (("verify", "correctness", "--trials", "4", "--jobs", "2"), True, True),
    (("equiv", "--trials", "4", "--jobs", "2"), True, True),
])
def test_each_subcommand_loads_only_what_it_runs(argv, oracle, pool):
    loaded = set(_fresh(_LOADED_BY, *argv).stderr.split())
    assert ("sharlin.oracle" in loaded) is oracle
    assert ("concurrent.futures.process" in loaded) is pool
    if not oracle:
        assert not loaded & {"concurrent.futures", "dataclasses"}


def _records() -> list:
    """One instance of each record class, with one of its fields."""
    from sharlin.analyzer import AnalysisRequest, analyze, parse_goal, parse_program
    from sharlin.existential import parse_existential
    from sharlin.shlin_omega import parse_omega
    from sharlin.shlin2 import parse_two
    from sharlin.shlin_sl import parse_sl
    from sharlin.terms import parse_term

    term = parse_term("f(x, a)")
    program = parse_program("p(x, y) :- q(x, y). q(x, f(x)).")
    request = AnalysisRequest(program, parse_goal("p(u, v)"), parse_two("[u, v]_{u,v}"), "two")
    result = analyze(request)
    clause = program.clauses[0]
    clause.variables, clause.head.variables  # cached, so the cache is copied too
    return [
        (term, "args"), (term.args[0], "name"),
        (parse_existential("[{x/f(y)}]_{x,y}"), "rep"),
        (parse_omega("[x^2y, z]_{x,y,z}"), "groups"), (parse_two("[xy^*]_{x,y}"), "groups"),
        (parse_sl("[{xy}, lin={x}]_{x,y}"), "interest"),
        (clause.head, "pred"), (clause, "body"), (program, "clauses"),
        (request, "mode"), (result.trace[0], "answer"), (result, "passes"),
    ]


def test_records_survive_pickle_and_deepcopy():
    from sharlin.analyzer import Atom, Clause, Program
    from sharlin.terms import Term

    for record, _ in _records():
        # a Multiset or Substitution field, being slotted, pickles from protocol 2 on
        low = 0 if isinstance(record, (Term, Atom, Clause, Program)) else 2
        copies = [pickle.loads(pickle.dumps(record, protocol))
                  for protocol in range(low, pickle.HIGHEST_PROTOCOL + 1)]
        for twin in [*copies, copy.deepcopy(record), copy.copy(record)]:
            assert type(twin) is type(record)
            assert twin == record and not twin != record
            if type(record).__hash__ is not None:
                assert hash(twin) == hash(record)
            if hasattr(record, "variables"):
                assert twin.variables == record.variables


def test_records_are_immutable():
    for record, field in _records():
        with pytest.raises(AttributeError, match=f"field '{field}'"):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_record_repr_construction_and_class_equality():
    from sharlin.analyzer import Atom, Clause
    from sharlin.shlin_omega import ShLinOmegaElement
    from sharlin.shlin2 import ShLin2Element
    from sharlin.shlin_sl import ShLinElement
    from sharlin.terms import App, Var

    records = _records()
    assert repr(records[0][0]) == "App(symbol='f', args=(Var(name='x'), App(symbol='a', args=())))"
    assert repr(records[8][0]) == (
        "Program(clauses=(Clause(head=Atom(pred='p', args=(Var(name='x'), Var(name='y'))), "
        "body=(Atom(pred='q', args=(Var(name='x'), Var(name='y'))),)), "
        "Clause(head=Atom(pred='q', args=(Var(name='x'), App(symbol='f', "
        "args=(Var(name='x'),)))), body=())))")
    assert repr(records[9][0]).startswith("AnalysisRequest(program=Program(clauses=(")
    assert repr(records[9][0]).endswith(", domain='two', mode='matching', cap=3, "
                                        "max_passes=64, injection=None)")
    assert repr(records[-1][0]).endswith(", passes=2, table_size=2)")
    assert Clause(Atom("p", ())) == Clause(head=Atom(args=(), pred="p"), body=())
    for bad in ((), ("p", (), 1)):
        with pytest.raises(TypeError):
            Atom(*bad)
    with pytest.raises(TypeError):
        Atom("p", (), pred="q")
    assert Var("f") != App("f") and App("f") != Var("f")
    two = records[4][0]
    for a, b in ((ShLin2Element, ShLinOmegaElement), (ShLin2Element, ShLinElement),
                 (ShLinElement, ShLinOmegaElement)):
        x, y = a(two.groups, two.interest), b(two.groups, two.interest)
        assert x != y and y != x and not x == y
        assert x == a(two.groups, two.interest)
