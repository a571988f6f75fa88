"""The package's public names are its library modules' ``__all__`` lists,
each stated once, by the module that defines the name."""
import ast
import importlib
import inspect
import subprocess
import sys
import types

import sharlin

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
