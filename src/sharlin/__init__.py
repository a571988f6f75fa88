"""Sharing and linearity analysis domains with optimal backward unification.

The package provides, bottom up: variable multisets; first-order terms and
idempotent substitutions; existential substitutions (the concrete semantic
domain, with unification, matching and projection); three abstract domains
(exact-multiplicity sharing groups, clipped 2-sharing groups, and the
set-sharing + linearity product) each with an exact matching operator;
randomized verification oracles with constructive optimality witnesses;
and a goal-dependent analyzer for a mini logic language comparing
matching-based backward unification against plain re-unification.

Each module's ``__all__`` is what the package exports, together with the
modules themselves. ``import sharlin`` loads none of them: a module is
imported when it or one of its names is first asked for (PEP 562), so a
process pays only for the modules it uses. ``sharlin.cli`` is never
imported by the package.
"""

__version__ = "0.1.0"

_MODULES = ("multiset", "terms", "existential", "shlin_omega", "shlin2", "shlin_sl",
            "domains", "oracle", "analyzer")


def _module(name: str):
    from importlib import import_module

    return import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        return [*_MODULES, *(public for m in _MODULES for public in _module(m).__all__)]
    if not name.startswith("_"):
        for m in _MODULES:
            module = _module(m)
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
