"""Sharing and linearity analysis domains with optimal backward unification.

The package provides, bottom up: variable multisets; first-order terms and
idempotent substitutions; existential substitutions (the concrete semantic
domain, with unification, matching and projection); three abstract domains
(exact-multiplicity sharing groups, clipped 2-sharing groups, and the
set-sharing + linearity product) each with an exact matching operator;
randomized verification oracles with constructive optimality witnesses;
and a goal-dependent analyzer for a mini logic language comparing
matching-based backward unification against plain re-unification.

Each module's ``__all__`` is what the package re-exports; ``sharlin.cli``
is not imported.
"""

from .multiset import *
from .terms import *
from .existential import *
from .shlin_omega import *
from .shlin2 import *
from .shlin_sl import *
from .domains import *
from .oracle import *
from .analyzer import *

__version__ = "0.1.0"
