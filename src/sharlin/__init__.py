"""Sharing and linearity analysis domains with optimal backward unification.

The package provides, bottom up: variable multisets; first-order terms and
idempotent substitutions; existential substitutions (the concrete semantic
domain, with unification, matching and projection); three abstract domains
(exact-multiplicity sharing groups, clipped 2-sharing groups, and the
set-sharing + linearity product) each with an exact matching operator;
randomized verification oracles with constructive optimality witnesses;
and a goal-dependent analyzer for a mini logic language comparing
matching-based backward unification against plain re-unification.
"""

from .multiset import EMPTY, Multiset, format_group, mrestrict, msum, msupport, parse_group
from .terms import (
    App,
    Clash,
    EPSILON,
    OccurCheck,
    Substitution,
    Term,
    UnificationError,
    Var,
    mgu_terms,
    occ,
    parse_substitution,
    parse_term,
    preimage_group,
    preimage_var,
)
from .existential import (
    ExistentialSubstitution,
    UNDEFINED,
    Undefined,
    UnificationFailure,
    canonicalize,
    eleq,
    emgu,
    emgu_subst,
    ematch,
    eproject,
    parse_existential,
)
from .shlin_omega import (
    InterestMismatch,
    ShLinOmegaElement,
    alpha_omega,
    approx_omega,
    leq_omega,
    match_omega,
    omega_element,
    parse_omega,
    project_omega,
    rename_omega,
    star_decompose,
    union_omega,
)
from .shlin2 import (
    INF,
    ShLin2Element,
    TooLarge,
    alpha2,
    antichain_max,
    down_closure,
    embed_cap2,
    gamma2_contains,
    leq2,
    match2,
    match2_opt,
    match2_ref,
    oplus,
    parse_two,
    project2,
    prop_abstraction2_check,
    rename2,
    two_element,
    two_group,
    union2,
)
from .shlin_sl import (
    ShLinElement,
    alpha_sl,
    gamma_sl,
    gamma_sl_maximals,
    leq_sl,
    match_sl,
    nl,
    parse_sl,
    project_sl,
    rename_sl,
    sl_element,
    union_sl,
)
from .oracle import (
    NotInMatch,
    TrialConfig,
    WitnessReport,
    check_equivalences,
    check_match_correct,
    check_optimality,
    gen_existential,
    render_report,
    run_correctness,
    run_optimality,
    witness_theta1,
    witness_theta2,
)
from .analyzer import (
    AnalysisRequest,
    AnalysisResult,
    Atom,
    Clause,
    DOMAINS,
    FixpointLimitExceeded,
    ParseError,
    PredicateMismatch,
    Program,
    analyze,
    backward_unify,
    baseline_amgu,
    forward_unify,
    parse_goal,
    parse_injection,
    parse_program,
)

__version__ = "0.1.0"
