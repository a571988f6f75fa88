"""Goal-dependent analyzer for a mini logic language.

Clause processing follows the classic four-state pipeline: the call
substitution is unified forward with the head bindings to give the entry
substitution, the body runs under the entry, and the resulting exit
substitution is propagated back to the caller as the answer. Backward
propagation is the point of the exercise, and every answer returns
through the one backward step, ``backward_unify``: a clause's exit to its
call, and a body atom's answer to the clause body's element before it,
with no head bindings. It comes in two modes:

* ``matching``: match the answer against the pre-projection element of
  the forward step (for a body atom, the body's element itself) and
  project onto the caller's variables;
* ``mgu``: re-unify the caller's element, the answer and the concrete head
  bindings from scratch (rename the answer's variables that the caller
  shares apart, collect the groups of the now disjoint elements, then fold
  the abstract binding rule over the renamed variables bound back and the
  head bindings), for precision comparison. Each variable outside the
  caller's is projected away as soon as no later binding reads it, inside
  the binding that reads it last.

The forward step folds ``baseline_amgu``, a deliberately plain
binding-at-a-time rule: it is not a best transformer and is not meant to
be one, and its linear join is known to miss sums (see
``shlin_omega._bind``). When a variable and a linear term with linear,
pairwise independent variables are unified, relevant groups are joined
pairwise; otherwise the relevant groups are summed, each repeated up to
the ceiling, with counts saturated at the ceiling: the analysis cap in
``omega``, 2 in ``two`` and ``sl``. A binding to a ground term removes
the variable's groups.
Trace injection can replace forward results of the root goal's clauses
with externally supplied elements, so backward precision can be studied
independently of forward precision.

The fixpoint engine tabulates answers per (predicate, call pattern) with
call patterns normalized up to variable renaming, and iterates whole-goal
evaluation until the table is stable. Clauses are renamed apart from the
goal, the source clauses and the call's variables. Every pass renames
clauses alike, so later passes mostly repeat the pure pieces of the
first: the forward and backward steps, call patterns, renamed clauses,
and the renamings, projections, unions and bottoms between them. Each
runs once per distinct arguments, in a table that lives only as long as
its analysis, so a pass pays only for its new steps. Body atoms are
solved from an explicit stack, one generator per call pattern, so a
chain of calls of any length needs no Python recursion.
The omega analysis clips multiplicities at a configurable cap of at
least 1 during analysis only; the library operators stay exact. There is
no uncapped analysis: ``[x, xy, y]`` bound by ``x/y`` needs ``x^n y^n``
for every n, so no finite exact answer covers it.
"""
from __future__ import annotations

from functools import cached_property
from typing import Mapping

from . import shlin_omega
from ._record import Record
from .domains import DOMAINS
from .terms import (
    EPSILON,
    ParseError,
    Scanner,
    Substitution,
    Term,
    UnificationError,
    Var,
    format_term,
    mgu_terms,
    occurrences,
    read_term,
    term_vars,
)

__all__ = [
    "Atom",
    "Clause",
    "Program",
    "AnalysisRequest",
    "AnalysisResult",
    "TraceStep",
    "PredicateMismatch",
    "FixpointLimitExceeded",
    "parse_program",
    "parse_goal",
    "parse_injection",
    "baseline_amgu",
    "forward_unify",
    "backward_unify",
    "analyze",
]


class PredicateMismatch(ValueError):
    """Goal and head disagree on predicate name or arity."""


class FixpointLimitExceeded(ValueError):
    """The tabulation did not stabilize within the configured pass limit."""


class Atom(Record):
    pred: str
    args: tuple[Term, ...]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.pred == other.pred and self.args == other.args
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.pred, self.args))

    @cached_property
    def variables(self) -> frozenset[str]:
        return frozenset().union(*map(term_vars, self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return self.pred + "(" + ", ".join(format_term(a) for a in self.args) + ")"


class Clause(Record):
    head: Atom
    body: tuple[Atom, ...] = ()

    @cached_property
    def variables(self) -> frozenset[str]:
        return self.head.variables.union(*(a.variables for a in self.body))

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- " + ", ".join(map(str, self.body)) + "."


class Program(Record):
    clauses: tuple[Clause, ...]

    def __str__(self) -> str:
        return "\n".join(map(str, self.clauses))


# --- program syntax ----------------------------------------------------------


def _read_atom(sc: Scanner) -> Atom:
    tok = sc.peek()
    if tok is None or not tok[0].isalpha():
        sc.fail("expected a predicate name")
    t = read_term(sc)
    if isinstance(t, Var):
        return Atom(t.name, ())
    return Atom(t.symbol, t.args)


def parse_program(text: str) -> Program:
    """Parse facts ``p(t1,...,tn).`` and rules ``p(...) :- q(...), r(...).``;
    ``%`` starts a comment that runs to the end of the line."""
    sc = Scanner(text, comments=True)
    clauses = []
    while sc.peek() is not None:
        head = _read_atom(sc)
        body = [_read_atom(sc)] if sc.accept(":-") else []
        while body and sc.accept(","):
            body.append(_read_atom(sc))
        sc.expect(".")
        clauses.append(Clause(head, tuple(body)))
    return Program(tuple(clauses))


def parse_goal(text: str) -> Atom:
    """Parse a single goal atom, with or without the final period."""
    sc = Scanner(text, comments=True)
    atom = _read_atom(sc)
    sc.accept(".")
    sc.end()
    return atom


def _check_cap(cap: int) -> None:
    if cap is None or cap < 1:
        raise ValueError(f"the multiplicity cap must be at least 1, not {cap}")


def baseline_amgu(e, var: str, term: Term, domain: str, cap: int = 3):
    """Binding-at-a-time abstract unification (not a best transformer, and
    not yet sound: see ``shlin_omega._bind``)."""
    _check_cap(cap)
    if var not in e.interest or not term_vars(term) <= e.interest:
        raise ValueError("binding mentions variables outside the interest set")
    return DOMAINS[domain].amgu(e, var, term, cap)


# --- clause pipeline ---------------------------------------------------------


def forward_unify(call, goal: Atom, head: Atom, domain: str, cap: int = 3,
                  clause_vars: frozenset[str] | None = None):
    """Parameter passing: returns (full element, entry element, head bindings).

    Equations are oriented head side first, so variable-variable pairs bind
    the clause variable to the goal term. A unification failure yields
    bottom elements and no bindings.
    """
    _check_cap(cap)
    ops = DOMAINS[domain]
    if goal.pred != head.pred or len(goal.args) != len(head.args):
        raise PredicateMismatch(f"{goal} vs {head}")
    cvars = head.variables if clause_vars is None else clause_vars
    try:
        theta = mgu_terms(list(zip(head.args, goal.args)))
    except UnificationError:
        return ops.bottom(call.interest | cvars), ops.bottom(cvars), None
    full = shlin_omega.extend(call, cvars - call.interest)
    for v, t in theta.bindings():
        full = ops.amgu(full, v, t, cap)
    return full, shlin_omega.project_omega(full, cvars), theta


def backward_unify(call, exit_elem, full, theta: Substitution | None, mode: str,
                   domain: str, goal_vars, cap: int = 3):
    """The caller's element ``call`` after an answer ``exit_elem``, a
    clause's exit or a body atom's answer, projected onto ``goal_vars``.
    ``matching`` matches the answer against ``full``; ``mgu`` re-unifies
    ``call`` and the answer under ``theta``, after renaming apart the
    variables they share and binding them back. It keeps only ``goal_vars``
    and the variables the bindings read, and drops each of the latter
    inside the binding that reads it last: a binding reads only its own
    variables' counts, and projection commutes with its sums."""
    _check_cap(cap)
    ops = DOMAINS[domain]
    gv = frozenset(goal_vars)
    if exit_elem.is_bottom() or theta is None:
        return ops.bottom(gv)
    if mode == "matching":
        return shlin_omega.project_omega(shlin_omega.clip(ops.match(exit_elem, full), cap), gv)
    if mode != "mgu":
        raise ValueError(f"unknown backward mode {mode!r}")
    shared = sorted(exit_elem.interest & call.interest)
    primed = {v: f"_b{i}" for i, v in enumerate(shared)}
    joined = shlin_omega.join_disjoint(call, shlin_omega.rename_omega(exit_elem, primed))
    # in ``shared`` order: a Substitution would sort _b10 before _b2
    bindings = [(primed[v], Var(v)) for v in shared] + list(theta.bindings())
    drops, keep = [], set(gv)
    for v, t in reversed(bindings):
        uses = term_vars(t, {v})
        drops.append(frozenset(uses - keep))
        keep |= uses
    e = joined if joined.interest <= keep else shlin_omega.project_omega(joined, keep)
    for (v, t), drop in zip(bindings, reversed(drops)):
        e = ops.amgu(e, v, t, cap, drop)
    return e


# --- analysis requests -------------------------------------------------------


class AnalysisRequest(Record):
    program: Program
    goal: Atom
    call: object
    domain: str
    mode: str = "matching"
    cap: int = 3
    max_passes: int = 64
    injection: Mapping[tuple[int, int], object] | None = None


class TraceStep(Record):
    """One clause of the final pass: the (renamed) goal and the domain
    elements of its pipeline, printed with ``str``."""

    depth: int
    clause_index: int
    goal: Atom
    call: object
    full: object
    entry: object
    exit: object
    answer: object


class AnalysisResult(Record):
    answer: object
    trace: tuple[TraceStep, ...]
    passes: int
    table_size: int


def parse_injection(text: str, domain: str) -> dict[tuple[int, int], object]:
    """Injection file: one ``<clause-index> <step-index> <element>`` per line.

    Step 0 is the full pre-projection element of the forward step, step 1
    the entry element; comments start with ``#``. Elements use the clause's
    source variable names, a pair of indices appears once, and every error
    names its line. ``analyze`` checks that each clause index names a
    clause of the root goal's predicate.
    """
    ops = DOMAINS[domain]
    out: dict[tuple[int, int], object] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        try:
            key, elem = (int(parts[0]), int(parts[1])), parts[2]
        except (ValueError, IndexError):
            raise ValueError(f"bad injection entry on line {ln}: {raw!r}") from None
        if key[1] not in (0, 1):
            raise ValueError(f"step index must be 0 or 1 on line {ln}")
        if key in out:
            raise ValueError(f"duplicate entry for clause {key[0]} step {key[1]} on line {ln}")
        # padded to its place in the file, so a syntax error names its line and column
        try:
            out[key] = ops.parse(
                "\n" * (ln - 1) + " " * raw.rindex(elem) + elem)
        except ParseError:
            raise
        except ValueError as exc:  # well formed, but not an element
            raise ValueError(f"{exc} on line {ln}") from None
    return out


def _pattern(atom: Atom, call):
    """The call pattern of ``atom`` under ``call``, up to variable renaming:
    (key, rho, back). Atom and element variables are renamed positionally
    by ``rho``, and ``back`` undoes it; both are tuples of pairs, so that
    they can key a table."""
    order = list(dict.fromkeys(v for a in atom.args for v in occurrences(a)))
    order += sorted(call.interest.difference(order))
    rho = {v: f"_p{i}" for i, v in enumerate(order)}
    sub = Substitution({v: Var(n) for v, n in rho.items()})
    args = tuple(sub.apply(a) for a in atom.args)
    key = (atom.pred, args, shlin_omega.rename_omega(call, rho))
    return key, tuple(rho.items()), tuple((n, v) for v, n in rho.items())


def _rename(e, pairs):
    """``e`` renamed by ``dict(pairs)``: a renaming given as pairs keys a table."""
    return shlin_omega.rename_omega(e, dict(pairs))


def _rename_apart(clause: Clause, n: int, avoid: frozenset[str], reserved: frozenset[str]):
    """(the counter's next value, a copy of ``clause``, its renaming as
    pairs): each variable ``v`` becomes ``v<n>`` for the first counter
    value ``n`` from the given one at which no new name is in ``reserved``
    or ``avoid``."""
    cvars = sorted(clause.variables)
    while True:
        rho = {v: f"{v}{n}" for v in cvars}
        n += 1
        if reserved.isdisjoint(rho.values()) and avoid.isdisjoint(rho.values()):
            break
    sub = Substitution({v: Var(w) for v, w in rho.items()})
    head = Atom(clause.head.pred, tuple(sub.apply(a) for a in clause.head.args))
    body = tuple(Atom(a.pred, tuple(sub.apply(t) for t in a.args)) for a in clause.body)
    return n, Clause(head, body), tuple(rho.items())


class _Engine:
    """One analysis: the answer table ``memo``, and the table ``steps`` of
    its pure pieces, each computed once per analysis (see ``_step``)."""

    def __init__(self, req: AnalysisRequest):
        self.req = req
        self.ops = DOMAINS[req.domain]
        self.memo: dict = {}
        self.steps: dict = {}
        self.trace: list[TraceStep] = []
        self.counter = 1
        self.changed = False
        self.reserved = req.goal.variables.union(*(c.variables for c in req.program.clauses))
        self.clauses: dict[tuple[str, int], list[tuple[int, Clause]]] = {}
        for i, c in enumerate(req.program.clauses):
            self.clauses.setdefault((c.head.pred, len(c.head.args)), []).append((i, c))

    def _step(self, f, *args):
        """``f(*args)`` for a pure piece, computed once per analysis: the
        forward and backward steps, call patterns, renamed clauses, and the
        renamings, projections, unions and bottoms between them. Each pass
        renames clauses alike, so later passes repeat most of them.
        Keys hold module functions, never the engine, so the table makes no
        reference cycle and goes with the engine as soon as it is dropped."""
        key = (f, args)
        out = self.steps.get(key)
        if out is None:
            out = self.steps[key] = f(*args)
        return out

    def _rename_clause(self, clause: Clause, avoid: frozenset[str]):
        """A copy of ``clause`` whose variables are new to the goal, the
        source clauses and ``avoid``, the call's variables, and its renaming
        as pairs; the counter moves past every value tried."""
        self.counter, rclause, crho = self._step(_rename_apart, clause, self.counter, avoid,
                                                 self.reserved)
        return rclause, crho

    def _inject(self, idx: int, step: int, crho, fallback):
        """The element injected at ``(idx, step)``, in the renamed clause's
        variables, or else ``fallback``."""
        elem = self.req.injection.get((idx, step))
        if elem is None:
            return fallback
        missing = elem.interest - {v for v, _ in crho} - self.req.call.interest
        if missing:
            raise ValueError(
                f"injected element mentions unknown variables {sorted(missing)}"
            )
        return self._step(_rename, elem, crho)

    def solve(self, goal: Atom, call) -> object:
        """One pass: the answer to ``goal`` under ``call``. Each call
        pattern is a generator that yields ``(atom, call, depth)`` per body
        atom and receives its answer; one loop drives them from a stack, so
        a deep chain of calls needs no deep Python recursion."""
        self.changed, self.trace, self.counter = False, [], 1
        visited: set = set()
        stack, reply = [self._solve(goal, call, 0, visited)], None
        while stack:
            try:
                atom, bcall, depth = stack[-1].send(reply)
            except StopIteration as done:
                stack.pop()
                reply = done.value
            else:
                stack.append(self._solve(atom, bcall, depth, visited))
                reply = None
        return reply

    def _solve(self, atom: Atom, call, depth: int, visited: set):
        """The answer to ``atom`` under ``call``, as a generator that asks
        ``solve``'s loop for the answer to each body atom it reaches."""
        ops, req, step = self.ops, self.req, self._step
        # answers range over the caller's variables of interest, which may
        # strictly contain the atom's own variables at the root
        gv = call.interest
        if call.is_bottom():
            return step(ops.bottom, gv)
        key, rho, back = step(_pattern, atom, call)
        if key in visited:
            cached = self.memo.get(key)
            if cached is None:
                return step(ops.bottom, gv)
            return step(_rename, cached, back)
        visited.add(key)
        total = step(ops.bottom, gv)
        for idx, clause in self.clauses.get((atom.pred, len(atom.args)), ()):
            rclause, crho = self._rename_clause(clause, gv)
            cvars = rclause.variables
            full, entry, theta = step(
                forward_unify, call, atom, rclause.head, req.domain, req.cap, cvars
            )
            if depth == 0 and req.injection:
                injected = self._inject(idx, 0, crho, None)
                if injected is not None:
                    full, entry = injected, step(shlin_omega.project_omega, injected, cvars)
                entry = self._inject(idx, 1, crho, entry)
            exit_elem = entry
            for batom in rclause.body:
                if exit_elem.is_bottom():
                    break
                bans = (yield batom, step(shlin_omega.project_omega, exit_elem, batom.variables),
                        depth + 1)
                exit_elem = step(backward_unify, exit_elem, bans, exit_elem, EPSILON,
                                 req.mode, req.domain, exit_elem.interest, req.cap)
            answer = step(backward_unify, call, exit_elem, full, theta, req.mode,
                          req.domain, gv, req.cap)
            total = step(shlin_omega.union_omega, total, answer)
            self.trace.append(TraceStep(depth, idx, atom, call, full, entry, exit_elem, answer))
        stored = step(_rename, total, rho)
        old = self.memo.get(key)
        if old is not None:
            stored = step(shlin_omega.union_omega, stored, old)
        if old != stored:
            self.memo[key] = stored
            self.changed = True
        return step(_rename, stored, back)


def analyze(req: AnalysisRequest) -> AnalysisResult:
    """Run the goal-dependent analysis to a fixpoint and return the answer
    over the goal's variables, with per-clause traces from the final pass."""
    _check_cap(req.cap)
    if req.max_passes < 1:
        raise ValueError(f"max_passes must be at least 1, not {req.max_passes}")
    goal_vars = req.goal.variables
    if not goal_vars <= req.call.interest:
        raise ValueError(
            f"call interest set {sorted(req.call.interest)} must cover "
            f"the goal variables {sorted(goal_vars)}"
        )
    engine = _Engine(req)
    pred, arity = req.goal.pred, len(req.goal.args)
    clauses = {i for i, _ in engine.clauses.get((pred, arity), ())}
    stray = sorted({i for i, _ in req.injection or ()} - clauses)
    if stray:
        raise ValueError(f"injected clause index {stray[0]} names no clause of {pred}/{arity}")
    for passno in range(1, req.max_passes + 1):
        answer = engine.solve(req.goal, req.call)
        if not engine.changed:
            return AnalysisResult(answer, tuple(engine.trace), passno, len(engine.memo))
    raise FixpointLimitExceeded(f"no fixpoint after {req.max_passes} passes")
