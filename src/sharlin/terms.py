"""First-order terms, idempotent substitutions and syntactic unification.

Lexical convention (the one syntax used everywhere): a variable is a token
matching ``[u-z][a-z0-9_]*`` and any other identifier is a function symbol;
``a`` and ``f`` are symbols while ``x`` and ``w1`` are variables. Reserved
variables ``_1, _2, ...`` are produced by canonicalization and are accepted
back by the parser, but cannot be written as variables of interest.

List sugar ``[]``, ``[h|t]`` and ``[a,b]`` (cons symbol ``.``) is accepted
and printed back sugared, so analyzer-level substitutions round-trip.

Unification is Martelli-Montanari style equation rewriting with an eager
occur check and yields an idempotent most general unifier.

``Scanner`` reads every textual form. Its ``group`` reads a polynomial
group such as ``x^2y``; ``^*`` stands for the count its caller names, the
domain's ceiling, and is rejected where there is none.

Every read of a term's variables goes through one iterative walk,
``occurrences``; ``preimages`` builds every variable's sharing group from it
in one pass, for ``preimage_var`` and ``shlin_omega.alpha_omega``.
"""
from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping
from typing import NoReturn, TypeVar

from ._record import Record, setfield
from .multiset import Multiset

__all__ = [
    "Term",
    "Var",
    "App",
    "Substitution",
    "EPSILON",
    "UnificationError",
    "Clash",
    "OccurCheck",
    "occurrences",
    "occ",
    "term_vars",
    "is_linear_term",
    "mgu_terms",
    "preimages",
    "preimage_var",
    "preimage_group",
    "ParseError",
    "Scanner",
    "read_term",
    "read_substitution",
    "parse_term",
    "parse_substitution",
    "format_term",
    "is_variable_name",
    "CONS",
    "NIL",
]

CONS = "."
NIL = "[]"

_VAR_NAME = re.compile(r"(?:[u-z][a-z0-9_]*|_[0-9]+)\Z")


def is_variable_name(name: str) -> bool:
    return bool(_VAR_NAME.match(name))


class Term(Record):
    """A first-order term: a ``Var`` or an ``App``."""


class Var(Term):
    name: str

    def __init__(self, name: str):
        setfield(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class App(Term):
    symbol: str
    args: tuple[Term, ...] = ()

    def __init__(self, symbol: str, args: tuple[Term, ...] = ()):
        setfield(self, "symbol", symbol)
        setfield(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.symbol == other.symbol and self.args == other.args
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.symbol, self.args))


class UnificationError(Exception):
    """Base class for unification failures."""


class Clash(UnificationError):
    """Distinct symbols or arities."""


class OccurCheck(UnificationError):
    """A variable occurs in the term it should be bound to."""


def occurrences(t: Term) -> list[str]:
    """The variable names of ``t`` left to right, with repeats: the one walk
    that reads a term's variables. It keeps its own stack, so depth is unbounded."""
    out: list[str] = []
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            out.append(cur.name)
        else:
            stack.extend(cur.args)
    out.reverse()  # the stack takes each term's arguments right to left
    return out


def term_vars(t: Term, acc: set[str] | None = None) -> set[str]:
    out = set() if acc is None else acc
    out.update(occurrences(t))
    return out


def occ(v: str, t: Term) -> int:
    """Number of occurrences of variable ``v`` in ``t``."""
    return occurrences(t).count(v)


def is_linear_term(t: Term) -> bool:
    """True when no variable occurs twice in ``t``."""
    names = occurrences(t)
    return len(names) == len(set(names))


class Substitution:
    """Immutable map from variables to terms; unbound variables map to themselves."""

    __slots__ = ("_bind", "_items")

    def __init__(self, bindings: Mapping[str, Term] = {}):
        clean: dict[str, Term] = {}
        for var, term in bindings.items():
            if isinstance(term, Var) and term.name == var:
                continue
            clean[var] = term
        self._bind = clean
        # Keys are distinct, so the sort never compares terms.
        self._items = tuple(sorted(clean.items()))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self._bind)

    def bindings(self) -> tuple[tuple[str, Term], ...]:
        return self._items

    def lookup(self, var: str) -> Term:
        t = self._bind.get(var)
        return t if t is not None else Var(var)

    def range_vars(self) -> set[str]:
        out: set[str] = set()
        for _, t in self._items:
            term_vars(t, out)
        return out

    def all_vars(self) -> set[str]:
        return set(self._bind) | self.range_vars()

    def is_idempotent(self) -> bool:
        return not (set(self._bind) & self.range_vars())

    def apply(self, t: Term) -> Term:
        if not self._bind:
            return t
        if isinstance(t, Var):
            bound = self._bind.get(t.name)
            return bound if bound is not None else t
        if not t.args:
            return t
        return App(t.symbol, tuple([self.apply(arg) for arg in t.args]))

    def apply_fix(self, t: Term) -> Term:
        """Apply repeatedly until stable; rejects cyclic binding chains.

        Computed in one pass that resolves each bound variable through the
        chain of its bindings.
        """
        bind = self._bind
        chain: set[str] = set()  # variables being resolved around the current one

        def resolve(t: Term) -> Term:
            if isinstance(t, Var):
                if t.name not in bind:
                    return t
                followed = []
                while isinstance(t, Var) and t.name in bind:
                    if t.name in chain:
                        raise ValueError("substitution has cyclic bindings")
                    chain.add(t.name)
                    followed.append(t.name)
                    t = bind[t.name]
                t = resolve(t)
                chain.difference_update(followed)
                return t
            if not t.args:
                return t
            return App(t.symbol, tuple([resolve(a) for a in t.args]))

        return resolve(t)

    def compose(self, eta: "Substitution") -> "Substitution":
        """The substitution mapping x to eta(self(x)): self first, then eta."""
        out: dict[str, Term] = {}
        for var, term in self._items:
            out[var] = eta.apply(term)
        for var, term in eta.bindings():
            if var not in self._bind:
                out[var] = term
        return Substitution(out)

    def restrict(self, variables) -> "Substitution":
        return Substitution({v: t for v, t in self._bind.items() if v in variables})

    def rename_vars(self, mapping: Mapping[str, str]) -> "Substitution":
        """Consistently rename variables in both domain and range."""
        rho = Substitution({v: Var(n) for v, n in mapping.items()})
        return Substitution(
            {mapping.get(v, v): rho.apply(t) for v, t in self._bind.items()}
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __len__(self) -> int:
        return len(self._bind)

    def __str__(self) -> str:
        inner = ", ".join(f"{v}/{format_term(t)}" for v, t in self._items)
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"Substitution({dict(self._items)!r})"


EPSILON = Substitution()


def mgu_terms(equations: Iterable[tuple[Term, Term]]) -> Substitution:
    """Most general idempotent unifier of the equations, or raise.

    Variable-variable equations bind the left-hand variable, so callers
    control the orientation through equation order.
    """
    subst: dict[str, Term] = {}

    def chase(t: Term) -> Term:
        while isinstance(t, Var) and t.name in subst:
            t = subst[t.name]
        return t

    def resolve(t: Term) -> Term:
        t = chase(t)
        if isinstance(t, Var):
            return t
        if not t.args:
            return t
        return App(t.symbol, tuple([resolve(a) for a in t.args]))

    def occurs(v: str, t: Term) -> bool:
        stack = [t]
        while stack:
            cur = chase(stack.pop())
            if isinstance(cur, Var):
                if cur.name == v:
                    return True
            else:
                stack.extend(cur.args)
        return False

    work = list(equations)
    idx = 0
    while idx < len(work):
        left, right = work[idx]
        idx += 1
        left, right = chase(left), chase(right)
        if left == right:
            continue
        if isinstance(left, Var):
            if occurs(left.name, right):
                raise OccurCheck(f"{left.name} occurs in {format_term(resolve(right))}")
            subst[left.name] = right
        elif isinstance(right, Var):
            if occurs(right.name, left):
                raise OccurCheck(f"{right.name} occurs in {format_term(resolve(left))}")
            subst[right.name] = left
        else:
            if left.symbol != right.symbol or len(left.args) != len(right.args):
                raise Clash(
                    f"{left.symbol}/{len(left.args)} vs {right.symbol}/{len(right.args)}"
                )
            work.extend(zip(left.args, right.args))
    return Substitution({v: resolve(t) for v, t in subst.items()})


def preimages(theta: Substitution, interest: Iterable[str] = ()) -> dict[str, dict[str, int]]:
    """The pre-image under ``theta`` of every variable that occurs in a
    binding or is in ``interest``, in one pass: how often it occurs in the
    binding of each variable (as counts). Unbound variables of ``interest``
    count as bound to themselves."""
    out: dict[str, dict[str, int]] = {}
    for w, t in theta.bindings():
        for v in occurrences(t):
            counts = out.setdefault(v, {})
            counts[w] = counts.get(w, 0) + 1
    dom = theta.domain
    for v in interest:
        if v not in dom:  # bound to itself: v/v is the one binding keyed v
            out.setdefault(v, {})[v] = 1
    return out


def preimage_var(theta: Substitution, v: str) -> Multiset:
    """The sharing group of ``v``: how often ``v`` occurs in each binding.

    Unbound variables count as bound to themselves, so the pre-image of an
    untouched variable is its own singleton group.
    """
    return Multiset(preimages(theta, (v,)).get(v, ()))


def preimage_group(theta: Substitution, b: Multiset) -> Multiset:
    """Pre-image of a whole group: per-variable pre-images summed with multiplicity."""
    pre = preimages(theta, b.support)
    out = Multiset()
    for v, n in b.items():
        out = out + Multiset(pre.get(v, ())).scale(n)
    return out


# --- syntax -----------------------------------------------------------------
# One scanner reads every textual form: terms, substitutions, programs, the
# elements of the three domains and the CLI's variable sets.


class ParseError(ValueError):
    """Syntax error, with the line and column (both from 1) where it was found."""

    def __init__(self, message: str, text: str, pos: int):
        self.lineno = text.count("\n", 0, pos) + 1
        self.column = pos - text.rfind("\n", 0, pos)
        super().__init__(f"{message} (line {self.lineno}, column {self.column})")


# the two-character tokens come first, so they win over their prefixes
_PUNCTUATION = (":-", "_{", "(", ")", "[", "]", ",", "|", "/", "{", "}", ".", "=")
_TOKEN = re.compile("|".join(map(re.escape, _PUNCTUATION)) + r"|[A-Za-z0-9_']+")
_TERM_START = re.compile(r"\[\Z|[A-Za-z0-9_']+\Z")
_SPACE = re.compile(r"\s*")
_SPACE_AND_COMMENTS = re.compile(r"(?:\s|%[^\n]*)*")
# In polynomial notation variables are concatenated without separators, so a
# group variable is one lowercase letter plus optional digits (w1, z12, ...).
_GROUP_ITEM = re.compile(r"([a-z][0-9]*)(?:\^(\*|inf|[0-9]+))?")
_GROUP_VAR = re.compile(r"[a-z][0-9]*\Z")
_T = TypeVar("_T")


class Scanner:
    """Positioned tokenizer shared by every textual form.

    Tokens are identifiers ``[A-Za-z0-9_']+`` and the punctuation above,
    separated by whitespace and, with ``comments``, by ``%`` line comments.
    Polynomial groups are not tokens: ``group`` reads one in place. Every
    syntax error is a ``ParseError`` at the offset where it was found.
    """

    def __init__(self, text: str, comments: bool = False):
        self.text = text
        self.pos = 0
        self._space = _SPACE_AND_COMMENTS if comments else _SPACE

    def _scan(self) -> tuple[str | None, int, int]:
        """The next token (None at the end) with its start and end offsets."""
        start = self._space.match(self.text, self.pos).end()
        m = _TOKEN.match(self.text, start)
        if m:
            return m.group(), start, m.end()
        if start < len(self.text):
            raise self.error(f"unexpected character {self.text[start]!r}", start)
        return None, start, start

    def error(self, message: str, pos: int | None = None) -> ParseError:
        return ParseError(message, self.text, self.pos if pos is None else pos)

    def fail(self, expected: str) -> NoReturn:
        """Raise at the next token, saying what was expected there instead."""
        tok, start, _ = self._scan()
        got = "end of input" if tok is None else repr(tok)
        raise self.error(f"{expected}, got {got}", start)

    def peek(self) -> str | None:
        return self._scan()[0]

    def take(self, valid: Callable[[str], object], expected: str) -> str:
        """The next token, which must satisfy ``valid``."""
        tok, _, end = self._scan()
        if tok is None or not valid(tok):
            self.fail(expected)
        self.pos = end
        return tok

    def accept(self, want: str) -> bool:
        tok, _, end = self._scan()
        if tok != want:
            return False
        self.pos = end
        return True

    def expect(self, want: str) -> None:
        if not self.accept(want):
            self.fail(f"expected {want!r}")

    def end(self) -> None:
        if self.peek() is not None:
            self.fail("expected end of input")

    def whole(self, read: Callable[["Scanner"], _T]) -> _T:
        """``read(self)``, which must consume the whole text."""
        out = read(self)
        self.end()
        return out

    def sequence(self, read: Callable[["Scanner"], _T], close: str) -> list[_T]:
        """Comma-separated ``read(self)`` results, up to (not through) ``close``."""
        out: list[_T] = []
        while self.peek() != close:
            if out and not self.accept(","):
                self.fail(f"expected ',' or {close!r}")
            out.append(read(self))
        return out

    def names(self, valid: Callable[[str], object] = _GROUP_VAR.match) -> list[str]:
        """Comma-separated variable names through the closing ``}``."""
        out = self.sequence(lambda sc: sc.take(valid, "expected a variable name"), "}")
        self.expect("}")
        return out

    def interest(self, valid: Callable[[str], object] = _GROUP_VAR.match) -> list[str]:
        """The ``]_{names}`` that closes an element or a substitution class
        and the text."""
        self.expect("]")
        self.expect("_{")
        names = self.names(valid)
        self.end()
        return names

    def group(self, star: int | None = None) -> list[tuple[str, int]]:
        """One polynomial group such as ``x^2y`` as (variable, count) pairs in
        written order; ``0`` is the empty group. The exponent ``*`` (or
        ``inf``) stands for the count ``star``, and is an error without it."""
        pos = _SPACE.match(self.text, self.pos).end()
        if self.text.startswith("0", pos):
            self.pos = pos + 1
            return []
        items: list[tuple[str, int]] = []
        while m := _GROUP_ITEM.match(self.text, pos):
            var, exp = m.groups()
            if exp in ("*", "inf"):
                if star is None:
                    raise self.error("expected a count after '^'", m.start(2))
                n = star
            else:
                n = int(exp or 1)
                if n == 0:
                    raise self.error(f"zero exponent for {var!r}", m.start(2))
            items.append((var, n))
            pos = m.end()
        if not items:
            raise self.error("expected a sharing group", pos)
        self.pos = pos
        return items


def read_term(sc: Scanner) -> Term:
    """One term; nesting is kept on an explicit stack, so depth is unbounded."""
    stack: list[list] = []  # open terms: [symbol, or "[" for a list; args; tail next]
    while True:
        tok = sc.take(_TERM_START.match, "expected a term")
        if tok == "[":
            if not sc.accept("]"):
                stack.append(["[", [], False])
                continue
            term: Term = App(NIL)
        elif sc.accept("("):
            stack.append([tok, [], False])
            continue
        else:
            term = Var(tok) if is_variable_name(tok) else App(tok)
        while stack:  # close every term that this one completes
            frame = stack[-1]
            symbol, args, tail = frame
            if not tail:
                args.append(term)
                if sc.accept(","):
                    break
                if symbol == "[" and sc.accept("|"):
                    frame[2] = True
                    break
            stack.pop()
            if symbol != "[":
                sc.expect(")")
                term = App(symbol, tuple(args))
                continue
            sc.expect("]")
            if not tail:
                term = App(NIL)
            for item in reversed(args):
                term = App(CONS, (item, term))
        else:
            return term


def read_substitution(sc: Scanner) -> Substitution:
    """``{x/a, y/f(z)}``; ``{}`` is the empty substitution."""
    bindings: dict[str, Term] = {}

    def binding(sc: Scanner) -> None:
        var = sc.take(is_variable_name, "expected a variable")
        if var in bindings:
            raise sc.error(f"duplicate binding for {var!r}")
        sc.expect("/")
        bindings[var] = read_term(sc)

    sc.expect("{")
    sc.sequence(binding, "}")
    sc.expect("}")
    return Substitution(bindings)


def parse_term(text: str) -> Term:
    return Scanner(text).whole(read_term)


def parse_substitution(text: str) -> Substitution:
    """Parse ``{x/a, y/f(z)}``; ``{}`` is the empty substitution."""
    return Scanner(text).whole(read_substitution)


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if t.symbol == NIL and not t.args:
        return "[]"
    if t.symbol == CONS and len(t.args) == 2:
        items = []
        cur: Term = t
        while isinstance(cur, App) and cur.symbol == CONS and len(cur.args) == 2:
            items.append(format_term(cur.args[0]))
            cur = cur.args[1]
        if isinstance(cur, App) and cur.symbol == NIL and not cur.args:
            return "[" + ", ".join(items) + "]"
        return "[" + ", ".join(items) + "|" + format_term(cur) + "]"
    if not t.args:
        return t.symbol
    return t.symbol + "(" + ", ".join(format_term(a) for a in t.args) + ")"
