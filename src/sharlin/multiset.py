"""Finite-support multisets of variables.

A multiset maps variable names to positive occurrence counts; variables
with count zero are never stored. Display uses the polynomial notation
``x^2y`` (two occurrences of ``x``, one of ``y``), variables sorted
lexicographically, exponent 1 omitted. The empty multiset prints as ``0``.
A 2-sharing group is a multiset whose counts are saturated at 2 (see
``clip``); its 2 reads "two or more" and prints as ``^*``.

Counts are plain Python integers, so sums are exact and never wrap.

``Layout`` is the one packed format for count vectors, ``fold_frontier``
the one fold over sums of groups, each up to a bound: the forward abstract
unification, ``star_decompose`` and ShLin^2's matching, which Sharing x
Lin's runs through the embedding, fold packed vectors with it. Only
``star_decompose``, which witnesses every domain's matching, needs to know
how a state was reached: its ``advance`` records the first ``(state,
group)`` that produced each new state.
``match_omega`` folds packed states too, in ``shlin_omega._sums``,
grouped by what is left.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import lru_cache

__all__ = [
    "Multiset",
    "EMPTY",
    "Layout",
    "fold_frontier",
    "random_groups",
    "parse_group",
    "format_group",
]


class Multiset:
    """Immutable multiset of variable names with finite support."""

    __slots__ = ("_counts", "_items", "_hash", "_support", "_key")

    def __init__(self, counts: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        pairs = counts.items() if isinstance(counts, Mapping) else counts
        clean: dict[str, int] = {}
        for var, n in pairs:
            if not isinstance(n, int) or isinstance(n, bool):
                raise TypeError(f"count for {var!r} must be an int")
            if n < 0:
                raise ValueError(f"negative count for {var!r}")
            if n:
                clean[var] = clean.get(var, 0) + n
        self._counts = clean
        self._items = tuple(sorted(clean.items()))
        self._hash = hash(self._items)
        self._support = self._key = None

    @classmethod
    def _from_clean(cls, counts: dict[str, int]) -> "Multiset":
        # internal fast path: counts already validated positive ints
        self = object.__new__(cls)
        self._counts = counts
        self._items = tuple(sorted(counts.items()))
        self._hash = hash(self._items)
        self._support = self._key = None
        return self

    def count(self, var: str) -> int:
        return self._counts.get(var, 0)

    def items(self) -> tuple[tuple[str, int], ...]:
        return self._items

    @property
    def support(self) -> frozenset[str]:
        if self._support is None:
            self._support = frozenset(self._counts)
        return self._support

    def mass(self) -> int:
        """Total number of occurrences, multiplicities included."""
        return sum(self._counts.values())

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __add__(self, other: "Multiset") -> "Multiset":
        if not isinstance(other, Multiset):
            return NotImplemented
        if not self._counts:
            return other
        if not other._counts:
            return self
        counts = dict(self._counts)
        for var, n in other._counts.items():
            counts[var] = counts.get(var, 0) + n
        return Multiset._from_clean(counts)

    def scale(self, k: int) -> "Multiset":
        """k-fold repetition of this multiset (k >= 0)."""
        if k < 0:
            raise ValueError("negative repetition")
        if k == 0:
            return EMPTY
        if k == 1:
            return self
        return Multiset._from_clean({v: n * k for v, n in self._counts.items()})

    def clip(self, cap: int) -> "Multiset":
        """Every count saturated at ``cap``."""
        if all(n <= cap for n in self._counts.values()):
            return self
        return Multiset._from_clean({v: min(n, cap) for v, n in self._counts.items()})

    def restrict(self, variables) -> "Multiset":
        if self.support.issubset(variables):
            return self
        return Multiset._from_clean({v: n for v, n in self._counts.items() if v in variables})

    def leq(self, other: "Multiset") -> bool:
        """Pointwise order: every count bounded by other's count."""
        return all(n <= other.count(v) for v, n in self._counts.items())

    def sort_key(self):
        if self._key is None:
            self._key = (tuple(v for v, _ in self._items), self._items)
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Multiset) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return format_group(self)

    def __repr__(self) -> str:
        return f"Multiset({dict(self._items)!r})"


EMPTY = Multiset()


class Layout:
    """Count vectors packed in one ``int`` (Knuth, TAOCP 4A, 7.1.3): a field
    of ``width`` bits per variable, in sorted-name order from bit 0, with
    a guard bit above each if ``guard``. ``offsets`` and ``fields`` map a
    variable to its field's lowest bit and mask; ``ones`` sets every lowest
    bit, ``guards`` every guard bit. ``of`` builds each once, to be shared."""

    of = staticmethod(lru_cache(maxsize=4096)(lambda *key: Layout(*key)))

    def __init__(self, variables, width: int, guard: bool = False):
        self.offsets = {v: i * (width + guard) for i, v in enumerate(sorted(variables))}
        self.fields = {v: (1 << width) - 1 << p for v, p in self.offsets.items()}
        self._spans = tuple((v, p, self.fields[v]) for v, p in self.offsets.items())
        self.ones = sum(1 << p for p in self.offsets.values())
        self.guards = self.ones << width if guard else 0

    def pack(self, pairs) -> int:
        """The vector of ``(variable, count)`` pairs, each count within its field."""
        return sum(n << self.offsets[v] for v, n in pairs)

    def mask(self, names) -> int:
        """The fields of those of ``names`` that are variables of the layout."""
        return sum(map(self.fields.__getitem__, self.fields.keys() & names))

    def unpack(self, x: int) -> dict[str, int]:
        """The nonzero counts of ``x``'s fields, in sorted-name order."""
        return {v: (x & m) >> p for v, p, m in self._spans if x & m}


def fold_frontier(start, generators, advance) -> set:
    """Every state that adding a sub-multiset of ``generators`` reaches
    from ``start``.

    ``generators`` maps each generator, in the order taken, to the most
    times it may be taken; ``advance(frontier, g)`` returns the set of
    states one ``g`` past the states of ``frontier``, leaving out pruned
    ones, so no call is made per state. States are deduplicated: a state
    must determine everything later steps and the caller read from it.
    Repeating ``g`` stops at states that existed before ``g``, whose own
    repeats cover the rest. To read how a state was reached, ``advance``
    records ``links.setdefault(t, (s, g))`` in a dict ``links = {start:
    None}``: walking them from any state ends at ``start``, and ``links``
    lists the states in the order first reached.
    """
    states = {start}
    for g, bound in generators.items():
        frontier, new = states, set()
        for _ in range(bound):
            frontier = advance(frontier, g) - states
            if not frontier:
                break
            new |= frontier
        states |= new
    return states


def random_groups(rng, variables, exponent) -> list[dict[str, int]]:
    """One to three random groups, for the domains' ``gen``: each variable
    is kept with probability 0.45, and only then given ``exponent()``."""
    return [
        {v: exponent() for v in sorted(variables) if rng.random() < 0.45}
        for _ in range(rng.randint(1, 3))
    ]


def format_group(a: Multiset, ceiling: int | None = None) -> str:
    """Polynomial notation; a count of ``ceiling`` or more prints as ``^*``,
    the reading of a group saturated at the ceiling."""
    if not a:
        return "0"
    return "".join(
        var if n == 1 else f"{var}^*" if ceiling and n >= ceiling else f"{var}^{n}"
        for var, n in a.items()
    )


def parse_group(text: str) -> Multiset:
    """Parse polynomial notation, e.g. ``x^2y``, ``uvxz^2``; ``0`` is empty."""
    from .terms import Scanner  # terms imports this module

    return Multiset(Scanner(text).whole(Scanner.group))
