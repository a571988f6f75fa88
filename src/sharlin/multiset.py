"""Finite-support multisets of variables.

A multiset maps variable names to positive occurrence counts; variables
with count zero are never stored. Display uses the polynomial notation
``x^2y`` (two occurrences of ``x``, one of ``y``), variables sorted
lexicographically, exponent 1 omitted. The empty multiset prints as ``0``.
A 2-sharing group is a multiset whose counts are saturated at 2 (see
``clip``); its 2 reads "two or more" and prints as ``^*``.

Counts are plain Python integers, so sums are exact and never wrap.

``fold_subsets`` is the one enumeration of sums of groups, each repeated
up to a bound, behind all three matchers and the analyzer's forward
abstract unification.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping

__all__ = [
    "Multiset",
    "EMPTY",
    "msum",
    "mrestrict",
    "msupport",
    "fold_subsets",
    "parse_group",
    "format_group",
]


class Multiset:
    """Immutable multiset of variable names with finite support."""

    __slots__ = ("_counts", "_items", "_hash", "_support")

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
        self._support = None

    @classmethod
    def _from_clean(cls, counts: dict[str, int]) -> "Multiset":
        # internal fast path: counts already validated positive ints
        self = object.__new__(cls)
        self._counts = counts
        self._items = tuple(sorted(counts.items()))
        self._hash = hash(self._items)
        self._support = None
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
        keep = {v: n for v, n in self._counts.items() if v in variables}
        if len(keep) == len(self._counts):
            return self
        return Multiset._from_clean(keep)

    def leq(self, other: "Multiset") -> bool:
        """Pointwise order: every count bounded by other's count."""
        return all(n <= other.count(v) for v, n in self._counts.items())

    def sort_key(self):
        return (tuple(sorted(self._counts)), self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Multiset) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return format_group(self)

    def __repr__(self) -> str:
        return f"Multiset({dict(self._items)!r})"


EMPTY = Multiset()


def msum(a: Multiset, b: Multiset) -> Multiset:
    """Multiset sum: pointwise addition of counts."""
    return a + b


def mrestrict(a: Multiset, variables) -> Multiset:
    """Restriction of ``a`` to the given variables; others get count 0."""
    return a.restrict(variables)


def msupport(a: Multiset) -> frozenset[str]:
    """The set of variables with nonzero count."""
    return a.support


def fold_subsets(start, generators, step) -> dict:
    """Every state that folding ``step`` over a sub-multiset of
    ``generators`` reaches from ``start``.

    ``generators`` maps each generator, in the order taken, to the most
    times it may be taken; ``step(state, g)`` returns the next state, or
    ``None`` to prune. States are deduplicated, so the work grows with the
    number of distinct states, and a state must determine everything later
    steps and the caller read from it. Repeating ``g`` stops at a state
    that existed before ``g``, whose own repeats cover the rest. Each state
    maps, in discovery order, to the ``(state, generator)`` it was first
    reached from (``None`` for ``start``); when every bound is 1, these
    back-pointers give the subsequence of smallest bitmask reaching it.
    """
    states = {start: None}
    for g, bound in generators.items():
        before = states.copy()
        for s in before:
            for _ in range(bound):
                t = step(s, g)
                if t is None or t in before:
                    break
                states.setdefault(t, (s, g))
                s = t
    return states


def format_group(a: Multiset, star: bool = False) -> str:
    """Polynomial notation; with ``star`` every count above 1 prints as
    ``^*``, the 2-sharing reading of a clipped group."""
    if not a:
        return "0"
    return "".join(
        var if n == 1 else f"{var}^*" if star else f"{var}^{n}" for var, n in a.items()
    )


def parse_group(text: str) -> Multiset:
    """Parse polynomial notation, e.g. ``x^2y``, ``uvxz^2``; ``0`` is empty."""
    from .terms import Scanner  # terms imports this module

    return Multiset(Scanner(text).whole(Scanner.group))
