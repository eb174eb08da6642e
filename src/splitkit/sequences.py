"""Integer-pair degree sequences and their out-major / in-major orderings.

Every downstream formula assumes the two orderings produced here: a
non-increasing sort keyed on out-degree first (``pos``) and one keyed on
in-degree first (``neg``), with tie-breaks that agree whenever two entries
are completely equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, index, mul, sub
from typing import Callable, Collection, Iterable, Sequence, TypeVar

from .errors import NegativeDegreeError, OutOfRangeError

Pair = tuple[int, int]
T = TypeVar("T")


class lazy:
    """An attribute computed by ``func`` on first read and stored in the
    instance ``__dict__``, where every later read finds it first.

    Used in place of ``functools.cached_property``, which before Python
    3.12 takes a lock on every first read, a cost that shows on small
    inputs.  Without a lock two threads may both compute a part on first
    read; every part is pure, so both get equal values.
    """

    def __init__(self, func: Callable):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class IntegerPairSequence:
    """A sequence of ``(out_degree, in_degree)`` pairs, indexed from zero.

    Stored as its two degree columns, which every analysis reads; ``pairs``
    is derived from them on first use.
    """

    out_degrees: tuple[int, ...]
    in_degrees: tuple[int, ...]

    def __init__(self, pairs: Iterable[Iterable[int]] = ()):
        outs: list[int] = []
        ins: list[int] = []
        for o, i in pairs:
            outs.append(index(o))
            ins.append(index(i))
        object.__setattr__(self, "out_degrees", tuple(outs))
        object.__setattr__(self, "in_degrees", tuple(ins))

    @property
    def n(self) -> int:
        return len(self.out_degrees)

    @lazy
    def pairs(self) -> tuple[Pair, ...]:
        return tuple(zip(self.out_degrees, self.in_degrees))

    @lazy
    def sum_out(self) -> int:
        return sum(self.out_degrees)

    @lazy
    def sum_in(self) -> int:
        return sum(self.in_degrees)

    @property
    def is_balanced(self) -> bool:
        """True when total out-degree equals total in-degree."""
        return self.sum_out == self.sum_in


def within(values: Collection[int], n: int) -> bool:
    """True when every value lies in [0, n), by two C-level passes."""
    return not values or (min(values) >= 0 and max(values) < n)


def validate(seq: IntegerPairSequence) -> None:
    """Raise unless every entry fits a simple loopless digraph on N vertices.

    Raises:
        NegativeDegreeError: some out- or in-degree is negative.
        OutOfRangeError: some out- or in-degree exceeds N - 1.
    """
    # Both columns at once: at small N a min/max call costs more than the
    # loop below, which only words the first fault.
    if within(seq.out_degrees + seq.in_degrees, seq.n):
        return
    bound = seq.n - 1
    for i, (out_deg, in_deg) in enumerate(zip(seq.out_degrees, seq.in_degrees)):
        if out_deg < 0 or in_deg < 0:
            raise NegativeDegreeError(
                f"entry {i} has a negative degree: ({out_deg}, {in_deg})", i
            )
        if out_deg > bound or in_deg > bound:
            raise OutOfRangeError(
                f"entry {i} = ({out_deg}, {in_deg}) exceeds the "
                f"simple-digraph bound {bound}",
                i,
            )


def _inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    rank = [0] * len(perm)
    for r, i in enumerate(perm):
        rank[i] = r
    return tuple(rank)


@dataclass(frozen=True)
class ProperOrdering:
    """The index permutations realizing both non-increasing orders.

    ``pos_perm[r]`` (``neg_perm[r]``) is the original index of the entry at
    rank ``r`` in the out-major (in-major) order.  Entries that are equal as
    pairs keep their original relative order in both permutations, which
    makes the two tie-breaks consistent.
    """

    pos_perm: tuple[int, ...]
    neg_perm: tuple[int, ...]

    @lazy
    def pos_rank(self) -> tuple[int, ...]:
        """Inverse of ``pos_perm``: rank of each original index."""
        return _inverse(self.pos_perm)

    @lazy
    def neg_rank(self) -> tuple[int, ...]:
        """Inverse of ``neg_perm``: rank of each original index."""
        return _inverse(self.neg_perm)


def proper_order(seq: IntegerPairSequence) -> ProperOrdering:
    """Compute both orderings with the index tie-break for equal pairs.

    Deterministic: equal pairs are kept in ascending original-index order in
    both permutations, which is what guarantees tie consistency.
    """
    validate(seq)
    outs, ins = seq.out_degrees, seq.in_degrees
    return ProperOrdering(lex_order(outs, ins), lex_order(ins, outs))


def lex_order(first: Sequence[int], second: Sequence[int]) -> tuple[int, ...]:
    """Indices in non-increasing order of ``(first[i], second[i])``, equal
    pairs in ascending index order; every value must lie in [0, N).

    One int key per entry, ``first * N + second``, orders like the pair;
    the sort is stable under ``reverse=True``, so ties keep index order.
    """
    n = len(first)
    keys = list(map(add, map(mul, first, repeat(n)), second))
    return tuple(sorted(range(n), key=keys.__getitem__, reverse=True))


def reorder(values: Sequence[T], perm: Sequence[int]) -> tuple[T, ...]:
    """``values`` rearranged so position ``r`` holds entry ``perm[r]``."""
    return tuple(map(values.__getitem__, perm))


def at_least_counts(values: Sequence[int]) -> list[int]:
    """``#{i : values[i] >= v}`` for v = 0..N; every value must lie in [0, N]."""
    counts = [0] * (len(values) + 1)
    for value in values:
        counts[value] += 1
    return list(accumulate(reversed(counts)))[::-1]


def capped_slack(demand: Sequence[int], capacity: Sequence[int]) -> tuple[int, ...]:
    """Surplus of the capped-sum inequality at every split point k = 0..N.

    Entry k is ``sum_{i<k} min(c_i, k-1) + sum_{i>=k} min(c_i, k) -
    sum_{i<k} a_i`` for demands ``a`` and capacities ``c`` listed in the
    order the inequality ranks them; every capacity must lie in [0, N].
    Computed in O(N) as ``sum_i min(c_i, k)`` (whose step from k - 1 to k
    is the number of capacities at least k) minus the head correction
    ``#{i < k : c_i >= k}`` (entry i counts for k in [i + 1, c_i], one
    difference-array interval) minus the prefix demand.
    """
    n = len(capacity)
    head = [0] * (n + 2)
    for i, c in enumerate(capacity):
        if c > i:
            head[i + 1] += 1
            head[c + 1] -= 1
    capped = accumulate(at_least_counts(capacity)[1:], initial=0)
    demanded = accumulate(demand, initial=0)
    return tuple(map(sub, map(sub, capped, accumulate(head)), demanded))
