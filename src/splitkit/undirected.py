"""Degree-sequence analysis for undirected graphs.

Covers graphicality, the splittance sequence, the corrected Durfee number,
and split-graph recognition, all from the sorted degree sequence alone.
Splittance values are exact rationals; everything else is exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import ge, index
from typing import Iterable, Union

from .errors import (
    EmptySequenceError,
    NegativeDegreeError,
    NotGraphicError,
    OutOfRangeError,
)
from .sequences import capped_slack, within


@dataclass(frozen=True)
class IntegerSequence:
    """An undirected degree sequence; order of entries does not matter."""

    degrees: tuple[int, ...]

    def __init__(self, degrees: Iterable[int] = ()):
        object.__setattr__(self, "degrees", tuple(map(index, degrees)))

    @property
    def n(self) -> int:
        return len(self.degrees)

    def sorted_desc(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees, reverse=True))


Degrees = Union[IntegerSequence, Iterable[int]]


def _as_sequence(d: Degrees) -> IntegerSequence:
    return d if isinstance(d, IntegerSequence) else IntegerSequence(d)


def validate_degrees(d: Degrees) -> IntegerSequence:
    """Check the simple-graph bounds 0 <= d_i <= N - 1 and return the sequence."""
    seq = _as_sequence(d)
    if within(seq.degrees, seq.n):
        return seq  # else the loop words the first fault
    bound = seq.n - 1
    for i, deg in enumerate(seq.degrees):
        if deg < 0:
            raise NegativeDegreeError(f"degree {i} is negative: {deg}", i)
        if deg > bound:
            raise OutOfRangeError(
                f"degree {i} = {deg} exceeds the simple-graph bound {bound}", i
            )


def _durfee(ordered: tuple[int, ...]) -> int:
    # ordered[i] >= i holds on a prefix, so the count is its length.
    return sum(map(ge, ordered, range(len(ordered))))


def _graphic(d: Degrees) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The non-increasing order and its slacks, from one validation and one
    sort; None when the sequence is not graphic, entries beyond N - 1
    included.  Negative entries raise."""
    try:
        ordered = validate_degrees(d).sorted_desc()
    except OutOfRangeError:
        return None
    if sum(ordered) % 2:
        return None
    slack = capped_slack(ordered, ordered)
    return (ordered, slack) if min(slack) >= 0 else None


def corrected_durfee(d: Degrees) -> int:
    """Largest k (1-based) such that the k-th largest degree is at least k - 1.

    Raises:
        EmptySequenceError: the sequence has no entries.
    """
    ordered = validate_degrees(d).sorted_desc()
    if not ordered:
        raise EmptySequenceError("corrected Durfee number needs N >= 1")
    return _durfee(ordered)


def splittance_sequence(d: Degrees) -> list[Fraction]:
    """Edit distance to a split graph for each clique-size choice k = 0..N.

    Entry k is half of ``k(k-1) - (sum of the k largest degrees) + (sum of
    the rest)``.  Values are exact rationals; half-integers occur only for
    sequences that are not graphic.
    """
    ordered = validate_degrees(d).sorted_desc()
    total = sum(ordered)
    return [
        Fraction(k * (k - 1) + total - 2 * prefix, 2)
        for k, prefix in enumerate(accumulate(ordered, initial=0))
    ]


def eg_slack(d: Degrees) -> list[int]:
    """Surplus of each graphicality inequality, for k = 0..N.

    Entry k is ``sum_{i<=k} min(d_i, k-1) + sum_{i>k} min(d_i, k) -
    sum_{i<=k} d_i`` over the non-increasing arrangement.  Non-negativity of
    every entry (with an even degree total) characterizes graphic sequences,
    and the k-th entry vanishing at the corrected Durfee number
    characterizes split sequences.  O(N) after the sort, as for the digraph
    slacks.
    """
    ordered = validate_degrees(d).sorted_desc()
    return list(capped_slack(ordered, ordered))


def is_graphic(d: Degrees) -> bool:
    """True when some simple undirected graph has this degree sequence.

    Entries beyond N - 1 are unrealizable and simply yield False; negative
    entries raise.
    """
    return _graphic(d) is not None


def undirected_splittance(d: Degrees) -> int:
    """Minimum number of edge edits taking any realization to a split graph.

    Half the graphicality slack at the corrected Durfee number (Hammer and
    Simeone, 1981): the smallest entry of ``splittance_sequence``, without
    building it.

    Raises:
        NotGraphicError: the sequence is not graphic.
    """
    seq = _as_sequence(d)
    graphic = _graphic(seq)
    if graphic is None:
        raise NotGraphicError(f"sequence {seq.degrees} is not graphic")
    ordered, slack = graphic
    return slack[_durfee(ordered)] // 2


def is_split_undirected(d: Degrees) -> bool:
    """True when every realization of the (graphic) sequence is a split graph.

    Raises:
        NotGraphicError: the sequence is not graphic.
    """
    return undirected_splittance(d) == 0
