"""Split-partition measures and the splittance matrix for digraphs.

A quad partition sorts the vertices into four blocks: a mutual clique
(``pm``), an out-dominating block (``plus``) whose members send arcs to the
whole receiving side, an in-dominated block (``minus``), and an independent
block (``zero``).  The measure of a partition counts exactly how many arc
edits a digraph with the given degree sequence needs before the partition
satisfies all block constraints.  Tabulating the measure over every
partition induced by the two degree orderings yields the splittance matrix,
whose minimum away from two trivial corner cells is the digraph splittance.
The public functions are views over one ``Analysis`` of their sequence,
which reads everything but the matrix itself off the two slack families
and the orderings, in O(N) after the sort; the matrix itself is built one
row from the previous one, by C-level arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from operator import add, index, neg
from typing import Iterable

from .errors import NotDigraphicError, OutOfRangeError, UnbalancedSequenceError
from .sequences import (
    IntegerPairSequence,
    ProperOrdering,
    at_least_counts,
    capped_slack,
    proper_order,
    reorder,
    validate,
)

@dataclass(frozen=True)
class QuadPartition:
    """Assignment of every vertex index in [0, n) to one of the four blocks."""

    n: int
    pm: frozenset[int]
    plus: frozenset[int]
    minus: frozenset[int]
    zero: frozenset[int]

    def __init__(
        self,
        n: int,
        pm: Iterable[int] = (),
        plus: Iterable[int] = (),
        minus: Iterable[int] = (),
        zero: Iterable[int] = (),
    ):
        object.__setattr__(self, "n", index(n))
        object.__setattr__(self, "pm", frozenset(pm))
        object.__setattr__(self, "plus", frozenset(plus))
        object.__setattr__(self, "minus", frozenset(minus))
        object.__setattr__(self, "zero", frozenset(zero))
        blocks = (self.pm, self.plus, self.minus, self.zero)
        if sum(len(b) for b in blocks) != self.n or frozenset().union(
            *blocks
        ) != frozenset(range(self.n)):
            raise ValueError("blocks must partition range(n)")

    @property
    def k(self) -> int:
        """Size of the sending side ``pm | plus``."""
        return len(self.pm) + len(self.plus)

    @property
    def l(self) -> int:
        """Size of the receiving side ``pm | minus``."""
        return len(self.pm) + len(self.minus)

    @property
    def non_trivial(self) -> bool:
        """False when every vertex landed in ``plus`` or every vertex in ``minus``."""
        return len(self.plus) != self.n and len(self.minus) != self.n


def _measure_out(seq: IntegerPairSequence, part: QuadPartition) -> int:
    # out-form: demanded arcs into the receiving side minus arcs available
    # from the sending side, plus what lands outside it.
    k = part.k
    outs, ins = seq.out_degrees, seq.in_degrees
    return (
        len(part.pm) * (k - 1)
        + len(part.minus) * k
        + sum(ins[x] for x in part.plus | part.zero)
        - sum(outs[x] for x in part.pm | part.plus)
    )


def _measure_in(seq: IntegerPairSequence, part: QuadPartition) -> int:
    # in-form: same count written from the receiving side.
    l = part.l
    outs, ins = seq.out_degrees, seq.in_degrees
    return (
        len(part.pm) * (l - 1)
        + len(part.plus) * l
        + sum(outs[x] for x in part.minus | part.zero)
        - sum(ins[x] for x in part.pm | part.minus)
    )


def partition_measure(seq: IntegerPairSequence, part: QuadPartition) -> int:
    """Arc edits needed for ``part`` to satisfy all block constraints.

    Both defining forms are evaluated and must agree, which happens exactly
    when the sequence is balanced.  The result can be negative for
    sequences that are not digraphic; it is returned as computed.

    Raises:
        UnbalancedSequenceError: total out- and in-degree differ.
    """
    validate(seq)
    if part.n != seq.n:
        raise ValueError(f"partition covers {part.n} vertices, sequence has {seq.n}")
    return _measure(seq, part)


def _measure(seq: IntegerPairSequence, part: QuadPartition) -> int:
    # partition_measure on a validated sequence and a partition of its N
    # vertices, as the exhaustive sweep supplies them.
    out_form = _measure_out(seq, part)
    in_form = _measure_in(seq, part)
    if out_form != in_form:
        raise UnbalancedSequenceError(
            f"measure forms disagree ({out_form} != {in_form}); the sequence "
            f"has out-degree total {seq.sum_out} but in-degree total {seq.sum_in}"
        )
    return out_form


def induced_partition(
    seq: IntegerPairSequence, ordering: ProperOrdering, k: int, l: int
) -> QuadPartition:
    """Quad partition generated by the top k out-major and top l in-major entries.

    The overlap of the two prefixes becomes ``pm``, the rest of the out-major
    prefix ``plus``, the rest of the in-major prefix ``minus``, and everything
    else ``zero``.

    Raises:
        IndexError: k or l is outside [0, N].
    """
    n = seq.n
    if not (0 <= k <= n and 0 <= l <= n):
        raise IndexError(f"(k, l) = ({k}, {l}) outside [0, {n}]^2")
    top_out = ordering.pos_prefix(k)
    top_in = ordering.neg_prefix(l)
    return QuadPartition(
        n,
        pm=top_out & top_in,
        plus=top_out - top_in,
        minus=top_in - top_out,
        zero=frozenset(ordering.pos_perm[k:]).difference(top_in),
    )


@dataclass(frozen=True)
class SplittanceMatrix:
    """(N+1) x (N+1) table of induced-partition measures, row k, column l."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, cell: tuple[int, int]) -> int:
        k, l = cell
        return self.entries[k][l]


def _splittance_matrix(
    seq: IntegerPairSequence, ordering: ProperOrdering
) -> SplittanceMatrix:
    # Row 0 falls from the in-degree mass by each in-degree in in-major
    # order.  When v = pos_perm[k - 1] (out-degree o, in-major rank r) joins
    # the senders, column l gains l slots less o, less v's own loop slot
    # once v is among the top l receivers (l > r).
    n, outs, neg_rank = seq.n, seq.out_degrees, ordering.neg_rank
    falls = map(neg, reorder(seq.in_degrees, ordering.neg_perm))
    row = tuple(accumulate(falls, initial=seq.sum_in))
    rows = [row]
    for v in ordering.pos_perm:
        o, r = outs[v], neg_rank[v]
        row = tuple(map(add, row, chain(range(-o, r + 1 - o), range(r - o, n - o))))
        rows.append(row)
    return SplittanceMatrix(tuple(rows))


@dataclass(frozen=True)
class MaximalSequences:
    """Turning points of the matrix rows and columns.

    ``m_under[k]`` is the largest column index up to which row k is
    non-increasing; beyond it the row strictly increases.  ``m_bar[l]`` plays
    the same role for column l.  Zero means no index qualifies.
    """

    m_bar: tuple[int, ...]
    m_under: tuple[int, ...]


def _turning_points(degrees: tuple[int, ...], rank: tuple[int, ...]) -> tuple[int, ...]:
    # ``degrees`` (per vertex) lead one ordering; ``rank`` is each vertex's
    # place in the other.  For turning point k, the first ordering lists
    # the degrees >= k, then the block of degree k - 1, whose qualifying
    # members are those the other ordering ranks below k.  They form a
    # prefix of the block, since both orderings break ties between equal
    # first keys alike.  So the turning point is #{degree >= k} plus
    # inside[k] = #{degree == k - 1 and rank < k}.
    inside = [0] * (len(degrees) + 1)
    for degree, r in zip(degrees, rank):
        if r <= degree:
            inside[degree + 1] += 1
    return tuple(a + b for a, b in zip(at_least_counts(degrees), inside))


@dataclass(frozen=True)
class SlackPair:
    """Surpluses of the digraphic inequalities, one family per ordering.

    ``s_bar[k]`` caps the in-degrees against the out-degree demand of the
    top-k out-major prefix; ``s_under[k]`` swaps the roles.  Both families
    start and end at zero for balanced sequences.
    """

    s_bar: tuple[int, ...]
    s_under: tuple[int, ...]


def _fulkerson_slack(seq: IntegerPairSequence, ordering: ProperOrdering) -> SlackPair:
    outs, ins = seq.out_degrees, seq.in_degrees
    pos, neg = ordering.pos_perm, ordering.neg_perm
    return SlackPair(
        s_bar=capped_slack(reorder(outs, pos), reorder(ins, pos)),
        s_under=capped_slack(reorder(ins, neg), reorder(outs, neg)),
    )


class Analysis:
    """What the library derives from one pair sequence, each part at most once.

    Every part is computed on first use and cached on the object; the public
    functions below build a new analysis per call, so nothing is kept
    between calls.  Computing the ordering validates the sequence, which
    every other part needs first.  Everything except ``matrix`` costs O(N)
    after the sort, plus O(1) per cell that ``partitions`` lists.
    """

    def __init__(self, seq: IntegerPairSequence):
        self.seq = seq

    @cached_property
    def ordering(self) -> ProperOrdering:
        return proper_order(self.seq)

    @cached_property
    def slack(self) -> SlackPair:
        return _fulkerson_slack(self.seq, self.ordering)

    @cached_property
    def matrix(self) -> SplittanceMatrix:
        return _splittance_matrix(self.seq, self.ordering)

    @cached_property
    def maximal(self) -> MaximalSequences:
        m_bar = _turning_points(self.seq.out_degrees, self.ordering.neg_rank)
        return MaximalSequences(m_bar=m_bar, m_under=self._m_under)

    @cached_property
    def _m_under(self) -> tuple[int, ...]:
        # The row turning points alone, which the plateau walk needs.
        return _turning_points(self.seq.in_degrees, self.ordering.pos_rank)

    @cached_property
    def digraphic(self) -> bool:
        try:
            self.ordering  # validates the sequence; negative entries raise
        except OutOfRangeError:
            return False
        if not self.seq.is_balanced:
            return False
        return min(self.slack.s_bar + self.slack.s_under) >= 0

    def _require_digraphic(self) -> None:
        if not self.digraphic:
            raise NotDigraphicError(f"sequence {self.seq.pairs} is not digraphic")

    @cached_property
    def splittance(self) -> int:
        """The smallest interior slack.

        The slacks are the row and column minima of the matrix.  Every cell
        away from the trivial corners lies in an interior row or column,
        except (0, 0) and (N, N), which are never below (0, N - 1) and
        (N, 1) on a balanced sequence.
        """
        self._require_digraphic()
        n = self.seq.n
        return min(self.slack.s_bar[1:n] + self.slack.s_under[1:n]) if n >= 2 else 0

    @cached_property
    def split(self) -> bool:
        return self.splittance == 0

    @cached_property
    def row_minima(self) -> tuple[int, ...]:
        """Minimum of each matrix row over the cells away from the trivial
        corners (0, N) and (N, 0); needs N >= 1.

        Rows 1..N-1 have ``s_bar`` as minima.  Row 0 falls to the smallest
        in-degree at column N - 1; row N never falls, so its minimum is at
        column 1: N - 1 less the largest in-degree, shifted by the imbalance.
        """
        seq, n = self.seq, self.seq.n
        in_degrees = seq.in_degrees
        last = n - 1 - max(in_degrees) + seq.sum_in - seq.sum_out
        return (min(in_degrees), *self.slack.s_bar[1:n], last)

    def _plateau(self, k: int) -> range:
        """Columns of row k's minimum away from the trivial corners, walked
        back from the turning point ``m_under[k]`` (column N - 1 in row 0;
        at least 1 in row N) while the step into column l, ``k - ins[j] -
        (pos_rank[j] < k)`` for j = ``neg_perm[l - 1]``, is zero; needs N >= 1.
        """
        n, ins, neg_perm = self.seq.n, self.seq.in_degrees, self.ordering.neg_perm
        pos_rank = self.ordering.pos_rank
        end = n - 1 if k == 0 else max(self._m_under[k], k == n)
        start = end
        while start > 0:
            j = neg_perm[start - 1]
            if k - ins[j] - (pos_rank[j] < k):
                break
            start -= 1
        return range(max(start, k == n), end + 1)

    @cached_property
    def best_cell(self) -> tuple[int, int]:
        """Row-major first cell away from the trivial corners (0, N) and
        (N, 0) that holds the matrix minimum; needs N >= 1."""
        minima = self.row_minima
        k = minima.index(min(minima))
        return k, self._plateau(k)[0]

    @cached_property
    def partitions(self) -> list[QuadPartition]:
        """Induced partitions of the zero cells away from the trivial corners,
        in row-major order; only rows whose minimum is zero hold any."""
        self._require_digraphic()
        if self.seq.n == 0:
            return [QuadPartition(0)]
        return [
            induced_partition(self.seq, self.ordering, k, l)
            for k, minimum in enumerate(self.row_minima)
            if minimum == 0
            for l in self._plateau(k)
        ]


def splittance_matrix(seq: IntegerPairSequence) -> SplittanceMatrix:
    """Compute the full matrix in O(N^2), each row from the one before it;
    nothing else needs it.

    Entry (k, l) equals ``k*l - |overlap| + (in-degree mass outside the top-l
    in-major prefix) - (out-degree mass of the top-k out-major prefix)``,
    which agrees with the per-partition measure on every cell.
    """
    return Analysis(seq).matrix


def maximal_sequences(seq: IntegerPairSequence) -> MaximalSequences:
    """Locate the row/column minima of the splittance matrix.

    ``m_under[k]`` is the largest 1-based position j in the in-major order
    whose in-degree is at least k - 1, where equality additionally requires
    the entry to sit inside the top-k out-major prefix (0 when no position
    qualifies); ``m_bar[l]`` is symmetric.
    """
    return Analysis(seq).maximal


def fulkerson_slack(seq: IntegerPairSequence) -> SlackPair:
    """Evaluate both inequality families for k = 0..N."""
    return Analysis(seq).slack


def is_digraphic(seq: IntegerPairSequence) -> bool:
    """True when some simple loopless digraph has this degree sequence.

    Entries beyond N - 1 are unrealizable and simply yield False; negative
    entries raise.
    """
    return Analysis(seq).digraphic


def digraph_splittance(seq: IntegerPairSequence) -> int:
    """Minimum arc edits taking any realization to a split digraph.

    Equals the matrix minimum over all cells except the trivial corners
    (0, N) and (N, 0), and is computed as the smallest interior slack.  The
    empty sequence is assigned splittance 0.

    Raises:
        NotDigraphicError: the sequence is not digraphic.
    """
    return Analysis(seq).splittance


def is_split_sequence(seq: IntegerPairSequence) -> bool:
    """True when every realization of the (digraphic) sequence is split.

    Recognized through the slack sequences: some interior entry (indices
    1..N-1 of either family) must vanish.  Sequences with N < 2 have no
    interior entries and are split.

    Raises:
        NotDigraphicError: the sequence is not digraphic.
    """
    return Analysis(seq).split


def split_partitions(seq: IntegerPairSequence) -> list[QuadPartition]:
    """All induced partitions witnessing that the sequence is split.

    One partition per zero cell of the matrix away from the trivial corners,
    in row-major cell order; empty exactly when the sequence is not split.
    The degenerate empty sequence returns its single all-empty partition.

    Raises:
        NotDigraphicError: the sequence is not digraphic.
    """
    return Analysis(seq).partitions
