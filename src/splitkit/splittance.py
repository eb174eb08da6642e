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
which reads every answer off the out-major order and its slack family, in
O(N) after one sort; the in-major order is sorted only for the parts
beyond the answers (matrix, partitions, witness cell, turning points and
the in-major slacks).  The matrix itself is built one row from the
previous one, by C-level arithmetic.  Every cell's partition
comes from one role walk, ``_cell_blocks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, compress
from operator import add, index, neg
from typing import Iterable, Iterator, Sequence

from .errors import NotDigraphicError, OutOfRangeError, UnbalancedSequenceError
from .sequences import (
    IntegerPairSequence,
    ProperOrdering,
    at_least_counts,
    capped_slack,
    lazy,
    lex_order,
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
        n = index(n)
        pm, plus = frozenset(pm), frozenset(plus)
        minus, zero = frozenset(minus), frozenset(zero)
        members = pm.union(plus, minus, zero)
        sum(map(index, members))  # a member such as 0.0 or "0" raises TypeError
        sizes = len(pm) + len(plus) + len(minus) + len(zero)
        if sizes != n or members != frozenset(range(n)):
            raise ValueError("blocks must partition range(n)")
        self.__dict__.update(n=n, pm=pm, plus=plus, minus=minus, zero=zero)

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


def partition_measure(seq: IntegerPairSequence, part: QuadPartition) -> int:
    """Arc edits needed for ``part`` to satisfy all block constraints.

    The count is written from the sending side.  Written from the
    receiving side it differs by exactly the in-degree total less the
    out-degree total, so the two agree exactly when the sequence is
    balanced, and an unbalanced sequence has no measure.  The result can
    be negative for sequences that are not digraphic; it is returned as
    computed.

    Raises:
        UnbalancedSequenceError: total out- and in-degree differ.
    """
    validate(seq)
    if part.n != seq.n:
        raise ValueError(f"partition covers {part.n} vertices, sequence has {seq.n}")
    if not seq.is_balanced:
        raise UnbalancedSequenceError(
            f"the sequence has out-degree total {seq.sum_out} "
            f"but in-degree total {seq.sum_in}"
        )
    return _measure_out(seq, part)


# Each table maps the role byte of one block to 1 and every other role to
# 0, in the order pm, plus, minus, zero.
_ROLE_TABLES = [bytes(role == block for role in range(256)) for block in (3, 1, 2, 0)]


def _cell_blocks(
    ordering: ProperOrdering, cells: Iterable[tuple[int, int]], items: Sequence
) -> Iterator[tuple]:
    """For each cell (k, l), in row-major order: k, l and the blocks pm,
    plus, minus and zero of its partition, each an iterator over the
    ``items`` (one per vertex) of its members, in vertex order.  One role
    byte per vertex, 1 if among the top k out-major vertices plus 2 if among
    the top l in-major ones, moves from cell to cell: O(N) in all."""
    pos_perm, neg_perm = ordering.pos_perm, ordering.neg_perm
    role, row, col = bytearray(len(pos_perm)), 0, 0
    for k, l in cells:
        for v in pos_perm[row:k]:
            role[v] += 1
        for v in neg_perm[col:l]:
            role[v] += 2
        for v in neg_perm[l:col]:
            role[v] -= 2
        row, col = k, l
        yield (k, l, *(compress(items, role.translate(t)) for t in _ROLE_TABLES))


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
    _, _, *blocks = next(_cell_blocks(ordering, [(k, l)], range(n)))
    return QuadPartition(n, *blocks)


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


def _matrix_rows(
    seq: IntegerPairSequence, ordering: ProperOrdering
) -> Iterator[tuple[int, ...]]:
    # Row 0 falls from the in-degree mass by each in-degree in in-major
    # order.  When v = pos_perm[k - 1] (out-degree o, in-major rank r) joins
    # the senders, column l gains l slots less o, less v's own loop slot
    # once v is among the top l receivers (l > r).  Only the last row is
    # kept.
    n, outs, neg_rank = seq.n, seq.out_degrees, ordering.neg_rank
    falls = map(neg, reorder(seq.in_degrees, ordering.neg_perm))
    row = tuple(accumulate(falls, initial=seq.sum_in))
    yield row
    for v in ordering.pos_perm:
        o, r = outs[v], neg_rank[v]
        row = tuple(map(add, row, chain(range(-o, r + 1 - o), range(r - o, n - o))))
        yield row


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


def _slack_family(
    demand: tuple[int, ...], capacity: tuple[int, ...], perm: tuple[int, ...]
) -> tuple[int, ...]:
    # One Fulkerson family: the per-vertex ``demand`` and ``capacity``
    # degrees, ranked by ``perm``.
    return capped_slack(reorder(demand, perm), reorder(capacity, perm))


class Analysis:
    """What the library derives from one pair sequence, each part at most once.

    Every part is computed on first use and cached on the object; the public
    functions below build a new analysis per call, so nothing is kept
    between calls.  Computing the out-major order ``pos_perm`` validates the
    sequence, which every other part needs first.  The answers
    (``digraphic``, ``split``, ``splittance``) read that order alone; the
    in-major order, and with it ``ordering`` and its ranks, is sorted only
    when another part reads it.  Everything except ``matrix`` costs O(N)
    after the sorts, plus O(N) per partition that ``partitions`` lists.
    ``matrix_rows``, ``zero_cells`` and ``zero_cell_blocks`` make their
    items one at a time, for a caller that keeps none of them; ``matrix``
    and ``partitions`` keep them all.
    """

    def __init__(self, seq: IntegerPairSequence):
        self.seq = seq

    @lazy
    def pos_perm(self) -> tuple[int, ...]:
        """The out-major order, the only one the answers read; computing it
        validates the sequence."""
        seq = self.seq
        validate(seq)
        return lex_order(seq.out_degrees, seq.in_degrees)

    @lazy
    def ordering(self) -> ProperOrdering:
        """Both orders; only here is the in-major one sorted."""
        seq, pos_perm = self.seq, self.pos_perm
        return ProperOrdering(pos_perm, lex_order(seq.in_degrees, seq.out_degrees))

    @lazy
    def s_bar(self) -> tuple[int, ...]:
        """The out-major slack family, the only one the answers read."""
        seq = self.seq
        return _slack_family(seq.out_degrees, seq.in_degrees, self.pos_perm)

    @lazy
    def slack(self) -> SlackPair:
        """Both slack families; only here is the in-major one computed."""
        seq = self.seq
        s_under = _slack_family(seq.in_degrees, seq.out_degrees, self.ordering.neg_perm)
        return SlackPair(self.s_bar, s_under)

    @lazy
    def matrix(self) -> SplittanceMatrix:
        return SplittanceMatrix(tuple(self.matrix_rows()))

    def matrix_rows(self) -> Iterator[tuple[int, ...]]:
        """The matrix rows k = 0..N, each made as it is asked for."""
        return _matrix_rows(self.seq, self.ordering)

    @lazy
    def maximal(self) -> MaximalSequences:
        m_bar = _turning_points(self.seq.out_degrees, self.ordering.neg_rank)
        return MaximalSequences(m_bar=m_bar, m_under=self._m_under)

    @lazy
    def _m_under(self) -> tuple[int, ...]:
        # The row turning points alone, which the plateau walk needs.
        return _turning_points(self.seq.in_degrees, self.ordering.pos_rank)

    @lazy
    def digraphic(self) -> bool:
        try:
            self.pos_perm  # validates the sequence; negative entries raise
        except OutOfRangeError:
            return False
        return self.seq.is_balanced and min(self.s_bar) >= 0

    def _require_digraphic(self) -> None:
        if not self.digraphic:
            raise NotDigraphicError(f"sequence {self.seq.pairs} is not digraphic")

    @lazy
    def splittance(self) -> int:
        """The smallest row minimum, or 0 for the empty sequence."""
        self._require_digraphic()
        return min(self.row_minima) if self.seq.n else 0

    @lazy
    def split(self) -> bool:
        return self.splittance == 0

    @lazy
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
        return (min(in_degrees), *self.s_bar[1:n], last)

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

    @lazy
    def best_cell(self) -> tuple[int, int]:
        """Row-major first cell away from the trivial corners (0, N) and
        (N, 0) that holds the matrix minimum; needs N >= 1."""
        minima = self.row_minima
        k = minima.index(min(minima))
        return k, self._plateau(k)[0]

    def zero_cells(self) -> Iterator[tuple[int, int]]:
        """Cells (k, l) of the zero entries away from the trivial corners,
        in row-major order, each made as it is asked for; only rows whose
        minimum is zero hold any.  The empty sequence has the one cell
        (0, 0)."""
        self._require_digraphic()
        if self.seq.n == 0:
            return iter([(0, 0)])
        return (
            (k, l)
            for k, minimum in enumerate(self.row_minima)
            if minimum == 0
            for l in self._plateau(k)
        )

    @lazy
    def partitions(self) -> list[QuadPartition]:
        """Induced partitions of ``zero_cells``, in their order."""
        n = self.seq.n
        return [
            QuadPartition(n, *blocks)
            for _, _, *blocks in self.zero_cell_blocks(range(n))
        ]

    def zero_cell_blocks(self, items: Sequence) -> Iterator[tuple]:
        """``_cell_blocks`` over ``zero_cells``, for a caller that keeps
        none of them, such as the ``partitions`` command.  The in-major
        order is read only once a zero cell is known: a sequence that is
        not split never sorts it."""
        self.pos_perm  # validates first: an entry beyond N - 1 raises as such
        cells = self.zero_cells()
        first = next(cells, None)
        if first is None:
            return iter(())
        return _cell_blocks(self.ordering, chain((first,), cells), items)


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

    Decided by one Fulkerson family (Fulkerson-Chen-Anstee): balanced
    totals and no negative out-major slack.  Entries beyond N - 1 are
    unrealizable and simply yield False; negative entries raise.
    """
    return Analysis(seq).digraphic


def digraph_splittance(seq: IntegerPairSequence) -> int:
    """Minimum arc edits taking any realization to a split digraph.

    Equals the matrix minimum over all cells except the trivial corners
    (0, N) and (N, 0), and is computed as the smallest row minimum over
    those cells.  The empty sequence is assigned splittance 0.

    Raises:
        NotDigraphicError: the sequence is not digraphic.
    """
    return Analysis(seq).splittance


def is_split_sequence(seq: IntegerPairSequence) -> bool:
    """True when every realization of the (digraphic) sequence is split.

    Recognized through the row minima: the smallest must be zero.  The
    empty sequence and the one digraphic sequence with N = 1 are split.

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
