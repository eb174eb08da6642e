"""Split-partition measures and the splittance matrix for digraphs.

A quad partition sorts the vertices into four blocks: a mutual clique
(``pm``), an out-dominating block (``plus``) whose members send arcs to the
whole receiving side, an in-dominated block (``minus``), and an independent
block (``zero``).  The measure of a partition counts exactly how many arc
edits a digraph with the given degree sequence needs before the partition
satisfies all block constraints.  Tabulating the measure over every
partition induced by the two degree orderings yields the splittance matrix,
whose minimum away from two trivial corner cells is the digraph splittance.
The public functions are views over one ``Analysis`` of their sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import NotDigraphicError, OutOfRangeError, UnbalancedSequenceError
from .sequences import (
    IntegerPairSequence,
    ProperOrdering,
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
        object.__setattr__(self, "n", int(n))
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
    pairs = seq.pairs
    return (
        len(part.pm) * (k - 1)
        + len(part.minus) * k
        + sum(pairs[x][1] for x in part.plus | part.zero)
        - sum(pairs[x][0] for x in part.pm | part.plus)
    )


def _measure_in(seq: IntegerPairSequence, part: QuadPartition) -> int:
    # in-form: same count written from the receiving side.
    l = part.l
    pairs = seq.pairs
    return (
        len(part.pm) * (l - 1)
        + len(part.plus) * l
        + sum(pairs[x][0] for x in part.minus | part.zero)
        - sum(pairs[x][1] for x in part.pm | part.minus)
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
        zero=frozenset(range(n)) - top_out - top_in,
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

    def cells(self):
        """Iterate (k, l, value) in row-major order."""
        for k, row in enumerate(self.entries):
            for l, value in enumerate(row):
                yield k, l, value

    def nontrivial_cells(self):
        """Row-major (k, l, value) skipping the two trivial corners (0, N), (N, 0)."""
        n = self.n
        for k, l, value in self.cells():
            if (k, l) == (0, n) or (k, l) == (n, 0):
                continue
            yield k, l, value


def _splittance_matrix(
    seq: IntegerPairSequence, ordering: ProperOrdering
) -> SplittanceMatrix:
    n = seq.n
    pos_pairs = reorder(seq, ordering.pos_perm)
    neg_pairs = reorder(seq, ordering.neg_perm)

    pos_out_prefix = [0] * (n + 1)
    for i, (out_deg, _) in enumerate(pos_pairs):
        pos_out_prefix[i + 1] = pos_out_prefix[i] + out_deg
    neg_in_prefix = [0] * (n + 1)
    for j, (_, in_deg) in enumerate(neg_pairs):
        neg_in_prefix[j + 1] = neg_in_prefix[j] + in_deg
    total_in = neg_in_prefix[n]

    neg_rank = ordering.neg_rank
    overlap = [0] * (n + 1)  # overlap[l] = |top-k pos prefix  ∩  top-l neg prefix|
    rows = []
    for k in range(n + 1):
        if k > 0:
            threshold = neg_rank[ordering.pos_perm[k - 1]] + 1
            for l in range(threshold, n + 1):
                overlap[l] += 1
        row = tuple(
            k * l - overlap[l] + (total_in - neg_in_prefix[l]) - pos_out_prefix[k]
            for l in range(n + 1)
        )
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


def _maximal_sequences(
    seq: IntegerPairSequence, ordering: ProperOrdering
) -> MaximalSequences:
    n = seq.n
    m_under = []
    for k in range(n + 1):
        top_out = ordering.pos_prefix(k)
        best = 0
        for j in range(n, 0, -1):
            origin = ordering.neg_perm[j - 1]
            in_deg = seq.pairs[origin][1]
            if in_deg > k - 1 or (in_deg == k - 1 and origin in top_out):
                best = j
                break
        m_under.append(best)

    m_bar = []
    for l in range(n + 1):
        top_in = ordering.neg_prefix(l)
        best = 0
        for i in range(n, 0, -1):
            origin = ordering.pos_perm[i - 1]
            out_deg = seq.pairs[origin][0]
            if out_deg > l - 1 or (out_deg == l - 1 and origin in top_in):
                best = i
                break
        m_bar.append(best)

    return MaximalSequences(tuple(m_bar), tuple(m_under))


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
    n = seq.n
    pos_pairs = reorder(seq, ordering.pos_perm)
    neg_pairs = reorder(seq, ordering.neg_perm)

    s_bar = []
    for k in range(n + 1):
        head = sum(min(pos_pairs[i][1], k - 1) for i in range(k))
        tail = sum(min(pos_pairs[i][1], k) for i in range(k, n))
        demand = sum(pos_pairs[i][0] for i in range(k))
        s_bar.append(head + tail - demand)

    s_under = []
    for k in range(n + 1):
        head = sum(min(neg_pairs[i][0], k - 1) for i in range(k))
        tail = sum(min(neg_pairs[i][0], k) for i in range(k, n))
        demand = sum(neg_pairs[i][1] for i in range(k))
        s_under.append(head + tail - demand)

    return SlackPair(tuple(s_bar), tuple(s_under))


class Analysis:
    """What the library derives from one pair sequence, each part at most once.

    Every part is computed on first use and cached on the object; the public
    functions below build a new analysis per call, so nothing is kept
    between calls.  Computing the ordering validates the sequence, which
    every other part needs first.
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
        return _maximal_sequences(self.seq, self.ordering)

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
    def split(self) -> bool:
        self._require_digraphic()
        n = self.seq.n
        return n < 2 or min(self.slack.s_bar[1:n] + self.slack.s_under[1:n]) == 0

    @cached_property
    def best_cell(self) -> tuple[int, int]:
        """Row-major first cell away from the trivial corners (0, N) and
        (N, 0) that holds the matrix minimum; needs N >= 1."""
        n = self.seq.n
        best = None
        for k, row in enumerate(self.matrix.entries):
            lo, hi = (1 if k == n else 0), (n if k == 0 else n + 1)
            value = min(row[lo:hi])
            if best is None or value < best[2]:
                best = (k, row.index(value, lo, hi), value)
        return best[0], best[1]

    @cached_property
    def splittance(self) -> int:
        self._require_digraphic()
        if self.seq.n == 0:
            return 0
        return self.matrix[self.best_cell]

    @cached_property
    def partitions(self) -> list[QuadPartition]:
        self._require_digraphic()
        if self.seq.n == 0:
            return [QuadPartition(0)]
        return [
            induced_partition(self.seq, self.ordering, k, l)
            for k, l, value in self.matrix.nontrivial_cells()
            if value == 0
        ]


def splittance_matrix(seq: IntegerPairSequence) -> SplittanceMatrix:
    """Compute the full matrix in O(N^2) via prefix sums.

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
    (0, N) and (N, 0).  The empty sequence is assigned splittance 0.

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
