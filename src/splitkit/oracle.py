"""Brute-force ground truth for desk-scale instances.

Everything here trades time for certainty: partitions are enumerated
exhaustively and realizations are found by backtracking.  Splittance is
recomputed twice from the definition alone, by a sweep over every quad
partition: on the degree sequence, and as an edit distance on the
concrete digraph, where each partition costs the arcs that its two
families want changed.  The package keeps these three searches because
``--oracle`` runs them; the fast library paths are validated against them
over every small instance.  Digraph enumeration, the literal edit search
over every digraph that the edit-distance sweep is checked against, and
the literal quadratic references for the fast paths are test code, in
``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count, product
from typing import Iterator

from .digraphs import Digraph
from .errors import BudgetExceededError, OutOfRangeError
from .sequences import IntegerPairSequence, validate
from .splittance import QuadPartition, _measure


@dataclass(frozen=True)
class EnumerationBudget:
    """The largest vertex count any exhaustive search takes.

    It caps the three searches ``--oracle`` runs alike: the backtracking
    realization search and the two sweeps over the 4^N quad partitions,
    on a degree sequence and on a digraph, as well as the digraph
    enumeration of ``tests/helpers.py``.  Both sweeps also refuse more than
    2^``MAX_ARC_SLOTS`` partitions (N > 10), whatever the budget, and the
    enumeration more than 2^``MAX_ARC_SLOTS`` digraphs (n > 5).  These
    searches check their budget before they allocate anything.  The
    realization search, whose length the vertex count does not bound, gives
    up during the search, after 2^``MAX_ARC_SLOTS`` placements.
    """

    max_vertices: int = 8


DEFAULT_BUDGET = EnumerationBudget()

# The sweeps over the 4^N = 2^(2N) quad partitions stop at 2^20 partitions,
# and so do the realization search's placements and the enumeration of the
# digraphs on n vertices, the subsets of their n(n-1) arc slots.
MAX_ARC_SLOTS = 20


def _require(
    n: int, budget: EnumerationBudget, search: str, bits: int = 0, things: str = ""
) -> None:
    """Raise ``BudgetExceededError`` unless ``search`` may run on n vertices
    and its 2^``bits`` ``things`` are at most 2^``MAX_ARC_SLOTS``."""
    if n > budget.max_vertices:
        raise BudgetExceededError(f"{search} capped at {budget.max_vertices} vertices")
    if bits > MAX_ARC_SLOTS:
        raise BudgetExceededError(
            f"{search} over the 2^{bits} {things} on {n} vertices "
            f"exceeds 2^{MAX_ARC_SLOTS}"
        )


def _quad_partitions(n: int) -> Iterator[QuadPartition]:
    """Every non-trivial assignment of n vertices to the four blocks, one at
    a time, so a sweep holds one partition in memory."""
    for roles in product(range(4), repeat=n):
        blocks: list[list[int]] = [[], [], [], []]
        for vertex, role in enumerate(roles):
            blocks[role].append(vertex)
        part = QuadPartition(n, *blocks)
        if part.non_trivial:
            yield part


def brute_min_partition_measure(
    seq: IntegerPairSequence, budget: EnumerationBudget = DEFAULT_BUDGET
) -> int:
    """Minimum measure over all non-trivial partitions, by full 4^N sweep.

    The degenerate empty sequence has no non-trivial partitions and is
    assigned 0, matching the convention of the fast path.

    Raises:
        BudgetExceededError: N exceeds ``budget.max_vertices``, or 10, above
            which the sweep would pass 2^``MAX_ARC_SLOTS`` partitions.
    """
    _require(seq.n, budget, "partition sweep", 2 * seq.n, "partitions")
    validate(seq)
    return min(
        (_measure(seq, part) for part in _quad_partitions(seq.n)),
        default=0,
    )


def brute_realize(
    seq: IntegerPairSequence, budget: EnumerationBudget = DEFAULT_BUDGET
) -> Digraph | None:
    """Find any simple loopless digraph with the given degree sequence.

    Backtracking over out-neighborhoods, one vertex at a time, pruned by
    remaining in-capacity.  Returns None when no realization exists,
    including for entries beyond N - 1.

    Raises:
        BudgetExceededError: N exceeds ``budget.max_vertices``, or the search
            passes 2^``MAX_ARC_SLOTS`` placements (combinations tried).
    """
    n = seq.n
    _require(n, budget, "realization search")
    try:
        validate(seq)
    except OutOfRangeError:
        return None
    if seq.sum_out != seq.sum_in:
        return None

    # Place high out-degree vertices first; their target choices are tightest.
    order = sorted(range(n), key=lambda i: (-seq.pairs[i][0], i))
    outs, in_cap = seq.out_degrees, list(seq.in_degrees)
    placements = count()
    # An explicit stack, which the recursion limit does not bound: for each
    # placed vertex order[i], the target sets it has yet to try and the one
    # it is trying.
    untried: list[Iterator[tuple[int, ...]]] = []
    chosen: list[tuple[int, ...]] = []
    while True:
        # A vertex can still receive at most one arc from each unplaced
        # source other than itself, so none once every vertex is placed.
        placed = len(untried)
        if all(in_cap[v] <= n - placed - (i >= placed) for i, v in enumerate(order)):
            if placed == n:
                return Digraph(n, ((u, v) for u, t in zip(order, chosen) for v in t))
            u = order[placed]
            candidates = [v for v in range(n) if v != u and in_cap[v] > 0]
            untried.append(combinations(candidates, outs[u]))
        # The innermost vertex takes back the set it is trying and tries
        # its next; a vertex with none left is unplaced for its parent.
        while untried:
            if len(chosen) == len(untried):
                for v in chosen.pop():
                    in_cap[v] += 1
            if (picked := next(untried[-1], None)) is not None:
                break
            untried.pop()
        else:
            return None
        if next(placements) == 1 << MAX_ARC_SLOTS:
            raise BudgetExceededError(
                f"realization search on {n} vertices "
                f"passed 2^{MAX_ARC_SLOTS} placements"
            )
        for v in picked:
            in_cap[v] -= 1
        chosen.append(picked)


@lru_cache(maxsize=1)
def _partition_masks(n: int) -> tuple[tuple[int, int], ...]:
    """For each non-trivial quad partition of n vertices, the masks of its
    forced sender-to-receiver arcs and its forbidden silenced-to-protected
    arcs, arc (u, v) at bit u * n + v, loops left out.  Callers stay within
    ``MAX_ARC_SLOTS``; the cache holds one n, 8 MiB at n = 8."""
    loops = sum(1 << (u * (n + 1)) for u in range(n))

    def arcs(sources: frozenset[int], targets: frozenset[int]) -> int:
        row = sum(1 << v for v in targets)
        return sum(row << (u * n) for u in sources) & ~loops

    return tuple(
        (
            arcs(part.pm | part.plus, part.pm | part.minus),
            arcs(part.minus | part.zero, part.plus | part.zero),
        )
        for part in _quad_partitions(n)
    )


def brute_splittance(g: Digraph, budget: EnumerationBudget = DEFAULT_BUDGET) -> int:
    """Exact minimum arc-edit distance from ``g`` to any split digraph.

    A full sweep over the non-trivial quad partitions: making a partition
    hold takes adding each forced arc ``g`` lacks and removing each
    forbidden arc it has, and no fewer edits.  The graph on no vertices has
    no non-trivial partition and is assigned 0.

    Raises:
        BudgetExceededError: n exceeds ``budget.max_vertices``, or 10, above
            which the sweep would pass 2^``MAX_ARC_SLOTS`` partitions.
    """
    n = g.n
    _require(n, budget, "edit-distance sweep", 2 * n, "partitions")
    arcs = sum(row << (u * n) for u, row in g.succ.items())
    return min(
        (
            (forced & ~arcs).bit_count() + (forbidden & arcs).bit_count()
            for forced, forbidden in _partition_masks(n)
        ),
        default=0,
    )
