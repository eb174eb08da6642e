"""Brute-force ground truth for desk-scale instances.

Everything here trades time for certainty: partitions are enumerated
exhaustively, realizations are found by backtracking, and splittance is
recomputed as a literal edit-distance search.  The package keeps these
three searches because ``--oracle`` runs them; the fast library paths are
validated against them over every small instance.  Digraph enumeration and
the literal quadratic references for the fast paths are test code, in
``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count, product
from typing import Iterable, Iterator

from .digraphs import Arc, Digraph
from .errors import BudgetExceededError, OutOfRangeError
from .sequences import IntegerPairSequence, validate
from .splittance import QuadPartition, _measure


@dataclass(frozen=True)
class EnumerationBudget:
    """The largest vertex count any exhaustive search takes.

    It caps the three searches ``--oracle`` runs alike: the backtracking
    realization search, the 4^N partition sweep and the edit-distance
    search, as well as the digraph enumeration of ``tests/helpers.py``.
    The sweep also refuses more than 2^``MAX_ARC_SLOTS`` partitions
    (N > 10), and the edit search, which ranges over all 2^(n(n-1))
    digraphs on n vertices, more than 2^``MAX_ARC_SLOTS`` digraphs (n > 5),
    whatever the budget; so does the enumeration.  These searches check
    their budget before they allocate anything.  The
    realization search, whose length the vertex count does not bound, gives
    up during the search, after 2^``MAX_ARC_SLOTS`` placements.
    """

    max_vertices: int = 8


DEFAULT_BUDGET = EnumerationBudget()

# Digraphs on n vertices are the subsets of their n(n-1) arc slots; a search
# over all of them stops at 2^20 (one byte each in the edit search's table),
# and so do the sweep over the 4^N = 2^(2N) quad partitions and the
# realization search's placements.
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


def _arc_slots(n: int) -> list[Arc]:
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def _pairs(sources: frozenset[int], targets: frozenset[int]) -> Iterator[Arc]:
    """Every arc from ``sources`` into ``targets``, loops left out."""
    return ((u, v) for u in sources for v in targets if u != v)


def _slot_index(n: int) -> dict[Arc, int]:
    return {arc: i for i, arc in enumerate(_arc_slots(n))}


def _slot_mask(index: dict[Arc, int], arcs: Iterable[Arc]) -> int:
    """The mask of the distinct ``arcs``: bit ``index[arc]`` for each."""
    return sum(1 << index[arc] for arc in arcs)


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


@lru_cache(maxsize=4)
def _split_membership(n: int) -> bytearray:
    """Byte table over all arc masks: 1 when the digraph has a non-trivial
    split partition, checked structurally against the two arc families.
    Callers stay within ``MAX_ARC_SLOTS``, so a cached table is at most 1 MiB."""
    index = _slot_index(n)
    full = (1 << len(index)) - 1
    table = bytearray(1 << len(index))
    for part in _quad_partitions(n):
        forced = _slot_mask(index, _pairs(part.pm | part.plus, part.pm | part.minus))
        forbidden = _slot_mask(
            index, _pairs(part.minus | part.zero, part.plus | part.zero)
        )
        free = full & ~(forced | forbidden)
        sub = free
        while True:
            table[forced | sub] = 1
            if sub == 0:
                break
            sub = (sub - 1) & free
    return table


def brute_splittance(g: Digraph, budget: EnumerationBudget = DEFAULT_BUDGET) -> int:
    """Exact minimum arc-edit distance from ``g`` to any split digraph.

    Iterative deepening over the edit count; at depth r every set of r arc
    toggles is tried against a memoized structural split test.

    Raises:
        BudgetExceededError: n exceeds ``budget.max_vertices`` or has more
            than 2^``MAX_ARC_SLOTS`` digraphs (n > 5).
    """
    n = g.n
    _require(n, budget, "edit-distance search", n * (n - 1), "digraphs")
    if n == 0:
        return 0
    table = _split_membership(n)
    mask = _slot_mask(_slot_index(n), g.arcs)
    if table[mask]:
        return 0
    slot_bits = [1 << i for i in range(n * (n - 1))]
    for depth in range(1, len(slot_bits) + 1):
        for combo in combinations(slot_bits, depth):
            if table[mask ^ sum(combo)]:
                return depth
    raise RuntimeError("no split digraph reachable; this cannot happen")

