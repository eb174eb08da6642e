"""Ground truth that ``--oracle`` checks the fast paths against.

Splittance is recomputed twice from the definition alone, by a sweep
that streams each quad partition as two vertex masks, its senders and
its receivers: on the degree sequence, and as an edit distance on the
concrete digraph, where a partition costs the arcs that its two families
want changed.  A realization is a maximum flow, with no ordering and no
slack.  The package keeps these three searches, which share no code with
the paths they check, because ``--oracle`` runs them.  Digraph
enumeration, the literal edit search over every digraph that the
edit-distance sweep is checked against, and the literal quadratic
references for the fast paths are test code, in ``tests/helpers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .digraphs import Digraph
from .errors import BudgetExceededError, OutOfRangeError, UnbalancedSequenceError
from .sequences import IntegerPairSequence, validate


@dataclass(frozen=True)
class EnumerationBudget:
    """The largest vertex count any exhaustive search takes.

    It caps the two sweeps over the 4^N quad partitions that ``--oracle``
    runs, on a degree sequence and on a digraph, and the digraph
    enumeration of ``tests/helpers.py``.  Both sweeps also refuse more than
    2^``MAX_ARC_SLOTS`` partitions (N > 10), whatever the budget, and the
    enumeration more than 2^``MAX_ARC_SLOTS`` digraphs (n > 5).  These
    searches check their budget before they allocate anything; the sweeps
    then hold one partition and tables of 2^N subset sums at a time.  The
    realization flow is polynomial and takes no budget.
    """

    max_vertices: int = 8


DEFAULT_BUDGET = EnumerationBudget()

# The sweeps over the 4^N = 2^(2N) quad partitions stop at 2^20 partitions,
# the enumeration of the digraphs on n vertices at 2^20 subsets of their
# n(n-1) arc slots, and the realization flow at 2^20 arc slots.
MAX_ARC_SLOTS = 20


def _require(n: int, budget: EnumerationBudget, search: str, bits: int, things: str) -> None:
    """Raise ``BudgetExceededError`` unless ``search`` may run on n vertices
    and its 2^``bits`` ``things`` are at most 2^``MAX_ARC_SLOTS``."""
    if n > budget.max_vertices:
        raise BudgetExceededError(f"{search} capped at {budget.max_vertices} vertices")
    if bits > MAX_ARC_SLOTS:
        raise BudgetExceededError(
            f"{search} over the 2^{bits} {things} on {n} vertices "
            f"exceeds 2^{MAX_ARC_SLOTS}"
        )


def _quad_partitions(n: int) -> Iterator[tuple[int, int]]:
    """Every non-trivial quad partition of n vertices as the n-bit masks of
    its senders ``pm | plus`` and its receivers ``pm | minus``, one pair at
    a time: all 4^n pairs but (full, 0), every vertex in ``plus``, and
    (0, full), every vertex in ``minus``."""
    full = (1 << n) - 1
    trivial = (full, 0), (0, full)
    return (pair for pair in product(range(full + 1), repeat=2) if pair not in trivial)


def _subset_sums(values: Iterable[int]) -> list[int]:
    """At index m, for each mask m over the n ``values``, the sum of the
    values at the set bits of m, vertex v at bit v."""
    sums = [0]
    for value in values:
        sums += [total + value for total in sums]
    return sums


def brute_min_partition_measure(
    seq: IntegerPairSequence, budget: EnumerationBudget = DEFAULT_BUDGET
) -> int:
    """Minimum measure over all non-trivial partitions, by full 4^N sweep.

    Senders S and receivers R, of sizes k and l, cost the matrix entry
    ``k * l - |S & R| + in(outside R) - out(S)``.  The degenerate empty
    sequence has no non-trivial partitions and is assigned 0, matching the
    convention of the fast path.

    Raises:
        BudgetExceededError: N exceeds ``budget.max_vertices``, or 10, above
            which the sweep would pass 2^``MAX_ARC_SLOTS`` partitions.
        UnbalancedSequenceError: total out- and in-degree differ.
    """
    _require(seq.n, budget, "partition sweep", 2 * seq.n, "partitions")
    validate(seq)
    if not seq.is_balanced:
        raise UnbalancedSequenceError(
            f"the sequence has out-degree total {seq.sum_out} "
            f"but in-degree total {seq.sum_in}"
        )
    full = (1 << seq.n) - 1
    outs, ins = _subset_sums(seq.out_degrees), _subset_sums(seq.in_degrees)
    return min(
        (
            s.bit_count() * r.bit_count() - (s & r).bit_count() + ins[full ^ r] - outs[s]
            for s, r in _quad_partitions(seq.n)
        ),
        default=0,
    )


def brute_realize(seq: IntegerPairSequence) -> Digraph | None:
    """Find any simple loopless digraph with the given degree sequence.

    A maximum flow from a source to each u_out (capacity the out-degree of
    u), along unit arcs u_out -> v_in for u != v, and from each v_in
    (capacity the in-degree of v) to a sink: the unit arcs of a flow that
    saturates the source are a realization.  Returns None when no
    realization exists, including for entries beyond N - 1.

    Raises:
        BudgetExceededError: the N(N - 1) unit arcs exceed 2^``MAX_ARC_SLOTS``
            (N > 1024), checked before anything else.
    """
    n = seq.n
    if n * (n - 1) > 1 << MAX_ARC_SLOTS:
        raise BudgetExceededError(
            f"realization flow over {n * (n - 1)} arcs on {n} vertices exceeds 2^{MAX_ARC_SLOTS}"
        )
    try:
        validate(seq)
    except OutOfRangeError:
        return None
    if not seq.is_balanced:
        return None
    # A unit on u_out -> v_in puts v in succ[u] and u in pred[v], the sets
    # sharing one int per vertex.  Each u in turn first sends its units to
    # the v with the most room left to the sink.
    room, succ, pred = list(seq.in_degrees), [set() for _ in range(n)], [set() for _ in range(n)]
    vertices = list(range(n))
    for u, d in enumerate(seq.out_degrees):
        others = [v for v in vertices if v != u and room[v]]
        for v in sorted(others, key=room.__getitem__, reverse=True)[:d]:
            room[v] -= 1
            succ[u].add(v)
            pred[v].add(u)
    for u, d in enumerate(seq.out_degrees):
        for _ in range(d - len(succ[u])):
            # Augment breadth first, the queue growing as it is read: v_in is
            # reached by an unused arc from parent[v], w_out by a used one from entry[w].
            fresh, parent, entry, queue = set(vertices), {}, {u: None}, [u]
            for w in queue:
                reached = fresh - succ[w] - {w}
                fresh -= reached
                parent.update(dict.fromkeys(reached, w))
                if ends := [v for v in reached if room[v]]:
                    break
                for v in reached:
                    behind = pred[v].difference(entry)
                    entry.update(dict.fromkeys(behind, v))
                    queue += behind
            else:
                return None  # what u reaches bounds a cut that no flow saturates
            v = ends[0]
            room[v] -= 1
            while v is not None:
                w = parent[v]
                succ[w].add(v)
                pred[v].add(w)
                v = entry[w]
                if v is not None:
                    succ[w].remove(v)
                    pred[v].remove(w)
    sources = [u for u, targets in enumerate(succ) for _ in targets]
    return Digraph.from_lists(n, sources, [v for targets in succ for v in targets])


def brute_splittance(g: Digraph, budget: EnumerationBudget = DEFAULT_BUDGET) -> int:
    """Exact minimum arc-edit distance from ``g`` to any split digraph.

    A full sweep over the non-trivial quad partitions: making a partition
    hold takes adding each forced sender-to-receiver arc ``g`` lacks and
    removing each forbidden arc it has, from outside the senders to outside
    the receivers, and no fewer edits.  The graph on no vertices has no
    non-trivial partition and is assigned 0.

    Raises:
        BudgetExceededError: n exceeds ``budget.max_vertices``, or 10, above
            which the sweep would pass 2^``MAX_ARC_SLOTS`` partitions.
    """
    n = g.n
    _require(n, budget, "edit-distance sweep", 2 * n, "partitions")
    # Arc (u, v) at bit u * n + v: the slots out of each set of sources, and
    # into each set of targets from other vertices.
    rows = _subset_sums(((1 << n) - 1) << (u * n) for u in range(n))
    cols = _subset_sums(sum(1 << (u * n + v) for u in range(n) if u != v) for v in range(n))
    arcs = sum(row << (u * n) for u, row in g.succ.items())
    absent = ~arcs
    return min(
        (
            (rows[s] & cols[r] & absent).bit_count()
            + (arcs & ~(rows[s] | cols[r])).bit_count()
            for s, r in _quad_partitions(n)
        ),
        default=0,
    )
