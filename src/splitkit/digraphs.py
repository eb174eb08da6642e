"""Labeled simple digraphs: degree extraction, partition checks, arc repair.

The block constraints of a quad partition are two arc families: every arc
from the sending side ``pm | plus`` to the receiving side ``pm | minus``
must be present (loops excepted), and no arc may run from ``minus | zero``
into ``plus | zero``.  Everything else is unconstrained.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import eq, index, itemgetter
from typing import Iterable

from .sequences import IntegerPairSequence, lazy, within
from .splittance import Analysis, QuadPartition, induced_partition

Arc = tuple[int, int]

# Maps the digits of format(mask, "b") to bytes that are false for "0".
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> Iterable[int]:
    """Positions of the set bits of a non-negative ``mask``, ascending."""
    flags = format(mask, "b").encode().translate(_BIT_BYTES)[::-1]
    return compress(range(len(flags)), flags)


def _arcs(rows: Iterable[tuple[int, int]]) -> list[Arc]:
    """The arc u -> v for every set bit v of each ``(u, mask)`` row."""
    return [(u, v) for u, mask in rows if mask for v in _bits(mask)]


def _mask(vertices: Iterable[int]) -> int:
    return sum(map((1).__lshift__, vertices))


@dataclass(frozen=True)
class Digraph:
    """A simple loopless digraph on vertices 0..n-1; arc (u, v) points u -> v.

    The store is one out-neighbour bitset per vertex that has out-arcs (bit
    v of ``succ[u]`` is set when u -> v) and the in-degree of every vertex
    that has in-arcs (``indegree``); nothing is kept for other vertices.
    ``arcs``, the frozenset of (u, v) tuples, is built on first use.
    """

    n: int
    succ: dict[int, int]
    indegree: Counter[int]

    def __init__(self, n: int, arcs: Iterable[Iterable[int]] = ()):
        pairs = list(dict.fromkeys((index(u), index(v)) for u, v in arcs))
        self._fill(n, list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs)))

    @classmethod
    def from_lists(cls, n: int, sources: list[int], targets: list[int]) -> Digraph:
        """The digraph with arcs ``sources[i] -> targets[i]``.

        Raises:
            ValueError: the first of these faults: n is negative, the lists
                differ in length, an arc is a loop, a label lies outside
                [0, n), or an arc repeats.
        """
        g = cls.__new__(cls)
        g._fill(n, sources, targets)
        return g

    def _fill(self, n: int, sources: list[int], targets: list[int]) -> None:
        # The one build and the one check of every arc list.  Labels are
        # checked on their distinct values, the keys of ``indegree`` and then
        # of ``succ``, so the checks cost O(N) beyond the loop test; every
        # target is checked before it becomes a shift count.
        n = index(n)
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        if len(sources) != len(targets):
            raise ValueError(f"{len(sources)} sources but {len(targets)} targets")
        if any(map(eq, sources, targets)):
            u = next(u for u, v in zip(sources, targets) if u == v)
            raise ValueError(f"loop at vertex {u} not allowed")
        indegree = Counter(targets)
        succ: dict[int, int] = {}
        targets_in_range = within(indegree, n)
        if targets_in_range:
            get = succ.get
            for u, v in zip(sources, targets):
                succ[u] = get(u, 0) | 1 << v
            sum(map(index, succ))  # a source such as 1.5 raises TypeError
        if not (targets_in_range and within(succ, n)):
            u, v = next(
                (u, v) for u, v in zip(sources, targets)
                if not (0 <= u < n and 0 <= v < n)
            )
            raise ValueError(f"arc ({u}, {v}) outside vertex range [0, {n})")
        distinct = sum(map(int.bit_count, succ.values()))
        if distinct != len(sources):
            raise ValueError(f"{len(sources)} arcs given, {distinct} distinct")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "succ", succ)
        object.__setattr__(self, "indegree", indegree)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.succ.items())))

    @lazy
    def arcs(self) -> frozenset[Arc]:
        return frozenset(_arcs(self.succ.items()))

    def has_arc(self, u: int, v: int) -> bool:
        return v >= 0 and self.succ.get(u, 0) >> v & 1 == 1

    def apply(self, edits: "EditSet") -> "Digraph":
        """New digraph with the additions inserted and the removals deleted."""
        if edits.add & self.arcs:
            raise ValueError("additions overlap existing arcs")
        if not edits.remove <= self.arcs:
            raise ValueError("removals include absent arcs")
        return Digraph(self.n, (self.arcs - edits.remove) | edits.add)


@dataclass(frozen=True)
class EditSet:
    """An arc repair: ``add`` must be absent from the graph, ``remove`` present."""

    add: frozenset[Arc]
    remove: frozenset[Arc]

    def __init__(self, add: Iterable[Arc] = (), remove: Iterable[Arc] = ()):
        add_set = frozenset((index(u), index(v)) for u, v in add)
        remove_set = frozenset((index(u), index(v)) for u, v in remove)
        if add_set & remove_set:
            raise ValueError("an arc cannot be both added and removed")
        object.__setattr__(self, "add", add_set)
        object.__setattr__(self, "remove", remove_set)

    @property
    def size(self) -> int:
        return len(self.add) + len(self.remove)


def degree_sequence(g: Digraph) -> IntegerPairSequence:
    """Per-vertex (out-degree, in-degree) pairs."""
    outs = [0] * g.n
    for u, mask in g.succ.items():
        outs[u] = mask.bit_count()
    ins = [0] * g.n
    for v, count in g.indegree.items():
        ins[v] = count
    return IntegerPairSequence(zip(outs, ins))


def verify_split_partition(g: Digraph, part: QuadPartition) -> bool:
    """True when ``part`` is non-trivial and both arc families hold in ``g``."""
    edits = edit_set(g, part)
    return part.non_trivial and edits.size == 0


def edit_set(g: Digraph, part: QuadPartition) -> EditSet:
    """Minimal arc edits making ``part`` satisfy both block constraint families.

    Adds every missing sender-to-receiver arc and removes every present arc
    from ``minus | zero`` into ``plus | zero``; the total count equals the
    partition measure of the graph's degree sequence.  Each sender and each
    silenced vertex costs one bitset operation, plus the edits written.
    """
    if part.n != g.n:
        raise ValueError(f"partition covers {part.n} vertices, digraph has {g.n}")
    succ = g.succ
    receivers = _mask(part.pm | part.minus)
    add = _arcs(
        (u, receivers & ~succ.get(u, 0) & ~(1 << u)) for u in part.pm | part.plus
    )
    protected = _mask(part.plus | part.zero)
    remove = _arcs(
        (u, succ[u] & protected) for u in part.minus | part.zero if u in succ
    )
    return EditSet(add, remove)


def repair(g: Digraph) -> tuple[EditSet, QuadPartition]:
    """Cheapest arc repair turning ``g`` into a split digraph.

    Takes the row-major first cell of the splittance matrix of the degree
    sequence that holds its minimum away from the trivial corners, found
    from the row minima without building the matrix, induces that
    partition, and returns its edit set; the edit count equals the digraph
    splittance.
    """
    if g.n == 0:
        return EditSet(), QuadPartition(0)
    analysis = Analysis(degree_sequence(g))
    part = induced_partition(analysis.seq, analysis.ordering, *analysis.best_cell)
    return edit_set(g, part), part
