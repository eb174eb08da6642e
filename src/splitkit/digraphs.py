"""Labeled simple digraphs: degree extraction, partition checks, arc repair.

The block constraints of a quad partition are two arc families: every arc
from the sending side ``pm | plus`` to the receiving side ``pm | minus``
must be present (loops excepted), and no arc may run from ``minus | zero``
into ``plus | zero``.  Everything else is unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .sequences import IntegerPairSequence
from .splittance import Analysis, QuadPartition, induced_partition

Arc = tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """A simple loopless digraph on vertices 0..n-1; arc (u, v) points u -> v."""

    n: int
    arcs: frozenset[Arc]

    def __init__(self, n: int, arcs: Iterable[Iterable[int]] = ()):
        n = int(n)
        arc_set = frozenset((int(u), int(v)) for u, v in arcs)
        for u, v in arc_set:
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) outside vertex range [0, {n})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arc_set)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

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
        add_set = frozenset((int(u), int(v)) for u, v in add)
        remove_set = frozenset((int(u), int(v)) for u, v in remove)
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
    ins = [0] * g.n
    for u, v in g.arcs:
        outs[u] += 1
        ins[v] += 1
    return IntegerPairSequence(zip(outs, ins))


def verify_split_partition(g: Digraph, part: QuadPartition) -> bool:
    """True when ``part`` is non-trivial and both arc families hold in ``g``."""
    if part.n != g.n:
        raise ValueError(f"partition covers {part.n} vertices, digraph has {g.n}")
    if not part.non_trivial:
        return False
    senders = part.pm | part.plus
    receivers = part.pm | part.minus
    for u in senders:
        for v in receivers:
            if u != v and (u, v) not in g.arcs:
                return False
    silenced = part.minus | part.zero
    protected = part.plus | part.zero
    for u, v in g.arcs:
        if u in silenced and v in protected:
            return False
    return True


def edit_set(g: Digraph, part: QuadPartition) -> EditSet:
    """Minimal arc edits making ``part`` satisfy both block constraint families.

    Adds every missing sender-to-receiver arc and removes every present arc
    from ``minus | zero`` into ``plus | zero``; the total count equals the
    partition measure of the graph's degree sequence.
    """
    if part.n != g.n:
        raise ValueError(f"partition covers {part.n} vertices, digraph has {g.n}")
    senders = part.pm | part.plus
    receivers = part.pm | part.minus
    add = frozenset(
        (u, v)
        for u in senders
        for v in receivers
        if u != v and (u, v) not in g.arcs
    )
    silenced = part.minus | part.zero
    protected = part.plus | part.zero
    remove = frozenset(
        (u, v) for u, v in g.arcs if u in silenced and v in protected
    )
    return EditSet(add, remove)


def repair(g: Digraph) -> tuple[EditSet, QuadPartition]:
    """Cheapest arc repair turning ``g`` into a split digraph.

    Takes the row-major first cell of the splittance matrix of the degree
    sequence that holds its minimum away from the trivial corners, found
    from the slacks and one matrix row without building the matrix, induces
    that partition, and returns its edit set; the edit count equals the
    digraph splittance.
    """
    if g.n == 0:
        return EditSet(), QuadPartition(0)
    analysis = Analysis(degree_sequence(g))
    part = induced_partition(analysis.seq, analysis.ordering, *analysis.best_cell)
    return edit_set(g, part), part
