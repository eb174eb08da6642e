"""Labeled simple digraphs: degree extraction, partition checks, arc repair.

The block constraints of a quad partition are two arc families: every arc
from the sending side ``pm | plus`` to the receiving side ``pm | minus``
must be present (loops excepted), and no arc may run from ``minus | zero``
into ``plus | zero``.  Everything else is unconstrained.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, index, itemgetter, setitem
from typing import Collection, Iterable, Iterator

from .sequences import IntegerPairSequence, lazy, within
from .splittance import Analysis, QuadPartition, induced_partition

Arc = tuple[int, int]
ArcFault = tuple[str, int, int]  # "range", "loop" or "repeat", and the arc
# The distinct sources and the distinct targets of an arc list, each in
# the order first seen: the sources as a dict of zeros, which the build
# fills in as its rows, and the targets as a Counter of them, which is
# their in-degrees, or as a collection, whose in-degrees the build counts.
Orders = tuple[dict[int, int], Collection[int]]

# Maps the digits of format(mask, "b") to bytes that are false for "0",
# and back.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_BYTE_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _bits(mask: int) -> Iterable[int]:
    """Positions of the set bits of a non-negative ``mask``, ascending."""
    flags = format(mask, "b").encode().translate(_BIT_BYTES)[::-1]
    return compress(range(len(flags)), flags)


def _arcs(rows: Iterable[tuple[int, int]]) -> list[Arc]:
    """The arc u -> v for every set bit v of each ``(u, mask)`` row."""
    return [(u, v) for u, mask in rows if mask for v in _bits(mask)]


def _flags_int(flags: bytearray) -> int:
    """The int with bit v set where ``flags[v]`` is 1; every byte is 0 or 1."""
    return int(flags[::-1].translate(_BYTE_BITS) or b"0", 2)


def _byte_sums(rows: list[bytearray], n: int, columns: Collection[int]) -> Counter[int]:
    """Each v in ``columns``, in order, counted once for each of ``rows``
    (each n bytes of 0 or 1) with byte v set: the rows are added as ints in
    byte lanes, up to 255 at a time so that no lane carries."""
    sums = [0] * len(columns)
    for start in range(0, len(rows), 255):
        lanes = sum(map(int.from_bytes, rows[start:start + 255], repeat("big"))).to_bytes(n, "big")
        sums = list(map(add, sums, map(lanes.__getitem__, columns)))
    return Counter(dict(zip(columns, sums)))


def _mask(n: int, vertices: Iterable[int]) -> int:
    """The int with bit v set for each v in ``vertices``, all in [0, n)."""
    flags = bytearray(n)
    for v in vertices:
        flags[v] = 1
    return _flags_int(flags)


def _dense(n: int, arcs: int, sources: int) -> bool:
    """Whether ``arcs`` arcs from ``sources`` distinct sources on n vertices
    fill byte rows, at most 16 bytes an arc, rather than OR words.  Below
    17 vertices no source has 16 distinct arcs, so only a list with
    repeats, or with no arcs, passes there."""
    return arcs >= sources * max(16, n // 16)


def _vertex_count(n: int) -> int:
    n = index(n)
    if n < 0:
        raise ValueError(f"negative vertex count {n}")
    return n


def _arc_fault(n: int, sources: list[int], targets: list[int]) -> ArcFault | None:
    """The first arc in list order with a label outside [0, n), a loop or a
    repeat, as ``(kind, u, v)``, or None.  The arcs seen are marked at
    ``u * n + v``: in one ``bytearray(n * n)`` where ``_dense`` holds with
    every vertex a source, at most 16 bytes an arc as in the build's rows,
    else in a ``Counter``, O(M) as the lists are."""
    seen = bytearray(n * n) if _dense(n, len(sources), n) else Counter()
    for u, v in zip(sources, targets):
        if not (0 <= u < n and 0 <= v < n):
            return "range", u, v
        if u == v:
            return "loop", u, v
        key = u * n + v
        if seen[key]:
            return "repeat", u, v
        seen[key] = 1
    return None


def _raise_worded(n: int, fault: ArcFault | None) -> None:
    """Raise the ValueError that words an arc ``fault``, labels 0-based."""
    if fault is not None:
        kind, u, v = fault
        if kind == "range":
            raise ValueError(f"arc ({u}, {v}) outside vertex range [0, {n})")
        if kind == "loop":
            raise ValueError(f"loop at vertex {u} not allowed")
        raise ValueError(f"duplicate arc ({u}, {v})")


def _pair(arc: Iterable[int]) -> tuple[int, int]:
    """The two labels of ``arc``, or the ValueError that names it."""
    try:
        u, v = arc
    except (TypeError, ValueError):
        raise ValueError(f"arc {arc!r} is not a pair") from None
    return u, v


def _label_pairs(arcs: Iterable[Iterable[int]]) -> Iterator[Arc]:
    """Each arc as a pair of ints, in order: the ValueError of the first
    arc that is not a pair, else the TypeError of a label that is not an
    integer."""
    arcs = iter(arcs)
    for u, v in map(_pair, arcs):
        try:
            pair = index(u), index(v)
        except TypeError:
            deque(map(_pair, arcs), 0)  # a later arc that is not a pair comes first
            raise
        yield pair


@dataclass(frozen=True)
class Digraph:
    """A simple loopless digraph on vertices 0..n-1; arc (u, v) points u -> v.

    The store is one out-neighbour bitset per vertex that has out-arcs (bit
    v of ``succ[u]`` is set when u -> v), in the order the sources first
    appear, and the in-degree of every vertex that has in-arcs
    (``indegree``); nothing is kept for other vertices.  ``arcs``, the
    frozenset of (u, v) tuples, is built on first use.

    The build takes the distinct sources and the distinct targets, each in
    the order first seen, from its caller, and checks the label range on
    them alone.  The constructors find them by ``dict.fromkeys`` of the
    sources and ``Counter`` of the targets, which is also the in-degrees.
    The CLI's parse records them as it reads the two columns, and the build
    counts the in-degrees.  M arcs from S distinct sources are built one of
    two ways.  When M >= S * max(16, n // 16), each row is a
    ``bytearray(n)`` that one C-level scatter marks, and in-degrees not yet
    counted are read off the rows, added as ints in byte lanes:
    O(M + S * n) byte operations, at most 16 bytes an arc.  Otherwise each
    arc ORs ``1 << v`` into its row, and in-degrees not yet counted are the
    targets counted: O(M * n / w) word operations, w the machine word size.

    Both constructors raise faults in the order ``from_lists`` states,
    ``TypeError`` first, then the first faulty arc in list order; but
    ``Digraph(n, arcs)`` merges repeated arcs, and in place of the lengths
    of the lists raises the ValueError that names the first arc that is
    not a pair, after the faults of n and before those of the labels.
    """

    n: int
    succ: dict[int, int]
    indegree: Counter[int]

    def __init__(self, n: int, arcs: Iterable[Iterable[int]] = ()):
        n = _vertex_count(n)
        pairs = list(dict.fromkeys(_label_pairs(arcs)))
        sources, targets = list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs))
        _raise_worded(n, self._build(n, sources, targets))

    @classmethod
    def from_lists(cls, n: int, sources: list[int], targets: list[int]) -> Digraph:
        """The digraph with arcs ``sources[i] -> targets[i]``.

        Raises the first of these faults: n is not an integer (TypeError) or
        is negative, the lists differ in length; then ``TypeError`` first,
        for a label that is not an integer, then the first faulty arc in
        list order: the ValueError that names the first arc with a label
        outside [0, n), a loop or a repeat, checked in that order on each.
        """
        n = _vertex_count(n)
        if len(sources) != len(targets):
            raise ValueError(f"{len(sources)} sources but {len(targets)} targets")
        index(sum(sources))  # a source 2.0 after a 2 would share its row
        g = cls.__new__(cls)
        fault = g._build(n, sources, targets)
        if fault is not None:
            deque(map(index, chain(sources, targets)), 0)  # a TypeError comes first
            _raise_worded(n, fault)
        return g

    def _build(
        self, n: int, sources: list[int], targets: list[int], orders: Orders | None = None
    ) -> ArcFault | None:
        """Store the arcs of two lists of one length with int sources, given
        their ``orders`` (by default the constructors'), and return None; or
        for a list at fault return what ``_arc_fault`` finds."""
        succ, indegree = orders or (dict.fromkeys(sources, 0), Counter(targets))
        distinct = -1  # not counted: a label outside [0, n), or a loop
        if within(succ, n) and within(indegree, n):
            if _dense(n, len(sources), len(succ)):
                for u in succ:
                    succ[u] = bytearray(n)
                deque(map(setitem, map(succ.__getitem__, sources), targets, repeat(1)), 0)
                loop = any(row[u] for u, row in succ.items())
                if not isinstance(indegree, Counter):
                    indegree = _byte_sums(list(succ.values()), n, indegree)
                for u, row in succ.items():
                    succ[u] = _flags_int(row)
            else:
                if not isinstance(indegree, Counter):
                    indegree = Counter(targets)
                for u, v in zip(sources, targets):
                    succ[u] |= 1 << v
                loop = any(mask >> u & 1 for u, mask in succ.items())
            if not loop:
                distinct = sum(map(int.bit_count, succ.values()))
        if distinct != len(sources):
            fault = _arc_fault(n, sources, targets)
            if fault is None:
                raise AssertionError("the build refused arcs the walk accepts")
            return fault
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "succ", succ)
        object.__setattr__(self, "indegree", indegree)
        return None

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.succ.items())))

    @lazy
    def arcs(self) -> frozenset[Arc]:
        return frozenset(_arcs(self.succ.items()))

    def has_arc(self, u: int, v: int) -> bool:
        u, v = index(u), index(v)
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
    """An arc repair: ``add`` must be absent from the graph, ``remove`` present.

    Arcs are read as ``Digraph(n, arcs)`` reads them: the ValueError of an
    arc that is not a pair, the TypeError of a label that is not an integer.
    """

    add: frozenset[Arc]
    remove: frozenset[Arc]

    def __init__(self, add: Iterable[Arc] = (), remove: Iterable[Arc] = ()):
        add_set = frozenset(_label_pairs(add))
        remove_set = frozenset(_label_pairs(remove))
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
    receivers = _mask(g.n, part.pm | part.minus)
    add = _arcs(
        (u, receivers & ~succ.get(u, 0) & ~(1 << u)) for u in part.pm | part.plus
    )
    protected = _mask(g.n, part.plus | part.zero)
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
