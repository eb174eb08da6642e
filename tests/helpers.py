"""Shared generators and miniature oracles for the test suite."""

from __future__ import annotations

import ast
import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import splitkit
from splitkit import (
    Digraph,
    EditSet,
    IntegerPairSequence,
    NegativeDegreeError,
    OutOfRangeError,
    QuadPartition,
    SplittanceMatrix,
    oracle,
)
from splitkit.sequences import ProperOrdering, proper_order, reorder
from splitkit.splittance import MaximalSequences, SlackPair, _measure_out


def child_env() -> dict[str, str]:
    """The environment for a child process that imports the splitkit this
    suite imported, whatever the working directory and whatever else is
    installed."""
    package_root = str(Path(splitkit.__file__).resolve().parents[1])
    pythonpath = [package_root, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}


def traced_peaks(prelude: str, calls: list[str]) -> list[tuple]:
    """Run ``prelude`` in a new interpreter that has imported ``sys``, then
    each expression of ``calls`` under ``tracemalloc``: for each call, its
    value (a literal) and the peak of memory traced while it ran, in bytes.
    A new interpreter, so that nothing an earlier test left in memory hides
    what a call allocates; each value is printed to ``sys.__stdout__``, so
    a call may replace ``sys.stdout``."""
    code = (
        "import sys, tracemalloc\n"
        + prelude
        + "for call in sys.argv[1:]:\n"
        "    tracemalloc.start()\n"
        "    value = eval(call)\n"
        "    peak = tracemalloc.get_traced_memory()[1]\n"
        "    tracemalloc.stop()\n"
        "    print(repr((value, peak)), file=sys.__stdout__)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *calls],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    return [ast.literal_eval(line) for line in result.stdout.splitlines()]


# The order spec that proper_order's sort keys implement.
def compare_pos(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Three-way comparator for the out-major non-increasing order.

    Returns a negative value when ``a`` precedes ``b`` (larger out-degree,
    in-degree breaking ties), positive when it follows, zero when equal.
    """
    if a[0] != b[0]:
        return -1 if a[0] > b[0] else 1
    if a[1] != b[1]:
        return -1 if a[1] > b[1] else 1
    return 0


def compare_neg(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Three-way comparator for the in-major non-increasing order.

    Same contract as :func:`compare_pos` with the coordinates swapped:
    in-degree decides first, out-degree breaks ties.
    """
    if a[1] != b[1]:
        return -1 if a[1] > b[1] else 1
    if a[0] != b[0]:
        return -1 if a[0] > b[0] else 1
    return 0


def proper_order_by_tuples(seq: IntegerPairSequence) -> ProperOrdering:
    """Both orderings by sorting on (-first, -second, index) tuples; the
    reference for the int-key sort of ``proper_order``."""
    pairs = seq.pairs
    indices = range(seq.n)
    pos = sorted(indices, key=lambda i: (-pairs[i][0], -pairs[i][1], i))
    neg = sorted(indices, key=lambda i: (-pairs[i][1], -pairs[i][0], i))
    return ProperOrdering(tuple(pos), tuple(neg))


def cells(matrix: SplittanceMatrix):
    """Iterate (k, l, value) in row-major order."""
    for k, row in enumerate(matrix.entries):
        for l, value in enumerate(row):
            yield k, l, value


def nontrivial_cells(matrix: SplittanceMatrix):
    """Row-major (k, l, value) skipping the two trivial corners (0, N), (N, 0)."""
    n = matrix.n
    for k, l, value in cells(matrix):
        if (k, l) != (0, n) and (k, l) != (n, 0):
            yield k, l, value


def nontrivial_partitions(n: int) -> tuple[QuadPartition, ...]:
    """Every non-trivial quad partition of n vertices."""
    return tuple(oracle._quad_partitions(n))


def enumerate_digraphs(
    n: int, budget: oracle.EnumerationBudget = oracle.DEFAULT_BUDGET
):
    """Every labeled simple loopless digraph on n vertices, each exactly once.

    Raises:
        BudgetExceededError: n exceeds ``budget.max_vertices`` or has more
            than 2^``oracle.MAX_ARC_SLOTS`` digraphs (n > 5); raised by the
            call, before anything is yielded.
    """
    oracle._require(n, budget, "exhaustive enumeration", n * (n - 1), "digraphs")
    slots = _arc_slots(n)
    return (
        Digraph(n, (slots[i] for i in range(len(slots)) if mask >> i & 1))
        for mask in range(1 << len(slots))
    )


def _arc_slots(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n) if u != v]


@lru_cache(maxsize=1)
def _split_membership(n: int) -> bytearray:
    """Byte table over all arc masks, arc ``_arc_slots(n)[i]`` at bit i: 1
    when the digraph has a non-trivial split partition, checked
    structurally against the two arc families.  Callers stay within
    ``oracle.MAX_ARC_SLOTS`` digraphs, so the table is at most 1 MiB."""
    slots = _arc_slots(n)
    table = bytearray(1 << len(slots))
    for part in nontrivial_partitions(n):
        senders, receivers = part.pm | part.plus, part.pm | part.minus
        silenced, protected = part.minus | part.zero, part.plus | part.zero
        forced = forbidden = 0
        for i, (u, v) in enumerate(slots):
            forced |= (u in senders and v in receivers) << i
            forbidden |= (u in silenced and v in protected) << i
        free = ((1 << len(slots)) - 1) & ~(forced | forbidden)
        sub = free
        while True:
            table[forced | sub] = 1
            if sub == 0:
                break
            sub = (sub - 1) & free
    return table


def splittance_by_edit_search(
    g: Digraph, budget: oracle.EnumerationBudget = oracle.DEFAULT_BUDGET
) -> int:
    """Exact minimum arc-edit distance from ``g`` to any split digraph, the
    literal way: iterative deepening over the edit count, where at depth r
    every set of r arc toggles is looked up in a table of every digraph on
    n vertices.  The reference for ``oracle.brute_splittance``.

    Raises:
        BudgetExceededError: n exceeds ``budget.max_vertices`` or has more
            than 2^``oracle.MAX_ARC_SLOTS`` digraphs (n > 5).
    """
    n = g.n
    oracle._require(n, budget, "edit-distance search", n * (n - 1), "digraphs")
    if n == 0:
        return 0
    table = _split_membership(n)
    slots = _arc_slots(n)
    mask = sum(1 << i for i, arc in enumerate(slots) if arc in g.arcs)
    slot_bits = [1 << i for i in range(len(slots))]
    for depth in range(len(slot_bits) + 1):
        for combo in combinations(slot_bits, depth):
            if table[mask ^ sum(combo)]:
                return depth
    raise AssertionError("no split digraph reachable")


def splittance_matrix_by_rows(seq: IntegerPairSequence) -> SplittanceMatrix:
    """Each row built alone by walking its columns, O(N^2); the reference
    for the row recurrence of ``splittance_matrix``."""
    ordering = proper_order(seq)
    outs, ins = seq.out_degrees, seq.in_degrees
    pos_rank = ordering.pos_rank
    rows = []
    for k in range(seq.n + 1):
        # Column 0 holds the in-degree mass less the out-degree of the
        # top-k out-major prefix; then the in-major entries join the
        # receiving side one at a time.
        value = seq.sum_in - sum(outs[i] for i in ordering.pos_perm[:k])
        row = [value]
        for j in ordering.neg_perm:
            # k new sender slots, less j's own loop slot when j sends, less
            # the in-degree of j, which the receiving side now covers.
            value += k - (pos_rank[j] < k) - ins[j]
            row.append(value)
        rows.append(tuple(row))
    return SplittanceMatrix(tuple(rows))


def induced_partition_by_prefixes(
    seq: IntegerPairSequence, ordering: ProperOrdering, k: int, l: int
) -> QuadPartition:
    """The partition of cell (k, l) in [0, N]^2 by set algebra on the two
    prefixes; the reference for the role walk of
    ``splittance.induced_partition``."""
    top_out = frozenset(ordering.pos_perm[:k])
    top_in = frozenset(ordering.neg_perm[:l])
    return QuadPartition(
        seq.n,
        pm=top_out & top_in,
        plus=top_out - top_in,
        minus=top_in - top_out,
        zero=frozenset(ordering.pos_perm[k:]).difference(top_in),
    )


def measure_in(seq: IntegerPairSequence, part: QuadPartition) -> int:
    """The partition measure written from the receiving side: the arcs
    demanded out of the sending side less those the receiving side takes
    in, plus what leaves from outside it.  It differs from the production
    out-form, ``splittance._measure_out``, by exactly ``sum_in - sum_out``."""
    l = part.l
    outs, ins = seq.out_degrees, seq.in_degrees
    return (
        len(part.pm) * (l - 1)
        + len(part.plus) * l
        + sum(outs[x] for x in part.minus | part.zero)
        - sum(ins[x] for x in part.pm | part.minus)
    )


def splittance_matrix_bruteforce(seq: IntegerPairSequence) -> SplittanceMatrix:
    """Literal per-cell evaluation; an independent check of the fast path."""
    ordering = proper_order(seq)
    n = seq.n
    rows = []
    for k in range(n + 1):
        row = tuple(
            _measure_out(seq, induced_partition_by_prefixes(seq, ordering, k, l))
            for l in range(n + 1)
        )
        rows.append(row)
    return SplittanceMatrix(tuple(rows))


def fulkerson_slack_quadratic(seq: IntegerPairSequence) -> SlackPair:
    """Both slack families summed literally, O(N^2); a check of the O(N) pass."""
    ordering = proper_order(seq)
    n = seq.n
    families = []
    for perm, demand_at, cap_at in ((ordering.pos_perm, 0, 1), (ordering.neg_perm, 1, 0)):
        pairs = reorder(seq.pairs, perm)
        family = []
        for k in range(n + 1):
            head = sum(min(pairs[i][cap_at], k - 1) for i in range(k))
            tail = sum(min(pairs[i][cap_at], k) for i in range(k, n))
            demand = sum(pairs[i][demand_at] for i in range(k))
            family.append(head + tail - demand)
        families.append(tuple(family))
    return SlackPair(*families)


def maximal_sequences_quadratic(seq: IntegerPairSequence) -> MaximalSequences:
    """Turning points found by scanning each prefix pair, O(N^2)."""
    ordering = proper_order(seq)
    n = seq.n

    def turning_point(k, prefix_perm, perm, at):
        top = frozenset(prefix_perm[:k])
        for j in range(n, 0, -1):
            origin = perm[j - 1]
            degree = seq.pairs[origin][at]
            if degree > k - 1 or (degree == k - 1 and origin in top):
                return j
        return 0

    return MaximalSequences(
        m_bar=tuple(
            turning_point(l, ordering.neg_perm, ordering.pos_perm, 0)
            for l in range(n + 1)
        ),
        m_under=tuple(
            turning_point(k, ordering.pos_perm, ordering.neg_perm, 1)
            for k in range(n + 1)
        ),
    )


def best_cell_by_scan(matrix: SplittanceMatrix) -> tuple[int, int]:
    """Row-major first cell away from the trivial corners holding the
    minimum, by scanning every cell; needs N >= 1."""
    best = min(nontrivial_cells(matrix), key=lambda cell: cell[2])
    return best[0], best[1]


def zero_cells_by_scan(matrix: SplittanceMatrix) -> list[tuple[int, int]]:
    """Every zero cell away from the trivial corners, in row-major order."""
    return [(k, l) for k, l, value in nontrivial_cells(matrix) if value == 0]


def edit_set_by_scan(g: Digraph, part: QuadPartition) -> EditSet:
    """The edit set by testing every sender-receiver pair and every arc
    against the arc set, O(k * l + |A|); a check of the bitset path."""
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


def random_valid_pairs(rng: random.Random, n: int) -> IntegerPairSequence:
    """Uniform entries in [0, n-1]; not necessarily balanced or digraphic."""
    if n == 0:
        return IntegerPairSequence([])
    return IntegerPairSequence(
        (rng.randrange(n), rng.randrange(n)) for _ in range(n)
    )


def random_balanced_pairs(rng: random.Random, n: int) -> IntegerPairSequence:
    """Valid entries with equal out- and in-degree totals; may be non-digraphic."""
    if n == 0:
        return IntegerPairSequence([])
    outs = [rng.randrange(n) for _ in range(n)]
    ins = [rng.randrange(n) for _ in range(n)]
    while sum(ins) > sum(outs):
        i = rng.randrange(n)
        if ins[i] > 0:
            ins[i] -= 1
    while sum(ins) < sum(outs):
        i = rng.randrange(n)
        if ins[i] < n - 1:
            ins[i] += 1
    return IntegerPairSequence(zip(outs, ins))


def rebalance(seq: IntegerPairSequence) -> IntegerPairSequence:
    """Deterministically trim the heavier side until the totals match."""
    outs = list(seq.out_degrees)
    ins = list(seq.in_degrees)
    i = 0
    while sum(ins) > sum(outs):
        if ins[i % len(ins)] > 0:
            ins[i % len(ins)] -= 1
        i += 1
    while sum(outs) > sum(ins):
        if outs[i % len(outs)] > 0:
            outs[i % len(outs)] -= 1
        i += 1
    return IntegerPairSequence(zip(outs, ins))


def random_digraph(rng: random.Random, n: int, p: float = 0.5) -> Digraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return Digraph(n, arcs)


def random_quad_partition(rng: random.Random, n: int) -> QuadPartition:
    blocks: list[list[int]] = [[], [], [], []]
    for v in range(n):
        blocks[rng.randrange(4)].append(v)
    return QuadPartition(n, *blocks)


def planted_split_digraph(
    rng: random.Random, n: int
) -> tuple[Digraph, QuadPartition]:
    """A random quad partition and a digraph it splits: every forced arc,
    no forbidden one, each free arc with probability 1/2."""
    part = random_quad_partition(rng, n)
    senders, receivers = part.pm | part.plus, part.pm | part.minus
    silenced, protected = part.minus | part.zero, part.plus | part.zero
    g = Digraph(n, [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v
        and not (u in silenced and v in protected)
        and (u in senders and v in receivers or rng.random() < 0.5)
    ])
    return g, part


def gnp_degree_sequence(rng: random.Random, n: int, p: float) -> IntegerPairSequence:
    """Degree sequence of a G(n, p) digraph, without building the digraph."""
    outs, ins = [0] * n, [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                outs[u] += 1
                ins[v] += 1
    return IntegerPairSequence(zip(outs, ins))


def induced_inequality_checks(
    seq: IntegerPairSequence, part: QuadPartition
) -> tuple[int, list[str]]:
    """Evaluate all six strict-inequality families on an induced partition.

    Returns (number of non-vacuous checks, list of violation descriptions).
    """
    d = seq.pairs
    checked = 0
    violations = []
    for x in part.plus:
        for y in part.minus:
            checked += 1
            if not d[x][0] > d[y][0]:
                violations.append(f"out-degree order failed at x={x}, y={y}")
            if not d[y][1] > d[x][1]:
                violations.append(f"in-degree order failed at x={x}, y={y}")
            for z in part.pm:
                checked += 1
                if d[z][1] == d[x][1] and not d[z][0] > d[y][0]:
                    violations.append(f"pm/out conditional failed at z={z}")
                if d[z][0] == d[y][0] and not d[z][1] > d[x][1]:
                    violations.append(f"pm/in conditional failed at z={z}")
            for w in part.zero:
                checked += 1
                if d[y][1] == d[w][1] and not d[x][0] > d[w][0]:
                    violations.append(f"zero/out conditional failed at w={w}")
                if d[x][0] == d[w][0] and not d[y][1] > d[w][1]:
                    violations.append(f"zero/in conditional failed at w={w}")
    return checked, violations


def edge_slots(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def is_split_graph(n: int, edges: set[frozenset[int]]) -> bool:
    """Bipartition sweep: some vertex subset is a clique with the rest independent."""
    for bits in range(1 << n):
        clique = [v for v in range(n) if bits >> v & 1]
        rest = [v for v in range(n) if not bits >> v & 1]
        if all(
            frozenset(e) in edges for e in combinations(clique, 2)
        ) and not any(frozenset(e) in edges for e in combinations(rest, 2)):
            return True
    return False


@lru_cache(maxsize=8)
def split_graph_masks(n: int) -> frozenset[int]:
    """All edge masks of split graphs on n vertices."""
    slots = edge_slots(n)
    masks = set()
    for mask in range(1 << len(slots)):
        edges = {
            frozenset(slots[i]) for i in range(len(slots)) if mask >> i & 1
        }
        if is_split_graph(n, edges):
            masks.add(mask)
    return frozenset(masks)


def undirected_edit_distance(n: int, edges: set[frozenset[int]]) -> int:
    """Exact minimum edge-toggle distance to a split graph (small n only)."""
    slots = edge_slots(n)
    index = {frozenset(s): i for i, s in enumerate(slots)}
    masks = split_graph_masks(n)
    mask = sum(1 << index[e] for e in edges)
    for radius in range(len(slots) + 1):
        for combo in combinations(range(len(slots)), radius):
            toggled = mask
            for i in combo:
                toggled ^= 1 << i
            if toggled in masks:
                return radius
    raise AssertionError("unreachable: complete graphs are split")


def eg_slack_quadratic(degrees) -> list[int]:
    """The graphicality slacks summed literally, O(N^2); the reference for
    ``eg_slack``."""
    ordered = sorted(degrees, reverse=True)
    n = len(ordered)
    slack = []
    for k in range(n + 1):
        head = sum(min(ordered[i], k - 1) for i in range(k))
        tail = sum(min(ordered[i], k) for i in range(k, n))
        slack.append(head + tail - sum(ordered[:k]))
    return slack


def corrected_durfee_by_loop(degrees) -> int:
    """Largest k (1-based) with the k-th largest degree at least k - 1, by
    testing every k; the reference for ``corrected_durfee``."""
    ordered = sorted(degrees, reverse=True)
    m = 1
    for k in range(1, len(ordered) + 1):
        if ordered[k - 1] >= k - 1:
            m = k
    return m


def gnp_graph_degrees(rng: random.Random, n: int, p: float) -> list[int]:
    """Degree sequence of a G(n, p) graph, without building the graph."""
    degs = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            degs[u] += 1
            degs[v] += 1
    return degs


def planted_split_graph_degrees(rng: random.Random, n: int, p: float) -> list[int]:
    """Shuffled degrees of a split graph: a clique on n // 3 vertices, an
    independent set on the rest, and each cross edge with probability p."""
    clique = n // 3
    degs = [clique - 1] * clique + [0] * (n - clique)
    for u in range(clique):
        for v in range(clique, n):
            if rng.random() < p:
                degs[u] += 1
                degs[v] += 1
    rng.shuffle(degs)
    return degs


def realize_undirected(degrees: tuple[int, ...]) -> set[frozenset[int]] | None:
    """Greedy constructive realization of an undirected degree sequence.

    Repeatedly wires the highest-degree vertex to the next-highest ones;
    succeeds exactly when the sequence is graphic.
    """
    remaining = [[d, i] for i, d in enumerate(degrees)]
    if any(d < 0 or d > len(degrees) - 1 for d, _ in remaining):
        return None
    edges: set[frozenset[int]] = set()
    if not remaining:
        return edges
    while True:
        remaining.sort(key=lambda pair: -pair[0])
        top, u = remaining[0]
        if top == 0:
            return edges
        if top > len(remaining) - 1:
            return None
        remaining[0][0] = 0
        for slot in remaining[1 : top + 1]:
            if slot[0] == 0:
                return None
            slot[0] -= 1
            edges.add(frozenset((u, slot[1])))


def int_by_lines(token: str, noun: str) -> int:
    """``int(token)`` as the line walk reads it: a token that ``int``
    refuses only for its digit count (it converts once the limit is
    lifted) raises ``InputParseError`` as an input too large to analyze,
    any other refused token ``ValueError``."""
    from splitkit.cli import InputParseError

    try:
        return int(token)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            int(token)
        finally:
            sys.set_int_max_str_digits(limit)
    digits = sum(map(str.isdecimal, token))
    raise InputParseError(f"input too large to analyze: {noun} of {digits} digits")


def parse_digraph_by_lines(text: str) -> tuple[int, set[tuple[int, int]]]:
    """The line-at-a-time digraph parser the bulk parser replaced: the
    vertex count and the 0-based arc set, or the same ``InputParseError``
    for the first faulty line."""
    from splitkit.cli import InputParseError

    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    header = lines[0].split()
    assert header[0] == "digraph" and len(header) == 2
    n = int(header[1])
    arcs = set()
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise InputParseError(f"expected 'u v' arc, got {line!r}")
        try:
            u, v = int_by_lines(fields[0], "label"), int_by_lines(fields[1], "label")
        except ValueError:
            raise InputParseError(f"non-integer label in line {line!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise InputParseError(f"arc ({u}, {v}) outside labels [1, {n}]")
        if u == v:
            raise InputParseError(f"loop at vertex {u} not allowed")
        if (u - 1, v - 1) in arcs:
            raise InputParseError(f"duplicate arc ({u}, {v})")
        arcs.add((u - 1, v - 1))
    return n, arcs


def parse_sequence_by_lines(text: str) -> IntegerPairSequence:
    """The line-at-a-time sequence parser the bulk tokenizer replaced: the
    pair sequence, or the same ``InputParseError`` for the first faulty
    line."""
    from splitkit.cli import InputParseError

    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    assert lines[0].split() == ["seq"]
    pairs = []
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise InputParseError(f"expected 'out in' pair, got {line!r}")
        try:
            pair = int_by_lines(fields[0], "degree"), int_by_lines(fields[1], "degree")
        except ValueError:
            raise InputParseError(f"non-integer degree in line {line!r}") from None
        pairs.append(pair)
    return IntegerPairSequence(pairs)


def validate_by_loop(seq: IntegerPairSequence) -> None:
    """The entry-by-entry check that ``validate`` now runs only to word the
    first faulty entry: the same exception, message and index."""
    bound = seq.n - 1
    for i, (out_deg, in_deg) in enumerate(seq.pairs):
        if out_deg < 0 or in_deg < 0:
            raise NegativeDegreeError(
                f"entry {i} has a negative degree: ({out_deg}, {in_deg})", i
            )
        if out_deg > bound or in_deg > bound:
            raise OutOfRangeError(
                f"entry {i} = ({out_deg}, {in_deg}) exceeds the "
                f"simple-digraph bound {bound}",
                i,
            )


def validate_degrees_by_loop(degrees) -> None:
    """The entry-by-entry check that ``undirected.validate_degrees`` now
    runs only to word the first faulty degree."""
    bound = len(degrees) - 1
    for i, deg in enumerate(degrees):
        if deg < 0:
            raise NegativeDegreeError(f"degree {i} is negative: {deg}", i)
        if deg > bound:
            raise OutOfRangeError(
                f"degree {i} = {deg} exceeds the simple-graph bound {bound}", i
            )


def render_matrix_by_generators(matrix: SplittanceMatrix, extras) -> str:
    """``matrix --extras`` stdout, one generator per row: the formatting the
    CLI's row template replaced.  ``extras`` holds the four extra rows."""
    lines = [",".join(str(value) for value in row) for row in matrix.entries]
    for name, values in zip(("sbar", "sunder", "mbar", "munder"), extras):
        lines.append(name + "," + ",".join(str(v) for v in values))
    return "".join(line + "\n" for line in lines)


def render_partitions_by_sort(parts, fmt: str) -> str:
    """``partitions`` stdout from a list of ``QuadPartition``s, each block
    sorted on its own: the writer that the CLI's streamed role-array writer
    replaced."""
    if fmt == "csv":
        lines = ["k,l,pm,plus,minus,zero\n"]
        template, sep = "%d,%d,%s,%s,%s,%s\n", " "
    else:
        lines = []
        template, sep = "k=%d l=%d pm=%s plus=%s minus=%s zero=%s\n", ","
    for part in parts:
        blocks = (part.pm, part.plus, part.minus, part.zero)
        members = (sep.join(str(v + 1) for v in sorted(block)) for block in blocks)
        lines.append(template % (part.k, part.l, *members))
    return "".join(lines)
