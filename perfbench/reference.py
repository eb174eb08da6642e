"""Reference answers for checking splitkit, written from the definitions.

Nothing here imports splitkit.  The generator uses these functions to
compute expected answers, and the runner uses them to check repairs; both
run outside the timed loop.

Conventions (from the package README): the out-major order sorts by
(-out, -in, index), the in-major order by (-in, -out, index); cell (k, l) of
the splittance matrix is the measure of the quad partition induced by the
top k out-major and the top l in-major entries; the splittance is the
minimum over all cells except the corners (0, N) and (N, 0).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def orderings(pairs):
    """Out-major and in-major permutations of the indices of ``pairs``."""
    idx = range(len(pairs))
    pos = sorted(idx, key=lambda i: (-pairs[i][0], -pairs[i][1], i))
    neg = sorted(idx, key=lambda i: (-pairs[i][1], -pairs[i][0], i))
    return pos, neg


def matrix_rows(pairs, pos, neg):
    """Yield the matrix rows k = 0..N.

    Cell (k, l) = k*l - |top-k out-major ∩ top-l in-major|
    + (in-degree outside the top l) - (out-degree of the top k), so row k
    is row k-1 plus ``l - [l > rank of the new sender] - its out-degree``.
    """
    n = len(pairs)
    neg_rank = [0] * n
    for r, i in enumerate(neg):
        neg_rank[i] = r
    row = [0] * (n + 1)
    row[0] = sum(p[1] for p in pairs)
    for l, i in enumerate(neg):
        row[l + 1] = row[l] - pairs[i][1]
    yield row
    for k in range(1, n + 1):
        i = pos[k - 1]
        out = pairs[i][0]
        rank = neg_rank[i]
        row = [v + l - out - (l > rank) for l, v in enumerate(row)]
        yield row


def _labels(vertices) -> str:
    return ",".join(str(v + 1) for v in sorted(vertices))


class Scan:
    """One pass over the matrix, keeping what the checks need.

    ``splittance`` is the minimum over the non-trivial cells, ``zeros``
    lists the non-trivial zero cells in row-major order, and the row and
    column minima are the two slack families.  With ``full`` the CSV text
    of the matrix and the last arg-minima of the columns are kept too (the
    turning points of ``matrix --extras`` are the last row and column
    arg-minima).
    """

    def __init__(self, pairs, full: bool = False):
        n = len(pairs)
        self.n = n
        self.pos, self.neg = orderings(pairs)
        self.balanced = sum(p[0] for p in pairs) == sum(p[1] for p in pairs)
        self.in_range = all(0 <= o <= n - 1 and 0 <= i <= n - 1 for o, i in pairs)
        self.zeros = []
        self.splittance = None
        row_min, row_arg, lines = [], [], []
        col_min = col_arg = None
        for k, row in enumerate(matrix_rows(pairs, self.pos, self.neg)):
            lo = 1 if k == n else 0
            hi = n if k == 0 else n + 1
            inner = row[lo:hi]
            if inner:
                m = min(inner)
                if self.splittance is None or m < self.splittance:
                    self.splittance = m
                if m == 0:
                    self.zeros.extend((k, l) for l in range(lo, hi) if row[l] == 0)
            m = min(row)
            row_min.append(m)
            row_arg.append(n - row[::-1].index(m))
            if col_min is None:
                col_min, col_arg = list(row), [0] * (n + 1)
            elif full:
                for l, v in enumerate(row):
                    if v <= col_min[l]:
                        col_min[l] = v
                        col_arg[l] = k
            else:
                col_min = [min(a, b) for a, b in zip(col_min, row)]
            if full:
                lines.append(",".join(map(str, row)))
        self.row_min = row_min
        self.row_arg = row_arg
        self.col_min = col_min
        self.col_arg = col_arg
        self.lines = lines

    @property
    def digraphic(self) -> bool:
        """Balanced, in range, and every slack (row and column minimum) >= 0."""
        if not (self.balanced and self.in_range):
            return False
        return min(self.row_min) >= 0 and min(self.col_min) >= 0

    def partition(self, k: int, l: int):
        """The induced quad partition (pm, plus, minus, zero) of cell (k, l)."""
        top_out = set(self.pos[:k])
        top_in = set(self.neg[:l])
        rest = set(range(self.n)) - top_out - top_in
        return top_out & top_in, top_out - top_in, top_in - top_out, rest

    def check_text(self, digraphic: bool) -> tuple[int, str]:
        """Exit code and stdout of ``splitkit check``."""
        if not digraphic:
            return 3, "digraphic=false\n"
        split = self.splittance == 0
        text = (
            f"digraphic=true\nsplit={'true' if split else 'false'}\n"
            f"splittance={self.splittance}\n"
        )
        return (0 if split else 1), text

    def partitions_text(self, digraphic: bool) -> tuple[int, str]:
        """Exit code and stdout of ``splitkit partitions``."""
        if not digraphic:
            return 3, ""
        lines = []
        for k, l in self.zeros:
            pm, plus, minus, zero = self.partition(k, l)
            lines.append(
                f"k={k} l={l} pm={_labels(pm)} plus={_labels(plus)} "
                f"minus={_labels(minus)} zero={_labels(zero)}\n"
            )
        return (0 if lines else 1), "".join(lines)

    def matrix_text(self, digraphic: bool) -> tuple[int, str]:
        """Exit code and stdout of ``splitkit matrix --extras``."""
        extras = [
            "sbar," + ",".join(map(str, self.row_min)),
            "sunder," + ",".join(map(str, self.col_min)),
            "mbar," + ",".join(map(str, self.col_arg)),
            "munder," + ",".join(map(str, self.row_arg)),
        ]
        text = "\n".join(self.lines + extras) + "\n"
        if not digraphic:
            return 3, text
        return (0 if self.zeros else 1), text


def degrees(n: int, arcs):
    """Per-vertex (out, in) pairs of an arc list."""
    outs = [0] * n
    ins = [0] * n
    for u, v in arcs:
        outs[u] += 1
        ins[v] += 1
    return list(zip(outs, ins))


def families_hold(out_mask, pm, plus, minus, zero) -> bool:
    """Both block-constraint families, tested on out-neighbour bitsets.

    Every arc from ``pm | plus`` to ``pm | minus`` must be present (loops
    excepted) and no arc may run from ``minus | zero`` into ``plus | zero``.
    """
    receivers = _mask(pm | minus)
    protected = _mask(plus | zero)
    for u in pm | plus:
        need = receivers & ~(1 << u)
        if out_mask[u] & need != need:
            return False
    return all(not out_mask[u] & protected for u in minus | zero)


def _mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def apply_edits(n: int, arcs, add, remove):
    """Out-neighbour bitsets after the edits, or None when an edit is invalid.

    Additions must be absent, removals present, and no arc may repeat.
    """
    out_mask = [0] * n
    for u, v in arcs:
        out_mask[u] |= 1 << v
    if len(set(add)) != len(add) or len(set(remove)) != len(remove):
        return None
    for u, v in add:
        if u == v or not (0 <= u < n and 0 <= v < n) or out_mask[u] >> v & 1:
            return None
        out_mask[u] |= 1 << v
    for u, v in remove:
        if not (0 <= u < n and 0 <= v < n) or not out_mask[u] >> v & 1:
            return None
        out_mask[u] &= ~(1 << v)
    return out_mask


def mask_degrees(out_mask):
    """(out, in) pairs of a digraph given as out-neighbour bitsets."""
    n = len(out_mask)
    ins = [0] * n
    for mask in out_mask:
        while mask:
            low = mask & -mask
            ins[low.bit_length() - 1] += 1
            mask ^= low
    return [(out_mask[u].bit_count(), ins[u]) for u in range(n)]


def repaired_is_split(out_mask) -> bool:
    """True when the edited digraph satisfies both families for some
    non-trivial induced partition of its own degree sequence."""
    scan = Scan(mask_degrees(out_mask))
    n = scan.n
    for k, l in scan.zeros:
        pm, plus, minus, zero = scan.partition(k, l)
        if len(plus) == n or len(minus) == n:
            continue
        return families_hold(out_mask, pm, plus, minus, zero)
    return False


# Undirected sequences.


def undirected_sequence(degrees_):
    """Entry k = (k(k-1) - (sum of the k largest) + (sum of the rest)) / 2."""
    ordered = sorted(degrees_, reverse=True)
    total = sum(ordered)
    out, prefix = [], 0
    for k in range(len(ordered) + 1):
        if k:
            prefix += ordered[k - 1]
        out.append(Fraction(k * (k - 1) - prefix + (total - prefix), 2))
    return out


def corrected_durfee(degrees_) -> int:
    """Largest k with the k-th largest degree at least k - 1 (N >= 1)."""
    ordered = sorted(degrees_, reverse=True)
    return max(k for k in range(1, len(ordered) + 1) if ordered[k - 1] >= k - 1)


def brute_undirected_splittance(n: int, edges) -> int:
    """Fewest edge edits making the graph a clique plus an independent set,
    tried over every choice of clique."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = None
    for size in range(n + 1):
        for clique in combinations(range(n), size):
            inside = set(clique)
            missing = sum(
                1 for a, b in combinations(clique, 2) if b not in adj[a]
            )
            extra = sum(
                1 for u, v in edges if u not in inside and v not in inside
            )
            if best is None or missing + extra < best:
                best = missing + extra
    return best
