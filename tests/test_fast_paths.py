"""Differential tests: each O(N) analysis path against the quadratic code
it replaced, kept in ``splitkit.oracle``.

The paths are the two slack families, the splittance, the witness cell
that ``repair`` uses, the zero cells behind ``split_partitions`` (with
their row-major order) and the turning points.  Exhaustive for n <= 4,
then seeded digraphs with N in the hundreds.
"""

import random
from itertools import product

import pytest

from splitkit import Digraph, IntegerPairSequence, degree_sequence
from splitkit.oracle import (
    best_cell_by_scan,
    fulkerson_slack_quadratic,
    maximal_sequences_quadratic,
    zero_cells_by_scan,
)
from splitkit.splittance import Analysis

from helpers import gnp_degree_sequence, planted_split_digraph


def in_range_sequences(max_n: int):
    """Every pair sequence with entries in [0, n-1], for n = 1..max_n."""
    for n in range(1, max_n + 1):
        entries = list(product(range(n), repeat=2))
        for combo in product(entries, repeat=n):
            yield IntegerPairSequence(combo)


def assert_matches_quadratic(seq: IntegerPairSequence) -> None:
    """All five fast paths of a digraphic sequence against the references."""
    a = Analysis(seq)
    assert a.slack == fulkerson_slack_quadratic(seq)
    assert a.maximal == maximal_sequences_quadratic(seq)
    matrix = a.matrix
    k, l = best_cell_by_scan(matrix)
    assert a.best_cell == (k, l)
    assert a.splittance == matrix[k, l]
    assert [(p.k, p.l) for p in a.partitions] == zero_cells_by_scan(matrix)


class TestExhaustiveSmall:
    def test_slacks_on_every_in_range_sequence(self):
        # Balanced or not, digraphic or not: all 66 282 sequences, n <= 4.
        total = 0
        for seq in in_range_sequences(4):
            assert Analysis(seq).slack == fulkerson_slack_quadratic(seq), seq
            total += 1
        assert total == 66282

    def test_every_path_on_every_digraph_sequence(self):
        # The degree sequences of all digraphs on n <= 4 are exactly the
        # 2 724 digraphic sequences among the in-range ones.
        digraphic = 0
        for seq in in_range_sequences(4):
            if Analysis(seq).digraphic:
                assert_matches_quadratic(seq)
                digraphic += 1
        assert digraphic == 2724

    def test_witness_cell_on_unbalanced_sequences(self):
        # Row N's closed form carries the imbalance; the scan does not care.
        rng = random.Random(987)
        for seq in in_range_sequences(3):
            a = Analysis(seq)
            assert a.best_cell == best_cell_by_scan(a.matrix), seq
            assert a.maximal == maximal_sequences_quadratic(seq), seq
        for _ in range(200):
            n = rng.randint(1, 12)
            seq = IntegerPairSequence(
                (rng.randrange(n), rng.randrange(n)) for _ in range(n)
            )
            a = Analysis(seq)
            assert a.best_cell == best_cell_by_scan(a.matrix), seq
            assert a.maximal == maximal_sequences_quadratic(seq), seq


def _flipped(rng: random.Random, g: Digraph, flips: int) -> Digraph:
    arcs = set(g.arcs)
    for _ in range(flips):
        u, v = rng.sample(range(g.n), 2)
        arcs ^= {(u, v)}
    return Digraph(g.n, arcs)


def _family(name: str, rng: random.Random, n: int) -> IntegerPairSequence:
    if name.startswith("gnp"):
        return gnp_degree_sequence(rng, n, float(name[3:]))
    if name == "empty":
        return IntegerPairSequence([(0, 0)] * n)
    if name == "complete":
        return IntegerPairSequence([(n - 1, n - 1)] * n)
    g, _ = planted_split_digraph(rng, n)
    if name == "planted-flipped":
        g = _flipped(rng, g, max(2, n // 100))
    return degree_sequence(g)


class TestSeededLarge:
    @pytest.mark.parametrize(
        "family, n",
        [
            ("gnp0.05", 500),
            ("gnp0.3", 300),
            ("gnp0.7", 200),
            ("planted", 250),
            ("planted-flipped", 200),
            ("empty", 400),
            ("complete", 350),
        ],
    )
    def test_every_path(self, family, n):
        rng = random.Random(f"{family}:{n}")
        seq = _family(family, rng, n)
        assert_matches_quadratic(seq)
        if family in ("planted", "empty", "complete"):
            assert Analysis(seq).split
