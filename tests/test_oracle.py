import random
from itertools import product

import pytest

from splitkit import (
    BudgetExceededError,
    Digraph,
    EnumerationBudget,
    IntegerPairSequence,
    brute_min_partition_measure,
    brute_realize,
    brute_splittance,
    degree_sequence,
    digraph_splittance,
    is_digraphic,
)
from splitkit.oracle import enumerate_digraphs, nontrivial_partitions

from helpers import random_balanced_pairs


class TestEnumerateDigraphs:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 4), (3, 64)])
    def test_exhaustive_counts(self, n, count):
        graphs = list(enumerate_digraphs(n))
        assert len(graphs) == count
        assert len({g.arcs for g in graphs}) == count

    def test_four_vertex_count(self):
        assert sum(1 for _ in enumerate_digraphs(4)) == 4096

    def test_over_budget_without_sampling(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_digraphs(5))


class TestBruteRealize:
    def test_worked_example(self, ex1):
        g = brute_realize(ex1)
        assert g is not None
        assert degree_sequence(g).pairs == ex1.pairs

    def test_unbalanced_has_no_realization(self):
        assert brute_realize(IntegerPairSequence([(1, 0)])) is None

    def test_over_budget(self):
        seq = IntegerPairSequence([(0, 0)] * 9)
        with pytest.raises(BudgetExceededError):
            brute_realize(seq)

    def test_matches_inequality_test_exhaustively_small(self):
        for n in range(1, 4):
            entries = list(product(range(n), repeat=2))
            for combo in product(entries, repeat=n):
                seq = IntegerPairSequence(combo)
                found = brute_realize(seq)
                assert (found is not None) == is_digraphic(seq)
                if found is not None:
                    assert degree_sequence(found).pairs == seq.pairs


class TestBruteMinPartitionMeasure:
    def test_worked_example(self, ex1):
        assert brute_min_partition_measure(ex1) == 0

    def test_single_vertex(self):
        assert brute_min_partition_measure(IntegerPairSequence([(0, 0)])) == 0

    def test_over_budget(self):
        seq = IntegerPairSequence([(0, 0)] * 11)
        with pytest.raises(BudgetExceededError):
            brute_min_partition_measure(seq)

    def test_matches_matrix_minimum_on_random_digraphic(self):
        rng = random.Random(46368)
        done = 0
        while done < 60:
            seq = random_balanced_pairs(rng, rng.randint(1, 7))
            if not is_digraphic(seq):
                continue
            done += 1
            assert brute_min_partition_measure(seq) == digraph_splittance(seq)


class TestBruteSplittance:
    def test_split_digraphs_measure_zero(self):
        complete = Digraph(3, [(u, v) for u in range(3) for v in range(3) if u != v])
        assert brute_splittance(complete) == 0
        assert brute_splittance(Digraph(2, [(0, 1)])) == 0

    def test_worked_realization_with_raised_budget(self, ex1_digraph):
        budget = EnumerationBudget(max_vertices=5)
        assert brute_splittance(ex1_digraph, budget) == 0

    def test_exhaustive_three_vertices(self):
        for g in enumerate_digraphs(3):
            assert brute_splittance(g) == digraph_splittance(degree_sequence(g))

    def test_over_budget(self):
        with pytest.raises(BudgetExceededError):
            brute_splittance(Digraph(5))


class TestPartitionEnumeration:
    def test_counts_exclude_exactly_two_trivial(self):
        # 4^n assignments minus the all-plus and all-minus ones.
        for n in range(1, 5):
            assert len(nontrivial_partitions(n)) == 4**n - 2

    def test_zero_vertices_has_no_nontrivial(self):
        assert nontrivial_partitions(0) == ()
