import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitkit import (
    IntegerPairSequence,
    NegativeDegreeError,
    NotDigraphicError,
    OutOfRangeError,
    QuadPartition,
    UnbalancedSequenceError,
    brute_realize,
    degree_sequence,
    digraph_splittance,
    fulkerson_slack,
    is_digraphic,
    is_split_sequence,
    maximal_sequences,
    repair,
    split_partitions,
    splittance_matrix,
    splittance_sequence,
    verify_split_partition,
)
from splitkit.sequences import proper_order
from splitkit.splittance import _measure_out, induced_partition, partition_measure

from conftest import DIREXT_MATRIX, EX1_MATRIX
from helpers import (
    cells,
    induced_inequality_checks,
    measure_in,
    nontrivial_cells,
    planted_split_digraph,
    random_balanced_pairs,
    random_digraph,
    random_quad_partition,
    random_valid_pairs,
    rebalance,
    splittance_matrix_bruteforce,
)

FOUR_CYCLE = IntegerPairSequence([(1, 1)] * 4)


def valid_sequences(max_n=9):
    def build(n):
        bound = max(n - 1, 0)
        pair = st.tuples(st.integers(0, bound), st.integers(0, bound))
        return st.lists(pair, min_size=n, max_size=n)

    return st.integers(0, max_n).flatmap(build).map(IntegerPairSequence)


def balanced_sequences(max_n=9):
    return valid_sequences(max_n).map(rebalance)


class TestPartitionMeasure:
    def test_worked_example_cell(self, ex1):
        part = QuadPartition(5, pm={1, 2}, minus={4}, zero={0, 3})
        assert partition_measure(ex1, part) == 0

    def test_all_plus_measures_zero(self, ex1):
        part = QuadPartition(5, plus=range(5))
        assert partition_measure(ex1, part) == 0

    def test_both_forms_agree_when_balanced(self):
        rng = random.Random(31337)
        for _ in range(200):
            n = rng.randint(1, 7)
            seq = random_balanced_pairs(rng, n)
            part = random_quad_partition(rng, n)
            assert _measure_out(seq, part) == measure_in(seq, part)
            assert partition_measure(seq, part) == _measure_out(seq, part)

    def test_unbalanced_raises(self):
        seq = IntegerPairSequence([(1, 0), (1, 1), (0, 0)])
        message = "out-degree total 2 but in-degree total 1"
        with pytest.raises(UnbalancedSequenceError, match=message):
            partition_measure(seq, QuadPartition(3, zero=range(3)))

    @given(valid_sequences())
    def test_forms_differ_by_the_degree_imbalance(self, seq):
        # The two forms disagree by exactly sum_in - sum_out on every
        # partition, so the matrix shape is imbalance-invariant.
        rng = random.Random(len(seq.pairs))
        part = random_quad_partition(rng, seq.n)
        delta = seq.sum_in - seq.sum_out
        assert _measure_out(seq, part) - measure_in(seq, part) == delta

    def test_product_form_matches_definition_form(self):
        # k*l - |pm| + (in over plus|zero) - (out over pm|plus) is an
        # algebraic rewrite of the defining out-form; check it on arbitrary
        # partitions, not just induced ones.
        rng = random.Random(46656)
        for _ in range(300):
            n = rng.randint(0, 8)
            seq = random_valid_pairs(rng, n)
            part = random_quad_partition(rng, n)
            product_form = (
                part.k * part.l
                - len(part.pm)
                + sum(seq.pairs[x][1] for x in part.plus | part.zero)
                - sum(seq.pairs[x][0] for x in part.pm | part.plus)
            )
            assert product_form == _measure_out(seq, part)

    def test_can_be_negative_for_non_digraphic(self):
        # Balanced but over-concentrated: more demand than a simple digraph
        # can satisfy, which the measure reports as a negative value.
        seq = IntegerPairSequence([(2, 0), (2, 2), (0, 2)])
        assert not is_digraphic(seq)
        sigma = splittance_matrix(seq)
        cheapest = min(v for _, _, v in cells(sigma))
        assert cheapest < 0

    def test_size_mismatch_rejected(self, ex1):
        with pytest.raises(ValueError):
            partition_measure(ex1, QuadPartition(3, zero=range(3)))


class TestQuadPartition:
    @pytest.mark.parametrize("n", [2.9, 2.0, "2"])
    def test_non_integral_vertex_count_raises(self, n):
        with pytest.raises(TypeError):
            QuadPartition(n, pm=[0, 1])

    @pytest.mark.parametrize("member", [0.0, "0"])
    def test_non_integral_member_raises(self, member):
        # 0.0 == 0 and hashes alike, so a set comparison alone lets it in.
        with pytest.raises(TypeError):
            QuadPartition(1, pm=[member])

    @pytest.mark.parametrize("blocks", [([0], [0]), ([0],), ([0, 2], [1]), ([0, 1, 2],)])
    def test_blocks_that_do_not_partition_raise(self, blocks):
        with pytest.raises(ValueError, match="partition range"):
            QuadPartition(2, *blocks)


class TestInducedPartition:
    def test_worked_example(self, ex1):
        ordering = proper_order(ex1)
        part = induced_partition(ex1, ordering, 2, 3)
        assert part.pm == frozenset({1, 2})
        assert part.plus == frozenset()
        assert part.minus == frozenset({4})
        assert part.zero == frozenset({0, 3})
        assert (part.k, part.l) == (2, 3)

    def test_zero_zero_puts_everything_in_zero(self, ex1):
        part = induced_partition(ex1, proper_order(ex1), 0, 0)
        assert part.zero == frozenset(range(5))
        assert part.non_trivial

    def test_full_full_puts_everything_in_pm(self, ex1):
        part = induced_partition(ex1, proper_order(ex1), 5, 5)
        assert part.pm == frozenset(range(5))

    def test_out_of_range_cell(self, ex1):
        for k, l in [(2, 6), (-1, 0), (0, -1), (6, 0)]:
            with pytest.raises(IndexError, match=r"outside \[0, 5\]\^2"):
                induced_partition(ex1, proper_order(ex1), k, l)

    @given(valid_sequences())
    def test_prefix_sizes_match_cell(self, seq):
        ordering = proper_order(seq)
        rng = random.Random(seq.n * 31 + 7)
        k = rng.randint(0, seq.n)
        l = rng.randint(0, seq.n)
        part = induced_partition(seq, ordering, k, l)
        assert (part.k, part.l) == (k, l)

    @given(valid_sequences())
    def test_blocks_dominate_their_complements(self, seq):
        # The sending side is a prefix of the out-major order, so each of
        # its entries outranks every entry outside it; dually for the
        # receiving side under the in-major order.
        from helpers import compare_neg, compare_pos

        ordering = proper_order(seq)
        rng = random.Random(seq.n * 17 + 3)
        part = induced_partition(
            seq, ordering, rng.randint(0, seq.n), rng.randint(0, seq.n)
        )
        senders = part.pm | part.plus
        receivers = part.pm | part.minus
        for a in senders:
            for b in part.minus | part.zero:
                assert compare_pos(seq.pairs[a], seq.pairs[b]) <= 0
        for a in receivers:
            for b in part.plus | part.zero:
                assert compare_neg(seq.pairs[a], seq.pairs[b]) <= 0


class TestSplittanceMatrix:
    def test_worked_example(self, ex1):
        assert splittance_matrix(ex1).entries == EX1_MATRIX

    def test_symmetric_extension_example(self, dirext):
        assert splittance_matrix(dirext).entries == DIREXT_MATRIX

    def test_single_vertex(self):
        sigma = splittance_matrix(IntegerPairSequence([(0, 0)]))
        assert sigma.entries == ((0, 0), (0, 0))

    def test_empty_sequence(self):
        sigma = splittance_matrix(IntegerPairSequence([]))
        assert sigma.entries == ((0,),)

    def test_trivial_corners_are_zero(self, ex1, dirext):
        for seq in (ex1, dirext, FOUR_CYCLE):
            sigma = splittance_matrix(seq)
            n = sigma.n
            assert sigma[(0, n)] == 0
            assert sigma[(n, 0)] == 0

    @given(valid_sequences())
    @settings(max_examples=150)
    def test_fast_path_matches_literal_evaluation(self, seq):
        assert (
            splittance_matrix(seq).entries
            == splittance_matrix_bruteforce(seq).entries
        )

    def test_cells_equal_measures_of_induced_partitions(self, ex1):
        ordering = proper_order(ex1)
        sigma = splittance_matrix(ex1)
        for k, l, value in cells(sigma):
            part = induced_partition(ex1, ordering, k, l)
            assert partition_measure(ex1, part) == value

    def test_moderate_size_agreement(self):
        # One larger instance to exercise the prefix-sum bookkeeping well
        # beyond the sizes the sweeps cover.
        rng = random.Random(514229)
        n = 60
        seq = IntegerPairSequence(
            (rng.randrange(n), rng.randrange(n)) for _ in range(n)
        )
        assert (
            splittance_matrix(seq).entries
            == splittance_matrix_bruteforce(seq).entries
        )


class TestSymmetricExtension:
    def test_matrix_is_symmetric_with_doubled_diagonal(self):
        rng = random.Random(1984)
        for _ in range(50):
            n = rng.randint(1, 8)
            degs = [rng.randrange(n) for _ in range(n)]
            seq = IntegerPairSequence((d, d) for d in degs)
            sigma = splittance_matrix(seq)
            for k in range(n + 1):
                for l in range(n + 1):
                    assert sigma[(k, l)] == sigma[(l, k)]
            halves = [Fraction(sigma[(k, k)], 2) for k in range(n + 1)]
            assert halves == splittance_sequence(degs)


class TestDigraphSplittance:
    def test_worked_examples(self, ex1, dirext):
        assert digraph_splittance(ex1) == 0
        assert digraph_splittance(dirext) == 0

    def test_four_cycle_needs_one_edit(self):
        assert digraph_splittance(FOUR_CYCLE) == 1

    def test_not_digraphic_raises(self):
        with pytest.raises(NotDigraphicError):
            digraph_splittance(IntegerPairSequence([(1, 0)]))

    def test_empty_sequence_is_zero(self):
        assert digraph_splittance(IntegerPairSequence([])) == 0


class TestDegreeExtremeBound:
    """The splittance is at most min(min_in, N-1-max_in, min_out,
    N-1-max_out): row 0's minimum away from the trivial corners is the
    smallest in-degree, row N's is N - 1 less the largest, and the
    column minima give the same for out-degrees.  Each pair of terms sums
    to at most N - 1, so a repair writes at most (N - 1) // 2 edits."""

    @staticmethod
    def bound(seq: IntegerPairSequence) -> int:
        last = seq.n - 1
        outs, ins = seq.out_degrees, seq.in_degrees
        return min(min(ins), last - max(ins), min(outs), last - max(outs))

    def test_every_small_digraphic_sequence(self):
        digraphic = 0
        for n in (1, 2, 3, 4):
            entries = list(product(range(n), repeat=2))
            for combo in product(entries, repeat=n):
                seq = IntegerPairSequence(combo)
                if is_digraphic(seq):
                    assert digraph_splittance(seq) <= self.bound(seq) <= (n - 1) // 2, combo
                    digraphic += 1
        assert digraphic == 2724

    def test_repair_of_seeded_gnp_digraphs(self):
        rng = random.Random(4181)
        for _ in range(60):
            n = rng.randrange(20, 300)
            g = random_digraph(rng, n, rng.choice([0.02, 0.1, 0.5, 0.9, 0.98]))
            seq = degree_sequence(g)
            edits, _ = repair(g)
            assert edits.size == digraph_splittance(seq) <= self.bound(seq) <= (n - 1) // 2


class TestMaximalSequences:
    def test_row_zero_turning_point_is_n(self):
        rng = random.Random(4096)
        for _ in range(50):
            seq = random_valid_pairs(rng, rng.randint(1, 9))
            maximal = maximal_sequences(seq)
            assert maximal.m_under[0] == seq.n
            assert maximal.m_bar[0] == seq.n

    @pytest.mark.parametrize("which", ["ex1", "dirext"])
    def test_turning_points_locate_row_and_column_minima(self, which, request):
        seq = request.getfixturevalue(which)
        sigma = splittance_matrix(seq)
        maximal = maximal_sequences(seq)
        n = seq.n
        for k in range(n + 1):
            assert sigma[(k, maximal.m_under[k])] == min(sigma.entries[k])
        for l in range(n + 1):
            column = [sigma[(k, l)] for k in range(n + 1)]
            assert sigma[(maximal.m_bar[l], l)] == min(column)


class TestFulkersonSlack:
    def test_symmetric_extension_slacks(self, dirext):
        slack = fulkerson_slack(dirext)
        assert slack.s_bar == (0, 0, 1, 2, 2, 0)
        assert slack.s_under == (0, 0, 1, 2, 2, 0)

    def test_worked_example_slacks_are_row_and_column_minima(self, ex1):
        slack = fulkerson_slack(ex1)
        assert slack.s_bar == (0, 0, 0, 1, 0, 0)
        assert slack.s_under == (0, 1, 1, 0, 0, 0)
        sigma = splittance_matrix(ex1)
        assert slack.s_bar == tuple(min(row) for row in sigma.entries)
        assert slack.s_under == tuple(
            min(sigma[(k, l)] for k in range(6)) for l in range(6)
        )

    def test_single_vertex(self):
        slack = fulkerson_slack(IntegerPairSequence([(0, 0)]))
        assert slack.s_bar == (0, 0)
        assert slack.s_under == (0, 0)

    @given(balanced_sequences())
    def test_endpoints_vanish_when_balanced(self, seq):
        slack = fulkerson_slack(seq)
        if seq.n == 0:
            assert slack.s_bar == (0,)
            return
        assert slack.s_bar[0] == slack.s_under[0] == 0
        assert slack.s_bar[seq.n] == slack.s_under[seq.n] == 0


class TestSlackMatrixIdentities:
    def test_seeded_sweep(self):
        # Row identity, column identity, monotonicity around the turning
        # points, and the interior-minimum equation, on balanced sequences.
        rng = random.Random(65537)
        for _ in range(250):
            n = rng.randint(2, 10)
            seq = random_balanced_pairs(rng, n)
            sigma = splittance_matrix(seq)
            slack = fulkerson_slack(seq)
            maximal = maximal_sequences(seq)

            for k in range(n + 1):
                assert slack.s_bar[k] == sigma[(k, maximal.m_under[k])]
                assert slack.s_under[k] == sigma[(maximal.m_bar[k], k)]

            for k in range(n + 1):
                m_k = maximal.m_under[k]
                for l in range(1, n + 1):
                    step = sigma[(k, l)] - sigma[(k, l - 1)]
                    assert step <= 0 if l <= m_k else step > 0
            for l in range(n + 1):
                m_l = maximal.m_bar[l]
                for k in range(1, n + 1):
                    step = sigma[(k, l)] - sigma[(k - 1, l)]
                    assert step <= 0 if k <= m_l else step > 0

            corners = {(0, 0), (0, n), (n, 0), (n, n)}
            interior = slack.s_bar[1:n] + slack.s_under[1:n]
            assert min(interior) == min(
                v for k, l, v in cells(sigma) if (k, l) not in corners
            )

    @given(valid_sequences())
    @settings(max_examples=100)
    def test_row_identity_holds_even_unbalanced(self, seq):
        # The out-major family never needs balance; the in-major family is
        # shifted by the imbalance.
        sigma = splittance_matrix(seq)
        slack = fulkerson_slack(seq)
        maximal = maximal_sequences(seq)
        delta = seq.sum_in - seq.sum_out
        for k in range(seq.n + 1):
            assert slack.s_bar[k] == sigma[(k, maximal.m_under[k])]
            assert slack.s_under[k] == sigma[(maximal.m_bar[k], k)] - delta


class TestInducedInequalities:
    def test_seeded_sweep(self):
        rng = random.Random(8128)
        total_checked = 0
        for _ in range(500):
            n = rng.randint(2, 10)
            seq = random_valid_pairs(rng, n)
            ordering = proper_order(seq)
            part = induced_partition(
                seq, ordering, rng.randint(0, n), rng.randint(0, n)
            )
            checked, violations = induced_inequality_checks(seq, part)
            total_checked += checked
            assert violations == []
        assert total_checked > 200  # the sweep must not be vacuous


class TestIsDigraphic:
    def test_worked_example(self, ex1):
        assert is_digraphic(ex1)

    def test_unbalanced(self):
        assert not is_digraphic(IntegerPairSequence([(1, 0)]))

    def test_out_of_range_is_not_digraphic(self):
        assert not is_digraphic(IntegerPairSequence([(3, 3), (1, 1), (1, 1)]))

    def test_exhaustive_small_against_realization_search(self):
        from itertools import product as iproduct

        for n in range(1, 4):
            entries = list(iproduct(range(n), repeat=2))
            for combo in iproduct(entries, repeat=n):
                seq = IntegerPairSequence(combo)
                assert is_digraphic(seq) == (brute_realize(seq) is not None)


class TestSplittanceEqualsInteriorSlackMinimum:
    def test_random_digraphic_sequences(self):
        # The matrix minimum away from the trivial corners coincides with
        # the smallest interior slack entry on digraphic input.
        rng = random.Random(121393)
        from helpers import random_digraph
        from splitkit import degree_sequence

        for _ in range(300):
            n = rng.randint(2, 10)
            seq = degree_sequence(random_digraph(rng, n))
            slack = fulkerson_slack(seq)
            interior = slack.s_bar[1:n] + slack.s_under[1:n]
            assert digraph_splittance(seq) == min(interior)


class TestIsSplitSequence:
    def test_worked_examples(self, ex1, dirext):
        assert is_split_sequence(ex1)
        assert is_split_sequence(dirext)

    def test_complete_digraphs(self):
        for n in range(1, 6):
            seq = IntegerPairSequence([(n - 1, n - 1)] * n)
            assert is_split_sequence(seq)

    def test_four_cycle_is_not_split(self):
        assert not is_split_sequence(FOUR_CYCLE)

    def test_not_digraphic_raises(self):
        with pytest.raises(NotDigraphicError):
            is_split_sequence(IntegerPairSequence([(1, 0)]))

    def test_degenerate_sizes(self):
        assert is_split_sequence(IntegerPairSequence([]))
        assert is_split_sequence(IntegerPairSequence([(0, 0)]))

    def test_agrees_with_matrix_zero_cells_at_large_n(self):
        # The slack recognition against the matrix one at N in the hundreds:
        # random digraphs at three densities, then a planted split digraph.
        rng = random.Random(317811)
        graphs = [
            random_digraph(rng, rng.randint(200, 300), p)
            for p in (0.05, 0.3, 0.7)
            for _ in range(7)
        ]
        planted, part = planted_split_digraph(rng, 250)
        assert verify_split_partition(planted, part)
        graphs.append(planted)
        for g in graphs:
            seq = degree_sequence(g)
            nontrivial = nontrivial_cells(splittance_matrix(seq))
            assert is_split_sequence(seq) == any(v == 0 for *_, v in nontrivial)
        assert is_split_sequence(degree_sequence(planted))


class TestSplitPartitions:
    def test_worked_example_has_five(self, ex1):
        parts = split_partitions(ex1)
        assert len(parts) == 5
        assert [(p.k, p.l) for p in parts] == [
            (1, 4),
            (1, 5),
            (2, 3),
            (2, 4),
            (4, 0),
        ]
        by_cell = {(p.k, p.l): p for p in parts}
        worked = by_cell[(2, 3)]
        assert worked.pm == frozenset({1, 2})
        assert worked.minus == frozenset({4})
        assert worked.zero == frozenset({0, 3})
        assert all(p.non_trivial for p in parts)

    def test_non_split_sequence_has_none(self):
        assert split_partitions(FOUR_CYCLE) == []

    def test_complete_digraph_includes_all_pm(self):
        parts = split_partitions(IntegerPairSequence([(2, 2)] * 3))
        assert any(p.pm == frozenset(range(3)) for p in parts)

    def test_zero_measure_everywhere(self, ex1):
        for part in split_partitions(ex1):
            assert partition_measure(ex1, part) == 0

    @pytest.mark.parametrize(
        "pairs, error",
        [
            ([(0, 0), (2, 0)], OutOfRangeError),  # the ordering validates first
            ([(0, 0), (-1, 0)], NegativeDegreeError),
            ([(1, 0), (0, 0)], NotDigraphicError),
            ([(1, 1), (0, 0)], NotDigraphicError),
        ],
    )
    def test_errors_of_invalid_sequences(self, pairs, error):
        with pytest.raises(error):
            split_partitions(IntegerPairSequence(pairs))
