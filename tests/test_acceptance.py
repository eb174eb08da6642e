"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

from splitkit import (
    IntegerPairSequence,
    brute_min_partition_measure,
    brute_realize,
    brute_splittance,
    corrected_durfee,
    degree_sequence,
    digraph_splittance,
    eg_slack,
    fulkerson_slack,
    is_digraphic,
    is_split_sequence,
    is_split_undirected,
    maximal_sequences,
    repair,
    splittance_matrix,
    splittance_sequence,
    undirected_splittance,
    verify_split_partition,
)
from splitkit.cli import run
from splitkit.sequences import proper_order
from splitkit.splittance import _measure_out, induced_partition

from conftest import DIREXT_MATRIX, DIREXT_PAIRS, EX1_MATRIX, EX1_PAIRS
from helpers import (
    cells,
    enumerate_digraphs,
    induced_inequality_checks,
    measure_in,
    nontrivial_cells,
    random_balanced_pairs,
    random_quad_partition,
    random_valid_pairs,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_criterion_1_matrix_reproduction_example_1():
    seq = IntegerPairSequence(EX1_PAIRS)

    def compute():
        ordering = proper_order(seq)
        sigma = splittance_matrix(seq)
        zeros = [(k, l) for k, l, v in nontrivial_cells(sigma) if v == 0]
        part = induced_partition(seq, ordering, 2, 3)
        return ordering, sigma, zeros, part

    compute()  # warm-up
    start = time.perf_counter()
    ordering, sigma, zeros, part = compute()
    elapsed = time.perf_counter() - start

    assert sigma.entries == EX1_MATRIX
    assert tuple(i + 1 for i in ordering.pos_perm) == (3, 2, 1, 4, 5)
    assert tuple(i + 1 for i in ordering.neg_perm) == (5, 3, 2, 4, 1)
    assert len(zeros) == 5
    assert part.pm == frozenset({1, 2})
    assert part.plus == frozenset()
    assert part.minus == frozenset({4})
    assert part.zero == frozenset({0, 3})
    assert elapsed < 1e-3
    print(
        f"\nPASS criterion 1: example-1 matrix, orderings, 5 zero cells, "
        f"(2,3) partition ({elapsed * 1e6:.0f} us)"
    )


def test_criterion_2_matrix_reproduction_example_2():
    seq = IntegerPairSequence(DIREXT_PAIRS)

    def compute():
        sigma = splittance_matrix(seq)
        slack = fulkerson_slack(seq)
        return sigma, slack

    compute()  # warm-up
    start = time.perf_counter()
    sigma, slack = compute()
    elapsed = time.perf_counter() - start

    assert sigma.entries == DIREXT_MATRIX
    n = sigma.n
    assert all(sigma[(k, l)] == sigma[(l, k)] for k in range(6) for l in range(6))
    halves = [Fraction(sigma[(k, k)], 2) for k in range(n + 1)]
    assert halves == [8, 4, 2, 1, 1, 2]
    assert slack.s_bar == (0, 0, 1, 2, 2, 0)
    assert slack.s_under == (0, 0, 1, 2, 2, 0)
    interior = slack.s_bar[1:n] + slack.s_under[1:n]
    assert min(interior) == 0
    assert is_split_sequence(seq)
    assert elapsed < 1e-3
    print(
        f"\nPASS criterion 2: example-2 matrix, symmetry, half-diagonal, "
        f"slacks, split ({elapsed * 1e6:.0f} us)"
    )


def test_criterion_3_undirected_baseline():
    degs = (4, 3, 3, 3, 3)
    m = corrected_durfee(degs)
    slack = eg_slack(degs)
    sigma = splittance_sequence(degs)
    assert m == 4
    assert slack == [0, 0, 1, 2, 2, 0]
    assert sigma == [8, 4, 2, 1, 1, 2]
    assert sigma[m] == 1
    assert slack[m] == 2
    assert 2 * sigma[m] == slack[m]
    assert undirected_splittance(degs) == 1
    assert not is_split_undirected(degs)
    print("\nPASS criterion 3: undirected baseline for (4 3 3 3 3)")


def test_criterion_4_exhaustive_splittance_agreement():
    start = time.perf_counter()
    totals = {}
    sweeps = {}  # the partition sweep depends only on the degree sequence
    for n in (2, 3, 4):
        count = 0
        for g in enumerate_digraphs(n):
            seq = degree_sequence(g)
            fast = digraph_splittance(seq)
            if seq.pairs not in sweeps:
                sweeps[seq.pairs] = brute_min_partition_measure(seq)
            sweep = sweeps[seq.pairs]
            edits = brute_splittance(g)
            assert fast == sweep == edits, (n, sorted(g.arcs), fast, sweep, edits)
            count += 1
        totals[n] = count
    elapsed = time.perf_counter() - start
    assert totals == {2: 4, 3: 64, 4: 4096}
    assert elapsed < 60
    print(
        f"\nPASS criterion 4: splittance agreement on all "
        f"{sum(totals.values())} digraphs, n in 2..4 ({elapsed:.1f} s)"
    )


def test_criterion_5_exhaustive_digraphicality_agreement():
    start = time.perf_counter()
    total = digraphic = 0
    for n in (1, 2, 3, 4):
        entries = list(product(range(n), repeat=2))
        for combo in product(entries, repeat=n):
            seq = IntegerPairSequence(combo)
            found = brute_realize(seq)
            assert is_digraphic(seq) == (found is not None), combo
            if found is not None:
                assert degree_sequence(found).pairs == seq.pairs
                # The slack recognition agrees with the matrix one.
                nontrivial = nontrivial_cells(splittance_matrix(seq))
                assert is_split_sequence(seq) == any(v == 0 for *_, v in nontrivial), combo
                digraphic += 1
            total += 1
    elapsed = time.perf_counter() - start
    assert total == 1 + 16 + 729 + 65536
    assert digraphic == 2724
    assert elapsed < 60
    print(
        f"\nPASS criterion 5: realizability agreement on all {total} "
        f"pair sequences, split recognitions agree on the {digraphic} "
        f"digraphic ones, n in 1..4 ({elapsed:.1f} s)"
    )


def test_criterion_6_slack_matrix_property_suite():
    # Quantified over balanced sequences: the identities couple the in-major
    # slack family to the out-major matrix and need equal degree totals,
    # and the interior-minimum equation needs N >= 2.
    rng = random.Random(60106)
    start = time.perf_counter()
    violations = 0
    for _ in range(1000):
        n = rng.randint(2, 10)
        seq = random_balanced_pairs(rng, n)
        sigma = splittance_matrix(seq)
        slack = fulkerson_slack(seq)
        maximal = maximal_sequences(seq)

        corners = {(0, 0), (0, n), (n, 0), (n, n)}
        interior = slack.s_bar[1:n] + slack.s_under[1:n]
        if min(interior) != min(
            v for k, l, v in cells(sigma) if (k, l) not in corners
        ):
            violations += 1

        for k in range(n + 1):
            if slack.s_bar[k] != sigma[(k, maximal.m_under[k])]:
                violations += 1
            if slack.s_under[k] != sigma[(maximal.m_bar[k], k)]:
                violations += 1
            m_k = maximal.m_under[k]
            for l in range(1, n + 1):
                step = sigma[(k, l)] - sigma[(k, l - 1)]
                if (step > 0) if l <= m_k else (step <= 0):
                    violations += 1
            m_l = maximal.m_bar[k]
            for i in range(1, n + 1):
                step = sigma[(i, k)] - sigma[(i - 1, k)]
                if (step > 0) if i <= m_l else (step <= 0):
                    violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 10
    print(
        f"\nPASS criterion 6: slack/matrix identities and monotonicity on "
        f"1000 sequences, zero violations ({elapsed:.1f} s)"
    )


def test_criterion_7_measure_equality_and_strict_inequalities():
    rng = random.Random(70107)
    for _ in range(1000):
        n = rng.randint(1, 10)
        seq = random_balanced_pairs(rng, n)
        part = random_quad_partition(rng, n)
        assert _measure_out(seq, part) == measure_in(seq, part)

    total_checked = 0
    for _ in range(1000):
        n = rng.randint(2, 10)
        seq = random_valid_pairs(rng, n)
        ordering = proper_order(seq)
        part = induced_partition(
            seq, ordering, rng.randint(0, n), rng.randint(0, n)
        )
        checked, violations = induced_inequality_checks(seq, part)
        total_checked += checked
        assert violations == []
    assert total_checked >= 500  # the sweep must exercise the families
    print(
        f"\nPASS criterion 7: measure-form equality on 1000 pairs, strict "
        f"inequalities on 1000 induced partitions ({total_checked} checks)"
    )


def test_criterion_8_repair_soundness():
    start = time.perf_counter()
    total = 0
    for n in (1, 2, 3, 4):
        for g in enumerate_digraphs(n):
            edits, part = repair(g)
            fixed = g.apply(edits)
            assert verify_split_partition(fixed, part), sorted(g.arcs)
            assert edits.size == digraph_splittance(degree_sequence(g))
            again, _ = repair(fixed)
            assert again.size == 0, sorted(g.arcs)
            total += 1
    elapsed = time.perf_counter() - start
    assert total == 1 + 4 + 64 + 4096
    print(
        f"\nPASS criterion 8: repair verified on all {total} digraphs, "
        f"n in 1..4 ({elapsed:.1f} s)"
    )


def test_criterion_9_cli_fixtures_and_exit_codes(capsys, tmp_path):
    cases = [
        (["check", str(FIXTURES / "ex1.seq")], "ex1_check.kv", 0),
        (["matrix", str(FIXTURES / "ex1.seq")], "ex1_matrix.csv", 0),
        (["partitions", str(FIXTURES / "ex1.seq")], "ex1_partitions.kv", 0),
        (["check", str(FIXTURES / "dirext.seq")], "dirext_check.kv", 0),
        (["matrix", str(FIXTURES / "dirext.seq")], "dirext_matrix.csv", 0),
        (["repair", str(FIXTURES / "ex1_realization.digraph")], None, 0),
    ]
    for argv, expected, code in cases:
        assert run(argv) == code, argv
        out = capsys.readouterr().out
        if expected is None:
            assert out == ""
        else:
            assert out == (FIXTURES / expected).read_text(), argv

    # Exit-code contract: 1 valid-but-not-split, 2 parse error, 3 invalid.
    cycle = tmp_path / "cycle.seq"
    cycle.write_text("seq\n" + "1 1\n" * 4)
    assert run(["check", str(cycle)]) == 1
    junk = tmp_path / "junk.seq"
    junk.write_text("nonsense\n")
    assert run(["check", str(junk)]) == 2
    unbalanced = tmp_path / "unbalanced.seq"
    unbalanced.write_text("seq\n1 0\n")
    assert run(["check", str(unbalanced)]) == 3
    capsys.readouterr()
    print("\nPASS criterion 9: CLI fixtures byte-identical, exit codes stable")
