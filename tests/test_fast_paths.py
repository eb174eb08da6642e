"""Differential tests: each fast path against the code it replaced, kept
in ``splitkit.oracle``.

The paths are the two orders, the out-major one that the answers sort
alone and the in-major one sorted when a later part reads it (against the
tuple sort), the two slack families, the matrix rows built one from the
previous one, digraphicality and the splittance read off the rows alone
(against the two-family forms), the witness cell that ``repair`` uses, the
zero cells behind ``split_partitions`` (with their row-major order), the
role walk that builds every cell's partition against the prefix-set
algebra it replaced, and the turning points, and on the digraph store the
edit set, the partition check and the degrees.  Exhaustive for small n,
then seeded digraphs with N in the hundreds and tie-heavy sequences up to
N = 2000.  The quadratic slacks of the exhaustive sweep are computed once
per run and shared.
"""

import random
from itertools import product
from typing import Callable

import pytest

from splitkit import (
    Digraph,
    IntegerPairSequence,
    NotDigraphicError,
    QuadPartition,
    SplittanceMatrix,
    degree_sequence,
    digraph_splittance,
    edit_set,
    is_digraphic,
    is_split_sequence,
    repair,
    verify_split_partition,
)
from splitkit.oracle import (
    best_cell_by_scan,
    brute_realize,
    edit_set_by_scan,
    enumerate_digraphs,
    fulkerson_slack_quadratic,
    induced_partition_by_prefixes,
    maximal_sequences_quadratic,
    splittance_matrix_bruteforce,
    splittance_matrix_by_rows,
    zero_cells_by_scan,
)
from splitkit.sequences import lex_order, proper_order
from splitkit.splittance import Analysis, SlackPair, _cell_blocks, induced_partition

from helpers import (
    gnp_degree_sequence,
    planted_split_digraph,
    proper_order_by_tuples,
    random_balanced_pairs,
    random_digraph,
    random_quad_partition,
)


def in_range_sequences(max_n: int):
    """Every pair sequence with entries in [0, n-1], for n = 1..max_n."""
    for n in range(1, max_n + 1):
        entries = list(product(range(n), repeat=2))
        for combo in product(entries, repeat=n):
            yield IntegerPairSequence(combo)


@pytest.fixture(scope="session")
def quadratic_slacks() -> list:
    """``fulkerson_slack_quadratic`` of the empty sequence and then of every
    in-range sequence with n <= 4, in ``in_range_sequences`` order:
    computed once per run, for every test that compares with it."""
    everyone = (IntegerPairSequence(), *in_range_sequences(4))
    return list(map(fulkerson_slack_quadratic, everyone))


def assert_matches_quadratic(seq: IntegerPairSequence) -> None:
    """All six fast paths of a digraphic sequence, and the role walk,
    against the references; the cells are found by scanning the reference
    matrix."""
    a = Analysis(seq)
    assert a.slack == fulkerson_slack_quadratic(seq)
    assert a.maximal == maximal_sequences_quadratic(seq)
    matrix = splittance_matrix_by_rows(seq)
    assert a.matrix == matrix
    k, l = best_cell_by_scan(matrix)
    assert a.best_cell == (k, l)
    assert a.splittance == matrix[k, l]
    ordering = proper_order(seq)
    reference = [
        induced_partition_by_prefixes(seq, ordering, k, l)
        for k, l in zero_cells_by_scan(matrix)
    ]
    assert a.partitions == reference
    # The blocks the ``partitions`` command writes, each in vertex order.
    walked = [(k, l, *map(tuple, b)) for k, l, *b in a.zero_cell_blocks(range(seq.n))]
    assert walked == [
        (p.k, p.l, *(tuple(sorted(b)) for b in (p.pm, p.plus, p.minus, p.zero)))
        for p in reference
    ]


class TestExhaustiveSmall:
    def test_slacks_on_every_in_range_sequence(self, quadratic_slacks):
        # Balanced or not, digraphic or not: all 66 282 sequences, n <= 4,
        # with the int-key orderings the slacks rest on, both the public
        # pair and the one the analysis builds a part at a time.
        total = 0
        for seq, slack in zip(in_range_sequences(4), quadratic_slacks[1:], strict=True):
            ordering = proper_order_by_tuples(seq)
            assert proper_order(seq) == ordering, seq
            a = Analysis(seq)
            assert a.slack == slack, seq
            assert a.ordering == ordering, seq
            total += 1
        assert total == 66282

    def test_matrix_on_every_in_range_sequence(self):
        # The row recurrence against the literal per-cell measures, on all
        # 66 282 sequences with n <= 4, digraphic or not, and n = 0.
        total = 0
        for seq in (IntegerPairSequence(), *in_range_sequences(4)):
            assert Analysis(seq).matrix == splittance_matrix_bruteforce(seq), seq
            total += 1
        assert total == 66283

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
            assert a.best_cell == best_cell_by_scan(splittance_matrix_by_rows(seq)), seq
            assert a.maximal == maximal_sequences_quadratic(seq), seq
        for _ in range(200):
            n = rng.randint(1, 12)
            seq = IntegerPairSequence(
                (rng.randrange(n), rng.randrange(n)) for _ in range(n)
            )
            a = Analysis(seq)
            assert a.best_cell == best_cell_by_scan(splittance_matrix_by_rows(seq)), seq
            assert a.maximal == maximal_sequences_quadratic(seq), seq


def all_cells(n: int):
    """Every cell (k, l) of [0, N]^2, in row-major order."""
    return product(range(n + 1), repeat=2)


class TestCellPartitions:
    # ``induced_partition`` walks its one cell from an empty role array;
    # ``split_partitions`` walks from each zero cell to the next.  Both
    # against the prefix-set algebra, on every cell, digraphic or not.

    def test_every_cell_of_every_in_range_sequence(self):
        # Both sides depend on the ordering (and so N) only, so each cell is
        # compared once per distinct ordering; the count shows that every
        # sequence's ordering was among them.
        orderings = {}
        total = 0
        for seq in (IntegerPairSequence(), *in_range_sequences(4)):
            orderings.setdefault(proper_order(seq), seq)
            total += 1
        assert total == 66283
        for ordering, seq in orderings.items():
            for k, l in all_cells(seq.n):
                expected = induced_partition_by_prefixes(seq, ordering, k, l)
                assert induced_partition(seq, ordering, k, l) == expected, (seq, k, l)

    @pytest.mark.parametrize(
        "family, n",
        [("gnp0.3", 120), ("planted", 120), ("empty", 100), ("in-range", 150)],
    )
    def test_every_cell_at_large_n(self, family, n):
        rng = random.Random(f"cells:{family}:{n}")
        if family == "in-range":
            seq = IntegerPairSequence(
                (rng.randrange(n), rng.randrange(n)) for _ in range(n)
            )
        else:
            seq = _family(family, rng, n)
        ordering = proper_order(seq)
        # One walk over all cells, in the row-major order that
        # ``split_partitions`` walks its zero cells in.
        for k, l, *blocks in _cell_blocks(ordering, all_cells(n), range(n)):
            expected = induced_partition_by_prefixes(seq, ordering, k, l)
            assert [*map(frozenset, blocks)] == [
                expected.pm, expected.plus, expected.minus, expected.zero
            ], (k, l)
        for _ in range(200):
            k, l = rng.randint(0, n), rng.randint(0, n)
            expected = induced_partition_by_prefixes(seq, ordering, k, l)
            assert induced_partition(seq, ordering, k, l) == expected


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
        assert proper_order(seq) == proper_order_by_tuples(seq)
        if family in ("planted", "empty", "complete"):
            assert Analysis(seq).split

    @pytest.mark.parametrize("n", [100, 250, 400])
    def test_matrix_and_witness_cell_on_in_range_sequences(self, n):
        # Unbalanced or non-digraphic: the recurrence and the walk rest on
        # the order of the degrees alone.
        rng = random.Random(f"in-range:{n}")
        seq = IntegerPairSequence((rng.randrange(n), rng.randrange(n)) for _ in range(n))
        a = Analysis(seq)
        matrix = splittance_matrix_by_rows(seq)
        assert a.matrix == matrix
        assert a.best_cell == best_cell_by_scan(matrix)
        assert a.maximal == maximal_sequences_quadratic(seq)


def two_family_answers(
    seq: IntegerPairSequence, slack: SlackPair
) -> tuple[bool, int | None]:
    """Digraphicality and splittance read off both slack families
    (``slack``, from ``fulkerson_slack_quadratic``), the forms the row-only
    answers replaced: digraphic when balanced with no negative entry in
    either family, and then the splittance is the smallest interior entry
    of both (0 for N < 2)."""
    if not (seq.is_balanced and min(slack.s_bar + slack.s_under) >= 0):
        return False, None
    return True, min(slack.s_bar[1 : seq.n] + slack.s_under[1 : seq.n], default=0)


def assert_rows_decide(
    seq: IntegerPairSequence,
    slack: SlackPair,
    reference_matrix: Callable[[IntegerPairSequence], SplittanceMatrix],
) -> bool:
    """``is_digraphic`` and ``digraph_splittance`` against the two-family
    forms of the quadratic ``slack`` and, on a digraphic sequence, against
    the minimum of its ``reference_matrix`` away from the trivial corners;
    True when the sequence is digraphic."""
    digraphic, splittance = two_family_answers(seq, slack)
    assert is_digraphic(seq) == digraphic, seq
    if not digraphic:
        with pytest.raises(NotDigraphicError):
            digraph_splittance(seq)
        return False
    assert digraph_splittance(seq) == splittance, seq
    if seq.n:
        matrix = reference_matrix(seq)
        assert splittance == matrix[best_cell_by_scan(matrix)], seq
    return True


def near_boundary_pairs(rng: random.Random, n: int, moves: int) -> IntegerPairSequence:
    """A planted split digraph's degree sequence with ``moves`` unit shifts
    within each degree column: still balanced and in range, and digraphic
    or not by a slack of about one."""
    g, _ = planted_split_digraph(rng, n)
    return unit_shifts(rng, degree_sequence(g), moves)


def unit_shifts(
    rng: random.Random, seq: IntegerPairSequence, moves: int
) -> IntegerPairSequence:
    """``seq`` with ``moves`` unit shifts within each degree column, each
    from one random entry to another where both stay in range."""
    n = seq.n
    outs, ins = list(seq.out_degrees), list(seq.in_degrees)
    for _ in range(moves):
        for column in (outs, ins):
            up, down = rng.sample(range(n), 2)
            if column[up] < n - 1 and column[down] > 0:
                column[up] += 1
                column[down] -= 1
    return IntegerPairSequence(zip(outs, ins))


class TestRowsDecide:
    # The answers read the out-major family alone: it decides
    # digraphicality, and the smallest row minimum is the splittance.

    def test_every_in_range_sequence(self, quadratic_slacks):
        # All 66 283 sequences with n <= 4, the empty one included.
        total = digraphic = 0
        everyone = (IntegerPairSequence(), *in_range_sequences(4))
        for seq, slack in zip(everyone, quadratic_slacks, strict=True):
            found = brute_realize(seq)
            if assert_rows_decide(seq, slack, splittance_matrix_bruteforce):
                assert found is not None and degree_sequence(found) == seq, seq
                digraphic += 1
            else:
                assert found is None, seq
            total += 1
        assert (total, digraphic) == (66283, 2725)

    @pytest.mark.parametrize("n", [100, 200, 300, 400])
    def test_seeded_balanced_sequences(self, n):
        # Random balanced entries fall far outside the digraphic ones; the
        # shifted split sequences land next to the boundary, on either side.
        rng = random.Random(f"rows-decide:{n}")
        sequences = [random_balanced_pairs(rng, n) for _ in range(3)]
        sequences += [near_boundary_pairs(rng, n, moves) for moves in (1, 1, 2, 3)]
        decided = [
            assert_rows_decide(s, fulkerson_slack_quadratic(s), splittance_matrix_by_rows)
            for s in sequences
        ]
        assert True in decided and False in decided


def block_pairs(rng: random.Random, n: int) -> IntegerPairSequence:
    """Degrees of the digraph whose arcs are exactly those a random quad
    partition forces: one pair per block, so ties everywhere, and split."""
    part = random_quad_partition(rng, n)
    senders, receivers = part.k, part.l
    pairs = [(0, 0)] * n
    for v in part.pm:
        pairs[v] = (receivers - 1, senders - 1)
    for v in part.plus:
        pairs[v] = (receivers, 0)
    for v in part.minus:
        pairs[v] = (0, senders)
    return IntegerPairSequence(pairs)


def tie_heavy_pairs(kind: str, rng: random.Random, n: int) -> IntegerPairSequence:
    """A sequence whose entries take few distinct values: ``regular`` (one
    pair (d, d), digraphic), ``levels`` (three values, the in-degrees a
    shuffle of the out-degrees), ``blocks`` (split) or ``blocks-shifted`` (``blocks`` with
    unit shifts within each column, next to the digraphic boundary)."""
    if kind == "regular":
        d = rng.randrange(n)
        return IntegerPairSequence([(d, d)] * n)
    if kind == "levels":
        levels = rng.sample(range(n), 3)
        outs = [rng.choice(levels) for _ in range(n)]
        return IntegerPairSequence(zip(outs, rng.sample(outs, n)))
    seq = block_pairs(rng, n)
    return seq if kind == "blocks" else unit_shifts(rng, seq, 3)


class TestLazyOrders:
    # The answers sort into the out-major order alone; the in-major order
    # is sorted when a later part reads ``ordering``.

    @pytest.mark.parametrize(
        "kind, n",
        [
            ("regular", 100),
            ("levels", 150),
            ("blocks", 300),
            ("blocks-shifted", 700),
            ("levels", 2000),
        ],
    )
    def test_tie_heavy_sequences(self, kind, n):
        rng = random.Random(f"{kind}:{n}")
        seq = tie_heavy_pairs(kind, rng, n)
        ordering = proper_order_by_tuples(seq)
        slack = fulkerson_slack_quadratic(seq)
        digraphic, splittance = two_family_answers(seq, slack)
        a = Analysis(seq)
        assert a.pos_perm == ordering.pos_perm
        assert a.s_bar == slack.s_bar
        assert a.digraphic == digraphic
        if digraphic:
            assert (a.splittance, a.split) == (splittance, splittance == 0)
        assert "ordering" not in vars(a)
        assert a.ordering == ordering
        assert a.ordering.pos_perm is a.pos_perm
        assert a.slack == slack
        assert proper_order(seq) == ordering
        if kind in ("regular", "blocks"):
            assert digraphic
        if kind == "blocks":
            assert splittance == 0

    @pytest.mark.parametrize(
        "pairs",
        [
            ((2, 1), (3, 2), (4, 2), (1, 2), (0, 3)),  # split
            ((1, 1),) * 4,  # digraphic, not split
            ((1, 0), (0, 0)),  # unbalanced
        ],
    )
    def test_answers_make_one_out_major_sort(self, pairs, monkeypatch):
        seq = IntegerPairSequence(pairs)
        sorts = []

        def counted(first, second):
            sorts.append("out" if first is seq.out_degrees else "in")
            return lex_order(first, second)

        monkeypatch.setattr("splitkit.splittance.lex_order", counted)
        for answer in (is_digraphic, is_split_sequence, digraph_splittance):
            sorts.clear()
            try:
                answer(seq)
            except NotDigraphicError:
                pass
            assert sorts == ["out"], answer
        sorts.clear()
        a = Analysis(seq)
        if a.digraphic:
            assert a.split == (a.splittance == 0)
        assert "ordering" not in vars(a)
        assert sorts == ["out"]


def every_partition(n: int):
    """Every quad partition of n vertices, trivial ones included."""
    for roles in product(range(4), repeat=n):
        blocks = [[v for v in range(n) if roles[v] == role] for role in range(4)]
        yield QuadPartition(n, *blocks)


def literal_degrees(g: Digraph) -> tuple[tuple[int, int], ...]:
    outs, ins = [0] * g.n, [0] * g.n
    for u, v in g.arcs:
        outs[u] += 1
        ins[v] += 1
    return tuple(zip(outs, ins))


def assert_store_matches_scan(g: Digraph, part: QuadPartition) -> None:
    """Bitset edit set, partition check and degrees against the scans."""
    scan = edit_set_by_scan(g, part)
    assert edit_set(g, part) == scan
    assert verify_split_partition(g, part) == (part.non_trivial and scan.size == 0)
    assert degree_sequence(g).pairs == literal_degrees(g)


class TestDigraphStore:
    def test_every_small_digraph_and_partition(self):
        # n <= 3: 1 + 1 + 4 + 64 digraphs, each against all 4^n partitions.
        checked = 0
        for n in range(4):
            partitions = list(every_partition(n))
            for g in enumerate_digraphs(n):
                for part in partitions:
                    assert_store_matches_scan(g, part)
                    checked += 1
        assert checked == 1 + 4 + 4 * 16 + 64 * 64

    def test_sampled_four_vertex_digraphs(self):
        rng = random.Random(4444)
        digraphs = list(enumerate_digraphs(4))
        partitions = list(every_partition(4))
        for g in rng.sample(digraphs, 200):
            for part in rng.sample(partitions, 20):
                assert_store_matches_scan(g, part)

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
    def test_seeded_large_digraphs(self, family, n):
        rng = random.Random(f"store:{family}:{n}")
        planted = None
        if family.startswith("gnp"):
            g = random_digraph(rng, n, float(family[3:]))
        elif family == "empty":
            g = Digraph(n)
        elif family == "complete":
            g = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        else:
            g, planted = planted_split_digraph(rng, n)
            if family == "planted-flipped":
                g = _flipped(rng, g, max(2, n // 100))
                planted = None
        edits, part = repair(g)
        assert_store_matches_scan(g, part)
        assert verify_split_partition(g.apply(edits), part)
        if planted is not None:
            assert verify_split_partition(g, planted)
            assert_store_matches_scan(g, planted)
        for _ in range(3):
            assert_store_matches_scan(g, random_quad_partition(rng, n))

    def test_arcs_round_trip_and_has_arc(self):
        rng = random.Random(2718)
        for _ in range(100):
            n = rng.randint(0, 9)
            arcs = {(u, v) for u in range(n) for v in range(n)
                    if u != v and rng.random() < 0.4}
            g = Digraph(n, sorted(arcs, key=lambda arc: rng.random()))
            assert g.arcs == frozenset(arcs)
            assert Digraph(n, g.arcs) == g
            for u in range(-2, n + 2):
                for v in range(-2, n + 2):
                    assert g.has_arc(u, v) == ((u, v) in arcs), (n, u, v)

    def test_repeated_arcs_count_once(self):
        g = Digraph(3, [(0, 1), (0, 1), (2, 1)])
        assert g.arcs == frozenset({(0, 1), (2, 1)})
        assert degree_sequence(g).pairs == ((1, 0), (0, 2), (1, 0))

    def test_equality_and_hashing(self):
        g = Digraph(4, [(0, 1), (2, 3), (3, 0)])
        same = Digraph(4, [(3, 0), (0, 1), (2, 3), (0, 1)])
        assert g == same and hash(g) == hash(same)
        assert len({g, same}) == 1
        assert g != Digraph(5, g.arcs)
        assert g != Digraph(4, [(0, 1), (2, 3)])
        assert g != Digraph(4, [(0, 1), (2, 3), (3, 1)])
        assert Digraph(0) == Digraph(0, [])
        assert len({Digraph(3), Digraph(3, [(0, 1)]), Digraph(3, [(1, 0)])}) == 3

    @pytest.mark.parametrize(
        "n, arcs, message",
        [
            (3, [(1, 1)], "loop at vertex 1 not allowed"),
            (2, [(0, 1), (0, 2)], r"arc \(0, 2\) outside vertex range \[0, 2\)"),
            (2, [(-1, 0)], r"arc \(-1, 0\) outside vertex range \[0, 2\)"),
            (0, [(0, 1)], r"arc \(0, 1\) outside vertex range \[0, 0\)"),
        ],
    )
    def test_constructor_rejects_with_the_arc_named(self, n, arcs, message):
        with pytest.raises(ValueError, match=message):
            Digraph(n, arcs)
