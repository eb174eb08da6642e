import ast
import dataclasses
import random
import sys
from itertools import product
from pathlib import Path

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
from splitkit import oracle, repair, splittance
from splitkit.sequences import validate

import helpers
from helpers import (
    enumerate_digraphs,
    nontrivial_partitions,
    planted_split_digraph,
    random_balanced_pairs,
    random_digraph,
    splittance_by_edit_search,
    traced_peaks,
)


def flipped(rng: random.Random, g: Digraph, flips: int) -> Digraph:
    """``g`` with ``flips`` distinct arc slots toggled."""
    slots = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
    return Digraph(g.n, g.arcs.symmetric_difference(rng.sample(slots, flips)))


class TestEnumerateDigraphs:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 4), (3, 64)])
    def test_exhaustive_counts(self, n, count):
        graphs = list(enumerate_digraphs(n))
        assert len(graphs) == count
        assert len({g.arcs for g in graphs}) == count

    def test_four_vertex_count(self):
        assert sum(1 for _ in enumerate_digraphs(4)) == 4096

    def test_over_budget_without_sampling(self):
        # 2^30 digraphs on 6 vertices exceed the 2^20 rule; the default cap
        # of 8 vertices does not decide it.
        with pytest.raises(BudgetExceededError):
            list(enumerate_digraphs(6))


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

    def test_gives_up_after_the_placement_bound(self, ex1, monkeypatch):
        # The worked example takes more than 2^2 and at most 2^3 placements;
        # its 5 vertices are well within the vertex cap.
        monkeypatch.setattr(oracle, "MAX_ARC_SLOTS", 2)
        with pytest.raises(BudgetExceededError, match="passed 2\\^2 placements"):
            brute_realize(ex1)
        monkeypatch.setattr(oracle, "MAX_ARC_SLOTS", 3)
        assert degree_sequence(brute_realize(ex1)) == ex1

    @pytest.mark.parametrize(
        "pairs",
        [[(0, 0)] * 1100, [(1, 1)] * 1100, [(1, 0)] * 600 + [(0, 1)] * 600],
    )
    def test_searches_deeper_than_the_recursion_limit(self, pairs):
        # One search level per vertex, more levels than the interpreter
        # allows nested calls.
        seq = IntegerPairSequence(pairs)
        assert seq.n > sys.getrecursionlimit()
        g = brute_realize(seq, EnumerationBudget(seq.n))
        assert g is not None and degree_sequence(g) == seq

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

    def test_validates_once_per_sweep(self, monkeypatch):
        seq = IntegerPairSequence([(1, 1), (1, 0), (0, 1)])
        expected = brute_min_partition_measure(seq)
        calls = []

        def counting_validate(s):
            calls.append(s)
            validate(s)

        monkeypatch.setattr(oracle, "validate", counting_validate)
        monkeypatch.setattr(splittance, "validate", counting_validate)
        assert brute_min_partition_measure(seq) == expected
        assert len(calls) == 1

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
        with pytest.raises(BudgetExceededError, match="capped at 8 vertices"):
            brute_splittance(Digraph(9))
        with pytest.raises(BudgetExceededError, match=r"2\^22 partitions on 11 vertices"):
            brute_splittance(Digraph(11), EnumerationBudget(max_vertices=16))

    def test_five_vertices_within_the_default_budget(self):
        cycle = Digraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert brute_splittance(cycle) == digraph_splittance(degree_sequence(cycle))

    def test_matches_the_literal_edit_search(self):
        # Every digraph on at most 4 vertices, then seeded ones on 5: sparse
        # and dense, split and a few edits away from split.
        count = 0
        for n in range(5):
            for g in enumerate_digraphs(n):
                assert brute_splittance(g) == splittance_by_edit_search(g), sorted(g.arcs)
                count += 1
        assert count == 1 + 1 + 4 + 64 + 4096
        rng = random.Random(75025)
        for i in range(48):
            if i % 3 == 0:
                g = random_digraph(rng, 5, rng.random())
            else:
                g = flipped(rng, planted_split_digraph(rng, 5)[0], i % 3 * rng.randint(1, 2))
            assert brute_splittance(g) == splittance_by_edit_search(g), sorted(g.arcs)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_matches_repair_beyond_the_literal_search(self, n):
        # The central claim on digraphs too large for a table of every
        # digraph: the fewest edits to any split digraph is the splittance
        # of the degree sequence, which ``repair`` reaches.
        rng = random.Random(121393 + n)
        graphs = [random_digraph(rng, n, p) for p in (0.2, 0.35, 0.5, 0.65, 0.8)]
        planted = [planted_split_digraph(rng, n)[0] for _ in range(2)]
        graphs += planted + [flipped(rng, g, flips) for g in planted for flips in (1, 3)]
        for g in graphs:
            assert brute_splittance(g) == repair(g)[0].size, sorted(g.arcs)
        assert [brute_splittance(g) for g in planted] == [0, 0]

    def test_masks_cached_for_one_vertex_count(self):
        for n in (3, 4, 3):
            brute_splittance(Digraph(n))
            assert oracle._partition_masks.cache_info().currsize == 1

    def test_eight_vertices_in_bounded_memory(self):
        # 4^8 - 2 partitions, two arc masks each: 8 MiB traced.
        prelude = (
            "from splitkit import Digraph, brute_splittance\n"
            "cycle = Digraph(8, [(i, (i + 1) % 8) for i in range(8)])\n"
        )
        [(edits, peak)] = traced_peaks(prelude, ["brute_splittance(cycle)"])
        cycle = Digraph(8, [(i, (i + 1) % 8) for i in range(8)])
        assert edits == digraph_splittance(degree_sequence(cycle))
        assert peak < 16 << 20


class TestBudget:
    def test_one_vertex_cap(self):
        assert [f.name for f in dataclasses.fields(EnumerationBudget)] == [
            "max_vertices"
        ]
        assert EnumerationBudget() == EnumerationBudget(8)

    @pytest.mark.parametrize("n", [6, 7])
    def test_digraph_count_rule_refuses_before_allocating(self, n, monkeypatch):
        # The 2^(n(n - 1)) digraphs bound the enumeration and the literal
        # edit search, whose table would take 2^42 bytes at 7 vertices.  The
        # edit-distance sweep is bound by the vertex cap alone here, and
        # refuses above it before it builds any mask.
        def no_table(n):
            raise AssertionError("the digraph table was built")

        def no_masks(n):
            raise AssertionError("the partition masks were built")

        monkeypatch.setattr(helpers, "_split_membership", no_table)
        monkeypatch.setattr(oracle, "_partition_masks", no_masks)
        budget = EnumerationBudget(max_vertices=8)
        cycle = Digraph(n, [(i, (i + 1) % n) for i in range(n)])
        with pytest.raises(BudgetExceededError, match=f"capped at {n - 1} vertices"):
            brute_splittance(cycle, EnumerationBudget(max_vertices=n - 1))
        with pytest.raises(BudgetExceededError, match=rf"2\^{n * (n - 1)} digraphs"):
            splittance_by_edit_search(cycle, budget)
        with pytest.raises(BudgetExceededError):
            enumerate_digraphs(n, budget)

    def test_partition_count_rule_refuses_before_sweeping(self, monkeypatch):
        # 4^11 = 2^22 partitions; at 16 vertices the sweep would run for
        # hours.  The rule holds whatever the vertex cap.
        def no_sweep(n):
            raise AssertionError("the partition sweep started")

        monkeypatch.setattr(oracle, "_quad_partitions", no_sweep)
        monkeypatch.setattr(oracle, "_partition_masks", no_sweep)
        budget = EnumerationBudget(max_vertices=16)
        for n in (11, 16):
            with pytest.raises(BudgetExceededError, match=rf"2\^{2 * n} partitions"):
                brute_min_partition_measure(IntegerPairSequence([(0, 0)] * n), budget)
            with pytest.raises(BudgetExceededError, match=rf"2\^{2 * n} partitions"):
                brute_splittance(Digraph(n), budget)

    def test_partition_count_rule_admits_ten_vertices(self, monkeypatch):
        # 4^10 = 2^20 partitions is the largest sweep the rule allows.
        swept = []
        monkeypatch.setattr(oracle, "_quad_partitions", lambda n: swept.append(n) or ())
        monkeypatch.setattr(oracle, "_partition_masks", lambda n: swept.append(n) or ())
        seq = IntegerPairSequence([(0, 0)] * 10)
        budget = EnumerationBudget(max_vertices=16)
        assert brute_min_partition_measure(seq, budget) == 0
        assert brute_splittance(Digraph(10), budget) == 0
        assert swept == [10, 10]

    def test_sweep_streams_its_partitions(self):
        prelude = (
            "from splitkit import IntegerPairSequence, brute_min_partition_measure\n"
            "seq = IntegerPairSequence([(1, 1)] * 7)\n"
        )
        [(measure, peak)] = traced_peaks(prelude, ["brute_min_partition_measure(seq)"])
        assert measure == digraph_splittance(IntegerPairSequence([(1, 1)] * 7))
        assert peak < 1 << 20


class TestPartitionEnumeration:
    def test_counts_exclude_exactly_two_trivial(self):
        # 4^n assignments minus the all-plus and all-minus ones.
        for n in range(1, 5):
            assert len(nontrivial_partitions(n)) == 4**n - 2

    def test_zero_vertices_has_no_nontrivial(self):
        assert nontrivial_partitions(0) == ()


class TestShippedNames:
    ROOT = Path(__file__).parent.parent

    @staticmethod
    def names(path):
        """Every name ``path`` reads, imports or reads as an attribute."""
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
        return found

    def test_every_public_search_has_a_caller(self):
        # The package ships a public function or class of the oracle only
        # for the CLI, the top level or the benchmark to call; references
        # that only the tests call live in ``helpers``.  Constants such as
        # MAX_ARC_SLOTS are settings the searches read, not entry points.
        package = self.ROOT / "src" / "splitkit"
        tree = ast.parse((package / "oracle.py").read_text(encoding="utf-8"))
        public = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        }
        callers = [path for path in package.glob("*.py") if path.name != "oracle.py"]
        callers += (self.ROOT / "perfbench").rglob("*.py")
        referenced = set().union(*map(self.names, callers))
        assert "brute_realize" in public
        assert sorted(public - referenced) == []
