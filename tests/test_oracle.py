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
    NegativeDegreeError,
    UnbalancedSequenceError,
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
        seq = IntegerPairSequence([(0, 0)] * 1025)
        with pytest.raises(BudgetExceededError):
            brute_realize(seq)

    def test_arc_slot_rule_refuses_before_validating(self, monkeypatch):
        # 1025 * 1024 unit arcs pass 2^MAX_ARC_SLOTS: the flow refuses before
        # it validates, and so before it fills any table.  The 1024 * 1023
        # arcs on 1024 vertices are within the rule.
        def no_flow(seq):
            raise AssertionError("the flow started")

        monkeypatch.setattr(oracle, "validate", no_flow)
        with pytest.raises(BudgetExceededError, match=r"1049600 arcs on 1025 vertices exceeds 2\^20"):
            brute_realize(IntegerPairSequence([(1, 1)] * 1025))
        validated = []
        monkeypatch.undo()
        monkeypatch.setattr(oracle, "validate", lambda seq: validated.append(seq) or validate(seq))
        seq = IntegerPairSequence([(1, 1)] * 1024)
        assert degree_sequence(brute_realize(seq)) == seq
        assert validated == [seq]

    @pytest.mark.parametrize(
        "pairs",
        [[(0, 0)] * 1024, [(1, 1)] * 1024, [(1, 0)] * 512 + [(0, 1)] * 512],
    )
    def test_searches_deeper_than_the_recursion_limit(self, pairs):
        # More vertices than the interpreter allows nested calls, and the
        # most the arc-slot rule admits, with no budget to raise.
        seq = IntegerPairSequence(pairs)
        assert seq.n > sys.getrecursionlimit()
        g = brute_realize(seq)
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


    def test_agrees_with_the_inequality_test_at_scale(self):
        # A planted split digraph's degree sequence meets a Fulkerson
        # inequality with equality, so one unit more on the largest out- and
        # the largest in-degree below N - 1 makes it non-digraphic.  Its
        # converse (o, i) -> (i, o) and its complement (N-1-o, N-1-i), dense
        # where the digraph is sparse, have the same verdict.
        rng = random.Random(31)
        for n in sorted(rng.randrange(50, 301) for _ in range(12)):
            seq = degree_sequence(planted_split_digraph(rng, n)[0])
            outs, ins = list(seq.out_degrees), list(seq.in_degrees)
            outs[max((v for v in range(n) if outs[v] < n - 1), key=outs.__getitem__)] += 1
            ins[max((v for v in range(n) if ins[v] < n - 1), key=ins.__getitem__)] += 1
            moved = IntegerPairSequence(zip(outs, ins))
            for base, digraphic in ((seq, True), (moved, False)):
                for related in (
                    base,
                    IntegerPairSequence((i, o) for o, i in base.pairs),
                    IntegerPairSequence((n - 1 - o, n - 1 - i) for o, i in base.pairs),
                ):
                    assert is_digraphic(related) == digraphic
                    found = brute_realize(related)
                    assert (found is not None) == digraphic
                    assert found is None or degree_sequence(found) == related

class TestBruteMinPartitionMeasure:
    def test_worked_example(self, ex1):
        assert brute_min_partition_measure(ex1) == 0

    def test_single_vertex(self):
        assert brute_min_partition_measure(IntegerPairSequence([(0, 0)])) == 0

    def test_over_budget(self):
        seq = IntegerPairSequence([(0, 0)] * 11)
        with pytest.raises(BudgetExceededError):
            brute_min_partition_measure(seq)

    def test_unbalanced_sequence_refused_after_validation(self):
        with pytest.raises(
            UnbalancedSequenceError, match="out-degree total 1 but in-degree total 0"
        ):
            brute_min_partition_measure(IntegerPairSequence([(1, 0), (0, 0)]))
        with pytest.raises(NegativeDegreeError):
            brute_min_partition_measure(IntegerPairSequence([(1, -1), (0, 0)]))

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

    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
    def test_matches_repair_beyond_the_literal_search(self, n):
        # The central claim on digraphs too large for a table of every
        # digraph: the fewest edits to any split digraph is the splittance
        # of the degree sequence, which ``repair`` reaches.  Up to the
        # default cap, 11 seeded digraphs a size; at 9 and 10 vertices,
        # under a cap of 10, a random one, a planted split one and that one
        # with 3 arcs flipped.
        if n <= 8:
            densities, copies, flip_counts = (0.2, 0.35, 0.5, 0.65, 0.8), 2, (1, 3)
        else:
            densities, copies, flip_counts = (0.35,), 1, (3,)
        rng = random.Random(121393 + n)
        randoms = [random_digraph(rng, n, p) for p in densities]
        planted = [planted_split_digraph(rng, n)[0] for _ in range(copies)]
        graphs = planted + randoms
        graphs += [flipped(rng, g, flips) for g in planted for flips in flip_counts]
        budget = EnumerationBudget(max_vertices=10)
        edits = [brute_splittance(g, budget) for g in graphs]
        assert edits == [repair(g)[0].size for g in graphs]
        assert edits[: len(planted)] == [0] * len(planted)

    def test_eight_vertices_in_bounded_memory(self):
        # 4^8 - 2 partitions streamed as mask pairs against 2^8-entry tables.
        prelude = (
            "from splitkit import Digraph, brute_splittance\n"
            "cycle = Digraph(8, [(i, (i + 1) % 8) for i in range(8)])\n"
        )
        [(edits, peak)] = traced_peaks(prelude, ["brute_splittance(cycle)"])
        cycle = Digraph(8, [(i, (i + 1) % 8) for i in range(8)])
        assert edits == digraph_splittance(degree_sequence(cycle))
        assert peak < 1 << 20


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
        # refuses above it before it builds any table.
        def no_table(n):
            raise AssertionError("the digraph table was built")

        def no_sums(values):
            raise AssertionError("the sweep's subset sums were built")

        monkeypatch.setattr(helpers, "_split_membership", no_table)
        monkeypatch.setattr(oracle, "_subset_sums", no_sums)
        budget = EnumerationBudget(max_vertices=8)
        cycle = Digraph(n, [(i, (i + 1) % n) for i in range(n)])
        with pytest.raises(BudgetExceededError, match=f"capped at {n - 1} vertices"):
            brute_splittance(cycle, EnumerationBudget(max_vertices=n - 1))
        with pytest.raises(BudgetExceededError, match=rf"2\^{n * (n - 1)} digraphs"):
            splittance_by_edit_search(cycle, budget)
        with pytest.raises(BudgetExceededError):
            enumerate_digraphs(n, budget)

    def test_partition_count_rule_refuses_before_sweeping(self, monkeypatch):
        # 4^11 = 2^22 partitions; at 16 vertices the sweep would take 4 096
        # times as long as at 10.  The rule holds whatever the vertex cap.
        def no_sweep(n):
            raise AssertionError("the partition sweep started")

        def no_sums(values):
            raise AssertionError("the sweep's subset sums were built")

        monkeypatch.setattr(oracle, "_quad_partitions", no_sweep)
        monkeypatch.setattr(oracle, "_subset_sums", no_sums)
        budget = EnumerationBudget(max_vertices=16)
        for n in (11, 16):
            with pytest.raises(BudgetExceededError, match=rf"2\^{2 * n} partitions"):
                brute_min_partition_measure(IntegerPairSequence([(0, 0)] * n), budget)
            with pytest.raises(BudgetExceededError, match=rf"2\^{2 * n} partitions"):
                brute_splittance(Digraph(n), budget)

    def test_partition_count_rule_admits_ten_vertices(self, monkeypatch):
        # 4^10 = 2^20 partitions is the largest sweep the rule allows; each
        # sweep builds two tables of 2^10 subset sums.
        swept, tables = [], []

        def recorded(values, _sums=oracle._subset_sums):
            tables.append(_sums(values))
            return tables[-1]

        monkeypatch.setattr(oracle, "_quad_partitions", lambda n: swept.append(n) or ())
        monkeypatch.setattr(oracle, "_subset_sums", recorded)
        seq = IntegerPairSequence([(0, 0)] * 10)
        budget = EnumerationBudget(max_vertices=16)
        assert brute_min_partition_measure(seq, budget) == 0
        assert brute_splittance(Digraph(10), budget) == 0
        assert swept == [10, 10]
        assert [len(table) for table in tables] == [1 << 10] * 4

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
            parts = nontrivial_partitions(n)
            assert len(parts) == len(set(parts)) == 4**n - 2
            assert all(part.non_trivial for part in parts)

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
