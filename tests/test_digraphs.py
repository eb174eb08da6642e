import random
import sys
from collections import Counter

import pytest

import splitkit.digraphs as digraphs
from splitkit import (
    Digraph,
    EditSet,
    QuadPartition,
    brute_splittance,
    degree_sequence,
    digraph_splittance,
    edit_set,
    repair,
    splittance_matrix,
    verify_split_partition,
)
from splitkit.splittance import partition_measure

from helpers import nontrivial_cells, random_digraph, random_quad_partition


class TestDigraph:
    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            Digraph(3, [(1, 1)])

    def test_out_of_range_arc_rejected(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 2)])

    def test_apply_edits(self):
        g = Digraph(3, [(0, 1)])
        fixed = g.apply(EditSet(add=[(1, 2)], remove=[(0, 1)]))
        assert fixed.arcs == frozenset({(1, 2)})

    def test_apply_rejects_overlapping_add(self):
        g = Digraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.apply(EditSet(add=[(0, 1)]))

    def test_apply_rejects_absent_removal(self):
        g = Digraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.apply(EditSet(remove=[(1, 2)]))

    def test_edit_set_rejects_add_remove_overlap(self):
        with pytest.raises(ValueError):
            EditSet(add=[(0, 1)], remove=[(0, 1)])

    def test_from_lists_rejects_a_repeated_arc(self):
        with pytest.raises(ValueError, match=r"^duplicate arc \(0, 1\)$"):
            Digraph.from_lists(3, [0, 1, 0], [1, 2, 1])
        assert Digraph.from_lists(3, [0, 1], [1, 2]) == Digraph(3, [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "n, arcs",
        [
            (2.9, [(0, 1)]),
            (2, [(0, 1.7)]),
            ("2", []),
            (3, [("0", 1)]),
            (2.5, [(0, 1)]),
            (3, [(1.5, 0)]),
        ],
    )
    def test_non_integral_vertex_count_or_label_raises(self, n, arcs):
        # Digraph(2.9, [(0, 1.7)]) used to be the digraph on 2 vertices with
        # the arc (0, 1); Digraph.from_lists(2.5, [0], [1]) had n == 2.5, and
        # Digraph.from_lists(3, [1.5], [0]) a source 1.5 that failed only
        # when its degrees were read.
        with pytest.raises(TypeError):
            Digraph(n, arcs)
        with pytest.raises(TypeError):
            Digraph.from_lists(n, [u for u, _ in arcs], [v for _, v in arcs])

    @pytest.mark.parametrize("u, v", [(2.0, 1), (2, 1.0), ("2", 1), (0.5, 1)])
    def test_has_arc_rejects_non_integral_labels(self, u, v):
        # has_arc(2.0, 1) used to answer True, and has_arc(2, 1.0) raised
        # from the shift.
        g = Digraph(3, [(2, 1)])
        assert g.has_arc(2, 1) and not g.has_arc(1, 2)
        with pytest.raises(TypeError):
            g.has_arc(u, v)

    @pytest.mark.parametrize(
        "add, remove", [([(0, 1.5)], []), ([], [(2.0, 1)]), ([("0", 1)], [])]
    )
    def test_edit_set_rejects_non_integral_labels(self, add, remove):
        with pytest.raises(TypeError):
            EditSet(add, remove)

    @pytest.mark.parametrize(
        "add, remove, message",
        [
            ([(0, 1, 2)], [], "arc (0, 1, 2) is not a pair"),
            ([], [5], "arc 5 is not a pair"),
            ([(0, 1)], [(1,)], "arc (1,) is not a pair"),
            ([(0, 1.5), [2, 0, 1]], [], "arc [2, 0, 1] is not a pair"),
        ],
    )
    def test_edit_set_rejects_an_arc_that_is_not_a_pair(self, add, remove, message):
        # The arc front end of ``Digraph(n, arcs)``: the same ValueError.
        with pytest.raises(ValueError) as raised:
            EditSet(add, remove)
        assert str(raised.value) == message


class TestArcContract:
    """``Digraph(n, arcs)`` and ``Digraph.from_lists`` keep one contract."""

    # (n, arcs, message) for one fault class each.
    FAULTS = {
        "loop": (3, [(0, 1), (1, 1)], "loop at vertex 1 not allowed"),
        "label n": (3, [(0, 1), (1, 3)], "arc (1, 3) outside vertex range [0, 3)"),
        "label -1": (3, [(0, 1), (-1, 2)], "arc (-1, 2) outside vertex range [0, 3)"),
        "source n": (3, [(0, 1), (3, 0)], "arc (3, 0) outside vertex range [0, 3)"),
        # Unchecked, the target would become the shift count of 1 << 10**30.
        "30-digit label": (
            3, [(0, 1), (2, 10**30)], f"arc (2, {10**30}) outside vertex range [0, 3)"
        ),
        "first range fault": (
            3, [(0, 1), (1, 7), (4, 0)], "arc (1, 7) outside vertex range [0, 3)"
        ),
        "n < 0": (-3, [], "negative vertex count -3"),
        # The first faulty arc in list order, whatever its class.
        "loop after a range fault": (
            3, [(0, 5), (2, 2)], "arc (0, 5) outside vertex range [0, 3)"
        ),
        # Arcs that are not pairs, which only Digraph(n, arcs) can be given:
        # the first one is named, before any fault of a label.
        "three labels": (3, [(0, 1), (0, 1, 2)], "arc (0, 1, 2) is not a pair"),
        "one label": (3, [(0,)], "arc (0,) is not a pair"),
        "a bare int": (3, [(0, 1), 5], "arc 5 is not a pair"),
        "not a pair after a float label": (
            3, [(0, 1.5), (1, 2), [2, 0, 1]], "arc [2, 0, 1] is not a pair"
        ),
    }

    @staticmethod
    def lists(arcs):
        """The source and target lists of ``arcs``, or None when an arc is
        not a pair, which ``from_lists`` cannot be given."""
        if all(isinstance(arc, tuple) and len(arc) == 2 for arc in arcs):
            return [u for u, _ in arcs], [v for _, v in arcs]
        return None

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_both_constructors_raise_the_same_message(self, fault):
        n, arcs, message = self.FAULTS[fault]
        with pytest.raises(ValueError) as from_pairs:
            Digraph(n, arcs)
        assert str(from_pairs.value) == message
        if self.lists(arcs) is not None:
            with pytest.raises(ValueError) as from_lists:
                Digraph.from_lists(n, *self.lists(arcs))
            assert str(from_lists.value) == message

    def test_an_arc_may_be_an_iterator(self):
        # Each arc is unpacked once, so an arc that is an iterator counts.
        assert Digraph(3, [iter((0, 1)), iter([2, 1])]) == Digraph(3, [(0, 1), (2, 1)])
        with pytest.raises(ValueError, match=r"^arc <list_iterator object at .*> is not a pair$"):
            Digraph(3, [(0, 1), iter([2])])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Digraph.from_lists(3, [0, 1], [5, 1]),
            lambda: Digraph.from_lists(3, [-1], [2]),
            lambda: Digraph.from_lists(3, [1], [1]),
            lambda: Digraph(-3),
            lambda: Digraph.from_lists(-3, [], []),
        ],
    )
    def test_no_digraph_is_built_outside_the_contract(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("n", [2**63, 10**12])
    def test_no_arcs_on_a_huge_vertex_count(self, n):
        # Nothing is sized by n before an arc asks for it.
        for g in Digraph(n), Digraph.from_lists(n, [], []):
            assert (g.n, g.succ, g.indegree) == (n, {}, Counter())

    def test_lists_of_different_lengths_raise(self):
        # Zipped unchecked, [0] and [1, 2] would give one arc and two in-degrees.
        with pytest.raises(ValueError, match="^1 sources but 2 targets$"):
            Digraph.from_lists(3, [0], [1, 2])
        with pytest.raises(ValueError, match="^2 sources but 1 targets$"):
            Digraph.from_lists(3, [0, 1], [1])

    def test_valid_lists_give_the_same_digraph(self):
        rng = random.Random(2010)
        for _ in range(30):
            n = rng.randint(100, 400)
            arcs = list({
                (u, v)
                for u, v in (
                    (rng.randrange(n), rng.randrange(n))
                    for _ in range(rng.randint(0, 4 * n))
                )
                if u != v
            })
            rng.shuffle(arcs)
            sources, targets = [u for u, _ in arcs], [v for _, v in arcs]
            g = Digraph.from_lists(n, sources, targets)
            # Digraph(...) merges repeats; from_lists would reject them.
            assert Digraph(n, arcs + arcs[: len(arcs) // 3]) == g
            assert g.arcs == frozenset(arcs)


def build_outcome(n, sources, targets):
    """What ``Digraph.from_lists`` gives: the exception class with the
    message of a ``ValueError``, or the store with its order."""
    try:
        g = Digraph.from_lists(n, list(sources), list(targets))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc) if isinstance(exc, ValueError) else None
    return Digraph, repr(g)


def pairs_outcome(n, sources, targets):
    """``build_outcome`` for ``Digraph(n, arcs)`` on the same arcs."""
    try:
        g = Digraph(n, zip(sources, targets))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc) if isinstance(exc, ValueError) else None
    return Digraph, repr(g)


def word_build_outcome(monkeypatch, n, sources, targets):
    """``build_outcome`` with every list sent to the word fill."""
    with monkeypatch.context() as patch:
        patch.setattr(digraphs, "_dense", lambda n, arcs, sources: False)
        return build_outcome(n, sources, targets)


class TestDenseFaults:
    """A dense arc list raises what the word fill raises, in the order the
    ``Digraph.from_lists`` docstring states."""

    N = 20  # 380 arcs from 20 sources: dense, as 380 >= 20 * 16

    @staticmethod
    def complete(n):
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
        return [u for u, _ in arcs], [v for _, v in arcs]

    # (planted (position, source, target) arcs, expected outcome).
    ORDER = {
        "loop before a float target": ([(5, 3, 3), (9, 1, 2.5)], (TypeError, None)),
        "loop after a float target": ([(5, 1, 2.5), (9, 3, 3)], (TypeError, None)),
        "loop of a float and an int": ([(9, 2.0, 2), (12, 4, 4)], (TypeError, None)),
        "loop after a range fault": (
            [(5, 1, 20), (9, 3, 3)], (ValueError, "arc (1, 20) outside vertex range [0, 20)")
        ),
        "loop and a repeat": ([(5, 0, 1), (9, 3, 3)], (ValueError, "duplicate arc (0, 1)")),
        "float target after a source range fault": (
            [(5, 20, 1), (9, 1, 2.5)], (TypeError, None)
        ),
        "integral float target": ([(5, 1, 2.0)], (TypeError, None)),
        "float source first seen": ([(0, 0.5, 1)], (TypeError, None)),
        "float source after a source range fault": (
            [(5, -1, 3), (9, 0.5, 1)], (TypeError, None)
        ),
        "target range fault after a float": ([(5, 1, 2.5), (9, 4, 20)], (TypeError, None)),
        "negative target after a float source": (
            [(0, 0.5, 1), (9, 4, -2)], (TypeError, None)
        ),
        "first of two range faults": (
            [(5, -1, 3), (9, 4, 21)], (ValueError, "arc (-1, 3) outside vertex range [0, 20)")
        ),
        "source range fault": (
            [(9, 20, 1)], (ValueError, "arc (20, 1) outside vertex range [0, 20)")
        ),
        "repeat": ([(5, 0, 1)], (ValueError, "duplicate arc (0, 1)")),
    }

    @classmethod
    def planted(cls, case):
        planted, expected = cls.ORDER[case]
        sources, targets = cls.complete(cls.N)
        # Inserted one after another, so later positions count the earlier
        # insertions.
        for i, u, v in planted:
            sources.insert(i, u)
            targets.insert(i, v)
        return sources, targets, expected

    @pytest.mark.parametrize("case", sorted(ORDER))
    def test_documented_order(self, monkeypatch, case):
        sources, targets, expected = self.planted(case)
        assert build_outcome(self.N, sources, targets) == expected
        assert word_build_outcome(monkeypatch, self.N, sources, targets) == expected

    def test_integral_float_source_after_its_int(self, monkeypatch):
        # It would share the int's row; both fills refuse it.
        sources, targets = self.complete(self.N)
        sources[-1], targets[-1] = 19.0, 18
        assert build_outcome(self.N, sources, targets) == (TypeError, None)
        assert word_build_outcome(monkeypatch, self.N, sources, targets) == (TypeError, None)

    @pytest.mark.parametrize(
        "kind, case",
        [
            ("fault", fault)
            for fault, (_, arcs, _) in sorted(TestArcContract.FAULTS.items())
            if TestArcContract.lists(arcs) is not None
        ]
        + [("order", case) for case in sorted(ORDER)]
        + [("float source after its int", n) for n in (5, 20)],
    )
    def test_one_contract(self, kind, case):
        # Both constructors raise the same class, and the same message for
        # a ValueError, except that Digraph(n, arcs) merges repeats: where
        # from_lists names a repeat, it gives what from_lists gives on the
        # merged list.
        if kind == "fault":
            n, arcs, _ = TestArcContract.FAULTS[case]
            sources, targets = TestArcContract.lists(arcs)
        elif kind == "order":
            n, (sources, targets, _) = self.N, self.planted(case)
        else:
            n, sources, targets = case, [2, 2.0], [0, 1]
        from_lists = build_outcome(n, sources, targets)
        from_pairs = pairs_outcome(n, sources, targets)
        assert from_lists[0] is not Digraph
        if from_lists[1] and from_lists[1].startswith("duplicate arc"):
            distinct = list(dict.fromkeys(zip(sources, targets)))
            assert from_pairs == build_outcome(n, *zip(*distinct))
        else:
            assert from_pairs == from_lists

    def test_planted_faults_raise_as_the_word_build(self, monkeypatch):
        # Dense lists at N >= 64, each with one to three planted faults.
        rng = random.Random(2020)
        dense = digraphs._dense
        fills = []

        def spy(*counts):
            # The fault walk reads the rule too; only the build's call picks a fill.
            if sys._getframe(1).f_code is not digraphs._arc_fault.__code__:
                fills.append(dense(*counts))
            return dense(*counts)

        outcomes, rows_ran = Counter(), Counter()
        for _ in range(300):
            n = rng.randint(64, 80)
            p = rng.choice((0.4, 1.0))
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
            rng.shuffle(arcs)
            sources, targets = [u for u, _ in arcs], [v for _, v in arcs]
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(sources))
                side = sources if rng.random() < 0.5 else targets
                kind = rng.randrange(6)
                if kind == 0:
                    targets[i] = sources[i]
                elif kind == 1:
                    side[i] = n + rng.randrange(3)
                elif kind == 2:
                    side[i] = -1 - rng.randrange(3)
                elif kind == 3:
                    j = rng.randrange(len(sources) + 1)
                    sources.insert(j, sources[i])
                    targets.insert(j, targets[i])
                elif kind == 4:
                    side[i] += 0.5
                else:
                    side[i] = float(side[i])
            expected = word_build_outcome(monkeypatch, n, sources, targets)
            fills.clear()
            with monkeypatch.context() as patch:
                patch.setattr(digraphs, "_dense", spy)
                assert build_outcome(n, sources, targets) == expected
            outcomes[expected[0]] += 1
            # The fill runs once its labels are in range and its sources
            # integers: a loop, a float target or a repeat is left to it.
            assert fills in ([], [True]), fills
            if fills:
                rows_ran[expected[0]] += 1
        # Every planted fault is refused, a float equal to an int included,
        # and the byte fill itself refuses both kinds.
        assert set(outcomes) == {TypeError, ValueError}, outcomes
        assert min(rows_ran[TypeError], rows_ran[ValueError]) > 10, rows_ran


class TestDegreeSequence:
    def test_worked_realization(self, ex1_digraph, ex1):
        assert degree_sequence(ex1_digraph).pairs == ex1.pairs

    def test_empty_graph(self):
        assert degree_sequence(Digraph(3)).pairs == ((0, 0),) * 3

    def test_complete_digraph(self):
        g = Digraph(3, [(u, v) for u in range(3) for v in range(3) if u != v])
        assert degree_sequence(g).pairs == ((2, 2),) * 3


class TestVerifySplitPartition:
    def test_worked_example(self, ex1_digraph):
        part = QuadPartition(5, pm={1, 2}, minus={4}, zero={0, 3})
        assert verify_split_partition(ex1_digraph, part)

    def test_trivial_partition_rejected(self, ex1_digraph):
        assert not verify_split_partition(
            ex1_digraph, QuadPartition(5, plus=range(5))
        )

    def test_missing_forced_arc(self):
        g = Digraph(2)  # no arcs at all
        assert not verify_split_partition(g, QuadPartition(2, pm={0, 1}))

    def test_forbidden_arc_present(self):
        g = Digraph(2, [(0, 1)])
        assert not verify_split_partition(g, QuadPartition(2, zero={0, 1}))

    def test_matches_measure_zero_on_random_instances(self):
        rng = random.Random(24601)
        for _ in range(400):
            n = rng.randint(1, 6)
            g = random_digraph(rng, n)
            part = random_quad_partition(rng, n)
            expected = (
                partition_measure(degree_sequence(g), part) == 0
                and part.non_trivial
            )
            assert verify_split_partition(g, part) == expected


class TestEditSet:
    def test_worked_example_needs_nothing(self, ex1_digraph):
        part = QuadPartition(5, pm={1, 2}, minus={4}, zero={0, 3})
        edits = edit_set(ex1_digraph, part)
        assert edits.size == 0

    def test_complete_digraph_with_one_vertex_demoted(self):
        n = 4
        g = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        part = QuadPartition(n, pm=range(n - 1), zero={n - 1})
        # Already split: the demoted vertex keeps its arcs legally.
        assert edit_set(g, part).size == 0
        assert verify_split_partition(g, part)

    def test_size_equals_partition_measure(self):
        rng = random.Random(1729)
        for _ in range(400):
            n = rng.randint(1, 5)
            g = random_digraph(rng, n)
            part = random_quad_partition(rng, n)
            edits = edit_set(g, part)
            assert edits.size == partition_measure(degree_sequence(g), part)

    def test_applying_edits_satisfies_the_partition(self):
        rng = random.Random(4181)
        for _ in range(300):
            n = rng.randint(1, 5)
            g = random_digraph(rng, n)
            part = random_quad_partition(rng, n)
            fixed = g.apply(edit_set(g, part))
            if part.non_trivial:
                assert verify_split_partition(fixed, part)
            else:
                assert edit_set(fixed, part).size == 0

    def test_partition_of_another_vertex_count_raises(self):
        g = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError) as caught:
            edit_set(g, QuadPartition(3, pm={0}, zero={1, 2}))
        assert str(caught.value) == "partition covers 3 vertices, digraph has 4"


class TestRepair:
    def test_split_realization_needs_nothing(self, ex1_digraph):
        edits, part = repair(ex1_digraph)
        assert edits.size == 0
        assert verify_split_partition(ex1_digraph, part)

    def test_single_vertex(self):
        edits, part = repair(Digraph(1))
        assert edits.size == 0
        assert part.zero == frozenset({0})

    def test_four_cycle_repairs_with_one_edit(self):
        g = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        edits, part = repair(g)
        assert edits.size == 1
        assert verify_split_partition(g.apply(edits), part)

    def test_matches_brute_edit_distance_small(self):
        rng = random.Random(6174)
        for _ in range(150):
            n = rng.randint(1, 4)
            g = random_digraph(rng, n)
            edits, part = repair(g)
            assert edits.size == brute_splittance(g)
            assert verify_split_partition(g.apply(edits), part)

    def test_repairing_twice_changes_nothing(self):
        rng = random.Random(28657)
        for _ in range(150):
            g = random_digraph(rng, rng.randint(1, 5))
            edits, _ = repair(g)
            second, _ = repair(g.apply(edits))
            assert second.size == 0

    def test_count_is_realization_independent(self):
        # Two different realizations of the same degree sequence repair at
        # the same cost.
        g1 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        g2 = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert degree_sequence(g1).pairs == degree_sequence(g2).pairs
        assert repair(g1)[0].size == repair(g2)[0].size == 1

    def test_zero_vertex_graph(self):
        edits, part = repair(Digraph(0))
        assert edits.size == 0
        assert part.n == 0

    def test_count_always_equals_splittance(self):
        # The partition comes from the row-major first cell holding the
        # matrix minimum.
        rng = random.Random(75025)
        for _ in range(200):
            g = random_digraph(rng, rng.randint(1, 6))
            edits, part = repair(g)
            seq = degree_sequence(g)
            assert edits.size == digraph_splittance(seq)
            nontrivial = nontrivial_cells(splittance_matrix(seq))
            assert (part.k, part.l) == next(
                (k, l) for k, l, v in nontrivial if v == edits.size
            )

    def test_count_is_invariant_under_relabeling(self):
        # Permuting vertex labels permutes the degree sequence; the repair
        # cost must not notice.
        rng = random.Random(832040)
        for _ in range(100):
            n = rng.randint(2, 6)
            g = random_digraph(rng, n)
            relabel = list(range(n))
            rng.shuffle(relabel)
            h = Digraph(n, ((relabel[u], relabel[v]) for u, v in g.arcs))
            assert repair(g)[0].size == repair(h)[0].size
