import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

import splitkit.undirected as undirected
from splitkit import (
    EmptySequenceError,
    IntegerSequence,
    NegativeDegreeError,
    NotGraphicError,
    OutOfRangeError,
    corrected_durfee,
    eg_slack,
    is_graphic,
    is_split_undirected,
    splittance_sequence,
    undirected_splittance,
)
from helpers import (
    corrected_durfee_by_loop,
    eg_slack_quadratic,
    gnp_graph_degrees,
    is_split_graph,
    planted_split_graph_degrees,
    realize_undirected,
    undirected_edit_distance,
    validate_degrees_by_loop,
)

BASELINE = (4, 3, 3, 3, 3)


class TestCorrectedDurfee:
    def test_baseline(self):
        assert corrected_durfee(BASELINE) == 4

    def test_all_isolated(self):
        assert corrected_durfee([0, 0, 0]) == 1

    def test_triangle(self):
        assert corrected_durfee([2, 2, 2]) == 3

    def test_empty_raises(self):
        with pytest.raises(EmptySequenceError):
            corrected_durfee([])

    def test_sorting_is_internal(self):
        assert corrected_durfee([3, 3, 4, 3, 3]) == 4


class TestSplittanceSequence:
    def test_baseline(self):
        assert splittance_sequence(BASELINE) == [8, 4, 2, 1, 1, 2]

    def test_two_isolated(self):
        assert splittance_sequence([0, 0]) == [0, 0, 1]

    def test_values_are_exact_rationals(self):
        values = splittance_sequence([1, 1, 1])  # odd sum, not graphic
        assert values[0] == Fraction(3, 2)
        assert all(isinstance(v, Fraction) for v in values)

    def test_matches_the_definition(self):
        rng = random.Random(1597)
        for n in range(1, 41):
            degs = [rng.randrange(n) for _ in range(n)]
            ordered = sorted(degs, reverse=True)
            assert splittance_sequence(degs) == [
                Fraction(k * (k - 1) - sum(ordered[:k]) + sum(ordered[k:]), 2)
                for k in range(n + 1)
            ]

    def test_single_minimum_region(self):
        # Non-increasing up to the corrected Durfee index, strictly
        # increasing beyond it.
        rng = random.Random(5150)
        for _ in range(200):
            n = rng.randint(1, 9)
            degs = sorted((rng.randrange(n) for _ in range(n)), reverse=True)
            sigma = splittance_sequence(degs)
            m = corrected_durfee(degs)
            for k in range(1, n + 1):
                if k <= m:
                    assert sigma[k] <= sigma[k - 1]
                else:
                    assert sigma[k] > sigma[k - 1]


class TestSlack:
    def test_baseline(self):
        assert eg_slack(BASELINE) == [0, 0, 1, 2, 2, 0]

    def test_all_isolated(self):
        assert eg_slack([0, 0, 0]) == [0, 0, 0, 0]

    def test_single_edge(self):
        assert eg_slack([1, 1]) == [0, 0, 0]

    def test_doubled_splittance_equals_slack_at_durfee(self):
        rng = random.Random(90125)
        for _ in range(300):
            n = rng.randint(1, 10)
            degs = [rng.randrange(n) for _ in range(n)]
            m = corrected_durfee(degs)
            assert 2 * splittance_sequence(degs)[m] == eg_slack(degs)[m]

    def test_doubled_splittance_equals_slack_at_durfee_when_graphic(self):
        # The slack recognition of split sequences agrees with the
        # splittance one on every graphic non-increasing sequence, n <= 7.
        checked = 0
        for n in range(1, 8):
            for degs in combinations_with_replacement(range(n - 1, -1, -1), n):
                if is_graphic(degs):
                    m = corrected_durfee(degs)
                    assert 2 * undirected_splittance(degs) == eg_slack(degs)[m], degs
                    checked += 1
        assert checked == 493

    def test_linear_pass_matches_literal_sums_exhaustively(self):
        # Every non-increasing in-range sequence with n <= 7, the 493
        # graphic ones among them.
        graphic = 0
        for n in range(8):
            for degs in combinations_with_replacement(range(n - 1, -1, -1), n):
                assert eg_slack(degs) == eg_slack_quadratic(degs), degs
                graphic += is_graphic(degs)
        assert graphic == 1 + 493

    def test_linear_pass_matches_literal_sums_at_large_n(self):
        # Random sequences and degree sequences of random graphs, N in the
        # hundreds; shuffled, since eg_slack sorts internally.
        rng = random.Random(2011)
        for n in (200, 333, 500):
            degs = [rng.randrange(n) for _ in range(n)]
            assert eg_slack(degs) == eg_slack_quadratic(degs)
            for p in (0.05, 0.3, 0.7):
                degs = gnp_graph_degrees(rng, n, p)
                assert is_graphic(degs)
                assert eg_slack(degs) == eg_slack_quadratic(degs)


class TestIsGraphic:
    def test_baseline(self):
        assert is_graphic(BASELINE)

    @pytest.mark.parametrize("degrees", [[1.5, 1.5], [1.0, 1.0], ["1", "1"]])
    def test_non_integral_degrees_raise(self, degrees):
        with pytest.raises(TypeError):
            IntegerSequence(degrees)
        with pytest.raises(TypeError):
            is_graphic(degrees)

    def test_odd_sum(self):
        assert not is_graphic([1])

    def test_empty(self):
        assert is_graphic([])

    def test_exhaustive_against_realization(self):
        for n in range(1, 7):
            for degs in product(range(n), repeat=n):
                built = realize_undirected(degs)
                assert is_graphic(degs) == (built is not None), degs
                if built is not None:
                    counts = [0] * n
                    for edge in built:
                        for v in edge:
                            counts[v] += 1
                    assert tuple(counts) == degs


class TestUndirectedSplittance:
    def test_baseline(self):
        assert undirected_splittance(BASELINE) == 1

    def test_single_edge(self):
        assert undirected_splittance([1, 1]) == 0

    def test_not_graphic_raises(self):
        with pytest.raises(NotGraphicError):
            undirected_splittance([1])

    def test_equals_exhaustive_edit_distance(self):
        for n in range(1, 6):
            for degs in product(range(n), repeat=n):
                if not is_graphic(degs):
                    continue
                edges = realize_undirected(degs)
                assert undirected_splittance(degs) == undirected_edit_distance(
                    n, edges
                ), degs

    def test_random_graphic_matches_bipartition_semantics(self):
        # The splittance equals the cheapest repair cost over all
        # clique/independent bipartitions of any one realization.
        rng = random.Random(2112)
        done = 0
        while done < 100:
            n = rng.randint(1, 8)
            degs = tuple(rng.randrange(n) for _ in range(n))
            if not is_graphic(degs):
                continue
            done += 1
            edges = realize_undirected(degs)
            best = None
            for bits in range(1 << n):
                clique = [v for v in range(n) if bits >> v & 1]
                rest = [v for v in range(n) if not bits >> v & 1]
                missing = sum(
                    1
                    for i, u in enumerate(clique)
                    for w in clique[i + 1 :]
                    if frozenset((u, w)) not in edges
                )
                extra = sum(
                    1
                    for i, u in enumerate(rest)
                    for w in rest[i + 1 :]
                    if frozenset((u, w)) in edges
                )
                cost = missing + extra
                if best is None or cost < best:
                    best = cost
            assert undirected_splittance(degs) == best, degs


class TestIsSplitUndirected:
    def test_baseline_is_not_split(self):
        assert not is_split_undirected(BASELINE)

    def test_single_edge_is_split(self):
        assert is_split_undirected([1, 1])

    def test_not_graphic_raises(self):
        with pytest.raises(NotGraphicError):
            is_split_undirected([3, 3])

    def test_exhaustive_against_bipartition_oracle(self):
        for n in range(1, 7):
            for degs in product(range(n), repeat=n):
                if not is_graphic(degs):
                    continue
                edges = realize_undirected(degs)
                assert is_split_undirected(degs) == is_split_graph(n, edges), degs


def every_sequence(max_n: int):
    """Every non-increasing in-range sequence with n <= max_n, empty first."""
    for n in range(max_n + 1):
        yield from combinations_with_replacement(range(n - 1, -1, -1), n)


class TestSortedPass:
    """The production definitions against the literal ones: splittance as
    the minimum of ``splittance_sequence``, the Durfee number by a loop."""

    def agree(self, degs) -> bool:
        if degs:
            assert corrected_durfee(degs) == corrected_durfee_by_loop(degs), degs
        if not is_graphic(degs):
            with pytest.raises(NotGraphicError):
                undirected_splittance(degs)
            return False
        assert undirected_splittance(degs) == min(splittance_sequence(degs)), degs
        assert is_split_undirected(degs) == (min(splittance_sequence(degs)) == 0)
        return True

    def test_every_small_sequence(self):
        assert sum(map(self.agree, every_sequence(7))) == 1 + 493

    def test_empty_sequence(self):
        assert undirected_splittance([]) == 0 == min(splittance_sequence([]))
        assert is_split_undirected([])
        with pytest.raises(EmptySequenceError):
            corrected_durfee([])

    def test_out_of_range_is_not_graphic(self):
        for degs in ([3, 3], [2, 0], [1, 1, 3]):
            assert not is_graphic(degs)
            with pytest.raises(NotGraphicError):
                undirected_splittance(degs)
            with pytest.raises(OutOfRangeError):
                corrected_durfee(degs)

    def test_random_graphs_at_large_n(self):
        # G(n, p) and planted split graphs, shuffled, N in the hundreds;
        # and uniform in-range sequences, which are rarely graphic.
        rng = random.Random(1981)
        for n in (150, 301, 450):
            for p in (0.05, 0.3, 0.7):
                degs = gnp_graph_degrees(rng, n, p)
                rng.shuffle(degs)
                assert self.agree(degs)
                assert undirected_splittance(degs) > 0
                planted = planted_split_graph_degrees(rng, n, p)
                assert self.agree(planted)
                assert undirected_splittance(planted) == 0
                self.agree([rng.randrange(n) for _ in range(n)])


class TestValidateDegreesInBulk:
    # validate_degrees checks every degree by one min and one max and runs
    # the entry loop only to word the first fault; the loop it ran on
    # every call is kept in helpers as the reference.

    @staticmethod
    def outcome(check, degrees):
        try:
            check(degrees)
        except (NegativeDegreeError, OutOfRangeError) as exc:
            return type(exc), str(exc), exc.index
        return None

    def test_first_fault_named_like_the_loop(self):
        rng = random.Random(606)
        faulty = 0
        for n in [*range(1, 6)] * 40 + [100, 250, 400] * 10:
            degrees = [rng.randrange(n) for _ in range(n)]
            for _ in range(rng.randrange(3)):
                value = rng.choice([-rng.randint(1, 3), n - 1 + rng.randint(1, 3)])
                degrees[rng.randrange(n)] = value
            expected = self.outcome(validate_degrees_by_loop, degrees)
            faulty += expected is not None
            for d in (degrees, IntegerSequence(degrees)):
                assert self.outcome(undirected.validate_degrees, d) == expected
        assert faulty > 100

    def test_messages_and_indices(self):
        with pytest.raises(NegativeDegreeError, match="^degree 2 is negative: -1$") as e:
            undirected.validate_degrees([1, 0, -1, 0, 9])
        assert e.value.index == 2
        with pytest.raises(
            OutOfRangeError, match="^degree 1 = 5 exceeds the simple-graph bound 4$"
        ) as e:
            undirected.validate_degrees([1, 5, 0, -1, 0])
        assert e.value.index == 1
        assert undirected.validate_degrees([]) == IntegerSequence()
        assert undirected.validate_degrees([0, 2, 1]).degrees == (0, 2, 1)


class TestOnePassPerCall:
    """Each public function validates once and sorts once, whatever it
    answers; the counters wrap the module's ``validate_degrees`` and the
    ``sorted`` it looks up."""

    @pytest.mark.parametrize(
        "function",
        [
            is_graphic,
            eg_slack,
            corrected_durfee,
            undirected_splittance,
            is_split_undirected,
            splittance_sequence,
        ],
    )
    @pytest.mark.parametrize("degs", [BASELINE, (1, 1, 0), (1, 1, 1), (2, 2, 0)])
    def test_one_validation_and_one_sort(self, function, degs, monkeypatch):
        counts = Counter()

        def counting(name, original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return counted

        monkeypatch.setattr(
            undirected,
            "validate_degrees",
            counting("validate", undirected.validate_degrees),
        )
        monkeypatch.setattr(undirected, "sorted", counting("sort", sorted), raising=False)
        try:
            function(degs)
        except NotGraphicError:
            pass
        assert (counts["validate"], counts["sort"]) == (1, 1)
