import dataclasses
import functools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from splitkit import (
    IntegerPairSequence,
    NegativeDegreeError,
    OutOfRangeError,
    SequenceValidationError,
)
from splitkit.cli import run
from splitkit.sequences import proper_order, reorder, validate

from helpers import compare_neg, compare_pos, random_valid_pairs, validate_by_loop


def pair_sequences(max_n=10):
    def build(n):
        bound = max(n - 1, 0)
        pair = st.tuples(st.integers(0, bound), st.integers(0, bound))
        return st.lists(pair, min_size=n, max_size=n)

    return (
        st.integers(0, max_n)
        .flatmap(build)
        .map(IntegerPairSequence)
    )


# Raw constructor input: tuples or lists, degrees in or out of range.
_degree = st.integers(-2, 12)
raw_pairs = st.lists(
    st.tuples(_degree, _degree) | st.lists(_degree, min_size=2, max_size=2),
    max_size=12,
)


class TestColumnStore:
    def test_fields_are_the_two_columns(self):
        fields = [f.name for f in dataclasses.fields(IntegerPairSequence)]
        assert fields == ["out_degrees", "in_degrees"]

    @given(raw_pairs)
    @example([])
    @example([(0, 0)])
    def test_pairs_are_the_input_pairs(self, p):
        assert IntegerPairSequence(p).pairs == tuple(map(tuple, p))

    @given(raw_pairs)
    @example([])
    @example([(0, 0)])
    def test_columns_are_stored_not_rebuilt(self, p):
        seq = IntegerPairSequence(p)
        assert seq.out_degrees is seq.out_degrees
        assert seq.in_degrees is seq.in_degrees
        assert seq.pairs is seq.pairs
        assert seq.out_degrees == tuple(o for o, _ in p)
        assert seq.in_degrees == tuple(i for _, i in p)
        assert (seq.sum_out, seq.sum_in) == (sum(seq.out_degrees), sum(seq.in_degrees))

    @given(raw_pairs)
    @example([])
    @example([(0, 0)])
    def test_equal_pair_lists_give_equal_objects(self, p):
        a, b = IntegerPairSequence(p), IntegerPairSequence(list(map(list, p)))
        assert a == b and hash(a) == hash(b)
        assert a != IntegerPairSequence([*p, (0, 0)])

    @given(
        raw_pairs.filter(bool),
        st.integers(0, 11),
        st.integers(0, 1),
        st.sampled_from([float, str]),
    )
    @example([(0, 0)], 0, 0, float)
    @example([(0, 0)], 0, 1, str)
    def test_a_float_or_string_degree_raises(self, p, at, side, convert):
        pairs = [list(pair) for pair in p]
        at %= len(pairs)
        pairs[at][side] = convert(pairs[at][side])
        with pytest.raises(TypeError):
            IntegerPairSequence(pairs)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(1,)], "not enough values to unpack"),
            ([(1, 2, 3)], "too many values to unpack"),
            ([(0, 1), (1, 2, 3)], "too many values to unpack"),
            ([(1, 0), (0,)], "not enough values to unpack"),
        ],
    )
    def test_pairs_of_the_wrong_length_raise(self, pairs, message):
        # Unzipping the input instead would drop the 3 of (1, 2, 3).
        with pytest.raises(ValueError, match=message):
            IntegerPairSequence(pairs)


class TestConstructor:
    @pytest.mark.parametrize(
        "pairs", [[(1.9, 0.2), (0.7, 1.99)], [(1.0, 0)], [("1", 0), (0, 1)]]
    )
    def test_non_integral_entries_raise(self, pairs):
        # int() would truncate 1.9 to 1, or parse "1", without a word.
        with pytest.raises(TypeError):
            IntegerPairSequence(pairs)


class TestValidate:
    def test_worked_example_is_valid(self, ex1):
        validate(ex1)

    def test_empty_sequence_is_valid(self):
        validate(IntegerPairSequence([]))

    def test_out_of_range_entry(self):
        with pytest.raises(OutOfRangeError) as excinfo:
            validate(IntegerPairSequence([(5, 0)]))
        assert excinfo.value.index == 0

    def test_negative_entry(self):
        with pytest.raises(NegativeDegreeError) as excinfo:
            validate(IntegerPairSequence([(0, 0), (0, -2)]))
        assert excinfo.value.index == 1

    def test_in_degree_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            validate(IntegerPairSequence([(0, 3), (0, 0), (1, 1)]))


def _outcome(check, seq):
    """(type, message, index) of the error ``check`` raises, or None."""
    try:
        check(seq)
    except SequenceValidationError as exc:
        return type(exc), str(exc), exc.index
    return None


class TestValidateInBulk:
    # validate checks every entry by min and max over the two columns and
    # runs the entry loop only to word the first fault; the loop it used
    # for every sequence is kept in helpers as the reference.

    @staticmethod
    def faulty(rng, n, faults):
        """A seeded in-range sequence of n entries with ``faults``, pairs of
        (position, kind), written into a random column."""
        pairs = [list(p) for p in random_valid_pairs(rng, n).pairs]
        pairs[0][0] = n - 1  # both bounds reached, not crossed
        pairs[-1][1] = 0
        for position, kind in faults:
            excess = rng.randint(1, 3)
            value = -excess if kind == "negative" else n - 1 + excess
            pairs[position][rng.randrange(2)] = value
        return IntegerPairSequence(pairs)

    @staticmethod
    def assert_cli_matches_loop(seq, tmp_path, capsys):
        path = tmp_path / "faulty.seq"
        path.write_text("seq\n" + "".join(f"{o} {i}\n" for o, i in seq.pairs))
        kind, message, _ = _outcome(validate_by_loop, seq)
        assert run(["check", str(path)]) == 3
        captured = capsys.readouterr()
        if kind is NegativeDegreeError:
            assert (captured.out, captured.err) == ("", f"error: {message}\n")
        else:  # out-of-range entries are merely non-digraphic to check
            assert (captured.out, captured.err) == ("digraphic=false\n", "")
        assert run(["partitions", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("kind", ["negative", "out-of-range"])
    @pytest.mark.parametrize("where", ["start", "middle", "end"])
    def test_first_fault_named_like_the_loop(self, kind, where, tmp_path, capsys):
        rng = random.Random(f"validate:{kind}:{where}")
        n = rng.randint(100, 400)
        position = {"start": 0, "middle": n // 2, "end": n - 1}[where]
        later = [(rng.randrange(position + 1, n), kind)] if where != "end" else []
        seq = self.faulty(rng, n, [(position, kind), *later])
        expected = _outcome(validate_by_loop, seq)
        assert expected[2] == position
        assert _outcome(validate, seq) == expected
        self.assert_cli_matches_loop(seq, tmp_path, capsys)

    @pytest.mark.parametrize("first", ["negative", "out-of-range"])
    def test_first_fault_after_one_of_the_other_kind(self, first, tmp_path, capsys):
        rng = random.Random(f"validate:after:{first}")
        n = rng.randint(100, 400)
        other = "out-of-range" if first == "negative" else "negative"
        seq = self.faulty(rng, n, [(n // 3, first), (2 * n // 3, other)])
        expected = _outcome(validate_by_loop, seq)
        assert expected[2] == n // 3
        assert _outcome(validate, seq) == expected
        self.assert_cli_matches_loop(seq, tmp_path, capsys)

    def test_valid_sequences_pass_both(self):
        rng = random.Random(20)
        for n in (1, 2, 100, 250, 400):
            seq = self.faulty(rng, n, [])
            assert _outcome(validate, seq) is None
            assert _outcome(validate_by_loop, seq) is None


class TestComparators:
    def test_pos_breaks_tie_on_in_degree(self):
        assert compare_pos((3, 2), (3, 1)) < 0

    def test_pos_orders_by_out_degree(self):
        assert compare_pos((2, 1), (4, 2)) > 0

    def test_neg_prefers_in_degree(self):
        assert compare_neg((4, 2), (0, 3)) > 0

    def test_equal_pairs(self):
        assert compare_pos((2, 2), (2, 2)) == 0
        assert compare_neg((2, 2), (2, 2)) == 0

    def test_antisymmetry(self):
        assert compare_neg((0, 3), (4, 2)) < 0


class TestProperOrder:
    def test_worked_example_permutations(self, ex1):
        ordering = proper_order(ex1)
        assert tuple(i + 1 for i in ordering.pos_perm) == (3, 2, 1, 4, 5)
        assert tuple(i + 1 for i in ordering.neg_perm) == (5, 3, 2, 4, 1)

    def test_constant_sequence_keeps_identity(self):
        seq = IntegerPairSequence([(2, 2)] * 4)
        ordering = proper_order(seq)
        assert ordering.pos_perm == (0, 1, 2, 3)
        assert ordering.neg_perm == (0, 1, 2, 3)

    def test_deterministic(self, ex1):
        assert proper_order(ex1) == proper_order(ex1)

    def test_rank_inverts_perm(self, ex1):
        ordering = proper_order(ex1)
        for rank, origin in enumerate(ordering.pos_perm):
            assert ordering.pos_rank[origin] == rank
        for rank, origin in enumerate(ordering.neg_perm):
            assert ordering.neg_rank[origin] == rank

    def test_against_comparison_sort(self):
        # Independent oracle: a comparison sort over the two comparators,
        # ascending index breaking exact ties.
        rng = random.Random(1408)
        for _ in range(50):
            n = rng.randint(0, 10)
            seq = random_valid_pairs(rng, n)
            ordering = proper_order(seq)

            def cmp_with(base, i, j):
                c = base(seq.pairs[i], seq.pairs[j])
                return c if c != 0 else (i - j)

            expected_pos = sorted(
                range(n),
                key=functools.cmp_to_key(lambda a, b: cmp_with(compare_pos, a, b)),
            )
            expected_neg = sorted(
                range(n),
                key=functools.cmp_to_key(lambda a, b: cmp_with(compare_neg, a, b)),
            )
            assert ordering.pos_perm == tuple(expected_pos)
            assert ordering.neg_perm == tuple(expected_neg)

    @given(pair_sequences())
    def test_reordered_sequences_are_non_increasing(self, seq):
        ordering = proper_order(seq)
        outs, ins = seq.out_degrees, seq.in_degrees
        pos, neg = ordering.pos_perm, ordering.neg_perm
        pos_pairs = list(zip(reorder(outs, pos), reorder(ins, pos)))
        neg_pairs = list(zip(reorder(outs, neg), reorder(ins, neg)))
        for a, b in zip(pos_pairs, pos_pairs[1:]):
            assert compare_pos(a, b) <= 0
        for a, b in zip(neg_pairs, neg_pairs[1:]):
            assert compare_neg(a, b) <= 0

    @given(pair_sequences())
    def test_tie_consistency_for_equal_pairs(self, seq):
        ordering = proper_order(seq)
        for i in range(seq.n):
            for j in range(i + 1, seq.n):
                if seq.pairs[i] == seq.pairs[j]:
                    assert (
                        ordering.pos_rank[i] < ordering.pos_rank[j]
                    ) == (ordering.neg_rank[i] < ordering.neg_rank[j])

    @given(pair_sequences())
    def test_perms_are_permutations(self, seq):
        ordering = proper_order(seq)
        assert sorted(ordering.pos_perm) == list(range(seq.n))
        assert sorted(ordering.neg_perm) == list(range(seq.n))
