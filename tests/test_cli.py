import argparse
import importlib.metadata
import io
import os
import random
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import splitkit
import splitkit.cli as cli
import splitkit.oracle as oracle
from splitkit import (
    BudgetExceededError,
    EnumerationBudget,
    IntegerPairSequence,
    degree_sequence,
    fulkerson_slack,
    is_digraphic,
    is_split_sequence,
    maximal_sequences,
    split_partitions,
    splittance_matrix,
)
from splitkit.cli import InputParseError, parse_document, run
from splitkit.oracle import (
    fulkerson_slack_quadratic,
    induced_partition_by_prefixes,
    maximal_sequences_quadratic,
    splittance_matrix_by_rows,
    zero_cells_by_scan,
)
from splitkit.sequences import proper_order

from helpers import (
    gnp_degree_sequence,
    parse_digraph_by_lines,
    parse_sequence_by_lines,
    planted_split_digraph,
    random_balanced_pairs,
    render_matrix_by_generators,
    render_partitions_by_sort,
)

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

FIXTURES = Path(__file__).parent / "fixtures"
NOT_UTF8 = b"seq\n1 1\n\xff\xfe 1\n"
UNDECODABLE = "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

# What a generated console-script wrapper does, with the target looked up
# in the installed (or source-tree egg-info) metadata instead of hard-coded.
ENTRY_POINT_RUNNER = (
    "import sys\n"
    "from importlib.metadata import entry_points\n"
    "(ep,) = entry_points(group='console_scripts', name='splitkit')\n"
    "sys.argv[0] = 'splitkit'\n"
    "sys.exit(ep.load()())\n"
)


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def child_env() -> dict[str, str]:
    """The environment for a child process that imports the splitkit this
    suite imported, whatever the working directory and whatever else is
    installed."""
    package_root = str(Path(splitkit.__file__).resolve().parents[1])
    pythonpath = [package_root, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


class TestParseDocument:
    def test_sequence_document(self):
        doc = parse_document("seq\n1 0\n0 1\n")
        assert isinstance(doc, IntegerPairSequence)
        assert doc.pairs == ((1, 0), (0, 1))

    def test_digraph_document_is_one_based(self):
        doc = parse_document("digraph 3\n1 2\n3 1\n")
        assert doc.arcs == frozenset({(0, 1), (2, 0)})

    def test_comments_and_blanks_ignored(self):
        doc = parse_document("# header comment\n\nseq\n1 1  # inline\n1 1\n")
        assert doc.pairs == ((1, 1), (1, 1))

    def test_empty_sequence_document(self):
        assert parse_document("seq\n").pairs == ()

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "nonsense\n1 2\n",
            "seq\n1\n",
            "seq\n1 a\n",
            "digraph\n",
            "digraph two\n",
            "digraph 2\n1 3\n",
            "digraph 2\n1 1\n",
            "digraph 2\n1 2\n1 2\n",
            "digraph -1\n",
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(InputParseError):
            parse_document(text)


class TestBulkParser:
    """The bulk checks of ``parse_document`` against the line-at-a-time
    parser they replaced: same value, same first error, exit code 2.  This
    class covers the ``digraph N`` header; ``TestBulkSequenceParser`` runs
    the same tests on the ``seq`` header."""

    N = 12
    HEADER = "digraph 12"
    COMMAND = "repair"
    # One faulty line per class, for a 12-vertex digraph; under ``seq`` the
    # label faults are valid pairs.
    FAULTS = {
        "one field": "3",
        "three fields": "1 2 3",
        "non-integer": "1 x",
        "decimal point": "1.0 2",
        "double underscore": "1__0 2",
        "zero label": "0 2",
        "label n + 1": "2 13",
        "negative label": "-1 2",
        "huge label": "5 " + "9" * 30,
        "loop": "4 4",
        "signed loop": "+4 04",
        "form feed": "1\f2",
        "more digits than int reads": "1 " + "9" * 5000,
    }
    MESSAGES = {
        "1 2 3": "expected 'u v' arc, got '1 2 3'",
        "1 x": "non-integer label in line '1 x'",
        "0 2": "arc (0, 2) outside labels [1, 12]",
        "2 13": "arc (2, 13) outside labels [1, 12]",
        "+4 04": "loop at vertex 4 not allowed",
    }
    # Integers that int() accepts, so the line parser accepted them too.
    ODD_LABELS = ["+1", "1_0", "\u0661", "\uff12", "007", "+0_5"]
    ODD_TEXT = "+1 2\n1_0 3\n\u0661 4\n\uff12 5\n007 8\n+0_5 6\n"

    @staticmethod
    def by_lines(text: str):
        n, arcs = parse_digraph_by_lines(text)
        return n, frozenset(arcs)

    @staticmethod
    def value(doc):
        return doc.n, doc.arcs

    def odd_value(self):
        return 12, frozenset({(0, 1), (9, 2), (0, 3), (1, 4), (6, 7), (4, 5)})

    def noisy(self, rng: random.Random, lines: list[str]) -> str:
        """A file of ``lines`` under the header with comments, blank lines,
        CRLF, tabs and other separators mixed in."""
        text = [f"# a file {rng.random()}", self.HEADER]
        for line in lines:
            first, _, second = line.partition(" ")
            if second:
                line = first + rng.choice([" ", "\t", "  ", " \t ", "\xa0"]) + second
            text.append(
                rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "  # c", "\t#"])
            )
            if rng.random() < 0.2:
                text.append(rng.choice(["", "   ", "# only a comment", "\t"]))
        ending = rng.choice(["\n", "\r\n"])
        return ending.join(text) + rng.choice(["", ending])

    def valid_lines(self, rng: random.Random, count: int) -> list[str]:
        pairs = rng.sample(
            [(u, v) for u in range(1, self.N + 1) for v in range(1, self.N + 1) if u != v],
            count,
        )
        return [f"{u} {v}" for u, v in pairs]

    def assert_same_outcome(self, text: str, tmp_path, capsys) -> None:
        try:
            expected = self.by_lines(text)
        except InputParseError as exc:
            message = str(exc)
            with pytest.raises(InputParseError) as raised:
                parse_document(text)
            assert str(raised.value) == message
            path = tmp_path / "faulty.txt"
            path.write_bytes(text.encode())
            assert run([self.COMMAND, str(path)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {message}\n")
            return
        assert self.value(parse_document(text)) == expected

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_each_fault_anywhere(self, fault, tmp_path, capsys):
        rng = random.Random(fault)
        for position in ("first", "middle", "last"):
            lines = self.valid_lines(rng, 9)
            at = {"first": 0, "middle": 4, "last": 9}[position]
            lines.insert(at, self.FAULTS[fault])
            self.assert_same_outcome(self.noisy(rng, lines), tmp_path, capsys)

    @pytest.mark.parametrize("position", [0, 3, 8])
    def test_duplicate_anywhere(self, position, tmp_path, capsys):
        rng = random.Random(position)
        lines = self.valid_lines(rng, 9)
        u, v = lines[position].split()
        lines.insert(position + 1 + rng.randrange(9 - position), f"+{u} 0{v}")
        text = self.noisy(rng, lines)
        with pytest.raises(InputParseError, match=rf"^duplicate arc \({u}, {v}\)$"):
            parse_document(text)
        self.assert_same_outcome(text, tmp_path, capsys)

    def test_messages_are_worded_as_before(self):
        for line, message in self.MESSAGES.items():
            with pytest.raises(InputParseError) as raised:
                parse_document(f"{self.HEADER}\n1 2\n{line}\n3 4\n")
            assert str(raised.value) == message

    def test_first_of_several_faults_wins(self, tmp_path, capsys):
        rng = random.Random(31337)
        faults = sorted(self.FAULTS.values())
        for _ in range(150):
            lines = self.valid_lines(rng, rng.randint(0, 12))
            for fault in rng.sample(faults, rng.randint(2, 4)):
                lines.insert(rng.randint(0, len(lines)), fault)
            if lines and rng.random() < 0.5:
                lines.insert(rng.randint(0, len(lines)), rng.choice(lines))
            self.assert_same_outcome(self.noisy(rng, lines), tmp_path, capsys)

    def test_random_valid_files_give_the_same_arcs(self, tmp_path, capsys):
        rng = random.Random(8128)
        for _ in range(200):
            lines = self.valid_lines(rng, rng.randint(0, 40))
            for i in range(len(lines)):
                if rng.random() < 0.2:
                    u, v = lines[i].split()
                    lines[i] = f"{rng.choice(['+', '0', '']) + u} {v}"
            if lines and rng.random() < 0.3:
                lines[0] = f"{rng.choice(self.ODD_LABELS)} 12"
            self.assert_same_outcome(self.noisy(rng, lines), tmp_path, capsys)

    def test_odd_labels_parse_as_int_reads_them(self):
        doc = parse_document(f"{self.HEADER}\n{self.ODD_TEXT}")
        assert self.value(doc) == self.odd_value()


class TestBulkSequenceParser(TestBulkParser):
    """The bulk checks of ``parse_document`` on the ``seq`` header against
    the line-at-a-time loop they replaced.  Degrees are not checked while
    parsing, so only the text faults are faults here; a repeated pair is
    none."""

    HEADER = "seq"
    COMMAND = "check"
    MESSAGES = {
        "1 2 3": "expected 'out in' pair, got '1 2 3'",
        "1": "expected 'out in' pair, got '1'",
        "1 x": "non-integer degree in line '1 x'",
        "1.0 2": "non-integer degree in line '1.0 2'",
    }

    @staticmethod
    def by_lines(text: str):
        return parse_sequence_by_lines(text).pairs

    @staticmethod
    def value(doc):
        return doc.pairs

    def odd_value(self):
        return (1, 2), (10, 3), (1, 4), (2, 5), (7, 8), (5, 6)

    def valid_lines(self, rng: random.Random, count: int) -> list[str]:
        # Any integers: negative and out-of-range degrees parse.
        return [f"{rng.randint(-2, self.N + 2)} {rng.randint(-2, self.N + 2)}"
                for _ in range(count)]

    @pytest.mark.parametrize("position", [0, 3, 8])
    def test_duplicate_anywhere(self, position, tmp_path, capsys):
        rng = random.Random(position)
        lines = self.valid_lines(rng, 9)
        o, i = lines[position].split()
        lines.insert(position + 1 + rng.randrange(9 - position), f"+{o} 0{i}")
        text = self.noisy(rng, lines)
        assert self.value(parse_document(text)).count((int(o), int(i))) >= 2
        self.assert_same_outcome(text, tmp_path, capsys)


class TestColumns:
    # ``_columns`` converts each distinct token once through a table and
    # reads every copy of it from there; lines repeated three times give
    # the same columns three times over.
    LINES = ["1 2", "+3 004", "-5 6_0", "7 " + "9" * 30, "\u0661\u0662 \uff18"]

    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize("base", [0, 1])
    def test_columns_are_the_integers_less_base(self, base, copies):
        values = [int(token) - base for token in " ".join(self.LINES).split()]
        columns = cli._columns(self.LINES * copies, base)
        assert columns == (values[0::2] * copies, values[1::2] * copies)

    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize("bad", ["x", "1.0", "1__0", "\u00bd"])
    def test_non_integer_token_gives_none(self, copies, bad):
        assert cli._columns((self.LINES + [f"3 {bad}"]) * copies, 1) is None


class TestCheck:
    def test_split_sequence(self, capsys):
        code = run(["check", fixture("ex1.seq")])
        assert code == 0
        assert capsys.readouterr().out == read_fixture("ex1_check.kv")

    def test_csv_format(self, capsys):
        code = run(["check", fixture("dirext.seq"), "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "digraphic,split,splittance\ntrue,true,0\n"

    def test_digraph_input(self, capsys):
        code = run(["check", fixture("ex1_realization.digraph")])
        assert code == 0
        assert "splittance=0" in capsys.readouterr().out

    def test_non_digraphic_reports_and_exits_3(self, tmp_path, capsys):
        path = tmp_path / "unbalanced.seq"
        path.write_text("seq\n1 0\n")
        code = run(["check", str(path)])
        assert code == 3
        assert capsys.readouterr().out == "digraphic=false\n"

    def test_not_split_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cycle.seq"
        path.write_text("seq\n" + "1 1\n" * 4)
        code = run(["check", str(path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "split=false" in out
        assert "splittance=1" in out

    def test_negative_degree_exits_3(self, tmp_path, capsys):
        path = tmp_path / "neg.seq"
        path.write_text("seq\n-1 0\n")
        assert run(["check", str(path)]) == 3
        assert "error" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.seq"
        path.write_text("who knows\n")
        assert run(["check", str(path)]) == 2

    def test_missing_file_exits_2(self):
        assert run(["check", "/definitely/not/here.seq"]) == 2

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("seq\n0 0\n"))
        assert run(["check", "-"]) == 0


class TestMatrix:
    def test_worked_example_bytes(self, capsys):
        code = run(["matrix", fixture("ex1.seq")])
        assert code == 0
        assert capsys.readouterr().out == read_fixture("ex1_matrix.csv")

    def test_symmetric_extension_bytes(self, capsys):
        code = run(["matrix", fixture("dirext.seq")])
        assert code == 0
        assert capsys.readouterr().out == read_fixture("dirext_matrix.csv")

    def test_round_trip(self, capsys, ex1):
        run(["matrix", fixture("ex1.seq")])
        out = capsys.readouterr().out
        parsed = tuple(
            tuple(int(cell) for cell in line.split(","))
            for line in out.strip().splitlines()
        )
        assert parsed == splittance_matrix(ex1).entries

    def test_extras_rows(self, capsys):
        code = run(["matrix", fixture("ex1.seq"), "--extras"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[6] == "sbar,0,0,0,1,0,0"
        assert lines[7] == "sunder,0,1,1,0,0,0"
        assert lines[8] == "mbar,5,5,3,2,2,1"
        assert lines[9] == "munder,5,5,4,3,0,0"

    def test_single_zero_vertex(self, tmp_path, capsys):
        path = tmp_path / "one.seq"
        path.write_text("seq\n0 0\n")
        code = run(["matrix", str(path)])
        assert code == 0
        assert capsys.readouterr().out == "0,0\n0,0\n"

    def test_non_digraphic_still_prints_but_exits_3(self, tmp_path, capsys):
        path = tmp_path / "unbalanced.seq"
        path.write_text("seq\n1 0\n0 0\n")
        code = run(["matrix", str(path)])
        assert code == 3
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 3
        assert captured.err == "error: sequence is not digraphic\n"

    def test_format_option_is_rejected(self, capsys):
        # The matrix is always CSV, so the command takes no --format.
        with pytest.raises(SystemExit) as exc:
            run(["matrix", "--format", "csv", fixture("ex1.seq")])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestPartitions:
    def test_worked_example_bytes(self, capsys):
        code = run(["partitions", fixture("ex1.seq")])
        assert code == 0
        assert capsys.readouterr().out == read_fixture("ex1_partitions.kv")

    def test_non_split_prints_nothing_and_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cycle.seq"
        path.write_text("seq\n" + "1 1\n" * 4)
        code = run(["partitions", str(path)])
        assert code == 1
        assert capsys.readouterr().out == ""

    def test_complete_digraph_has_all_pm_partition(self, tmp_path, capsys):
        path = tmp_path / "complete3.seq"
        path.write_text("seq\n" + "2 2\n" * 3)
        code = run(["partitions", str(path)])
        assert code == 0
        assert "pm=1,2,3" in capsys.readouterr().out

    def test_csv_format(self, tmp_path, capsys):
        code = run(["partitions", fixture("ex1.seq"), "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,l,pm,plus,minus,zero"
        assert "2,3,2 3,,5,1 4" in lines

    def test_non_digraphic_exits_3(self, tmp_path, capsys):
        path = tmp_path / "unbalanced.seq"
        path.write_text("seq\n1 0\n")
        assert run(["partitions", str(path)]) == 3


class TestRepair:
    def test_split_realization_empty_script(self, capsys):
        code = run(["repair", fixture("ex1_realization.digraph")])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_four_cycle_single_edit(self, tmp_path, capsys):
        path = tmp_path / "cycle.digraph"
        path.write_text("digraph 4\n1 2\n2 3\n3 4\n4 1\n")
        code = run(["repair", str(path)])
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        op, u, v = lines[0].split()
        assert op in "+-"
        assert u.isdigit() and v.isdigit()

    def test_single_vertex_graph(self, tmp_path, capsys):
        path = tmp_path / "one.digraph"
        path.write_text("digraph 1\n")
        code = run(["repair", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_csv_format(self, tmp_path, capsys):
        path = tmp_path / "cycle.digraph"
        path.write_text("digraph 4\n1 2\n2 3\n3 4\n4 1\n")
        code = run(["repair", str(path), "--format", "csv"])
        assert code == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "op,u,v"
        assert len(lines) == 2

    def test_sequence_input_rejected(self, capsys):
        assert run(["repair", fixture("ex1.seq")]) == 3
        assert "digraph" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "repair"])
    def test_huge_vertex_count_exits_2(self, command, tmp_path, capsys, monkeypatch):
        # The degree extraction is what would allocate per vertex; make it
        # fail the way it would, without allocating anything.
        def out_of_memory(g):
            raise MemoryError

        monkeypatch.setattr(cli, "degree_sequence", out_of_memory)
        monkeypatch.setattr(splitkit.digraphs, "degree_sequence", out_of_memory)
        path = tmp_path / "huge.digraph"
        path.write_text("digraph 3000000000\n")
        assert run([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: input too large")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["check", "matrix", "partitions", "repair"])
    @pytest.mark.parametrize("n", [2**63, 10**30])
    def test_vertex_count_beyond_any_list_exits_2(self, command, n, tmp_path, capsys):
        # No list can hold n entries, so the header is refused before
        # anything is allocated.
        path = tmp_path / "huge.digraph"
        path.write_text(f"digraph {n}\n1 2\n")
        assert run([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: input too large to analyze: {n} vertices\n"


    @pytest.mark.parametrize(
        "text, message",
        [
            ("seq\n1 {}\n", "degree of 5000 digits"),
            ("digraph 3\n1 2\n+{} 3\n", "label of 5000 digits"),
            ("digraph {}\n1 2\n", "vertex count of 5000 digits"),
        ],
        ids=["seq degree", "digraph label", "digraph header"],
    )
    def test_integer_over_the_int_digit_limit_exits_2(
        self, text, message, tmp_path, capsys
    ):
        # int() refuses more than 4300 digits with a ValueError, which is
        # no reason to call the token a non-integer.
        path = tmp_path / "huge.txt"
        path.write_text(text.format("9" * 5000))
        assert run(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: input too large to analyze: {message}\n"

    def test_integer_under_the_int_digit_limit_parses(self, tmp_path, capsys):
        path = tmp_path / "huge.seq"
        path.write_text("seq\n1 " + "9" * 4000 + "\n")
        assert run(["check", str(path)]) == 3
        assert capsys.readouterr() == ("digraphic=false\n", "")


class TestEndings:
    def test_out_of_memory_while_parsing_exits_2(self, tmp_path, capsys, monkeypatch):
        # The arc store is what the parser allocates; fail it the way it
        # would fail, without allocating anything.
        def out_of_memory(cls, n, sources, targets):
            raise MemoryError

        monkeypatch.setattr(cli.Digraph, "from_lists", classmethod(out_of_memory))
        path = tmp_path / "cycle.digraph"
        path.write_text("digraph 4\n1 2\n2 3\n3 4\n4 1\n")
        assert run(["repair", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input too large to analyze: out of memory\n"

    @pytest.mark.parametrize(
        "argv, attribute",
        [
            (["check", fixture("ex1.seq")], "Analysis"),
            (["repair", fixture("ex1_realization.digraph")], "repair"),
            (["repair", fixture("ex1_realization.digraph")], "_columns"),
            # The oracle runs before any output, whatever the command (csv
            # repair output has a header line even with no edits).
            (["partitions", fixture("ex1.seq"), "--oracle"], "brute_realize"),
            (["matrix", fixture("ex1.seq"), "--oracle"], "brute_realize"),
            (
                ["repair", fixture("ex1_realization.digraph"), "--format", "csv", "--oracle"],
                "brute_splittance",
            ),
            (["check", fixture("ex1.seq")], "_columns"),
        ],
    )
    def test_unexpected_exception_exits_5(self, argv, attribute, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken\non two lines")

        monkeypatch.setattr(cli, attribute, broken)
        assert run(argv) == cli.EXIT_INTERNAL_ERROR == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal error: RuntimeError(")
        assert "broken" in captured.err
        assert captured.err.endswith(f" at test_cli.py:{broken.__code__.co_firstlineno + 1}\n")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["plain", "oracle"])
    @pytest.mark.parametrize("command", ["matrix", "partitions"])
    def test_out_of_range_entry_ends_before_the_oracle_and_writers(
        self, command, oracle, tmp_path, capsys, monkeypatch
    ):
        # Exit 3 for an entry beyond N - 1 is decided before the oracle runs,
        # so neither the oracle nor a writer sees such a sequence.
        called = []
        for name in ("cmd_matrix", "cmd_partitions", "brute_realize"):
            monkeypatch.setattr(cli, name, lambda *args, _name=name: called.append(_name))
        path = tmp_path / "wide.seq"
        path.write_text("seq\n2 0\n0 1\n")
        assert run([command, str(path), *oracle]) == 3
        assert called == []
        assert capsys.readouterr() == (
            "", "error: entry 0 = (2, 0) exceeds the simple-digraph bound 1\n"
        )

    def test_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.seq"
        path.write_bytes(NOT_UTF8)
        assert run(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {path}: {UNDECODABLE}\n"

    @pytest.mark.parametrize(
        "errors, message",
        [
            ("strict", f"cannot read -: {UNDECODABLE}"),
            # How a C-locale interpreter reads stdin: the bytes reach the parser.
            ("surrogateescape", "non-integer degree in line '\\udcff\\udcfe 1'"),
        ],
        ids=["strict", "surrogateescape"],
    )
    def test_stdin_not_utf8_exits_2(self, errors, message, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors=errors)
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run(["check", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
    def test_closed_stdout_ends_silently(self, tmp_path):
        # A matrix far larger than a pipe buffer, read 10 bytes in: the
        # command dies of SIGPIPE, as cat does, and writes nothing to stderr.
        rng = random.Random(141)
        path = tmp_path / "big.seq"
        pairs = (f"{rng.randrange(300)} {rng.randrange(300)}\n" for _ in range(300))
        path.write_text("seq\n" + "".join(pairs))
        with subprocess.Popen(
            [sys.executable, "-c", ENTRY_POINT_RUNNER, "matrix", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        ) as child:
            assert len(child.stdout.read(10)) == 10
            child.stdout.close()
            assert child.wait(timeout=60) == -signal.SIGPIPE
            assert child.stderr.read() == b""


class TestOracleFlag:
    def test_agreement_keeps_exit_code(self, capsys):
        assert run(["check", fixture("ex1.seq"), "--oracle"]) == 0

    def test_repair_agreement(self, tmp_path):
        path = tmp_path / "cycle.digraph"
        path.write_text("digraph 4\n1 2\n2 3\n3 4\n4 1\n")
        assert run(["repair", str(path), "--oracle"]) == 1

    def test_budget_env_var_skips_with_note(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLITKIT_ORACLE_MAX_N", "2")
        code = run(["check", fixture("ex1.seq"), "--oracle"])
        assert code == 0
        assert "skipped" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", fixture("ex1.seq")],
            ["matrix", fixture("ex1.seq")],
            ["partitions", fixture("ex1.seq")],
            ["repair", fixture("ex1_realization.digraph")],
        ],
    )
    def test_invalid_budget_env_var_exits_2(self, argv, value, capsys, monkeypatch):
        monkeypatch.setenv("SPLITKIT_ORACLE_MAX_N", value)
        assert run([*argv, "--oracle"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SPLITKIT_ORACLE_MAX_N ")
        assert captured.err.count("\n") == 1

    def test_huge_budget_env_var_is_capped(self, tmp_path, capsys, monkeypatch):
        # The value becomes the one vertex cap as it is; the 2^20 digraph
        # rule inside the oracle still stops the edit search at 5 vertices.
        path = tmp_path / "cycle7.digraph"
        path.write_text("digraph 7\n" + "".join(f"{i} {i % 7 + 1}\n" for i in range(1, 8)))
        outputs = []
        for value in ("8", "1000000000"):
            monkeypatch.setenv("SPLITKIT_ORACLE_MAX_N", value)
            for argv in (["check", fixture("ex1.seq")], ["repair", str(path)]):
                code = run([*argv, "--oracle"])
                outputs.append((code, capsys.readouterr().err))
        note = "oracle: edit search skipped (n=7 over budget)\n"
        assert outputs[:2] == outputs[2:] == [(0, ""), (1, note)]
        assert cli._oracle_budget() == EnumerationBudget(10**9)

    def test_edit_search_capped_at_five_vertices(self, tmp_path, capsys, monkeypatch):
        # 2^(7 * 6) table bytes would be needed at 7 vertices; the oracle
        # must refuse before it builds the table.
        def no_table(n):
            raise AssertionError("edit search table built beyond the cap")

        path = tmp_path / "cycle7.digraph"
        path.write_text("digraph 7\n" + "".join(f"{i} {i % 7 + 1}\n" for i in range(1, 8)))
        assert run(["repair", str(path)]) == 1
        fast = capsys.readouterr()
        monkeypatch.setattr(oracle, "_split_membership", no_table)
        monkeypatch.setenv("SPLITKIT_ORACLE_MAX_N", "7")
        assert run(["repair", str(path), "--oracle"]) == 1
        captured = capsys.readouterr()
        assert captured.out == fast.out
        assert captured.err == "oracle: edit search skipped (n=7 over budget)\n"

    @pytest.mark.parametrize(
        "name, argv, note",
        [
            (
                "brute_realize",
                ["check", fixture("ex1.seq")],
                "oracle: realization check skipped (N=5 over budget)\n",
            ),
            (
                "brute_min_partition_measure",
                ["check", fixture("ex1.seq")],
                "oracle: partition sweep skipped (N=5 over budget)\n",
            ),
            (
                "brute_splittance",
                ["repair", fixture("ex1_realization.digraph")],
                "oracle: edit search skipped (n=5 over budget)\n",
            ),
        ],
        ids=["realization", "sweep", "edit search"],
    )
    def test_a_refused_check_is_noted(self, name, argv, note, capsys, monkeypatch):
        # The CLI reports what the oracle refuses and decides nothing itself.
        def refuse(*args):
            raise BudgetExceededError("over budget")

        monkeypatch.delenv("SPLITKIT_ORACLE_MAX_N", raising=False)
        code = run(argv)
        fast = capsys.readouterr()
        monkeypatch.setattr(cli, name, refuse)
        assert run([*argv, "--oracle"]) == code == 0
        captured = capsys.readouterr()
        assert captured.out == fast.out
        assert captured.err == note

    @pytest.mark.parametrize(
        "name, command, text, size",
        [
            ("brute_min_partition_measure", "check", "seq\n" + "1 1\n" * 8, 8),
            ("brute_splittance", "repair", "digraph 5\n1 2\n2 3\n3 4\n4 5\n5 1\n", 5),
        ],
        ids=["sweep", "edit search"],
    )
    def test_default_budget_runs_the_search(
        self, name, command, text, size, tmp_path, capsys, monkeypatch
    ):
        # The partition sweep at N = 8 and the edit search at n = 5 fit the
        # default cap of 8 vertices and the 2^20 digraph rule.
        path = tmp_path / "input"
        path.write_text(text)
        sizes = []

        def counted(data, budget, _search=getattr(cli, name)):
            sizes.append(data.n)
            return _search(data, budget)

        monkeypatch.delenv("SPLITKIT_ORACLE_MAX_N", raising=False)
        code = run([command, str(path)])
        fast = capsys.readouterr()
        monkeypatch.setattr(cli, name, counted)
        assert run([command, str(path), "--oracle"]) == code == 1
        assert capsys.readouterr() == fast
        assert sizes == [size]

    def test_partition_sweep_capped_at_ten_vertices(self, tmp_path, capsys, monkeypatch):
        # 4^11 partitions pass 2^20: the oracle refuses the sweep before it
        # starts, whatever the cap, and the realization search still runs.
        def no_sweep(n):
            raise AssertionError("the partition sweep started")

        realized = []

        def recorded(seq, budget, _search=cli.brute_realize):
            realized.append(_search(seq, budget))
            return realized[-1]

        g, _ = planted_split_digraph(random.Random(0), 11)
        path = tmp_path / "planted11.seq"
        pairs = degree_sequence(g).pairs
        path.write_text("seq\n" + "".join(f"{o} {i}\n" for o, i in pairs))
        assert run(["check", str(path)]) == 0
        fast = capsys.readouterr()
        monkeypatch.setattr(oracle, "_quad_partitions", no_sweep)
        monkeypatch.setattr(cli, "brute_realize", recorded)
        monkeypatch.setenv("SPLITKIT_ORACLE_MAX_N", "16")
        assert run(["check", "--oracle", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == fast.out
        assert captured.err == "oracle: partition sweep skipped (N=11 over budget)\n"
        assert len(realized) == 1 and realized[0] is not None

    def test_realization_search_deeper_than_the_recursion_limit(
        self, tmp_path, capsys, monkeypatch
    ):
        # The search places one vertex per level, 1 200 levels here; the
        # partition sweep still stops at its own 2^20 bound, with its note.
        path = tmp_path / "empty1200.seq"
        path.write_text("seq\n" + "0 0\n" * 1200)
        assert run(["check", str(path)]) == 0
        fast = capsys.readouterr()
        monkeypatch.setenv("SPLITKIT_ORACLE_MAX_N", "5000")
        assert run(["check", "--oracle", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == fast.out
        assert captured.err == "oracle: partition sweep skipped (N=1200 over budget)\n"

    def test_edit_search_runs_up_to_the_cap(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cycle5.digraph"
        path.write_text("digraph 5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
        monkeypatch.setenv("SPLITKIT_ORACLE_MAX_N", "7")
        assert run(["repair", str(path), "--oracle"]) == 1
        assert capsys.readouterr().err == ""

    def test_budget_env_var_ignored_without_oracle(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLITKIT_ORACLE_MAX_N", "abc")
        assert run(["check", fixture("ex1.seq")]) == 0
        assert capsys.readouterr().out == read_fixture("ex1_check.kv")

    def test_realization_search_gives_up_with_a_note(self, tmp_path, capsys, monkeypatch):
        # A non-digraphic sequence that takes more than 2^2 placements to
        # refute: past 2^MAX_ARC_SLOTS the search gives up, and the CLI
        # notes it like any check the oracle refuses.
        path = tmp_path / "nondigraphic6.seq"
        path.write_text("seq\n0 1\n1 1\n3 3\n3 1\n4 5\n2 2\n")
        assert run(["check", str(path)]) == 3
        fast = capsys.readouterr()
        monkeypatch.delenv("SPLITKIT_ORACLE_MAX_N", raising=False)
        monkeypatch.setattr(oracle, "MAX_ARC_SLOTS", 2)
        assert run(["check", str(path), "--oracle"]) == 3
        captured = capsys.readouterr()
        assert captured.out == fast.out == "digraphic=false\n"
        assert captured.err == "oracle: realization check skipped (N=6 over budget)\n"

    def test_disagreement_exits_4(self, capsys, monkeypatch):
        # Force the oracle to lie so the loud-failure path is exercised.
        monkeypatch.setattr(cli, "brute_realize", lambda seq, budget: None)
        code = run(["check", fixture("ex1.seq"), "--oracle"])
        assert code == 4
        assert "disagreement" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", fixture("ex1.seq")],
            ["matrix", fixture("ex1.seq")],
            ["partitions", fixture("ex1.seq")],
            ["partitions", "unbalanced.seq"],
            ["repair", fixture("ex1_realization.digraph")],
        ],
    )
    def test_disagreement_writes_no_answer(self, argv, tmp_path, capsys, monkeypatch):
        # The oracle runs before any writer, so an answer it disputes is
        # never written, not even in part.  The realization search is made
        # to contradict the fast path either way.
        (tmp_path / "unbalanced.seq").write_text("seq\n1 0\n0 0\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            cli, "brute_realize", lambda seq, budget: None if is_digraphic(seq) else ()
        )
        monkeypatch.setattr(cli, "brute_splittance", lambda g, budget: -1)
        assert run([*argv, "--oracle"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("oracle disagreement: ")
        assert captured.err.count("\n") == 1


class TestOnePassPerInput:
    # Each routine is wrapped with a counter in every splitkit module that
    # binds it, the way the benchmark's tracer patches module attributes.
    # The sorts and the slack passes are counted per family, told apart by
    # the degree column that leads them (the last sequence validated): the
    # answers read the out-major order and its family (``s_bar``) alone;
    # the matrix, the partitions and the witness cell of ``repair`` also
    # sort into the in-major order, and only ``matrix --extras`` computes
    # the in-major family (``s_under``).  Only the matrix command builds
    # the matrix.
    ROUTINES = (
        ("sequences", "validate"),
        ("sequences", "lex_order"),
        ("splittance", "_slack_family"),
        ("splittance", "_matrix_rows"),
    )
    PASSES = ("out_sort", "in_sort", "s_bar", "s_under", "_matrix_rows")

    def passes(self, argv, monkeypatch, capsys) -> tuple[int, tuple[int, ...]]:
        """Exit code of ``run(argv)`` and how often each pass in ``PASSES``
        ran: the out-major and the in-major sort, the out-major and the
        in-major slack family, and the matrix."""
        counts = Counter()
        validated = []
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "splitkit" or name.startswith("splitkit.")
        ]
        for module_name, attr in self.ROUTINES:
            original = getattr(sys.modules[f"splitkit.{module_name}"], attr)

            def counted(*args, _attr=attr, _original=original):
                if _attr == "validate":
                    validated.append(args[0])
                    return _original(*args)
                # lex_order(first, second) and _slack_family(demand,
                # capacity, perm) both lead with one degree column.
                if _attr in ("lex_order", "_slack_family"):
                    out_major = args[0] is validated[-1].out_degrees
                    _attr = {
                        ("lex_order", True): "out_sort",
                        ("lex_order", False): "in_sort",
                        ("_slack_family", True): "s_bar",
                        ("_slack_family", False): "s_under",
                    }[_attr, out_major]
                counts[_attr] += 1
                return _original(*args)

            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
        code = run(argv)
        capsys.readouterr()
        return code, tuple(counts[name] for name in self.PASSES)

    @pytest.mark.parametrize(
        "argv, passes",
        [
            (["check", fixture("ex1.seq")], (1, 0, 1, 0, 0)),
            (["check", fixture("ex1.seq"), "--oracle"], (1, 0, 1, 0, 0)),
            (["matrix", fixture("ex1.seq"), "--extras"], (1, 1, 1, 1, 1)),
            (["partitions", fixture("ex1.seq")], (1, 1, 1, 0, 0)),
            (["repair", fixture("ex1_realization.digraph")], (1, 1, 1, 0, 0)),
            (["check", fixture("ex1_realization.digraph")], (1, 0, 1, 0, 0)),
        ],
    )
    def test_ordering_slack_and_matrix_at_most_once(
        self, argv, passes, capsys, monkeypatch
    ):
        assert self.passes(argv, monkeypatch, capsys) == (0, passes)

    @pytest.mark.parametrize(
        "argv, passes",
        [
            (["repair", fixture("ex1_realization.digraph")], (1, 1, 1, 0, 0)),
            (
                ["repair", fixture("ex1_realization.digraph"), "--format", "csv"],
                (1, 1, 1, 0, 0),
            ),
            (["check", fixture("ex1_realization.digraph")], (1, 0, 1, 0, 0)),
            (["partitions", fixture("ex1_realization.digraph")], (1, 1, 1, 0, 0)),
            (["matrix", fixture("ex1_realization.digraph")], (1, 1, 1, 0, 1)),
        ],
    )
    def test_digraph_input_never_builds_the_arc_tuples(
        self, argv, passes, capsys, monkeypatch
    ):
        # The commands read the bitset store; only ``arcs`` builds tuples.
        docs = []

        def recording(text, _parse=cli.parse_document):
            docs.append(_parse(text))
            return docs[-1]

        monkeypatch.setattr(cli, "parse_document", recording)
        assert self.passes(argv, monkeypatch, capsys) == (0, passes)
        (doc,) = docs
        assert doc.n == 5 and doc.succ
        assert "arcs" not in vars(doc)

    def test_non_split_partitions_read_the_slacks_only(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "cycle.seq"
        path.write_text("seq\n" + "1 1\n" * 4)
        argv = ["partitions", str(path)]
        assert self.passes(argv, monkeypatch, capsys) == (1, (1, 1, 1, 0, 0))

    def test_no_parser_is_built_per_request(self, capsys, monkeypatch):
        built = []

        def counted(parser, *args, _init=argparse.ArgumentParser.__init__, **kwargs):
            built.append(parser)
            _init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(["check", fixture("ex1.seq")]) == 0
        assert run(["repair", fixture("ex1_realization.digraph")]) == 0
        assert built == []


class TestConsoleScript:
    def test_installed_entry_point(self):
        (ep,) = importlib.metadata.entry_points(
            group="console_scripts", name="splitkit"
        )
        if tomllib is not None:
            declared = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
            assert ep.value == declared["splitkit"]

        env = child_env()
        commands = [[sys.executable, "-c", ENTRY_POINT_RUNNER]]
        installed = shutil.which("splitkit")
        if installed:
            commands.append([installed])
        for command in commands:
            result = subprocess.run(
                [*command, "check", fixture("ex1.seq")],
                capture_output=True,
                text=True,
                env=env,
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout == read_fixture("ex1_check.kv")
            assert result.stderr == ""


class TestRenderedOutput:
    # The matrix row template and the partition role-array writer against
    # the per-integer, sort-based formatting they replaced, fed from the
    # oracle's matrix, slacks, turning points and zero cells.

    @staticmethod
    def sequence(family, rng, n):
        if family == "empty":
            return IntegerPairSequence([(0, 0)] * n)
        if family == "complete":
            return IntegerPairSequence([(n - 1, n - 1)] * n)
        if family == "planted":
            return degree_sequence(planted_split_digraph(rng, n)[0])
        return random_balanced_pairs(rng, n)  # in range, not digraphic

    @pytest.mark.parametrize(
        "family, n",
        [("empty", 300), ("complete", 250), ("planted", 200), ("nondigraphic", 150)],
    )
    def test_matrix_and_partitions_bytes(self, family, n, tmp_path, capsys):
        seq = self.sequence(family, random.Random(f"render:{family}:{n}"), n)
        path = tmp_path / f"{family}.seq"
        path.write_text("seq\n" + "".join(f"{o} {i}\n" for o, i in seq.pairs))
        matrix = splittance_matrix_by_rows(seq)
        slack = fulkerson_slack_quadratic(seq)
        maximal = maximal_sequences_quadratic(seq)
        digraphic = seq.is_balanced and min(slack.s_bar + slack.s_under) >= 0
        cells = zero_cells_by_scan(matrix)
        assert digraphic == (family != "nondigraphic")
        assert digraphic or min(map(min, matrix.entries)) < 0
        code = 0 if cells and digraphic else 1 if digraphic else 3
        extras = (slack.s_bar, slack.s_under, maximal.m_bar, maximal.m_under)
        ordering = proper_order(seq)
        parts = [induced_partition_by_prefixes(seq, ordering, k, l) for k, l in cells]
        assert run(["matrix", "--extras", str(path)]) == code
        assert capsys.readouterr().out == render_matrix_by_generators(matrix, extras)
        for fmt in ("kv", "csv"):
            assert run(["partitions", "--format", fmt, str(path)]) == code
            captured = capsys.readouterr()
            if digraphic:
                assert captured.out == render_partitions_by_sort(parts, fmt)
            else:
                assert (captured.out, captured.err) == (
                    "", "error: sequence is not digraphic\n"
                )


class TestStreamedWriters:
    # ``partitions`` and ``matrix`` write each line as it is made.  Their
    # bytes must equal the library's whole answers, formatted after the fact:
    # the sort-based writer over ``split_partitions``, and the rows of
    # ``splittance_matrix`` with the four extras rows.

    @staticmethod
    def assert_writers_match_the_library(seq, path, capsys):
        slack, maximal = fulkerson_slack(seq), maximal_sequences(seq)
        extras = (slack.s_bar, slack.s_under, maximal.m_bar, maximal.m_under)
        code = 0 if is_split_sequence(seq) else 1
        assert run(["matrix", "--extras", str(path)]) == code
        assert capsys.readouterr().out == render_matrix_by_generators(
            splittance_matrix(seq), extras
        )
        parts = split_partitions(seq)
        for fmt in ("kv", "csv"):
            assert run(["partitions", "--format", fmt, str(path)]) == code
            assert capsys.readouterr().out == render_partitions_by_sort(parts, fmt)

    @pytest.mark.parametrize("name", ["ex1.seq", "dirext.seq", "ex1_realization.digraph"])
    def test_fixtures(self, name, capsys):
        doc = parse_document(read_fixture(name))
        seq = degree_sequence(doc) if isinstance(doc, splitkit.Digraph) else doc
        self.assert_writers_match_the_library(seq, fixture(name), capsys)

    def test_no_vertices(self, tmp_path, capsys):
        path = tmp_path / "none.seq"
        path.write_text("seq\n")
        self.assert_writers_match_the_library(IntegerPairSequence([]), path, capsys)
        assert run(["partitions", str(path)]) == 0
        assert capsys.readouterr().out == "k=0 l=0 pm= plus= minus= zero=\n"

    @pytest.mark.parametrize("seed", range(52))
    def test_seeded_sequences(self, seed, tmp_path, capsys):
        rng = random.Random(f"stream:{seed}")
        # Eight sequences reach N = 600; the rest stop at 200 to keep the
        # suite short.
        family = ("empty", "complete", "planted", "gnp")[seed % 4]
        n = rng.randint(100, 600) if seed < 8 else rng.randint(100, 200)
        if family == "gnp":
            seq = gnp_degree_sequence(rng, n, rng.choice([0.05, 0.3, 0.7]))
        else:
            seq = TestRenderedOutput.sequence(family, rng, n)
        path = tmp_path / f"{family}.seq"
        path.write_text("seq\n" + "".join(f"{o} {i}\n" for o, i in seq.pairs))
        self.assert_writers_match_the_library(seq, path, capsys)

    def test_writers_hold_linear_memory(self, tmp_path):
        # A new interpreter, so that nothing an earlier test left in memory
        # hides what the writers allocate.  The empty sequence on 1500
        # vertices has 3000 zero cells; each command writes over 10 MB into
        # a sink that only counts characters, and neither may trace more
        # than a fixed 4 MB, whatever the number of cells it lists.
        path = tmp_path / "empty1500.seq"
        path.write_text("seq\n" + "0 0\n" * 1500)
        code = (
            "import sys, tracemalloc\n"
            "from splitkit.cli import run\n"
            "class Sink:\n"
            "    chars = 0\n"
            "    def write(self, text):\n"
            "        self.chars += len(text)\n"
            "    def flush(self):\n"
            "        pass\n"
            "for command in ('partitions', 'matrix'):\n"
            "    sys.stdout = sink = Sink()\n"
            "    tracemalloc.start()\n"
            "    code = run([command, sys.argv[1]])\n"
            "    peak = tracemalloc.get_traced_memory()[1]\n"
            "    tracemalloc.stop()\n"
            "    print(command, code, sink.chars, peak, file=sys.__stdout__)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, str(path)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        rows = [line.split() for line in result.stdout.splitlines()]
        assert [row[:2] for row in rows] == [["partitions", "0"], ["matrix", "0"]]
        for _, _, chars, peak in rows:
            assert int(chars) > 10**7
            assert int(peak) < 4 << 20
