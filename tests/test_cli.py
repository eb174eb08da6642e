import argparse
import importlib.metadata
import os
import random
import re
import shutil
import signal
import subprocess
import sys
from collections import Counter
from itertools import product, takewhile
from pathlib import Path

import pytest

import splitkit
import splitkit.cli as cli
import splitkit.digraphs as digraphs
import splitkit.oracle as oracle
from splitkit import (
    BudgetExceededError,
    Digraph,
    EnumerationBudget,
    IntegerPairSequence,
    degree_sequence,
    digraph_splittance,
    fulkerson_slack,
    is_digraphic,
    is_split_sequence,
    maximal_sequences,
    split_partitions,
    splittance_matrix,
)
from splitkit.cli import InputParseError, parse_document, run
from splitkit.sequences import proper_order

from helpers import (
    child_env,
    fulkerson_slack_quadratic,
    gnp_degree_sequence,
    induced_partition_by_prefixes,
    maximal_sequences_quadratic,
    parse_digraph_by_lines,
    parse_sequence_by_lines,
    planted_split_digraph,
    random_balanced_pairs,
    render_matrix_by_generators,
    render_partitions_by_sort,
    splittance_matrix_by_rows,
    traced_peaks,
    zero_cells_by_scan,
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


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def command_outcome(
    argv: list[str], stdin: Path, env: dict[str, str], encoding: str = "utf-8"
) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``splitkit argv`` run in a new
    interpreter under ``env``, with file descriptor 0 reading ``stdin``."""
    with open(stdin, "rb") as handle:
        child = subprocess.run(
            [sys.executable, "-m", "splitkit.cli", *argv],
            stdin=handle,
            capture_output=True,
            env=env,
            timeout=60,
        )
    return child.returncode, child.stdout.decode(encoding), child.stderr.decode(encoding)


@pytest.fixture
def stdin_bytes(tmp_path):
    """A function that points file descriptor 0 at a file holding the bytes
    it is given, for ``-`` to read in-process.  The test's fd 0 comes back
    after it, and no test reads it: on a terminal that read would block."""
    saved = os.dup(0)

    def feed(data: bytes) -> None:
        path = tmp_path / "stdin"
        path.write_bytes(data)
        with open(path, "rb") as handle:
            os.dup2(handle.fileno(), 0)

    yield feed
    os.dup2(saved, 0)
    os.close(saved)


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
            "seq 1\n1 1\n",
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(InputParseError):
            parse_document(text)

    def test_seq_header_takes_no_fields(self):
        with pytest.raises(InputParseError) as caught:
            parse_document("seq 1\n1 1\n")
        assert str(caught.value) == "malformed header 'seq 1': expected 'seq'"


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
        "five fields": "1 2 3 4 5",
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
        # The bulk parse ends each line with a ";" token of its own.
        "semicolon second": "1 ;",
        "semicolon first": "; 2",
        "lone semicolon": ";",
        "two semicolons": "; ;",
        "semicolon inside": "1;2 3",
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

    # Lines at the edge of the skeleton form ("u v\n" lines, split once
    # per block with no line list): each is parsed as the line parser
    # reads it, in the middle of a file and on its last line, with or
    # without a final "\n".
    SKELETON_EDGES = {
        "plain": "3 4",
        "semicolon field": "3 ;",
        "leading space": " 3 4",
        "two spaces": "3  4",
        "trailing space": "3 4 ",
        "tab": "3\t4",
        "hash inside a field": "3 4#5",
        "hash starts a field": "3 #4",
        "non-ASCII digits": "\u0663 \u0664",
        "empty first field": " 4",
        "empty second field": "3 ",
        "unit separator": "3\x1f4",
        "NUL inside a field": "3 4\x00",
    }

    @pytest.mark.parametrize("edge", sorted(SKELETON_EDGES))
    def test_skeleton_edges(self, edge, tmp_path, capsys):
        for lines in (["1 2", self.SKELETON_EDGES[edge], "5 6"], ["1 2", self.SKELETON_EDGES[edge]]):
            for ending in ("", "\n"):
                text = f"{self.HEADER}\n" + "\n".join(lines) + ending
                self.assert_same_outcome(text, tmp_path, capsys)

    # Line breaks of several kinds that ``str.splitlines`` knows, and runs
    # of blanks between the two fields.
    BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"]
    SEPARATORS = [" ", "\t", "   ", " \t\t "]

    def test_mixed_line_breaks_and_separators(self, tmp_path, capsys):
        rng = random.Random(2028)
        faults = sorted(self.FAULTS.values())
        for _ in range(150):
            lines = self.valid_lines(rng, rng.randint(0, 12))
            if rng.random() < 0.4:
                lines.insert(rng.randint(0, len(lines)), rng.choice(faults))
            lines = [rng.choice(self.SEPARATORS).join(line.split()) for line in lines]
            lead = rng.sample(["", "  ", "# a comment", "\t# another"], rng.randint(0, 4))
            text = "".join(
                line + rng.choice(self.BREAKS) for line in [*lead, self.HEADER, *lines]
            )
            self.assert_same_outcome(text, tmp_path, capsys)

    @pytest.mark.parametrize("after", BREAKS)
    def test_header_anywhere_among_line_breaks(self, after, tmp_path, capsys):
        # After blank and comment lines, and on one "\n"-ended stretch of
        # text with the body lines that follow it.
        expected = self.by_lines(f"{self.HEADER}\n1 2\n3 4\n5 6\n7 8\n")
        for lead in ["", "\n\n", "# c\n\n  \r\n\t# d\r", " \x0b#\u2028"]:
            text = f"{lead}{self.HEADER}{after}1\t2\r3   4\x0b5 \t 6\n7 8{after}"
            assert self.by_lines(text) == expected
            self.assert_same_outcome(text, tmp_path, capsys)


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


@pytest.fixture(params=[1, 16])
def small_blocks(request, monkeypatch):
    """Parse blocks of a few characters, so that every file spans many
    blocks and each line is the first or the last of some block."""
    monkeypatch.setattr(cli, "_BLOCK", request.param)


@pytest.mark.usefixtures("small_blocks")
class TestBulkParserInSmallBlocks(TestBulkParser):
    """``TestBulkParser`` with blocks of a few characters."""


@pytest.mark.usefixtures("small_blocks")
class TestBulkSequenceParserInSmallBlocks(TestBulkSequenceParser):
    """``TestBulkSequenceParser`` with blocks of a few characters."""


@pytest.fixture(params=[1, 16, 4096, 1 << 17])
def any_blocks(request, monkeypatch):
    """Parse blocks of a few characters, of 4096, and of 2^17, sixteen
    times the default size."""
    monkeypatch.setattr(cli, "_BLOCK", request.param)


class TestSkeletonPath:
    """Seeded files written twice: in skeleton form, "u v\\n" lines that the
    parse splits once per block with no line list, and in noisy form, with
    comments, blank lines, tabs, runs of blanks and CRLF, which take the
    ``;`` sentinel path.  Both forms give the same columns, or the same
    fault message and exit code, through ``parse_document`` and ``run``."""

    # (kind, n, p): G(n, p) digraphs, the complete digraph, and the degree
    # sequences of G(n, p) digraphs.
    FILES = [
        ("gnp", 100, 0.2),
        ("gnp", 600, 0.02),
        ("complete", 100, 1.0),
        ("seq", 350, 0.05),
        ("seq", 600, 0.02),
    ]
    # Planted faulty lines; a line fault is worded from the line itself, so
    # the noisy form keeps the inside of a planted line as it is.
    FAULTS = {
        "digraph": ["1 2 3", "1 x", "1 ;", "; 1", "{n} 1", "5 5", "{repeat}", "1_ 2"],
        "seq": ["1 2 3", "1 x", "1 ;", "7", "0x1 2"],
    }

    @staticmethod
    def lines(kind: str, n: int, p: float, seed: str) -> tuple[str, list[str]]:
        rng = random.Random(seed)
        if kind == "seq":
            seq = gnp_degree_sequence(rng, n, p)
            return "seq", [f"{o} {i}" for o, i in seq.pairs]
        arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
                if u != v and (p == 1.0 or rng.random() < p)]
        rng.shuffle(arcs)
        return f"digraph {n}", [f"{u} {v}" for u, v in arcs]

    @staticmethod
    def skeleton(header: str, lines: list[str]) -> str:
        return "".join(f"{line}\n" for line in [header, *lines])

    @staticmethod
    def noisy(rng: random.Random, header: str, lines: list[str], keep: int) -> str:
        """``lines`` under ``header`` with noise between and around the
        fields of every line but the one at ``keep``, which gets noise
        around it only."""
        text = [f"# seeded {rng.random()}", "", header.replace(" ", "\t ")]
        for i, line in enumerate(lines):
            if i != keep:
                line = rng.choice([" ", "\t", "  ", " \t", "\xa0"]).join(line.split())
            text.append(
                rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "\t# c", "  #"])
            )
            if rng.random() < 0.05:
                text.append(rng.choice(["", "  ", "# only a comment"]))
        ending = rng.choice(["\n", "\r\n"])
        return ending.join(text) + rng.choice(["", ending])

    @staticmethod
    def outcome(text: str, command: str, path: Path, capsys):
        """What ``parse_document`` gives (its value, or its fault message)
        and what ``run`` writes and returns on ``text``."""
        try:
            doc = parse_document(text)
        except InputParseError as exc:
            parsed = str(exc)
        else:
            parsed = (doc.n, doc.succ, doc.indegree) if isinstance(doc, cli.Digraph) else doc.pairs
        path.write_bytes(text.encode())
        code = run([command, str(path)])
        return parsed, code, capsys.readouterr()

    def assert_forms_agree(self, header, lines, keep, seed, tmp_path, capsys):
        command = "check" if header == "seq" else "repair"
        skeleton = self.outcome(self.skeleton(header, lines), command, tmp_path / "a", capsys)
        noisy = self.noisy(random.Random(seed), header, lines, keep)
        assert self.outcome(noisy, command, tmp_path / "b", capsys) == skeleton
        return skeleton

    @pytest.mark.parametrize("kind, n, p", FILES)
    @pytest.mark.usefixtures("any_blocks")
    def test_valid_files_agree(self, kind, n, p, tmp_path, capsys):
        seed = f"valid:{kind}:{n}"
        header, lines = self.lines(kind, n, p, seed)
        parsed, code, _ = self.assert_forms_agree(header, lines, -1, seed, tmp_path, capsys)
        if kind == "seq":
            assert parsed == gnp_degree_sequence(random.Random(seed), n, p).pairs
        else:
            g = cli.Digraph(n, [[int(label) - 1 for label in line.split()] for line in lines])
            assert parsed == (g.n, g.succ, g.indegree)
        assert code in (0, 1)

    # (kind, n, p, characters per block): each file at two block sizes, so
    # that the planted lines fall in the first, a middle and the last block.
    FAULT_FILES = [
        ("gnp", 100, 0.2, 1),
        ("gnp", 100, 0.2, 4096),
        ("gnp", 600, 0.005, 16),
        ("gnp", 600, 0.005, 1 << 17),
        ("complete", 100, 1.0, 4096),
        ("seq", 350, 0.05, 1),
        ("seq", 350, 0.05, 1 << 17),
        ("seq", 600, 0.02, 16),
        ("seq", 600, 0.02, 4096),
    ]

    @pytest.mark.parametrize("kind, n, p, block", FAULT_FILES)
    def test_planted_faults_agree(self, kind, n, p, block, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK", block)
        header, lines = self.lines(kind, n, p, f"faults:{kind}:{n}")
        for fault in self.FAULTS[header.split()[0]]:
            for at in (0, len(lines) // 2, len(lines)):
                line = fault.format(n=n + 1, repeat=lines[at // 2] if at else lines[0])
                planted = lines[:at] + [line] + lines[at:]
                seed = f"{kind}:{n}:{fault}:{at}"
                parsed, code, written = self.assert_forms_agree(
                    header, planted, at, seed, tmp_path, capsys
                )
                assert code == 2 and written.err == f"error: {parsed}\n", (fault, at)
                by_lines = parse_sequence_by_lines if kind == "seq" else parse_digraph_by_lines
                with pytest.raises(InputParseError) as expected:
                    by_lines(self.skeleton(header, planted))
                assert str(expected.value) == parsed

    def test_complete_digraph_at_600(self, tmp_path, capsys):
        # 359 400 arc lines, 2.7 MB, in 336 blocks of the default size.
        header, lines = self.lines("complete", 600, 1.0, "complete")
        parsed, code, written = self.assert_forms_agree(
            header, lines, -1, "complete", tmp_path, capsys
        )
        assert (code, written.out, written.err) == (0, "", "")
        assert sum(parsed[2].values()) == len(lines)


class TestColumns:
    # ``_columns`` reads its text one block at a time and converts each
    # distinct token once a table, through tables that every block reads:
    # one for both columns, as a ``seq`` file passes, or one a column, as a
    # ``digraph`` file does.  Lines repeated in three blocks give the same
    # columns three times over.  A faulty line gives none of its integers:
    # the columns end with the line before it, and the error that comes
    # with them words it as the line-at-a-time parsers do.  Every test runs
    # on blocks of both forms: skeleton ("u v\n" lines, split with no line
    # list) and noisy (tabs, no-break spaces, comments and CRLF: the ``;``
    # sentinel path).
    LINES = ["1 2", "+3 004", "-5 6_0", "7 " + "9" * 30, "012 1_8"]
    FORMS = ("skeleton", "noisy")
    # The label 7 spelled differently in the two columns: 7, 07 and +7 in
    # the first (with LINES), 7 and 07 in the second.
    SPELLED = ["07 7", "+7 07"]
    # (header, base, shape, noun, line-at-a-time parser) per header.
    SHAPES = [
        ("seq", 0, "'out in' pair", "degree", parse_sequence_by_lines),
        ("digraph 12", 1, "'u v' arc", "label", parse_digraph_by_lines),
    ]

    @staticmethod
    def block(lines: list[str], form: str) -> str:
        if form == "skeleton":
            return "".join(line + "\n" for line in lines)
        return "".join("\t" + line.replace(" ", "\xa0\t") + "  # c\r\n" for line in lines)

    @staticmethod
    def tables(base: int, header: str) -> tuple[cli._Table, cli._Table]:
        # A ``seq`` file's one table for both columns, a ``digraph`` file's
        # table a column.
        if header == "seq":
            return (cli._Table(base),) * 2
        return cli._Table(base), cli._Table(base)

    @staticmethod
    def values(lines: list[str], base: int) -> list[list[int]]:
        integers = [int(token) - base for token in " ".join(lines).split()]
        return [integers[0::2], integers[1::2]]

    @staticmethod
    def message(by_lines, text: str) -> str:
        with pytest.raises(InputParseError) as expected:
            by_lines(text)
        return str(expected.value)

    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize("base", [0, 1])
    def test_columns_are_the_integers_less_base(self, base, copies, monkeypatch):
        read, split = cli._lines, []
        monkeypatch.setattr(cli, "_lines", lambda block: split.append(block) or read(block))
        for form in self.FORMS:
            text = self.block(self.LINES, form)
            for header, _, shape, noun, _ in self.SHAPES:
                split.clear()
                columns = cli._columns([text] * copies, self.tables(base, header), 0, shape, noun)
                assert columns == (*self.values(self.LINES * copies, base), None)
                # A block in skeleton form is never split into lines.
                assert split == ([] if form == "skeleton" else [text] * copies)
                # An empty block, as the header's own stretch can give, adds none.
                blocks = ["", *[text, ""] * copies]
                assert cli._columns(blocks, self.tables(base, header), 0, shape, noun) == columns

    # Tokens that ``int`` refuses, in either column, after good lines of
    # their block: the table stops mid-block with part of the block's
    # integers on one column or both, and none of them may stay.  On the
    # skeleton path a ``;`` field is one such token; so is an integer of
    # more digits than ``int`` converts, which is worded as too large.
    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize(
        "bad", ["x", "1.0", "1__0", "\u00bd", ";", pytest.param("9" * 5000, id="5000-digits")]
    )
    def test_non_integer_token_gives_none(self, copies, bad):
        for line, form in product([f"3 {bad}", f"{bad} 3"], self.FORMS):
            text = self.block(self.LINES, form)
            blocks = [text] * (copies - 1) + [text + self.block([line, "1 2"], form)]
            for header, base, shape, noun, by_lines in self.SHAPES:
                *columns, fault = cli._columns(blocks, self.tables(base, header), 0, shape, noun)
                assert columns == self.values(self.LINES * copies, base)
                expected = self.message(by_lines, f"{header}\n" + self.block([line], form))
                assert str(fault) == expected

    # 3L tokens with L ";", yet the 2L fields split 1 + 3 or 3 + 1; five
    # fields, whose ";" still falls at every third place; and a line that is
    # a lone ";", the token the sentinel path ends each line with.
    @pytest.mark.parametrize(
        "lines", [["3", "1 2 3"], ["1 2 3", "3"], ["1 2 3 4 5"], ["1 2", ";"]]
    )
    def test_misplaced_fields_give_none(self, lines):
        ahead = list(takewhile(lambda line: len(line.split()) == 2, lines))
        for form in self.FORMS:
            faulty = self.block(lines, form)
            for header, base, shape, noun, by_lines in self.SHAPES:
                message = self.message(by_lines, f"{header}\n{faulty}")
                *columns, fault = cli._columns([faulty], self.tables(base, header), 0, shape, noun)
                assert (columns, str(fault)) == (self.values(ahead, base), message)
                blocks = [self.block(self.LINES, form), "", faulty + self.block(self.LINES, form)]
                *columns, fault = cli._columns(blocks, self.tables(base, header), 0, shape, noun)
                assert columns == self.values(self.LINES + ahead, base)
                assert str(fault) == message
                text = f"{header}\n" + self.block(["1 2", *lines, "3 4"], form)
                with pytest.raises(InputParseError) as raised:
                    parse_document(text)
                assert str(raised.value) == self.message(by_lines, text)

    def test_columns_allocated_up_front_are_cut_to_the_lines_read(self):
        # ``size`` only reserves room: too small, exact or too large, and on
        # a block refused after its first line, the columns and the error
        # are those of the calls above.
        lines = self.LINES * 3
        for form, last in product(self.FORMS, ["", "1 2 3"]):
            blocks = [self.block(lines, form), self.block([lines[0], last], form) if last else ""]
            for header, base, shape, noun, _ in self.SHAPES:
                *columns, fault = cli._columns(blocks, self.tables(base, header), 0, shape, noun)
                for size in (0, 3, len(lines), len(lines) + 1, 4 * len(lines)):
                    tables = self.tables(base, header)
                    *sized, sized_fault = cli._columns(blocks, tables, size, shape, noun)
                    assert (sized, str(sized_fault)) == (columns, str(fault))

    @staticmethod
    def converted(lines: list[str], header: str) -> list[str]:
        # The tokens converted: each distinct token of the file once through
        # one table, each distinct token of a column once through a table a
        # column.
        tokens = " ".join(lines).split()
        if header == "seq":
            return sorted(set(tokens))
        return sorted([*set(tokens[0::2]), *set(tokens[1::2])])

    @pytest.mark.parametrize("per_block", [1, 2, 5])
    def test_each_distinct_token_converted_once(self, per_block, monkeypatch):
        # A table a column also holds the column's values in the order
        # first seen, whichever spelling each first appears as.
        lines = (self.LINES + self.SPELLED) * 3
        converted = []

        def counted(token):
            converted.append(token)
            return int(token)

        monkeypatch.setattr(cli, "int", counted, raising=False)
        for form, (header, base, shape, noun, _) in product(self.FORMS, self.SHAPES):
            blocks = [
                self.block(lines[i:i + per_block], form)
                for i in range(0, len(lines), per_block)
            ]
            converted.clear()
            tables = self.tables(base, header)
            columns = cli._columns(blocks, tables, 0, shape, noun)
            assert columns == (*self.values(lines, base), None)
            assert sorted(converted) == self.converted(lines, header)
            assert ";" not in converted
            if header != "seq":
                orders = [list(dict.fromkeys(table.values())) for table in tables]
                assert orders == [list(dict.fromkeys(column)) for column in columns[:2]]

    @pytest.mark.parametrize("header", ["seq", "digraph 2"])
    def test_parse_passes_each_header_its_tables(self, header, monkeypatch):
        # A ``seq`` file's columns share one table, so that each token is
        # converted once a file; a ``digraph`` file's have one each, for
        # their first-seen orders.
        columns, passed = cli._columns, []

        def spy(blocks, tables, *rest):
            passed.append(tables)
            return columns(blocks, tables, *rest)

        monkeypatch.setattr(cli, "_columns", spy)
        parse_document(f"{header}\n1 2\n2 1\n")
        [(first, second)] = passed
        assert (first is second) == (header == "seq")

    @pytest.mark.parametrize("per_block", [1, 2, 5])
    def test_blocks_of_both_forms_share_one_table(self, per_block, monkeypatch):
        # Blocks in skeleton and noisy form in turn: still each distinct
        # token converted once a table.
        lines = (self.LINES + self.SPELLED) * 3
        converted = []

        def counted(token):
            converted.append(token)
            return int(token)

        monkeypatch.setattr(cli, "int", counted, raising=False)
        blocks = [
            self.block(lines[i:i + per_block], self.FORMS[i // per_block % 2])
            for i in range(0, len(lines), per_block)
        ]
        for header, base, shape, noun, _ in self.SHAPES:
            converted.clear()
            tables = self.tables(base, header)
            columns = cli._columns(blocks, tables, 0, shape, noun)
            assert columns == (*self.values(lines, base), None)
            assert sorted(converted) == self.converted(lines, header)


class TestReadOnce:
    # The complete digraph on 20 vertices, its last arc on the last line or
    # a faulty line in its place.  In skeleton form only the header's own
    # stretch is split into lines, and a block the bulk checks refuse at
    # most once more; in noisy form (tabs) every block is split once, the
    # refused one too.
    ARCS = [f"{u} {v}" for u in range(1, 21) for v in range(1, 21) if u != v]
    LAST = {
        "valid": ARCS[-1],
        "malformed": "1 2 3",
        "out of range": "2 21",
        "loop": "4 4",
        "repeat": ARCS[0],
    }

    @pytest.mark.parametrize("header", ["digraph 20", "seq"])
    @pytest.mark.usefixtures("small_blocks")
    def test_each_block_is_read_once(self, header, monkeypatch):
        read, calls = cli._lines, []
        monkeypatch.setattr(cli, "_lines", lambda block: calls.append(block) or read(block))
        for last, line in self.LAST.items():
            for separator in (" ", "\t"):
                body = "".join(f"{arc}\n" for arc in [*self.ARCS[:-1], line])
                text = f"{header}\n" + body.replace(" ", separator)
                blocks = list(cli._blocks(text, len(header) + 1))
                calls.clear()
                try:
                    parse_document(text)
                except InputParseError:
                    assert last != "valid"
                assert calls[0] == f"{header}\n"
                if separator == "\t":
                    assert calls[1:] == blocks
                else:
                    assert calls[1:] == (blocks[-1:] if last == "malformed" else [])


class TestOneWordingWalk:
    # A refused ``digraph`` file is worded from one walk of its columns,
    # ``digraphs._arc_fault``, the walk the library words too: it runs
    # once, after the build refuses the byte rows (the complete digraph on
    # 20 vertices) or the words (a path on 400 vertices), or on the lines
    # before a faulty line, and the library's own wording never runs.
    FILES = {
        "dense": (20, [(u, v) for u in range(1, 21) for v in range(1, 21) if u != v]),
        "sparse": (400, [(u, u + 1) for u in range(1, 400)]),
    }

    @pytest.mark.parametrize("last", ["{n} {n}", "1 {m}", "0 3", "{repeat}", "1 2 3"])
    @pytest.mark.parametrize("store", sorted(FILES))
    def test_the_library_wording_never_runs(self, store, last, tmp_path, capsys, monkeypatch):
        n, arcs = self.FILES[store]
        lines = [f"{u} {v}" for u, v in arcs]
        lines.append(last.format(n=n, m=n + 1, repeat=lines[len(lines) // 2]))
        text = "".join(f"{line}\n" for line in [f"digraph {n}", *lines])
        with pytest.raises(InputParseError) as expected:
            parse_digraph_by_lines(text)
        walk, walks, worded = digraphs._arc_fault, [], []

        def counted(*args):
            walks.append(args[0])
            return walk(*args)

        monkeypatch.setattr(digraphs, "_arc_fault", counted)
        monkeypatch.setattr(cli, "_arc_fault", counted)
        monkeypatch.setattr(digraphs, "_raise_worded", lambda *args: worded.append(args))
        path = tmp_path / "faulty.digraph"
        path.write_text(text)
        assert run(["repair", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {expected.value}\n")
        assert (walks, worded) == ([n], [])

    def test_sparse_walk_keeps_one_entry_an_arc(self):
        # A sparse list, N = 10^4 and M = 3 * 10^4, with its first arc
        # repeated last.  The walk marks each arc seen at u * N + v in a
        # Counter and traced 2.5 MiB; marked in one byte a cell, as a dense
        # list is, it traced 95 MiB.
        prelude = (
            "import random\n"
            "from splitkit.digraphs import _arc_fault\n"
            "rng = random.Random(30_000)\n"
            "n, pairs = 10_000, {}\n"
            "while len(pairs) < 30_000:\n"
            "    u, v = rng.randrange(n), rng.randrange(n)\n"
            "    if u != v:\n"
            "        pairs[u, v] = None\n"
            "arcs = [*pairs, next(iter(pairs))]\n"
            "sources, targets = [u for u, _ in arcs], [v for _, v in arcs]\n"
        )
        [(fault, peak)] = traced_peaks(prelude, ["(_arc_fault(n, sources, targets), arcs[0])"])
        assert fault[0] == ("repeat", *fault[1])
        assert peak < 8 << 20


class TestFaultParity:
    # The CLI and the library name the same fault: on seeded dense and
    # sparse lists with N in the hundreds, each with one to three planted
    # faults (a label out of range, a loop, a repeat) at random places,
    # ``parse_document`` on the file and ``Digraph.from_lists`` on its
    # 0-based columns both name the first faulty arc in list order.
    WORDS = [
        ("range", r"arc \((-?\d+), (-?\d+)\) outside (?:vertex range|labels) "),
        ("loop", r"loop at vertex (-?\d+)() not allowed"),
        ("repeat", r"duplicate arc \((-?\d+), (-?\d+)\)"),
    ]

    @classmethod
    def named(cls, message: str, base: int) -> tuple:
        """The kind and the 0-based arc a fault message names."""
        for kind, pattern in cls.WORDS:
            match = re.match(pattern, message)
            if match:
                u, v = match.groups()
                return kind, int(u) - base, int(v or u) - base
        raise AssertionError(message)

    @staticmethod
    def first_fault(n: int, arcs: list) -> tuple:
        seen = set()
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                return "range", u, v
            if u == v:
                return "loop", u, v
            if (u, v) in seen:
                return "repeat", u, v
            seen.add((u, v))
        raise AssertionError("no fault planted")

    def test_both_front_ends_name_the_first_faulty_arc(self):
        rng = random.Random(26)
        kinds, stores = Counter(), Counter()
        for case in range(60):
            n = rng.randint(100, 300)
            if case % 2:
                arcs = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.2}
            else:
                arcs = {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}
            arcs = [(u, v) for u, v in arcs if u != v]
            rng.shuffle(arcs)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(arcs))
                u, v = arcs[i]
                kind = rng.choice(["range", "loop", "repeat"])
                if kind == "range":
                    bad = rng.choice([-1 - rng.randrange(3), n + rng.randrange(3)])
                    arcs[i] = (bad, v) if rng.random() < 0.5 else (u, bad)
                elif kind == "loop":
                    arcs[i] = (u, u)
                else:
                    arcs.insert(rng.randrange(len(arcs) + 1), (u, v))
            sources, targets = [u for u, _ in arcs], [v for _, v in arcs]
            expected = self.first_fault(n, arcs)
            with pytest.raises(ValueError) as from_lists:
                Digraph.from_lists(n, sources, targets)
            text = f"digraph {n}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in arcs)
            with pytest.raises(InputParseError) as parsed:
                parse_document(text)
            assert self.named(str(from_lists.value), 0) == expected
            assert self.named(str(parsed.value), 1) == expected
            kinds[expected[0]] += 1
            stores[digraphs._dense(n, len(arcs), len(set(sources)))] += 1
        assert min(kinds[kind] for kind, _ in self.WORDS) > 5, kinds
        assert stores[True] == stores[False] == 30, stores


class TestParseMemory:
    def test_repair_parses_in_linear_memory(self, tmp_path):
        # The complete digraph on 317 vertices: 100 172 arcs, 0.7 MB of
        # text, and no edits to make.  The parse keeps two integer columns
        # and the strings of one block.  A faulty last line adds a walk of
        # its own block; any fault adds a walk of the columns that keeps one
        # byte for each of the n * n arcs it may see.  None may trace 16 MiB; a parse that split
        # the whole text at once traced 22.7 MiB on the valid file.
        n = 317
        labels = range(1, n + 1)
        arcs = "".join(f"{u} {v}\n" for u in labels for v in labels if u != v)
        paths = []
        for name, last in [("complete", ""), ("repeated", "1 2\n"),
                           ("malformed", "1 2 3\n"), ("out-of-range", f"2 {n + 1}\n")]:
            paths.append(tmp_path / f"{name}.digraph")
            paths[-1].write_text(f"digraph {n}\n{arcs}{last}")
        calls = [f"run(['repair', {str(path)!r}])" for path in paths]
        rows = traced_peaks("from splitkit.cli import run\n", calls)
        assert [code for code, _ in rows] == [0, 2, 2, 2]
        for _, peak in rows:
            assert peak < 16 << 20

    def test_fault_walk_holds_rows_not_arcs(self):
        # The complete digraph on 317 vertices, and the same with its first
        # arc repeated on the last line, which the walk of the columns
        # words.  The walk keeps 317 * 317 bytes, one a cell: the faulty file may
        # trace at most half as much again as the valid one.  A walk that
        # kept each arc seen as one int in a set traced 10.1 MiB against
        # 1.9 MiB.
        prelude = (
            "from splitkit.cli import InputParseError, parse_document\n"
            "labels = range(1, 318)\n"
            "valid = 'digraph 317\\n' + ''.join(\n"
            "    f'{u} {v}\\n' for u in labels for v in labels if u != v)\n"
            "repeated = valid + '1 2\\n'\n"
            "def parse(text):\n"
            "    try:\n"
            "        return parse_document(text).n\n"
            "    except InputParseError as fault:\n"
            "        return str(fault)\n"
        )
        (n, valid), (message, faulty) = traced_peaks(prelude, ["parse(valid)", "parse(repeated)"])
        assert (n, message) == (317, "duplicate arc (1, 2)")
        assert faulty <= 1.5 * valid

    def test_blank_lines_reserve_little_room(self):
        # Three arcs after 2 * 10^5 blank lines: the columns are allocated
        # up front for at most a quarter of the text's characters, 50 000
        # lines, not for its 200 000 line breaks, which traced 4.8 MB.
        prelude = (
            "from splitkit.cli import parse_document\n"
            "text = 'digraph 3\\n' + '\\n' * 200_000 + '1 2\\n2 3\\n3 1\\n'\n"
        )
        [(n, peak)] = traced_peaks(prelude, ["parse_document(text).n"])
        assert n == 3
        assert peak < 2 << 20

    def test_comment_lines_reserve_no_room_in_a_seq_file(self):
        # Three pairs after 2 * 10^5 comment lines: a ``seq`` file's columns
        # grow as they are read.  Sized up front for the text's line
        # breaks, as a ``digraph`` file's are, they traced 4.6 MiB.
        prelude = (
            "from splitkit.cli import parse_document\n"
            "text = 'seq\\n' + '# a comment line\\n' * 200_000 + '1 1\\n1 1\\n0 0\\n'\n"
        )
        [(n, peak)] = traced_peaks(prelude, ["parse_document(text).n"])
        assert n == 3
        assert peak < 1 << 20

    def test_parse_holds_little_beyond_its_columns(self):
        # The complete digraph on 500 vertices: 249 500 arcs, 1.9 MB of
        # text, made before the trace starts.  Its two integer columns take
        # 3.8 MiB; the parse may trace 5 MiB in all.  Blocks of 2^17
        # characters traced 7.5 MiB.
        prelude = (
            "from splitkit.cli import parse_document\n"
            "labels = range(1, 501)\n"
            "text = 'digraph 500\\n' + ''.join(\n"
            "    f'{u} {v}\\n' for u in labels for v in labels if u != v)\n"
        )
        [(n, peak)] = traced_peaks(prelude, ["parse_document(text).n"])
        assert n == 500
        assert peak < 5 << 20


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

    def test_stdin_input(self, capsys, stdin_bytes):
        stdin_bytes(b"seq\n0 0\n")
        assert run(["check", "-"]) == 0
        assert capsys.readouterr() == ("digraphic=true\nsplit=true\nsplittance=0\n", "")


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
        def out_of_memory(self, n, sources, targets, orders=None):
            raise MemoryError

        monkeypatch.setattr(cli.Digraph, "_build", out_of_memory)
        path = tmp_path / "cycle.digraph"
        path.write_text("digraph 4\n1 2\n2 3\n3 4\n4 1\n")
        assert run(["repair", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input too large to analyze: out of memory\n"

    @pytest.mark.parametrize(
        "body, message",
        [("1 2\nx\n", "expected 'u v' arc, got 'x'"), ("1 2\n1 2\nx\n", "duplicate arc (1, 2)")],
    )
    def test_line_fault_wins_over_out_of_memory(
        self, body, message, tmp_path, capsys, monkeypatch
    ):
        # A store too large to build for the arcs before a faulty line hides
        # neither that line's fault nor an arc fault before it: a file with
        # a faulty line is worded by the walk alone, never built.
        def out_of_memory(self, n, sources, targets, orders=None):
            raise MemoryError

        monkeypatch.setattr(cli.Digraph, "_build", out_of_memory)
        path = tmp_path / "faulty.digraph"
        path.write_text(f"digraph {10 ** 18}\n{body}")
        assert run(["repair", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

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

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_stdin_not_utf8_exits_2(self, errors, tmp_path):
        # ``-`` is read as a FILE is, whatever error handler the
        # interpreter gives its own stdin (surrogateescape is what a
        # C-locale interpreter uses).
        path = tmp_path / "bad.seq"
        path.write_bytes(NOT_UTF8)
        env = {**child_env(), "PYTHONIOENCODING": f"utf-8:{errors}"}
        assert command_outcome(["check", "-"], path, env) == (
            2, "", f"error: cannot read -: {UNDECODABLE}\n"
        )

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


class TestStdinIsAFile:
    # ``-`` is file descriptor 0, opened as any FILE is: strict UTF-8 and
    # universal newlines.  The same bytes give the same exit code, stdout
    # and stderr through ``-`` as by path, but for ``-`` in place of the
    # path where stderr names the file.
    COMPLETE = "".join(f"{u} {v}\n" for u in range(1, 5) for v in range(1, 5) if u != v)
    INPUTS = {
        "skeleton": f"digraph 4\n{COMPLETE}".encode(),
        "crlf": f"digraph 4\n{COMPLETE}1 2 3\n".replace("\n", "\r\n").encode(),
        "cr": f"digraph 5\n{COMPLETE}".replace("\n", "\r").encode(),
        "noisy": b"# a path\n\nseq\n1\t0  # first\n\n1 1\r\n0 1\n",
        "bom": b"\xef\xbb\xbfseq\n0 0\n",
        "empty": b"",
        "not-utf8": NOT_UTF8,
        "latin-1": b"digraph 2\n1\xa02\n",
    }
    # Stdio settings of the interpreter, and the encoding of its output.
    STDIO = {
        "default": ({}, "utf-8"),
        "C-locale": ({"LC_ALL": "C"}, "utf-8"),
        "latin-1": ({"PYTHONIOENCODING": "latin-1"}, "latin-1"),
        "utf-16": ({"PYTHONIOENCODING": "utf-16"}, "utf-16"),
        "utf-8-mode": ({"PYTHONUTF8": "1"}, "utf-8"),
    }

    @pytest.mark.parametrize("command", ["check", "repair"])
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_same_outcome_as_by_path(self, name, command, tmp_path, capsys, stdin_bytes):
        path = tmp_path / name
        path.write_bytes(self.INPUTS[name])
        code = run([command, str(path)])
        out, err = capsys.readouterr()
        stdin_bytes(self.INPUTS[name])
        assert (run([command, "-"]), *capsys.readouterr()) == (
            code, out, err.replace(str(path), "-")
        )

    @pytest.mark.parametrize("name", ["crlf", "not-utf8", "latin-1"])
    @pytest.mark.parametrize("stdio", sorted(STDIO))
    def test_stdio_settings_do_not_reach_the_read(self, stdio, name, tmp_path):
        settings, encoding = self.STDIO[stdio]
        unset = ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL")
        env = {k: v for k, v in child_env().items() if k not in unset}
        env.update(settings)
        path = tmp_path / name
        path.write_bytes(self.INPUTS[name])
        code, out, err = command_outcome(["repair", str(path)], path, env, encoding)
        assert command_outcome(["repair", "-"], path, env, encoding) == (
            code, out, err.replace(str(path), "-")
        )
        if name != "crlf":
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 0 before exec")
    def test_closed_stdin_exits_2(self):
        child = subprocess.run(
            [sys.executable, "-m", "splitkit.cli", "check", "-"],
            capture_output=True,
            env=child_env(),
            preexec_fn=lambda: os.close(0),
            timeout=60,
        )
        assert (child.returncode, child.stdout, child.stderr) == (
            2, b"", b"error: cannot read -: [Errno 9] Bad file descriptor\n"
        )

    # One leading byte-order mark is dropped, by path and through ``-``:
    # each fixture, under a command that reads it, gives the same exit
    # code, stdout and stderr with the mark as without.
    FIXTURE_RUNS = [
        ("check", "ex1.seq"),
        ("matrix", "dirext.seq"),
        ("partitions", "ex1.seq"),
        ("repair", "ex1_realization.digraph"),
    ]

    @pytest.mark.parametrize("command, name", FIXTURE_RUNS)
    def test_leading_byte_order_mark_is_dropped(
        self, command, name, tmp_path, capsys, stdin_bytes
    ):
        marked = b"\xef\xbb\xbf" + (FIXTURES / name).read_bytes()
        expected = (run([command, fixture(name)]), *capsys.readouterr())
        path = tmp_path / name
        path.write_bytes(marked)
        assert (run([command, str(path)]), *capsys.readouterr()) == expected
        stdin_bytes(marked)
        assert (run([command, "-"]), *capsys.readouterr()) == expected

    # A U+FEFF anywhere else is text like any other, and a mark cut short
    # is not UTF-8.
    MARKED = {
        "second-mark": (b"\xef\xbb\xbf\xef\xbb\xbfseq\n0 0\n", "unknown header '\\ufeffseq'"),
        "second-line": (b"\n\xef\xbb\xbfseq\n0 0\n", "unknown header '\\ufeffseq'"),
        "field": (b"seq\n\xef\xbb\xbf0 0\n", "non-integer degree in line '\\ufeff0 0'"),
        "line-end": (b"seq\n0 0\xef\xbb\xbf\n", "non-integer degree in line '0 0\\ufeff'"),
        "cut-short": (b"\xef\xbb", "cannot read {path}: 'utf-8' codec can't decode bytes"),
    }

    @pytest.mark.parametrize("name", sorted(MARKED))
    def test_byte_order_mark_elsewhere_is_refused(self, name, tmp_path, capsys):
        data, message = self.MARKED[name]
        path = tmp_path / name
        path.write_bytes(data)
        assert run(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: " + message.format(path=path))

    def test_cr_only_file_parses_in_blocks(self, tmp_path):
        # The complete digraph on 500 vertices with a lone "\r" ending each
        # line: read without newline translation, its text would hold no
        # "\n" to cut blocks at, and the parse would split it whole.
        n = 500
        labels = range(1, n + 1)
        arcs = "".join(f"{u} {v}\r" for u in labels for v in labels if u != v)
        path = tmp_path / "complete.digraph"
        path.write_text(f"digraph {n}\r{arcs}", newline="")
        prelude = (
            "import os\n"
            "from splitkit.cli import run\n"
            "def through_stdin(path):\n"
            "    fd = os.open(path, os.O_RDONLY)\n"
            "    os.dup2(fd, 0)\n"
            "    os.close(fd)\n"
            "    return run(['repair', '-'])\n"
        )
        calls = [f"run(['repair', {str(path)!r}])", f"through_stdin({str(path)!r})"]
        (by_path, path_peak), (through_stdin, stdin_peak) = traced_peaks(prelude, calls)
        assert by_path == through_stdin == 0
        assert stdin_peak <= 1.1 * path_peak


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

    def test_help_states_the_oracle_caps(self, capsys):
        # The help's three numbers are the oracle's: the largest n whose
        # n(n - 1) unit arcs stay within 2^MAX_ARC_SLOTS, which bounds the
        # realization flow, the default vertex cap, and the largest n whose
        # 2^(2n) partitions stay within 2^MAX_ARC_SLOTS, which bounds both
        # partition sweeps.
        with pytest.raises(SystemExit) as done:
            run(["check", "--help"])
        assert done.value.code == 0
        slots = range(oracle.MAX_ARC_SLOTS + 1)
        sweep = max(n for n in slots if 2 * n <= oracle.MAX_ARC_SLOTS)
        vertices = range(1 << (oracle.MAX_ARC_SLOTS // 2 + 1))
        flow = max(n for n in vertices if n * (n - 1) <= 1 << oracle.MAX_ARC_SLOTS)
        caps = (
            f"the realization flow takes up to {flow} vertices, and the partition "
            f"sweeps of check and of the repair edit search up to SPLITKIT_ORACLE_MAX_N "
            f"(default {oracle.DEFAULT_BUDGET.max_vertices}; at most {sweep})"
        )
        assert caps in " ".join(capsys.readouterr().out.split())

    def test_huge_budget_env_var_is_capped(self, tmp_path, capsys, monkeypatch):
        # The value becomes the one vertex cap as it is; the 2^20 partition
        # rule inside the oracle still stops the edit search at 10 vertices.
        path = tmp_path / "cycle11.digraph"
        path.write_text("digraph 11\n" + "".join(f"{i} {i % 11 + 1}\n" for i in range(1, 12)))
        outputs = []
        for value in ("8", "1000000000"):
            monkeypatch.setenv("SPLITKIT_ORACLE_MAX_N", value)
            for argv in (["check", fixture("ex1.seq")], ["repair", str(path)]):
                code = run([*argv, "--oracle"])
                outputs.append((code, capsys.readouterr().err))
        note = "oracle: edit search skipped (n=11 over budget)\n"
        assert outputs[:2] == outputs[2:] == [(0, ""), (1, note)]
        assert cli._oracle_budget() == EnumerationBudget(10**9)

    def test_edit_search_capped_at_the_vertex_cap(self, tmp_path, capsys, monkeypatch):
        # 9 vertices pass the default cap of 8; the oracle must refuse
        # before it builds its arc tables.
        def no_tables(values):
            raise AssertionError("edit search tables built beyond the cap")

        path = tmp_path / "cycle9.digraph"
        path.write_text("digraph 9\n" + "".join(f"{i} {i % 9 + 1}\n" for i in range(1, 10)))
        assert run(["repair", str(path)]) == 1
        fast = capsys.readouterr()
        monkeypatch.setattr(oracle, "_subset_sums", no_tables)
        monkeypatch.delenv("SPLITKIT_ORACLE_MAX_N", raising=False)
        assert run(["repair", str(path), "--oracle"]) == 1
        captured = capsys.readouterr()
        assert captured.out == fast.out
        assert captured.err == "oracle: edit search skipped (n=9 over budget)\n"

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
            (
                "brute_splittance",
                "repair",
                "digraph 8\n" + "".join(f"{i} {i % 8 + 1}\n" for i in range(1, 9)),
                8,
            ),
        ],
        ids=["sweep", "edit search"],
    )
    def test_default_budget_runs_the_search(
        self, name, command, text, size, tmp_path, capsys, monkeypatch
    ):
        # Both partition sweeps at 8 vertices fit the default cap of 8
        # vertices and the 2^20 partition rule.
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

        def recorded(seq, _search=cli.brute_realize):
            realized.append(_search(seq))
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
        # The realization flow runs on 1 024 vertices, more than the
        # interpreter allows nested calls and the most its 2^20 arc slots
        # admit, whatever the vertex cap; the partition sweep still stops at
        # its own 2^20 bound, with its note.  At 1 025 vertices both refuse.
        cases = [
            (1024, "0 0\n" * 1024),
            (1024, "1 1\n" * 1024),
            (1024, "1 0\n" * 512 + "0 1\n" * 512),
            (1025, "0 0\n" * 1025),
        ]
        path = tmp_path / "input.seq"
        monkeypatch.delenv("SPLITKIT_ORACLE_MAX_N", raising=False)
        for n, body in cases:
            path.write_text("seq\n" + body)
            code = run(["check", str(path)])
            fast = capsys.readouterr()
            assert run(["check", "--oracle", str(path)]) == code
            captured = capsys.readouterr()
            assert captured.out == fast.out
            notes = [f"oracle: partition sweep skipped (N={n} over budget)\n"]
            if n > 1024:
                notes.insert(0, f"oracle: realization check skipped (N={n} over budget)\n")
            assert captured.err == "".join(notes)

    def test_edit_search_runs_up_to_the_cap(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cycle7.digraph"
        path.write_text("digraph 7\n" + "".join(f"{i} {i % 7 + 1}\n" for i in range(1, 8)))
        monkeypatch.setenv("SPLITKIT_ORACLE_MAX_N", "7")
        assert run(["repair", str(path), "--oracle"]) == 1
        assert capsys.readouterr().err == ""

    def test_budget_env_var_ignored_without_oracle(self, capsys, monkeypatch):
        monkeypatch.setenv("SPLITKIT_ORACLE_MAX_N", "abc")
        assert run(["check", fixture("ex1.seq")]) == 0
        assert capsys.readouterr().out == read_fixture("ex1_check.kv")

    def test_realization_search_gives_up_with_a_note(self, tmp_path, capsys, monkeypatch):
        # A non-digraphic sequence on 6 vertices, whose 30 unit arcs pass
        # 2^MAX_ARC_SLOTS once that is 2^2: the flow refuses before it
        # starts, and the CLI notes it like any check the oracle refuses.
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
        monkeypatch.setattr(cli, "brute_realize", lambda seq: None)
        code = run(["check", fixture("ex1.seq"), "--oracle"])
        assert code == 4
        assert "disagreement" in capsys.readouterr().err

    def test_partition_sweep_disagreement_exits_4(self, capsys, monkeypatch):
        # The worked example is split: a sweep that finds one edit more than
        # the matrix minimum is named with both counts.
        monkeypatch.setattr(
            cli,
            "brute_min_partition_measure",
            lambda seq, budget: digraph_splittance(seq) + 1,
        )
        assert run(["check", fixture("ex1.seq"), "--oracle"]) == 4
        assert capsys.readouterr() == (
            "",
            "oracle disagreement: partition sweep gives 1, matrix minimum gives 0\n",
        )

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
            cli, "brute_realize", lambda seq: None if is_digraphic(seq) else ()
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
        assert self.passes(argv, monkeypatch, capsys) == (1, (1, 0, 1, 0, 0))

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
    # quadratic references' matrix, slacks, turning points and zero cells.

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
        # The empty sequence on 1500 vertices has 3000 zero cells; each
        # command writes over 10 MB into a sink that only counts characters,
        # and neither may trace more than a fixed 4 MB, whatever the number
        # of cells it lists.
        path = tmp_path / "empty1500.seq"
        path.write_text("seq\n" + "0 0\n" * 1500)
        prelude = (
            "from splitkit.cli import run\n"
            "class Sink:\n"
            "    chars = 0\n"
            "    def write(self, text):\n"
            "        self.chars += len(text)\n"
            "    def flush(self):\n"
            "        pass\n"
            "def written(command, path):\n"
            "    sys.stdout = sink = Sink()\n"
            "    return run([command, path]), sink.chars\n"
        )
        calls = [f"written({cmd!r}, {str(path)!r})" for cmd in ("partitions", "matrix")]
        rows = traced_peaks(prelude, calls)
        assert [code for (code, _), _ in rows] == [0, 0]
        for (_, chars), peak in rows:
            assert chars > 10**7
            assert peak < 4 << 20
