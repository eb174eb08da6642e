"""Command-line front end.

Reads a degree sequence or a labeled digraph from a plain-text file, runs
any of the analyses, and prints exact integer results.  Vertex labels in
files are 1-based; all internal indices are 0-based.  A FILE is read as
strict UTF-8 with universal newlines, one leading byte-order mark dropped,
and ``-`` is file descriptor 0, read by the same ``open``: the
interpreter's stdio settings never reach the parse.  Both headers share
one bulk parse.  It cuts the header off at the end of the header's own
``"\n"``-ended stretch, then reads the text a block of at least ``_BLOCK``
characters at a time and picks each block's path from its form.  A block
in skeleton form, each line two fields with one space between them and a
``"\n"`` after them, is checked by two C-level passes and split once,
with no line list; any other block is split into lines, joined with a
``;`` sentinel after each line and split again.  Either way each column
of the block is one ``map`` through a table that converts a token the
first time it is looked up.  A ``seq`` file has one table, which both
columns share; a ``digraph`` file has a table a column, which keeps the
column's tokens in the order first seen: the ``Digraph`` build takes its
distinct labels from there.  Beyond the text itself the parse holds
the O(N + M) integers it keeps (M the lines), a string per distinct
token of each column and the strings of one block.  A block is
split into lines at most once: a fault is worded from the one block the
parse refuses, a line at a time, and the integers before it.  An arc
fault, on a line before a faulty one or in a list the build refuses, is
the first faulty arc in line order, which the library's one fault walk
finds and this module words with 1-based labels.

Exit codes: 0 the input is split, 1 valid but not split, 2 unparseable
input, an invalid ``SPLITKIT_ORACLE_MAX_N`` or an input too large to analyze
(a ``digraph N`` header with a huge N, an integer of more digits than
``int`` converts, or any input that exhausts memory), 3 invalid or
non-digraphic input where the command needs it, 4 the oracle cross-check
disagreed with the fast path, 5 an internal error (a fault in splitkit,
reported as one ``error: internal error: ...`` line naming the exception
and the file and line that raised it).  A FILE that cannot be read or is
not UTF-8, a closed stdin for ``-`` included, exits 2 with one ``error:
cannot read FILE: ...`` line.  The ``splitkit`` command restores the
default ``SIGPIPE`` action where the platform has one, so a reader that
closes its end of stdout early ends the command silently, with status 141
in a shell, as it ends ``cat``.

``SPLITKIT_ORACLE_MAX_N`` sets the vertex cap of the partition sweeps of
``check --oracle`` and of the edit search of ``repair --oracle`` (8 when
unset), which also stop at 10 vertices (2^20 partitions) whatever the
cap.  The realization check is a flow that runs up to 1024 vertices
whatever the cap.  The oracle decides: a check it refuses is skipped
with an ``oracle: ... skipped`` note, and none gives up once started.
Every command computes its answer, picks its exit code and runs the
``--oracle`` cross-check before it writes anything, so a failing oracle
leaves stdout empty; an entry beyond N - 1 ends ``matrix`` and
``partitions`` before the oracle runs, and any other non-digraphic input
ends them with one ``error: sequence is not digraphic`` line, after the
matrix.  They write each line as it is made, holding O(N) memory beyond
the parsed input, so their stdout is partial only when the process dies
mid-write.  The argument parser is built once, when the module is
imported.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import sys
from itertools import chain
from operator import itemgetter, methodcaller
from typing import Iterable, Iterator

from .digraphs import ArcFault, Digraph, EditSet, _arc_fault, degree_sequence, repair
from .errors import BudgetExceededError, SequenceValidationError, SplitkitError
from .oracle import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    brute_min_partition_measure,
    brute_realize,
    brute_splittance,
)
from .sequences import IntegerPairSequence, validate
from .splittance import Analysis

EXIT_SPLIT = 0
EXIT_NOT_SPLIT = 1
EXIT_PARSE_ERROR = 2
EXIT_INVALID_INPUT = 3
EXIT_ORACLE_DISAGREEMENT = 4
EXIT_INTERNAL_ERROR = 5


class InputParseError(SplitkitError):
    """The input cannot be read or does not follow the documented format,
    or ``SPLITKIT_ORACLE_MAX_N`` is invalid: exit code 2."""


def parse_document(text: str) -> IntegerPairSequence | Digraph:
    """Parse the line-oriented input format.

    A sequence file starts with a ``seq`` header followed by one
    ``out in`` pair per line; a digraph file starts with ``digraph N``
    followed by one ``u v`` arc per line with 1-based labels.  Blank lines
    and ``#`` comments are ignored.  ``text`` is as ``_read`` returns it:
    decoded, with each ``"\\r\\n"`` and ``"\\r"`` already a ``"\\n"``.
    """
    first, body = _header(text)
    header = first.split()

    if header[0] == "seq":
        if len(header) != 1:
            raise InputParseError(f"malformed header {first!r}: expected 'seq'")
        table = _Table(0)
        out_degrees, in_degrees, fault = _columns(
            body, (table, table), 0, "'out in' pair", "degree"
        )
        if fault is not None:
            raise fault
        return IntegerPairSequence(zip(out_degrees, in_degrees))

    if header[0] == "digraph":
        if len(header) != 2:
            raise InputParseError(f"malformed header {first!r}: expected 'digraph N'")
        try:
            n = _int(header[1], "vertex count")
        except ValueError:
            raise InputParseError(f"non-integer vertex count {header[1]!r}") from None
        if n < 0:
            raise InputParseError(f"negative vertex count {n}")
        if n > sys.maxsize:  # no list of n degrees fits in memory
            raise InputParseError(f"input too large to analyze: {n} vertices")
        # At least the lines with fields: each ends in "\n" but the last, and
        # none is shorter than "1 2\n".
        size = min(text.count("\n"), len(text) // 4)
        heads, tails = _Table(1), _Table(1)
        sources, targets, fault = _columns(body, (heads, tails), size, "'u v' arc", "label")
        if fault is not None:  # never built: an arc before the faulty line may be at fault first
            raise _arc_error(n, _arc_fault(n, sources, targets)) or fault
        orders = dict.fromkeys(heads.values(), 0), dict.fromkeys(tails.values())
        digraph = Digraph.__new__(Digraph)
        fault = _arc_error(n, digraph._build(n, sources, targets, orders))
        if fault is not None:
            raise fault
        return digraph

    raise InputParseError(f"unknown header {first!r}: expected 'seq' or 'digraph N'")


# Characters per parse block, about 1 000 lines: beyond the integer
# columns, the parse holds the strings of one block at a time.  Small
# blocks keep those strings in memory the process has already touched;
# blocks of 2^17 characters made it map and fault in fresh pages for each
# block's 34 000 token strings (README "Costs").
_BLOCK = 1 << 13

# Every ASCII byte but ``#`` and the whitespace that ``str.split`` and
# ``str.splitlines`` know: deleting them from a block leaves its blanks
# and line breaks.
_FIELD_BYTES = bytes(c for c in range(128) if not chr(c).isspace() and c != ord("#"))


def _lines(block: str) -> list[str]:
    """The lines of ``block`` without comments, stripped, blank ones left out."""
    rows = block.splitlines()
    if "#" in block:
        rows = map(itemgetter(0), map(methodcaller("partition", "#"), rows))
    return list(filter(None, map(str.strip, rows)))


def _blocks(text: str, start: int) -> Iterator[str]:
    """The text from ``start`` on, in order, in blocks of at least
    ``_BLOCK`` characters (but the last), each cut just after a ``"\\n"``,
    which always ends a line."""
    while start < len(text):
        cut = text.find("\n", start + _BLOCK - 1) + 1 or len(text)
        yield text[start:cut]
        start = cut


def _header(text: str) -> tuple[str, Iterator[str]]:
    """The first line of ``text`` that is not blank, and the blocks after
    it: the lines after it on its own ``"\\n"``-ended stretch, joined, then
    ``_blocks`` of the rest."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start) + 1 or len(text)
        lines = _lines(text[start:cut])
        if lines:
            return lines[0], chain(["\n".join(lines[1:])], _blocks(text, cut))
        start = cut
    raise InputParseError("empty input: expected a 'seq' or 'digraph N' header")


def _skeleton_fields(block: str) -> list[str] | None:
    """The fields of ``block`` when every line is two fields, one ``" "``
    between them, and ends in ``"\\n"`` (the last line may not): two
    C-level checks of its whitespace skeleton and one split.  None for any
    other block."""
    if not block.isascii():
        return None
    skeleton = block.encode().translate(None, _FIELD_BYTES)
    lines, partial = divmod(len(skeleton), 2)
    if skeleton != b" \n" * lines + b" " * partial:
        return None
    fields = block.split()  # no field is empty exactly when there are 2 a line
    return fields if len(fields) == 2 * (lines + partial) else None


def _sentinel_fields(lines: list[str]) -> list[str] | None:
    """The fields of ``lines`` when each has exactly two, else None: one
    join with a ``;`` token after each line, one split, and the ``;``
    tokens checked to fall at every third place and nowhere else."""
    tokens, rows = " ; ".join(lines + [""]).split(), len(lines)
    if (len(tokens), tokens.count(";"), tokens[2::3].count(";")) != (3 * rows, rows, rows):
        return None
    del tokens[2::3]
    return tokens


class _Table(dict):
    """Each token seen, mapped to ``int(token) - base``: a lookup of a new
    token converts it and stores the result, so each distinct token is
    converted once."""

    def __init__(self, base: int) -> None:
        super().__init__()
        self.base = base

    def __missing__(self, token: str) -> int:
        self[token] = value = int(token) - self.base
        return value


def _columns(
    blocks: Iterable[str], tables: tuple[_Table, _Table], size: int, shape: str, noun: str
) -> tuple[list[int], list[int], InputParseError | None]:
    """The integer columns of the lines in ``blocks`` before the first that
    is not ``shape`` with integer ``noun``s, each token read through its
    column's one of ``tables``, and the error that words that line, or None.

    A block in skeleton form (``_skeleton_fields``) is split once, with no
    line list.  Any other block is line-split and checked by the ``;``
    sentinel (``_sentinel_fields``).  Either way each column of the block
    is one C-level ``map`` over its fields, one lookup a token, through its
    column's ``_Table``: a ``seq`` file passes one table for both columns,
    so each distinct token is converted once a file, and a ``digraph``
    file a table a column, which then holds the column's tokens in the
    order first seen.  Both columns are allocated for ``size`` lines up
    front and cut to the lines read, so that neither is moved as it grows;
    a ``seq`` file passes 0, and its columns grow as they are read.
    A token ``int`` refuses stops the map mid-block: that block's integers
    are taken off both columns, and the block is walked a line at a time,
    less the tables' ``base``, to word its first faulty line.
    """
    first_value, second_value = tables[0].__getitem__, tables[1].__getitem__
    first, second = [0] * size, [0] * size
    count = 0  # the lines read
    for block in blocks:
        lines = None
        fields = _skeleton_fields(block)
        if fields is None:
            lines = _lines(block)
            fields = _sentinel_fields(lines)
            if fields is None:
                break
        end = count + len(fields) // 2
        try:
            first[count:end] = map(first_value, fields[0::2])
            second[count:end] = map(second_value, fields[1::2])
        except ValueError:
            break
        count = end
    else:
        del first[count:], second[count:]
        return first, second, None
    del first[count:], second[count:]
    try:  # the refused block, one line at a time: word its first faulty line
        for line in _lines(block) if lines is None else lines:
            fields = line.split()
            if len(fields) != 2:
                raise InputParseError(f"expected {shape}, got {line!r}")
            try:
                u, v = _int(fields[0], noun), _int(fields[1], noun)
            except ValueError:
                raise InputParseError(f"non-integer {noun} in line {line!r}") from None
            first.append(u - tables[0].base)
            second.append(v - tables[1].base)
    except InputParseError as fault:
        return first, second, fault
    raise AssertionError("the bulk checks refused a block the line walk accepts")


# What ``int`` reads in base 10: a sign, then digits, single underscores
# between them; ``\d`` takes every Unicode decimal digit, as ``int`` does.
_DECIMAL = re.compile(r"[+-]?\d+(?:_\d+)*")


def _int(token: str, noun: str) -> int:
    """``int(token)``, or InputParseError when ``token`` is an integer with
    more digits than ``int`` converts (``sys.get_int_max_str_digits``)."""
    try:
        return int(token)
    except ValueError:
        if _DECIMAL.fullmatch(token) is None:
            raise
    digits = len(token.lstrip("+-").replace("_", ""))
    raise InputParseError(f"input too large to analyze: {noun} of {digits} digits")


def _arc_error(n: int, fault: ArcFault | None) -> InputParseError | None:
    """The error that words an arc ``fault``, labels 1-based, or None."""
    if fault is None:
        return None
    kind, u, v = fault[0], fault[1] + 1, fault[2] + 1
    if kind == "range":
        return InputParseError(f"arc ({u}, {v}) outside labels [1, {n}]")
    if kind == "loop":
        return InputParseError(f"loop at vertex {u} not allowed")
    return InputParseError(f"duplicate arc ({u}, {v})")


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _oracle_budget() -> EnumerationBudget:
    override = os.environ.get("SPLITKIT_ORACLE_MAX_N")
    if override is None:
        return DEFAULT_BUDGET
    try:
        bound = int(override)
    except ValueError:
        bound = -1
    if bound < 0:
        raise InputParseError(
            f"SPLITKIT_ORACLE_MAX_N must be a non-negative integer, got {override!r}"
        )
    return EnumerationBudget(bound)


def _oracle_check_sequence(
    a: Analysis, budget: EnumerationBudget
) -> tuple[list[str], list[str]]:
    """Cross-validate digraphicality and splittance: (skip notes, disagreements)."""
    seq = a.seq
    skipped, failures = [], []
    try:
        realization = brute_realize(seq)
    except BudgetExceededError:
        skipped.append(f"oracle: realization check skipped (N={seq.n} over budget)")
    else:
        if (realization is not None) != a.digraphic:
            failures.append(
                f"oracle disagreement: realization search says "
                f"{realization is not None}, inequality test says {a.digraphic}"
            )
    if a.digraphic:
        try:
            brute = brute_min_partition_measure(seq, budget)
        except BudgetExceededError:
            skipped.append(f"oracle: partition sweep skipped (N={seq.n} over budget)")
        else:
            if brute != a.splittance:
                failures.append(
                    f"oracle disagreement: partition sweep gives {brute}, "
                    f"matrix minimum gives {a.splittance}"
                )
    return skipped, failures


def _oracle_check_repair(
    g: Digraph, size: int, budget: EnumerationBudget
) -> tuple[list[str], list[str]]:
    """Cross-validate the edit count: (skip notes, disagreements)."""
    try:
        brute = brute_splittance(g, budget)
    except BudgetExceededError:
        return [f"oracle: edit search skipped (n={g.n} over budget)"], []
    if brute != size:
        return [], [f"oracle disagreement: edit search gives {brute}, repair gives {size}"]
    return [], []


# The writers print an answer and decide nothing: ``_run`` has picked the
# exit code and run the oracle before it calls one.


def cmd_check(a: Analysis, fmt: str) -> None:
    if fmt == "csv":
        print("digraphic,split,splittance")
        print(f"true,{_bool(a.split)},{a.splittance}" if a.digraphic else "false,,")
    elif a.digraphic:
        print("digraphic=true")
        print(f"split={_bool(a.split)}")
        print(f"splittance={a.splittance}")
    else:
        print("digraphic=false")


def cmd_matrix(a: Analysis, extras: bool) -> None:
    # Every printed row has N + 1 integers: one template formats them all,
    # and each row is written as the recurrence makes it.
    template = ",".join(["%d"] * (a.seq.n + 1)) + "\n"
    write = sys.stdout.write
    for row in a.matrix_rows():
        write(template % row)
    if extras:
        write("sbar," + template % a.slack.s_bar)
        write("sunder," + template % a.slack.s_under)
        write("mbar," + template % a.maximal.m_bar)
        write("munder," + template % a.maximal.m_under)


def cmd_partitions(a: Analysis, fmt: str) -> None:
    # Each line is written as its zero cell is reached, its blocks in
    # vertex order, unsorted.
    write = sys.stdout.write
    if fmt == "csv":
        write("k,l,pm,plus,minus,zero\n")
        template, sep = "%d,%d,%s,%s,%s,%s\n", " "
    else:
        template, sep = "k=%d l=%d pm=%s plus=%s minus=%s zero=%s\n", ","
    labels = [str(v + 1) for v in range(a.seq.n)]
    for k, l, *blocks in a.zero_cell_blocks(labels):
        write(template % (k, l, *map(sep.join, blocks)))


def cmd_repair(edits: EditSet, fmt: str) -> None:
    if fmt == "csv":
        print("op,u,v")
    template = "%s,%d,%d" if fmt == "csv" else "%s %d %d"
    for op, arcs in (("+", edits.add), ("-", edits.remove)):
        for u, v in sorted(arcs):
            print(template % (op, u + 1, v + 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitkit",
        description="Classify, measure, and repair split digraphs from "
        "degree sequences or concrete digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: bool = True) -> None:
        p.add_argument("file", help="input file ('-' for stdin)")
        if formats:
            p.add_argument(
                "--format", choices=["kv", "csv"], default="kv", help="output style"
            )
        p.add_argument(
            "--oracle",
            action="store_true",
            help="cross-validate against the oracle: the realization flow takes "
            "up to 1024 vertices, and the partition sweeps of check and of the "
            "repair edit search up to SPLITKIT_ORACLE_MAX_N (default "
            f"{DEFAULT_BUDGET.max_vertices}; at most 10); a larger input skips the check",
        )

    add_common(sub.add_parser("check", help="digraphic? split? splittance value"))
    matrix = sub.add_parser("matrix", help="print the splittance matrix as CSV")
    add_common(matrix, formats=False)
    matrix.add_argument(
        "--extras",
        action="store_true",
        help="append slack and turning-point rows to the CSV",
    )
    add_common(sub.add_parser("partitions", help="list all split partitions"))
    add_common(sub.add_parser("repair", help="print a minimal arc edit script"))
    return parser


PARSER = build_parser()


def run(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return _run(args)
    except MemoryError:
        print("error: input too large to analyze: out of memory", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except Exception as exc:  # a fault of splitkit, never an answer
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        print(f"error: internal error: {exc!r} at {where}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def _read(file: str) -> str:
    try:
        with open(0 if file == "-" else file, encoding="utf-8", closefd=file != "-") as handle:
            return handle.read().removeprefix("\ufeff")
    except (OSError, UnicodeError) as exc:
        raise InputParseError(f"cannot read {file}: {exc}") from None


def _run(args: argparse.Namespace) -> int:
    """Parse, answer, pick the exit code, run the oracle, then write: a
    failing oracle leaves stdout empty."""
    try:
        budget = _oracle_budget() if args.oracle else None
        doc = parse_document(_read(args.file))
    except InputParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    if args.command == "repair" and not isinstance(doc, Digraph):
        print("error: repair needs a digraph input", file=sys.stderr)
        return EXIT_INVALID_INPUT

    skipped, failures = [], []
    try:
        if args.command == "repair":
            edits, _ = repair(doc)
            code = EXIT_NOT_SPLIT if edits.size else EXIT_SPLIT
            if budget is not None:
                skipped, failures = _oracle_check_repair(doc, edits.size, budget)
        else:
            a = Analysis(degree_sequence(doc) if isinstance(doc, Digraph) else doc)
            if not a.digraphic:
                code = EXIT_INVALID_INPUT
                if args.command != "check":  # check reports them as non-digraphic
                    validate(a.seq)  # entries beyond N - 1 are reported as such
            else:
                code = EXIT_SPLIT if a.split else EXIT_NOT_SPLIT
            if budget is not None:
                skipped, failures = _oracle_check_sequence(a, budget)
    except SequenceValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    if failures:  # the answer is in doubt: write none of it
        pass
    elif args.command == "repair":
        cmd_repair(edits, args.format)
    elif args.command == "check":
        cmd_check(a, args.format)
    else:
        if args.command == "matrix":  # the matrix is defined all the same
            cmd_matrix(a, args.extras)
        elif a.digraphic:
            cmd_partitions(a, args.format)
        if not a.digraphic:
            print("error: sequence is not digraphic", file=sys.stderr)
    for note in skipped + failures[:1]:
        print(note, file=sys.stderr)
    return EXIT_ORACLE_DISAGREEMENT if failures else code


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
