"""Command-line front end.

Reads a degree sequence or a labeled digraph from a plain-text file, runs
any of the analyses, and prints exact integer results.  Vertex labels in
files are 1-based; all internal indices are 0-based.  Both headers share
one bulk tokenizer; a file it refuses is walked line by line to word the
first fault.

Exit codes: 0 the input is split, 1 valid but not split, 2 unparseable
input, an invalid ``SPLITKIT_ORACLE_MAX_N`` or an input too large to analyze
(a ``digraph N`` header with a huge N, an integer of more digits than
``int`` converts, or any input that exhausts memory), 3 invalid or
non-digraphic input where the command needs it, 4 the oracle cross-check
disagreed with the fast path, 5 an internal error (a fault in splitkit,
reported as one ``error: internal error: ...`` line naming the exception
and the file and line that raised it).  A FILE that cannot be read or is
not UTF-8 exits 2 with one ``error: cannot read FILE: ...`` line.  The
``splitkit`` command restores the default ``SIGPIPE`` action where the
platform has one, so a reader that closes its end of stdout early ends
the command silently, with status 141 in a shell, as it ends ``cat``.

``SPLITKIT_ORACLE_MAX_N`` sets the one vertex cap of ``--oracle`` (8 when
unset), the largest input any brute-force check takes; whatever the cap,
the partition sweep of ``check --oracle`` also stops at 10 vertices
(2^20 partitions), the edit search of ``repair --oracle`` at 5, because
it tabulates every digraph on n vertices, and the realization search
gives up after 2^20 placements.  The oracle decides: a check it refuses is
skipped with an ``oracle: ... skipped`` note.  Every command computes its
answer, picks its exit code and runs the ``--oracle`` cross-check before
it writes anything, so a failing oracle leaves stdout empty; an entry
beyond N - 1 ends ``matrix`` and ``partitions`` before the oracle runs,
and any other non-digraphic input ends them with one ``error: sequence is
not digraphic`` line, after the matrix.  They write each line as it is
made, holding O(N) memory beyond the input, so their stdout is partial
only when the process dies mid-write.  The argument parser is built once,
when the module is imported.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import sys
from operator import itemgetter, methodcaller
from typing import Iterator, NoReturn

from .digraphs import Digraph, EditSet, degree_sequence, repair
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
    and ``#`` comments are ignored.
    """
    rows = text.splitlines()
    if "#" in text:
        rows = map(itemgetter(0), map(methodcaller("partition", "#"), rows))
    lines = list(filter(None, map(str.strip, rows)))
    if not lines:
        raise InputParseError("empty input: expected a 'seq' or 'digraph N' header")

    header = lines[0].split()
    body = lines[1:]

    if header[0] == "seq":
        if len(header) != 1:
            raise InputParseError(f"malformed header {lines[0]!r}: expected 'seq'")
        columns = _columns(body, 0)
        if columns is None:  # the walk words the first faulty line
            return IntegerPairSequence(_line_pairs(body, "'out in' pair", "degree"))
        return IntegerPairSequence(zip(*columns))

    if header[0] == "digraph":
        if len(header) != 2:
            raise InputParseError(f"malformed header {lines[0]!r}: expected 'digraph N'")
        try:
            n = _int(header[1], "vertex count")
        except ValueError:
            raise InputParseError(f"non-integer vertex count {header[1]!r}") from None
        if n < 0:
            raise InputParseError(f"negative vertex count {n}")
        if n > sys.maxsize:  # no list of n degrees fits in memory
            raise InputParseError(f"input too large to analyze: {n} vertices")
        columns = _columns(body, 1)
        if columns is not None:
            try:
                return Digraph.from_lists(n, *columns)
            except ValueError:  # range, loop or repeat: word it line by line
                pass
        _raise_first_arc_error(body, n)

    raise InputParseError(f"unknown header {lines[0]!r}: expected 'seq' or 'digraph N'")


def _columns(body: list[str], base: int) -> tuple[list[int], list[int]] | None:
    """The two integer columns of the lines ``body``, each entry less ``base``,
    or None when a line is not two integers: C-level passes over all lines
    at once, each distinct token converted once."""
    if not set(map(len, map(str.split, body))) <= {2}:
        return None
    tokens = " ".join(body).split()
    try:
        value = {token: int(token) - base for token in set(tokens)}
    except ValueError:
        return None
    values = list(map(value.__getitem__, tokens))
    return values[0::2], values[1::2]


def _line_pairs(body: list[str], shape: str, noun: str) -> Iterator[tuple[int, int]]:
    """Each line's two integers, one line at a time; raises for the first
    line that is not ``shape`` with integer ``noun``s."""
    for line in body:
        fields = line.split()
        if len(fields) != 2:
            raise InputParseError(f"expected {shape}, got {line!r}")
        try:
            pair = _int(fields[0], noun), _int(fields[1], noun)
        except ValueError:
            raise InputParseError(f"non-integer {noun} in line {line!r}") from None
        yield pair


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


def _raise_first_arc_error(body: list[str], n: int) -> NoReturn:
    """Word the first faulty arc line, checking one line at a time."""
    arcs = set()
    for u, v in _line_pairs(body, "'u v' arc", "label"):
        if not (1 <= u <= n and 1 <= v <= n):
            raise InputParseError(f"arc ({u}, {v}) outside labels [1, {n}]")
        if u == v:
            raise InputParseError(f"loop at vertex {u} not allowed")
        if (u, v) in arcs:
            raise InputParseError(f"duplicate arc ({u}, {v})")
        arcs.add((u, v))
    raise AssertionError("the bulk arc checks failed on lines the loop accepts")


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
        realization = brute_realize(seq, budget)
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
            help="cross-validate against the brute-force oracle, which skips "
            "inputs of more than SPLITKIT_ORACLE_MAX_N vertices (default "
            f"{DEFAULT_BUDGET.max_vertices}; at most 10 for the partition sweep "
            "and 5 for the repair edit search)",
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
        if file == "-":
            return sys.stdin.read()
        with open(file, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
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
