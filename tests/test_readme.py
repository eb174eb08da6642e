"""The README examples, run as shown: the "Library" block as a doctest and
each ``$ splitkit ...`` line of the CLI "Example" block through ``cli.run``.

Only the fenced blocks are parsed: a doctest of the whole file would read
the closing fence as expected output.
"""

import doctest
import re
import shlex
from pathlib import Path

from splitkit.cli import run

README = Path(__file__).parent.parent / "README.md"


def fenced_block(heading: str, language: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1].split("\n#", 1)[0]
    (block,) = re.findall(rf"^```{language}\n(.*?)^```$", section, re.M | re.S)
    return block


def test_library_example_runs_as_shown():
    test = doctest.DocTestParser().get_doctest(
        fenced_block("## Library", "python"), {}, "README.md[Library]", str(README), 0
    )
    assert len(test.examples) >= 5
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples))


def test_cli_example_prints_as_shown(capsys, monkeypatch):
    # Each "$ splitkit ARGS" line is followed by its output up to a blank line.
    examples = fenced_block("### Example", "sh").split("$ splitkit ")[1:]
    assert len(examples) >= 2
    monkeypatch.chdir(README.parent)  # the example's paths are from the root
    for example in examples:
        command, _, shown = example.partition("\n")
        run(shlex.split(command))
        assert capsys.readouterr().out == shown.rstrip("\n") + "\n", command
