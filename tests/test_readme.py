"""The README "Library" example, run as a doctest.

Only the fenced ``python`` block is parsed: a doctest of the whole file
would read the closing fence as expected output.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    return block


def test_library_example_runs_as_shown():
    test = doctest.DocTestParser().get_doctest(
        library_example(), {}, "README.md[Library]", str(README), 0
    )
    assert len(test.examples) >= 5
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples))
