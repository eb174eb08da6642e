"""Every module of the package and of the tests parses as Python 3.10, the
oldest version ``requires-python`` admits and CI runs.

``ast.parse`` with ``feature_version=(3, 10)`` refuses syntax that needs a
later grammar, such as ``except*``, under any newer interpreter.  It cannot
see a library call whose signature or default changed after 3.10.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
FILES = sorted([*(ROOT / "src" / "splitkit").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def test_every_package_and_test_module_is_checked():
    names = {path.relative_to(ROOT).as_posix() for path in FILES}
    assert {"src/splitkit/cli.py", "tests/conftest.py", "tests/test_syntax.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
