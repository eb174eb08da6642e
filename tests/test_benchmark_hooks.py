"""The names the benchmark harness in ``perfbench/`` reads from splitkit.

The harness wraps module attributes listed in ``perfbench/tracing.py``
``TARGETS`` and imports names from the package top level; a name that goes
missing breaks it only when it runs (``--trace 1`` dies with an
``AttributeError``).  These tests read the harness files and change nothing.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import splitkit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing():
    # tracing.py imports only the standard library.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracing().TARGETS
    assert len(targets) >= 20
    for module_name, attr, _ in targets:
        module = importlib.import_module(f"splitkit.{module_name}")
        assert callable(getattr(module, attr, None)), f"splitkit.{module_name}.{attr}"


def test_every_top_level_import_resolves():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "splitkit":
                names.update(alias.name for alias in node.names)
    assert {"Digraph", "IntegerSequence", "brute_realize", "cli"} <= names
    for name in sorted(names):
        assert hasattr(splitkit, name) or importlib.util.find_spec(
            f"splitkit.{name}"
        ), name


def test_public_surface_is_all_and_small():
    assert len(splitkit.__all__) <= 36
    assert len(set(splitkit.__all__)) == len(splitkit.__all__)
    for name in splitkit.__all__:
        assert hasattr(splitkit, name), name
    # Beyond __all__ the top level binds only its submodules.
    extra = {
        name
        for name, value in vars(splitkit).items()
        if not name.startswith("_") and name not in splitkit.__all__
    }
    assert all(f"splitkit.{name}" == getattr(splitkit, name).__name__ for name in extra)
