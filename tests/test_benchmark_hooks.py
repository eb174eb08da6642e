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
from splitkit import (
    Digraph,
    EnumerationBudget,
    brute_min_partition_measure,
    brute_realize,
    brute_splittance,
    degree_sequence,
    digraph_splittance,
)

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


def gen_oracle_bound() -> int:
    """``ORACLE_MAX_N`` of ``perfbench/gen.py``: it runs the oracles on
    every input with at most this many vertices."""
    tree = ast.parse((PERFBENCH / "gen.py").read_text())
    (value,) = [
        node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["ORACLE_MAX_N"]
    ]
    return value


def test_gen_oracle_calls_fit_their_budgets():
    # gen.py calls brute_realize and brute_min_partition_measure with the
    # default budget, and brute_splittance with
    # EnumerationBudget(max_vertices=ORACLE_MAX_N), on every input up to
    # that size; none of them may refuse.
    bound = gen_oracle_bound()
    assert bound == 5
    budget = EnumerationBudget(max_vertices=bound)
    for n in range(bound + 1):
        g = Digraph(n, [(i, (i + 1) % n) for i in range(n) if n > 1])
        seq = degree_sequence(g)
        expected = digraph_splittance(seq)
        assert brute_splittance(g, budget) == expected
        assert degree_sequence(brute_realize(seq)) == seq
        assert brute_min_partition_measure(seq) == expected
