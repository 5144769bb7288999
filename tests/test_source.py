"""Checks on the package source itself."""

import ast
from pathlib import Path

import nilpair

SOURCES = sorted(Path(nilpair.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check written as one would
    # silently stop running; the package raises typed errors instead
    assert len(SOURCES) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _trace_layers():
    """perfbench/trace_layers.py, loaded from the source checkout."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "trace_layers.py"
    spec = importlib.util.spec_from_file_location("trace_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_layers_resolve():
    # `perfbench/run.py --trace 1` wraps every function LAYERS names and
    # reads each one from its owner's __dict__, so a rename in the package
    # would make the traced run die with KeyError before any check runs
    import importlib

    layers = _trace_layers().LAYERS
    missing = []
    for specs in layers.values():
        for module, path, _, _ in specs:
            owner = importlib.import_module(f"nilpair.{module}")
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            if owner is None or parts[-1] not in owner.__dict__:
                missing.append(f"{module}.{path}")
    assert sum(len(specs) for specs in layers.values()) > 30
    assert missing == []


def test_only_pairs_names_ad_matrix():
    # the dense n^2 x n^2 ad matrix is a test reference; package code
    # builds its kernels from pairs.ad columns instead
    assert "def ad_matrix" in (Path(nilpair.__file__).parent / "pairs.py").read_text()
    found = [
        path.name
        for path in SOURCES
        if path.name != "pairs.py" and "ad_matrix" in path.read_text()
    ]
    assert found == []
