"""The benchmark's tracer reaches into ivnda by name.

``perfbench/tracing.py`` wraps every function it lists in ``LAYER_FUNCTIONS``
with ``getattr`` on its ``ivnda`` module, and reads some of their arguments
by parameter name to count work.  A renamed function or parameter would
only show when a traced benchmark run crashed; these checks catch it here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

# (layer, function) -> the parameter the tracer reads from its arguments.
READS = {
    ("ubm", "train_gmm"): "features",
    ("stats", "accumulate_bw"): "posteriors",
    ("tv", "train_tv"): "stats",
    ("da", "compute_lda"): "data",
    ("da", "compute_nda"): "data",
    ("backend", "score_pairs"): "enroll_idx",
    ("metrics", "compute_eer"): "trials",
    ("metrics", "compute_min_dcf"): "trials",
    ("fileio", "atomic_write_bytes"): "data",
    ("fileio", "atomic_write_text"): "text",
}


def _wrapped_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(layer, name) for layer, names in tracing.LAYER_FUNCTIONS.items() for name in names]


WRAPPED = _wrapped_names()


@pytest.mark.parametrize("layer, name", WRAPPED)
def test_every_wrapped_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"ivnda.{layer}"), name))


@pytest.mark.parametrize("layer, name", sorted(READS))
def test_parameters_the_tracer_reads_exist(layer, name):
    assert (layer, name) in WRAPPED
    fn = getattr(importlib.import_module(f"ivnda.{layer}"), name)
    assert READS[layer, name] in inspect.signature(fn).parameters


def test_reads_cover_every_argument_the_tracer_reads():
    """Every ``args[...]`` / ``bound.arguments[...]`` key the tracer reads
    is one of the parameters checked above."""
    keys = {
        node.slice.value
        for node in ast.walk(ast.parse(TRACING.read_text()))
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.slice, ast.Constant)
        and ast.unparse(node.value) in ("args", "bound.arguments")
    }
    assert keys == set(READS.values())


def test_wrapped_functions_are_called_through_their_module():
    """``from .<layer> import <name>`` binds the function itself, so a wrapper
    that replaces the module attribute never sees calls made through it."""
    wrapped = set(WRAPPED)
    found = [
        f"{path.name}: from .{node.module} import {alias.name}"
        for path in sorted((ROOT / "src" / "ivnda").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if (node.module, alias.name) in wrapped
    ]
    assert found == []
