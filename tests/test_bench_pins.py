"""The package names the benchmark's tracer looks up still exist.

``perfbench/spans.py`` wraps each function of ``LAYER_FUNCTIONS`` by module and
attribute name.  The table is read from the source, without importing the
benchmark, so that a change deleting or renaming a pinned function fails here.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def layer_functions() -> dict[str, tuple[str, str]]:
    for node in ast.parse(SPANS.read_text()).body:
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS assignment in {SPANS}")


@pytest.mark.parametrize("span, pin", sorted(layer_functions().items()))
def test_benchmark_pins_resolve_in_the_package(span, pin):
    module, attribute = pin
    assert callable(getattr(importlib.import_module(module), attribute))
