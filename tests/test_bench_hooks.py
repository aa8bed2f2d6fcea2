"""The benchmark's tracer wraps library functions by module and name.

``perfbench/spans.py`` lists them in ``PATCHES`` and ``ORACLE_METHODS``.
A refactor that moves or renames one of them would leave the traced run
without that layer, so every entry must still resolve to a callable.  The
lists are read from the file's syntax tree: nothing under ``perfbench/``
is imported or executed.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from robustreg import FiniteClass, FiniteClassOracle

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def literal_entries(name: str) -> list[tuple]:
    """Leading string fields of each tuple in the module-level list ``name``."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            return [tuple(e.value for e in elt.elts if isinstance(e, ast.Constant))
                    for elt in node.value.elts]
    raise AssertionError(f"{name} not found in {SPANS}")


PATCHES = literal_entries("PATCHES")
ORACLE_METHODS = literal_entries("ORACLE_METHODS")


def test_the_lists_were_read():
    assert len(PATCHES) >= 10 and ORACLE_METHODS


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in PATCHES])
def test_patched_names_resolve_to_callables(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("attr", [entry[0] for entry in ORACLE_METHODS])
def test_oracle_methods_exist(attr):
    oracle = FiniteClassOracle(FiniteClass(np.array([[0.5, 0.5]])))
    assert callable(getattr(oracle, attr))
