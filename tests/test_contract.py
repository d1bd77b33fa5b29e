"""The names other code reaches into the package by must resolve.

The acceptance tests import the public API, and the benchmark's tracer
(perfbench/spans.py) wraps functions and methods by name; a deletion or a
rename that breaks either fails here, in the unit tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

import spans
import tracereg

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def acceptance_imports():
    """(module, name) for every name test_acceptance.py imports from the package."""
    tree = ast.parse(ACCEPTANCE.read_text())
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "tracereg"
            for alias in node.names]


@pytest.mark.parametrize("name", tracereg.__all__)
def test_every_public_name_resolves(name):
    assert hasattr(tracereg, name)


def test_acceptance_imports_resolve_and_the_package_exports_them():
    imports = acceptance_imports()
    assert ("tracereg", "solve") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
        if module == "tracereg":
            assert name in tracereg.__all__, name


@pytest.mark.parametrize("home, name", [entry[:2] for entry in spans.FUNCTIONS],
                         ids=[f"{home}.{name}" for home, name, _, _ in spans.FUNCTIONS])
def test_traced_functions_resolve(home, name):
    assert callable(getattr(importlib.import_module(f"tracereg.{home}"), name, None))


@pytest.mark.parametrize("home, cls, method", [entry[:3] for entry in spans.METHODS],
                         ids=[f"{home}.{cls}.{method}" for home, cls, method, _ in spans.METHODS])
def test_traced_methods_resolve(home, cls, method):
    owner = getattr(importlib.import_module(f"tracereg.{home}"), cls)
    assert callable(owner.__dict__.get(method))
