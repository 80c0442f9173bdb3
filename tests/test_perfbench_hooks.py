"""The benchmark harness reaches into the package by name: `perfbench/
tracing.py` wraps the functions listed in `TRACED`, and `perfbench/
check.py` imports helpers inside its functions.  A rename must fail here,
not only in a traced benchmark pass.  The harness files are parsed, never
imported."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def _traced() -> list[tuple[str, str, str]]:
    for node in _tree("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED list")


def _package_imports(name: str) -> list[tuple[str, str]]:
    """(module, name) of every `from infoineq... import name` in the file,
    at any depth."""
    return [(node.module, alias.name) for node in ast.walk(_tree(name))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "infoineq" for alias in node.names]


@pytest.mark.parametrize("span,module,attribute", _traced(), ids=lambda v: str(v))
def test_every_traced_hook_resolves(span, module, attribute):
    target = importlib.import_module(f"infoineq.{module}")
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target), span


def test_every_name_the_checker_imports_exists():
    imports = _package_imports("check.py")
    assert ("infoineq.reductions", "tight_target") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
