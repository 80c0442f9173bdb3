"""Every module-level function and class of the package is named, as an
`ast.Name` or `ast.Attribute`, somewhere in `src/` or `perfbench/` outside
its own definition; code that nothing reaches is deleted, not kept.  The
exceptions are the helpers that tests use as references, each listed with
a test that uses it.  Files are parsed, never imported."""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "infoineq"

# (module, name) -> a test that uses the helper as a reference
TEST_REFERENCES = {
    ("apps", "matus_expr"): "tests/test_shannon.py::TestProve::test_nonelemental_family_not_provable",
    ("models", "random_system"):
        "tests/test_models.py::TestRankVector::test_random_systems_satisfy_elemental_inequalities",
    ("parser", "parse_expr"): "tests/test_parser.py::TestExpressions::test_conditional_entropy",
}


def _definitions() -> dict[tuple[str, str], tuple[Path, int, int]]:
    """(module, name) -> (file, first line, last line) of each module-level
    function and class of the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[(path.stem, node.name)] = (path, node.lineno, node.end_lineno)
    return out


def _mentions() -> dict[str, list[tuple[Path, int]]]:
    """name -> (file, line) of every `ast.Name` and `ast.Attribute` that
    spells it, in `src/` and `perfbench/`."""
    out: dict[str, list[tuple[Path, int]]] = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append((path, node.lineno))
    return out


def _unreached() -> set[tuple[str, str]]:
    mentions = _mentions()
    return {key for key, (path, first, last) in _definitions().items()
            if all(p == path and first <= line <= last for p, line in mentions.get(key[1], []))}


def test_every_definition_is_reached_or_a_listed_test_reference():
    assert _unreached() == set(TEST_REFERENCES)


def test_each_listed_reference_is_used_by_its_test():
    for (_, name), test in TEST_REFERENCES.items():
        path, *scopes = test.split("::")
        node = ast.parse((ROOT / path).read_text())
        for scope in scopes:
            node = next(n for n in node.body if getattr(n, "name", None) == scope)
        assert any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node)), test
