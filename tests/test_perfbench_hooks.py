"""The benchmark harness reaches into the package by name: `perfbench/
tracing.py` wraps the functions listed in `TRACED`, and `perfbench/
check.py` imports helpers inside its functions, and `perfbench/gen.py` and
`perfbench/run.py` pass options to the subcommands.  A rename must fail
here, not only in a benchmark pass.  The harness files are parsed, never
imported."""
from __future__ import annotations

import argparse
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infoineq
from infoineq import cli

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


def test_cli_import_loads_every_traced_module_and_nothing_unused():
    """`Tracer.install` finds the traced modules in `sys.modules` before the
    first input, so `import infoineq.cli` must load each of them.  It loads
    neither the modules that only some commands use nor `dataclasses` and
    the `inspect` machinery that it would pull in.  Neither the import nor
    a well-formed call loads argparse, or the gettext and locale modules
    that building an argparse parser loads."""
    agm = Path(infoineq.__file__).parent / "corpus" / "agm_triangle.iic"
    probe = ("import contextlib, io, sys, infoineq.cli as cli\n"
             "print(' '.join(sorted(sys.modules)))\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    assert cli.main(['prove', '--file', {str(agm)!r}]) == 0\n"
             "print(' '.join(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(infoineq.__file__).parents[1]))
    imported, called = (set(line.split()) for line in subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, capture_output=True,
        text=True).stdout.splitlines())
    assert {f"infoineq.{module}" for _, module, _ in _traced()} <= imported
    assert not {"dataclasses", "inspect", "infoineq.recognizer", "infoineq.models"} & imported
    assert not {"argparse", "gettext", "locale"} & (imported | called)


def test_every_name_the_checker_imports_exists():
    imports = _package_imports("check.py")
    assert ("infoineq.reductions", "tight_target") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def _subparsers(parser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _passed_options(name: str) -> set[tuple[str, str]]:
    """(subcommand, option) for every `--option` literal in a list literal
    that starts with a subcommand name, or that a function appends to a
    name bound to such a list (`argv += [...]`, `argv + [...]`)."""
    commands = set(_subparsers(cli.build_parser()))

    def command_of(node) -> "str | None":
        if isinstance(node, ast.List) and node.elts and isinstance(node.elts[0], ast.Constant) \
                and node.elts[0].value in commands:
            return node.elts[0].value
        return None

    lists = [(command_of(node), node) for node in ast.walk(_tree(name)) if command_of(node)]
    for fn in ast.walk(_tree(name)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        bound = {t.id: command_of(node.value) for node in ast.walk(fn)
                 if isinstance(node, ast.Assign) and command_of(node.value)
                 for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign):
                target, extra = node.target, node.value
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                target, extra = node.left, node.right
            else:
                continue
            if isinstance(target, ast.Name) and target.id in bound and isinstance(extra, ast.List):
                lists.append((bound[target.id], extra))
    return {(command, e.value) for command, node in lists for e in node.elts
            if isinstance(e, ast.Constant) and isinstance(e.value, str) and e.value.startswith("--")}


def test_every_option_the_harness_passes_exists():
    """An option that `perfbench/gen.py` or `perfbench/run.py` passes to a
    subcommand cannot be deleted before the harness stops passing it."""
    subs = _subparsers(cli.build_parser())
    passed = _passed_options("gen.py") | _passed_options("run.py")
    # appended options are found too
    assert {("prove", "--budget"), ("ci", "--ante"), ("ci", "--cons")} <= passed
    missing = {(c, o) for c, o in passed if o not in subs[c]._option_string_actions}
    assert not missing
