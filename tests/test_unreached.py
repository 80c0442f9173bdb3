"""Code that nothing reaches is deleted, not kept.  Two checks:

* every module-level function and class of the package is named, as an
  `ast.Name` or `ast.Attribute`, somewhere in `src/` or `perfbench/`
  outside its own definition.  Files are parsed, not run, so a function
  that no `cli.main` call reaches but the benchmark harness calls
  (`distributions.enumerate_distributions`) counts as reached;
* every function defined in a class body of the package (methods,
  static and class methods, property getters; dunders other than
  `__init__` are left out) is called on `TOUR`, a fixed list of
  `cli.main` calls run under `sys.setprofile` in a fresh interpreter, or
  is named as an attribute under `perfbench/`, whose harness calls some
  methods itself (`marginal`, `support`, `from_json`).  An `__init__`
  counts as named there when another method of its class is: the harness
  calls that method on instances it has built (`LogLinValue.sign`, on the
  values of `Distribution.entropic_vector`).  Reachability is
  followed at run time, so a method that shares its name with a live one
  is not hidden by it.

The exceptions are the helpers that tests use as references, each listed
in `TEST_REFERENCES` with a test that uses it.  Run as a script, this
file prints the package methods that the tour does not call."""
from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "infoineq"
CORPUS = PACKAGE / "corpus"

# (module, name or "Class.method") -> a test that uses the helper as a reference;
# empty while every helper that only tests use lives in the tests
TEST_REFERENCES: dict[tuple[str, str], str] = {}

ZHANG_YEUNG = "I(A;B) + I(A;CD) + 3*I(C;D|A) + I(C;D|B) - 2*I(C;D) >= 0\n"

# file name -> text, written to a scratch directory before the tour
TOUR_FILES = {
    "zy.iic": ZHANG_YEUNG,
    "flip.iic": "H(X) - H(XY) >= 0\n",
    "mono.iic": "H(XY) - H(X) >= 0\n",
    "nonpos.iic": "H(X) <= 0\n",
    "dist_slack.iic": "[I(X;Y) >= 1/2*H(X)] => H(X) >= 0\n",
    "bad.iic": "H(X) >= \n",
    "bit.dist": "vars 2\n0 1/2\n1 1/2\n",
    "pair.dist": "vars 2 2\n0 0 1/2\n1 1 1/2\n",
    "bad.dist": "vars 2 2\n0 0 1/0\n1 1 1\n",
    "bit.cand": "X 2 1 1\n",
    "negative.cand": "X 1 2 1\n",
    "pair.cand": "X 2 1 1\nY 2 1 1\nXY 3 1 1\n",
}

# (argv, exit code): every subcommand, every `reduce` regime, a subspace
# budget, a false `--extra-gens` file, and a few input errors, at small
# budgets.  `{dir}` is the scratch directory, `{corpus}` the fixtures.
TOUR = [
    (["--help"], 0),
    (["nope"], 3),
    (["prove", "--file", "{corpus}/agm_triangle.iic", "extra"], 3),
    (["prove", "--file", "{corpus}/agm_triangle.iic"], 0),
    (["prove", "--file", "{corpus}/kopparty_rossman_conditional.iic", "--text"], 0),
    (["prove", "--file", "{corpus}/conditional_max_two_thirds.iic"], 0),
    (["prove", "--file", "{corpus}/kaced_romashchenko_ci.iic", "--budget", "s=1,D=1"], 2),
    (["prove", "--file", "{corpus}/false_mono_flip.iic", "--budget", "s=2,D=2"], 1),
    (["prove", "--file", "{dir}/zy.iic", "--extra-gens", "{dir}/zy.iic",
      "--budget", "s=1,D=1"], 0),
    (["prove", "--file", "{dir}/mono.iic", "--extra-gens", "{dir}/flip.iic"], 3),
    (["prove", "--file", "{dir}/bad.iic"], 3),
    (["prove", "--file", "{dir}/absent.iic"], 3),
    (["refute", "--file", "{corpus}/false_mono_flip.iic", "--budget", "s=2,D=2",
      "--out", "{dir}/dist-out"], 1),
    (["refute", "--file", "{dir}/nonpos.iic", "--budget", "s=1,D=1,vsdim=1,vsq=2",
      "--out", "{dir}/vs-out"], 1),
    (["refute", "--file", "{dir}/zy.iic", "--budget", "s=1,D=1", "--text"], 2),
    (["refute", "--file", "{dir}/zy.iic", "--budget", "s=0,D=4"], 3),
    (["reduce", "--file", "{corpus}/kopparty_rossman_conditional.iic"], 0),
    (["reduce", "--file", "{corpus}/kopparty_rossman_conditional.iic",
      "--regime", "slack"], 0),
    (["reduce", "--file", "{dir}/dist_slack.iic", "--regime", "slack"], 0),
    (["reduce", "--file", "{corpus}/kopparty_rossman_conditional.iic",
      "--regime", "tight"], 2),
    (["reduce", "--file", "{corpus}/kaced_romashchenko_ci.iic", "--regime", "tight"], 2),
    (["reduce", "--file", "{corpus}/false_max_nonneg.iic", "--regime", "max",
      "--budget", "s=2,D=2"], 1),
    (["ci", "prove", "--vars", "X Y Z", "--ante", "X;Y|Z", "--ante", "X;Z",
      "--cons", "X;YZ"], 0),
    (["ci", "falsify", "--vars", "X Y Z", "--ante", "X;Y", "--cons", "X;Y|Z"], 1),
    (["ci", "export", "--vars", "X Y Z", "--ante", "X;Y|Z", "--cons", "X;Y"], 0),
    (["ci", "prove", "--vars", "X Y", "--cons", "X;W"], 3),
    (["ci", "export", "--vars", "X Y", "--cons", "X;Y", "--extra-gens", "{dir}/absent.iic"], 3),
    (["recognize", "--file", "{dir}/bit.cand", "--budget", "s=2,D=2"], 0),
    (["recognize", "--file", "{dir}/negative.cand", "--budget", "s=2,D=2"], 1),
    (["recognize", "--file", "{dir}/pair.cand", "--budget", "s=1,D=1"], 2),
    (["corpus"], 0),
    (["corpus", "--show", "agm_triangle", "--text"], 0),
    (["corpus", "--show", "nope"], 3),
    (["secret-share", "--participants", "2", "--access", "1,2"], 0),
    (["secret-share", "--participants", "2", "--access", "1,2", "--prove"], 0),
    (["secret-share", "--participants", "2", "--access", "1", "--ratio", "1/0"], 3),
    (["secret-share", "--participants", "2", "--access", "1", "--ratio", "1e9999"], 3),
    (["check-dist", "--file", "{dir}/bit.dist"], 0),
    (["check-dist", "--file", "{dir}/pair.dist", "--constraint", "{corpus}/false_mono_flip.iic"], 0),
    (["check-dist", "--file", "{dir}/pair.dist", "--constraint", "{dir}/flip.iic"], 0),
    (["check-dist", "--file", "{dir}/bad.dist"], 3),
]


# ---------------------------------------------------------------------------
# Module-level names, by name
# ---------------------------------------------------------------------------

def _definitions() -> dict[tuple[str, str], tuple[Path, int, int]]:
    """(module, name) -> (file, first line, last line) of each module-level
    function and class of the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[(path.stem, node.name)] = (path, node.lineno, node.end_lineno)
    return out


def _mentions(roots: tuple[str, ...] = ("src", "perfbench")) -> dict[str, list[tuple[Path, int]]]:
    """name -> (file, line) of every `ast.Name` and `ast.Attribute` that
    spells it, in the given directories."""
    out: dict[str, list[tuple[Path, int]]] = {}
    for path in [p for root in roots for p in sorted((ROOT / root).rglob("*.py"))]:
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
    assert _unreached() == {key for key in TEST_REFERENCES if "." not in key[1]}


# ---------------------------------------------------------------------------
# Methods, by a traced tour of the command line
# ---------------------------------------------------------------------------

def _methods() -> dict:
    """code object -> (module, "Class.method") for every function defined
    in a class body of the package, dunders other than `__init__` left out."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("infoineq" if path.stem == "__init__"
                                         else f"infoineq.{path.stem}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                continue
            for name, attr in vars(cls).items():
                if name.startswith("__") and name != "__init__":
                    continue
                func = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                code = getattr(func, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    out[code] = (path.stem, f"{cls.__qualname__}.{name}")
    return out


def _uncalled_on_tour() -> list[tuple[str, str]]:
    """The methods of the package that no call of `TOUR` reaches.  Each
    call's exit code is checked, so a tour step that stops early fails
    loudly instead of shrinking the tour."""
    from infoineq import cli
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as scratch:
        for name, text in TOUR_FILES.items():
            Path(scratch, name).write_text(text)
        sys.setprofile(hook)
        try:
            for argv, want in TOUR:
                argv = [a.format(dir=scratch, corpus=CORPUS) for a in argv]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    got = cli.main(argv)
                if got != want:
                    raise AssertionError(f"{argv} exited {got}, not {want}")
        finally:
            sys.setprofile(None)
    return sorted(key for code, key in _methods().items() if code not in called)


def test_every_method_is_called_from_the_command_line_or_a_listed_test_reference():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                         env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    harness = _mentions(("perfbench",))
    built = {(module, cls) for module, method in _methods().values()
             for cls, name in [method.rsplit(".", 1)] if name != "__init__" and name in harness}
    uncalled = {(module, method) for module, method in json.loads(run.stdout)
                if method.rsplit(".", 1)[1] not in harness
                and not (method.endswith(".__init__")
                         and (module, method.removesuffix(".__init__")) in built)}
    assert uncalled == {key for key in TEST_REFERENCES if "." in key[1]}


def test_no_command_builds_a_log_lin_value(monkeypatch, tmp_path):
    """`LogLinValue` is left to the benchmark harness: the tour's
    `recognize`, `check-dist`, `prove` and `refute` calls keep their exit
    codes, and write no error of its, with its constructor raising."""
    from infoineq import cli
    from infoineq.core import LogLinValue

    def refuse(self, terms):
        raise AssertionError("a command built a LogLinValue")

    monkeypatch.setattr(LogLinValue, "__init__", refuse)
    for name, text in TOUR_FILES.items():
        (tmp_path / name).write_text(text)
    for argv, want in TOUR:
        if argv[0] in ("recognize", "check-dist", "prove", "refute"):
            argv = [a.format(dir=tmp_path, corpus=CORPUS) for a in argv]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                got = cli.main(argv)
            assert (got, "LogLinValue" in err.getvalue()) == (want, False), argv


def test_each_listed_reference_is_used_by_its_test():
    for (_, name), test in TEST_REFERENCES.items():
        name = name.rsplit(".", 1)[-1]
        path, *scopes = test.split("::")
        node = ast.parse((ROOT / path).read_text())
        for scope in scopes:
            node = next(n for n in node.body if getattr(n, "name", None) == scope)
        assert any(isinstance(n, ast.Name) and n.id == name
                   or isinstance(n, ast.Attribute) and n.attr == name
                   for n in ast.walk(node)), test


if __name__ == "__main__":
    print(json.dumps(_uncalled_on_tour()))
