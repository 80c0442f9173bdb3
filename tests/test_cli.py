"""The command-line front end: the clause pipeline, the exit-code
contract, and the corpus verdicts through `cli.main`."""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infoineq
from infoineq import cli, shannon
from infoineq.apps import corpus, fixture
from infoineq.core import LinExpr, read_int
from infoineq.parser import parse_constraint
from infoineq.reductions import MaxReduction, prepare_antecedents
from infoineq.shannon import ProofCertificate, elemental, verify

MANIFEST_ANSWER = {"provable": ("proved", 0), "refutable": ("refuted", 1)}

# the method of each clause entry in the fixture's `prove` report
FIXTURE_METHODS = {
    "agm_triangle": ("generator-cone",),
    "ci_contraction_basic": ("direct-lambda", "direct-lambda"),
    "conditional_max_two_thirds": ("max-to-linear",),
    "false_ci_weakening": ("counterexample-search",),
    "false_max_nonneg": ("counterexample-search",),
    "false_mono_flip": ("counterexample-search",),
    "false_three_subadd": ("counterexample-search",),
    "join_fd_bound": ("generator-cone",),
    "kaced_romashchenko_ci": ("direct-lambda", "conditional"),
    "kopparty_rossman_conditional": ("direct-lambda",),
    "kopparty_rossman_max": ("max-to-linear",),
    "matus_k1": ("counterexample-search",),
    "matus_k2": ("generator-cone",),
    "matus_k3": ("generator-cone",),
    "pairwise_max_two_thirds": ("max-to-linear",),
}

# Zhang-Yeung: valid, but not provable from the elemental inequalities
ZHANG_YEUNG = "I(A;B) + I(A;CD) + 3*I(C;D|A) + I(C;D|B) - 2*I(C;D) >= 0\n"


def run(capsys, *argv: str) -> tuple[int, dict]:
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, json.loads(out) if out.strip() else {}


def write(tmp_path, text: str, name: str = "c.iic") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def certificate_problems(entry: dict, clause, gens) -> list[str]:
    """Re-check a proved clause entry with `verify`, against targets
    rebuilt from the clause itself."""
    kept = prepare_antecedents(clause.antecedents, gens).kept

    def check(cert_json, target, antecedents=()):
        cert = ProofCertificate.from_json(cert_json, gens)
        return [] if cert.target == target and verify(cert, target, gens, antecedents) \
            else [f"certificate for {target} does not verify"]

    if len(clause.consequents) == 1:
        return check(entry["certificate"], clause.consequents[0], kept)
    target = LinExpr.zero(clause.n)
    for lam, c in zip(entry["lambdas"], clause.consequents):
        target = target + c.scale(Fraction(lam))
    return check(entry["certificate"], target, kept)


def assert_proofs_verify(report: dict, constraint) -> None:
    gens = elemental(constraint.n)
    for entry, clause in zip(report["clauses"], constraint.clauses):
        if entry["status"] == "proved":
            assert certificate_problems(entry, clause, gens) == []


# ---------------------------------------------------------------------------
# Golden corpus through prove
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", [f.name for f in corpus()])
def test_corpus_fixture_verdict(capsys, name):
    fx = fixture(name)
    argv = ["prove", "--file", str(fx.path)]
    if fx.budget:
        argv += ["--budget", fx.budget]
    code, report = run(capsys, *argv)
    status, exit_code = MANIFEST_ANSWER.get(fx.expected_verdict, ("inconclusive", 2))
    assert (report["status"], code) == (status, exit_code)
    assert tuple(e["method"] for e in report["clauses"]) == FIXTURE_METHODS[name]
    assert_proofs_verify(report, fx.constraint)


def test_antecedents_are_pruned_once_per_distinct_tuple(capsys, monkeypatch):
    """The equality consequent of this fixture splits into two clauses
    with the same antecedents; their valid members are dropped once."""
    calls = []
    prepare = cli.prepare_antecedents

    def counting(antecedents, gens):
        calls.append(antecedents)
        return prepare(antecedents, gens)

    monkeypatch.setattr(cli, "prepare_antecedents", counting)
    fx = fixture("kaced_romashchenko_ci")
    code, _ = run(capsys, "prove", "--file", str(fx.path))
    assert code == cli.EXIT_INCONCLUSIVE
    assert len(fx.constraint.clauses) == 2 and len(calls) == 1


def test_tight_stage_reuses_the_pruned_twins_proofs(capsys, monkeypatch):
    """The kept antecedents of this fixture are tight because their pruned
    twins were proved; the tight stage does not prove those twins again."""
    calls = []
    solve_lp = shannon.solve_lp

    def counting(*args):
        calls.append(repr(args))
        return solve_lp(*args)

    monkeypatch.setattr(shannon, "solve_lp", counting)
    code, _ = run(capsys, "prove", "--file", str(fixture("kaced_romashchenko_ci").path))
    assert code == cli.EXIT_INCONCLUSIVE
    # the two clauses' multiplier LPs and the tight stage's one eps* LP: the
    # antecedents are settled by rules, without an LP
    assert len(calls) == len(set(calls)) == 3


def test_secret_share_proof_solves_two_lps(capsys, monkeypatch):
    """The tight stage's eps* LP, then the max clause's multiplier LP,
    whose solution is also its certificate: no third LP proves the
    combination of the consequents again."""
    calls = []
    solve_lp = shannon.solve_lp

    def counting(*args):
        calls.append(1)
        return solve_lp(*args)

    monkeypatch.setattr(shannon, "solve_lp", counting)
    code, report = run(capsys, "secret-share", "--participants", "3", "--access", "1,2;2,3",
                       "--prove")
    assert (code, report["status"]) == (cli.EXIT_POSITIVE, "proved")
    assert len(calls) == 2


def test_secret_share_antecedents_are_settled_without_an_lp(capsys, monkeypatch):
    """Each antecedent of a secret-sharing clause is a Shannon quantity
    (valid) or its negation (negative on a step function), so
    `prepare_antecedents` solves no LP even at 6 participants."""
    lps, preparing = [], []
    solve_lp, prepare = shannon.solve_lp, cli.prepare_antecedents

    def counting(*args):
        lps.append(bool(preparing))
        return solve_lp(*args)

    def marked(*args):
        preparing.append(True)
        try:
            return prepare(*args)
        finally:
            preparing.pop()

    monkeypatch.setattr(shannon, "solve_lp", counting)
    monkeypatch.setattr(cli, "prepare_antecedents", marked)
    code, report = run(capsys, "secret-share", "--participants", "6", "--access", "1", "--prove")
    assert (code, report["status"]) == (cli.EXIT_POSITIVE, "proved")
    assert lps and not any(lps)


@pytest.mark.parametrize("argv", [
    ["prove", "--file", "{corpus}/false_ci_weakening.iic"],
    ["refute", "--file", "{zy}"],
    ["reduce", "--regime", "slack", "--file", "{corpus}/kopparty_rossman_conditional.iic"],
    ["reduce", "--regime", "tight", "--file", "{classify}"],
    ["recognize", "--file", "{xor}"],
], ids=["prove", "refute", "reduce-slack", "reduce-tight", "recognize"])
def test_no_budget_is_the_default_budget(capsys, tmp_path, argv):
    files = {"zy": write(tmp_path, ZHANG_YEUNG, "zy.iic"),
             "classify": write(tmp_path, "[I(X;Y|Z) >= 2*I(X;Y)] => I(X;Y) >= H(Z)\n"),
             "xor": write(tmp_path, TWO_BIT_XOR, "xor.cand")}
    argv = [a.format(corpus=fixture("agm_triangle").path.parent, **files) for a in argv]
    default = cli.main(argv), capsys.readouterr()
    assert default[1].out and not default[1].err
    assert (cli.main(argv + ["--budget", "s=2,D=4"]), capsys.readouterr()) == default


# I(X;Y) > H(X)/2 holds on X = Y = GF(2)^1, the first subspace system of
# vsdim=1,vsq=2, and on no pmf at s=1,D=1
@pytest.mark.parametrize("regime,budget,found", [
    ("slack", "s=1,D=1", None),
    ("slack", "s=2,D=2", {"kind": "distribution", "file": "vars 2 2\n0 1 1/2\n1 0 1/2\n"}),
    ("tight", "s=1,D=1", "antecedent 0 not verified tight (classified unknown)"),
    ("tight", "s=2,D=2", "antecedent 0 not verified tight (classified slack)"),
])
def test_slack_scans_take_s_and_d_but_not_the_subspace_budget(capsys, tmp_path, regime,
                                                              budget, found):
    path = write(tmp_path, "[I(X;Y) >= 1/2*H(X)] => H(X) >= 0\n")
    argv = ["reduce", "--regime", regime, "--file", path, "--budget"]
    code, report = run(capsys, *argv, budget)
    (entry,) = report["clauses"]
    assert (entry.get("slack_witness") if regime == "slack" else entry["note"]) == found
    assert run(capsys, *argv, budget + ",vsdim=1,vsq=2") == (code, report)


def test_prove_reports_no_slack_label(capsys):
    fx = fixture("kopparty_rossman_conditional")
    _, report = run(capsys, "prove", "--file", str(fx.path))
    (entry,) = report["clauses"]
    assert entry["method"] == "direct-lambda"
    assert "slack_witness" not in entry


@pytest.mark.parametrize("command", ["prove", "refute"])
def test_workers_one_gives_the_report_of_no_flag(capsys, command):
    """The search runs in one process; `--workers 1` is still accepted."""
    path = str(fixture("false_ci_weakening").path)
    plain = run(capsys, command, "--file", path)
    assert run(capsys, command, "--file", path, "--workers", "1") == plain
    assert plain[0] == 1


WIDE_DIST = "vars" + " 2" * 40 + "\n" + "0 " * 40 + "1\n"
WIDE_CANDIDATE = "".join(f"V{i} 2 1 1\n" for i in range(40))
WIDE_VARS = " ".join(f"V{i}" for i in range(40))
# X, Y and their XOR Z: every pair carries two bits
TWO_BIT_XOR = "X 2 1 1\nY 2 1 1\nZ 2 1 1\nXY 4 1 1\nXZ 4 1 1\nYZ 4 1 1\nXYZ 4 1 1\n"
LONG = "7" * 5000
# the whole error report of some bad inputs, by (argv, file text)
EXACT_ERRORS = {
    (("corpus", "--show", "nope"), None): "no corpus fixture named 'nope'",
    (("corpus", "--show", ""), None): "no corpus fixture named ''",
    # rejected before the access structure is closed upward (2^39 sets)
    (("secret-share", "--participants", "40", "--access", "1"), None):
        "variable count 41 out of range 1..16",
    # the set as written is named, not a superset of it that the closure made
    (("secret-share", "--participants", "3", "--access", "4"), None):
        "access set [4] mentions unknown participants",
    # rejected before the 2^40 entropies are built
    (("check-dist", "--file", "{path}"), WIDE_DIST): "variable count 40 out of range 1..16",
    # rejected before the 2^40 - 1 subset lines are looked up
    (("recognize", "--file", "{path}"), WIDE_CANDIDATE): "variable count 40 out of range 1..16",
    # rejected before the 2^40 atoms are written
    (("ci", "export", "--vars", WIDE_VARS, "--cons", "V0;V1"), None):
        "variable count 40 out of range 1..16",
    # rejected before the 3^12 atoms are built
    (("ci", "export", "--vars", "A B C D E F G H I J K L", "--cons", "A;B", "--domain", "3"),
     None): "domain 3 for 12 variables gives 531441 atoms, more than 65536",
    # budget values are ASCII digits, and a key is given once
    (("refute", "--file", "{path}", "--budget", "s=\u0662"), "H(X) >= 0\n"):
        "budget item 's=\u0662' needs an integer in ASCII digits",
    (("prove", "--file", "{path}", "--budget", "D=1_0"), "H(X) >= 0\n"):
        "budget item 'D=1_0' needs an integer in ASCII digits",
    (("reduce", "--file", "{path}", "--budget", "s=2,D=2,D=3"), "H(X) >= 0\n"):
        "budget item 'D=3' repeats the key 'D'",
    # the counterexample search runs in one process
    (("prove", "--file", "{path}", "--workers", "2"), "H(X) >= 0\n"):
        "--workers 2: the counterexample search runs in one process, "
        "so only --workers 1 is accepted",
    (("refute", "--file", "{path}", "--workers", "0"), "H(X) >= 0\n"):
        "--workers 0: the counterexample search runs in one process, "
        "so only --workers 1 is accepted",
    (("recognize", "--file", "{path}"), "X -1 -2 1\n"):
        "malformed representation: b must be >= 1",
    (("recognize", "--file", "{path}"), "X 2 1 -1\n"):
        "malformed representation: c must be >= 1",
    # Miller-Rabin on the primes up to 41 decides primality only below it
    (("refute", "--file", "{path}", "--budget", "vsq=3317044064679887385961981"), "H(X) >= 0\n"):
        "3317044064679887385961981 out of range: "
        "primality is decided only below 3317044064679887385961981",
    # GF(2)^7 alone has 29,212 subspaces: over the cap before n is known
    (("refute", "--file", "{path}", "--budget", "vsdim=7,vsq=2"), "H(X) >= 0\n"):
        "budget vsdim=7,vsq=2 streams more than 10000 subspace systems for 1 variable",
    (("recognize", "--file", "{path}", "--budget", "s=2,D=2,vsdim=2,vsq=2"), "X 2 1 1\n"):
        "recognize searches distributions only: its budget takes s and D, not vsdim or vsq",
    # 90^4 systems of subspaces for 4 variables: about 1.4 h of `violation` calls
    (("refute", "--file", "{path}", "--budget", "s=1,D=1,vsdim=4,vsq=2"),
     "H(XY) + H(YZ) + H(ZU) + H(X|YU) + H(U|XZ) >= 2*H(XYZU)\n"):
        "budget vsdim=4,vsq=2 streams more than 10000 subspace systems for 4 variables",
    # s^n D(D+1)/2 = 1,296,000 domain tuples to walk: rejected before the walk
    (("refute", "--file", "{path}", "--budget", "s=60,D=3"), "H(X) + H(Y) + H(Z) >= 0\n"):
        "budget s=60,D=3 walks more than 1000000 domain tuples for 3 variables",
    (("recognize", "--file", "{path}", "--budget", "s=60,D=3"), TWO_BIT_XOR):
        "budget s=60,D=3 walks more than 1000000 domain tuples for 3 variables",
    (("ci", "falsify", "--vars", "X Y Z", "--ante", "X;Y", "--cons", "X;Y|Z",
      "--domain", "60", "--denominator", "3"), None):
        "budget s=60,D=3 walks more than 1000000 domain tuples for 3 variables",
    # a repeated name would add a phantom variable to the statement
    **{(("ci", verb, "--vars", "X Y X", "--cons", "X;Y"), None):
       "duplicate variable name 'X' in --vars" for verb in ("prove", "falsify", "export")},
    # an exponent of more than 4 digits is rejected before `Fraction` builds 10**exp
    (("secret-share", "--participants", "2", "--access", "1", "--ratio", "1e10000000"), None):
        "'1e10000000' has an exponent of more than 4 digits",
    (("check-dist", "--file", "{path}"), "vars 2\n0 1e-10000000\n1 1\n"):
        "'1e-10000000' has an exponent of more than 4 digits",
    # a value past Python's 4300-digit limit on int/text conversion is named
    # when it is read, not when it is formatted; {long} in a file is LONG
    (("secret-share", "--participants", "2", "--access", "1", "--ratio", "1e9999"), None):
        "'1e9999' is a number of more than 4000 digits",
    (("secret-share", "--participants", "2", "--access", "1", "--ratio", LONG), None):
        f"{LONG!r} is a number of more than 4000 digits",
    (("secret-share", "--participants", "2", "--access", f"2,{LONG}"), None):
        f"{LONG!r} is a number of more than 4000 digits",
    (("check-dist", "--file", "{path}"), "vars 2\n0 1/{long}\n1 1/2\n"):
        f"'1/{LONG}' is a number of more than 4000 digits",
    (("refute", "--file", "{path}", "--budget", f"s={LONG}"), "H(X) >= 0\n"):
        f"{LONG!r} is a number of more than 4000 digits",
    # a statement reads AB as A and B, so the declared AB would be a phantom variable
    **{(("ci", verb, "--vars", "A B AB C", "--ante", "A;C", "--ante", "B;C|A", "--cons", "AB;C"),
        None): "--vars name 'AB' is two or more capitals, which a statement reads as one "
               "variable per letter" for verb in ("prove", "falsify", "export")},
    # a repeated outcome would replace the mass of its first line
    (("check-dist", "--file", "{path}"), "vars 2\n0 1/2\n0 1/2\n1 1/2\n"):
        "repeated outcome line: '0 1/2'",
    # an option that a `ci` verb does not read is named, not dropped; the
    # missing --extra-gens file is never opened
    **{(("ci", verb, "--vars", "X Y", "--cons", "X;Y", flag, value), None):
       f"ci {verb} does not read {flag}"
       for verb, flag, value in (("prove", "--domain", "2"), ("prove", "--domain", "0"),
                                 ("prove", "--denominator", "4"),
                                 ("export", "--denominator", "4"),
                                 ("export", "--extra-gens", "{missing}"),
                                 ("falsify", "--extra-gens", "{missing}"))},
}
AGM = str(fixture("agm_triangle").path)  # one plain inequality on 3 variables
CONTRACTION = str(fixture("ci_contraction_basic").path)  # conditional clauses on 3 variables
# more exact errors; they come last in the list below, so no earlier row's test id moves
LATER_EXACT_ERRORS = {
    # an --extra-gens file is read against the variables of what it proves
    (("ci", "prove", "--vars", "X Y", "--cons", "X;Y", "--extra-gens", AGM), None):
        f"extra generator file {AGM} has 3 variables, expected 2",
    (("prove", "--file", "{path}", "--extra-gens", CONTRACTION), "H(XYZ) >= 0\n"):
        f"extra generators must be plain inequalities: {CONTRACTION}",
    (("check-dist", "--file", "{path}", "--constraint", AGM), "vars 2\n0 1/2\n1 1/2\n"):
        "constraint and distribution disagree on variable count",
}


@pytest.mark.parametrize("argv,text", [
    (["prove", "--file", "{path}"], "H(X) >= \n"),
    (["prove", "--file", "{missing}"], None),
    (["prove", "--file", "{path}", "--budget", "s=2,bogus=1"], "H(X) >= 0\n"),
    (["reduce", "--file", "{path}", "--budget", "s"], "H(X) >= 0\n"),
    (["refute", "--file", "{path}", "--budget", "s=0,D=4"], "H(X) >= 0\n"),
    (["refute", "--file", "{path}", "--budget", "s=2,D=-1"], "H(X) >= 0\n"),
    (["refute", "--file", "{path}", "--budget", "s=2,D=1000"], "H(X) >= 0\n"),
    (["refute", "--file", "{path}", "--budget", "vsdim=-1"], "H(X) >= 0\n"),
    (["refute", "--file", "{path}", "--budget", "vsdim=1,vsq=2,4"], "H(X) >= 0\n"),
    (["check-dist", "--file", "{path}"], "vars 2 2\n0 0 1/0\n1 1 1\n"),
    (["check-dist", "--file", "{path}"], "vars 2 2\n0 0 1/2\n2 1 1/2\n"),
    (["check-dist", "--file", "{path}"], "0 0 1/2\n1 1 1/2\n"),
    (["recognize", "--file", "{path}"], "X 1 2\n"),
    (["recognize", "--file", "{path}"], "X 1 0 0\nX 1 0 0\n"),
    (["recognize", "--file", "{path}"], ""),
    (["secret-share", "--participants", "2", "--access", "1", "--ratio", "1/0"], None),
    (["refute", "--file", "{path}", "--budget", "vsq=561"], "H(X) >= 0\n"),  # Carmichael
    *((list(argv), text) for argv, text in EXACT_ERRORS),
    pytest.param(["prove", "--file", "{path}"], "(" * 330 + "H(X)" + ")" * 330 + " >= 0\n",
                 id="deep-parentheses"),
    # a header whose first token only starts with "vars"
    (["check-dist", "--file", "{path}"], "varsity 2\n0 1/2\n1 1/2\n"),
    (["check-dist", "--file", "{path}"], "vars2 2\n0 1/2\n1 1/2\n"),
    *((list(argv), text) for argv, text in LATER_EXACT_ERRORS),
])
def test_bad_input_exits_3_without_traceback(capsys, tmp_path, argv, text):
    path = write(tmp_path, text.replace("{long}", LONG)) if text is not None else ""
    key = (tuple(argv), text)
    argv = [a.format(path=path, missing=str(tmp_path / "absent.iic")) for a in argv]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert "error" in json.loads(err)
    exact = {**EXACT_ERRORS, **LATER_EXACT_ERRORS}
    if key in exact:
        assert json.loads(err) == {"error": exact[key]}


# ---------------------------------------------------------------------------
# Every number in outside text is read by `core.read_int` or `read_fraction`
# ---------------------------------------------------------------------------

H_X = "H(X) >= 0\n"
# each entry point of a number: (argv, file text) with the number at {N}, an
# ASCII form that reads and the exit code of the call with it.  Each int
# option comes twice, through `parse_exact` and through argparse (`--opt=N`)
NUMBER_ENTRY_POINTS = {
    "budget": (["refute", "--file", "{path}", "--budget", "s={N}"], H_X, "2",
               cli.EXIT_INCONCLUSIVE),
    "budget-vsq-list": (["refute", "--file", "{path}", "--budget", "vsdim=1,vsq=2,{N}"], H_X,
                        "3", cli.EXIT_INCONCLUSIVE),
    "--participants": (["secret-share", "--participants", "{N}", "--access", "1"], None, "2",
                       cli.EXIT_POSITIVE),
    "--participants=": (["secret-share", "--participants={N}", "--access", "1"], None, "2",
                        cli.EXIT_POSITIVE),
    "--domain": (["ci", "export", "--vars", "X Y", "--cons", "X;Y", "--domain", "{N}"], None,
                 "3", cli.EXIT_POSITIVE),
    "--domain=": (["ci", "export", "--vars", "X Y", "--cons", "X;Y", "--domain={N}"], None,
                  "3", cli.EXIT_POSITIVE),
    "--denominator": (["ci", "falsify", "--vars", "X Y", "--cons", "X;Y", "--denominator",
                       "{N}"], None, "3", cli.EXIT_NEGATIVE),
    "--denominator=": (["ci", "falsify", "--vars", "X Y", "--cons", "X;Y", "--denominator={N}"],
                       None, "3", cli.EXIT_NEGATIVE),
    "--workers": (["prove", "--file", "{path}", "--workers", "{N}"], H_X, "1", cli.EXIT_POSITIVE),
    "--workers=": (["prove", "--file", "{path}", "--workers={N}"], H_X, "1", cli.EXIT_POSITIVE),
    "access": (["secret-share", "--participants", "2", "--access", "2,{N}"], None, "1",
               cli.EXIT_POSITIVE),
    "ratio": (["secret-share", "--participants", "2", "--access", "1", "--ratio", "{N}"], None,
              "2/4", cli.EXIT_POSITIVE),
    "dist-header": (["check-dist", "--file", "{path}"], "vars {N}\n0 1/2\n1 1/2\n", "2",
                    cli.EXIT_POSITIVE),
    "dist-outcome": (["check-dist", "--file", "{path}"], "vars 2\n{N} 1/2\n1 1/2\n", "0",
                     cli.EXIT_POSITIVE),
    "dist-probability": (["check-dist", "--file", "{path}"], "vars 2\n0 {N}\n1 1/2\n", "0.5",
                         cli.EXIT_POSITIVE),
    "candidate-a": (["recognize", "--file", "{path}"], "X {N} 1 1\n", "2", cli.EXIT_POSITIVE),
    "candidate-b": (["recognize", "--file", "{path}"], "X 4 {N} 1\n", "2", cli.EXIT_POSITIVE),
    "candidate-c": (["recognize", "--file", "{path}"], "X 4 1 {N}\n", "2", cli.EXIT_POSITIVE),
}


def _number_call(capsys, tmp_path, entry: str, number: str) -> tuple[int, str, str]:
    argv, text, _, _ = NUMBER_ENTRY_POINTS[entry]
    path = write(tmp_path, text.replace("{N}", number)) if text is not None else ""
    code = cli.main([a.format(path=path, N=number) for a in argv])
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("number", ["\u0663", "1_0", "\u0662/\u0664"])
@pytest.mark.parametrize("entry", list(NUMBER_ENTRY_POINTS))
def test_numbers_are_ascii_without_underscores(capsys, tmp_path, entry, number):
    """Other scripts' digits and underscores exit 3 wherever a number is
    read, and the error names the text: argparse's usage error for an
    int option, a JSON error everywhere else."""
    code, out, err = _number_call(capsys, tmp_path, entry, number)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert "Traceback" not in err
    if entry.startswith("--"):
        assert err.endswith(f"argument {entry.rstrip('=')}: invalid int value: {number!r}\n")
    else:
        assert number in json.loads(err)["error"]


@pytest.mark.parametrize("entry", list(NUMBER_ENTRY_POINTS))
def test_numbers_past_pythons_digit_limit_are_named(capsys, tmp_path, entry):
    """A number of 5000 digits exits 3 wherever it is read, and the error
    names it, as for other scripts' digits."""
    code, out, err = _number_call(capsys, tmp_path, entry, LONG)
    assert (code, out) == (cli.EXIT_USAGE, "")
    if entry.startswith("--"):
        assert err.endswith(f"argument {entry.rstrip('=')}: invalid int value: {LONG!r}\n")
    else:
        assert LONG in json.loads(err)["error"]


@pytest.mark.parametrize("entry", list(NUMBER_ENTRY_POINTS))
def test_ascii_numbers_read_as_before(capsys, tmp_path, entry):
    """The ASCII form at each entry point is read, with its old verdict."""
    _, _, ascii_form, want = NUMBER_ENTRY_POINTS[entry]
    code, _, err = _number_call(capsys, tmp_path, entry, ascii_form)
    assert (code, err) == (want, "")


@pytest.mark.parametrize("budget,error", [
    ("s=1,D=1,vsq=2", "budget vsq=2 needs vsdim >= 1"),
    ("s=1,D=1,vsdim=1", "budget vsdim=1 needs a prime in vsq"),
    ("s=1,D=1,vsdim=1,vsq=2,2", "budget vsq=2,2 repeats a prime"),
])
def test_a_subspace_budget_with_one_key_or_a_repeated_prime_exits_3(capsys, tmp_path, budget,
                                                                     error):
    """Each of these once streamed no system, or one field twice."""
    path = write(tmp_path, "H(X) <= 0\n")
    assert cli.main(["refute", "--file", path, "--budget", budget]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert (out, json.loads(err)) == ("", {"error": error})


def test_large_prime_field_budget_is_accepted(capsys):
    path = str(fixture("false_mono_flip").path)
    code, report = run(capsys, "refute", "--file", path, "--budget",
                       "vsdim=1,vsq=2305843009213693951")
    assert code == 1
    assert report["budget"]["vsq"] == [2 ** 61 - 1]


@pytest.mark.parametrize("text,kind,name", [
    ("X 1 2 1\n", "elemental-monotonicity", "H(X)"),
    ("X 2 1 1\nY 2 1 1\nXY 8 1 1\n", "elemental-submodularity", "I(X;Y)"),
])
def test_recognize_reports_the_violated_generator(capsys, tmp_path, text, kind, name):
    code, report = run(capsys, "recognize", "--file", write(tmp_path, text, "c.cand"))
    assert (code, report) == (cli.EXIT_NEGATIVE, {"command": "recognize", "verdict": "rejected",
                                                  "violated": {"kind": kind, "name": name}})


def test_thirty_digit_prime_inputs_are_fast(capsys, tmp_path):
    """Exact signs split numbers by gcds, never by factoring them."""
    p, q = 100000000000000000000000000319, 200000000000000000000000000017
    cand = write(tmp_path, f"A {p} 1 1\nB {q} 1 1\nAB {p * q} 1 1\n", "cand.txt")
    dist = write(tmp_path, f"vars 2 2\n0 0 1/{p * q}\n1 1 {p * q - 1}/{p * q}\n", "pq.dist")
    bound = write(tmp_path, "H(X) + H(Y) - H(XY) >= 0 && I(X;Y) - H(X) >= 0\n")
    start = time.perf_counter()
    code, report = run(capsys, "recognize", "--file", cand)
    assert code == cli._STATUS_EXIT[report["verdict"]]
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    code, report = run(capsys, "check-dist", "--file", dist, "--constraint", bound)
    assert (code, report["holds"]) == (cli.EXIT_POSITIVE, True)
    assert time.perf_counter() - start < 1.0


def test_check_dist_decides_clauses_without_their_values(capsys, tmp_path):
    """check-dist prints only whether each clause holds, so the falsified
    clause's values (a term c*p of about 8,000 digits here, past Python's
    4300-digit int/text limit) are never written."""
    d = 10 ** 3999 + 1
    dist = write(tmp_path, f"vars 2\n0 1/{d}\n1 {d - 1}/{d}\n", "long.dist")
    bound = write(tmp_path, f"1/{'7' * 3999}*H(X) <= 0\n")
    code, report = run(capsys, "check-dist", "--file", dist, "--constraint", bound)
    assert (code, report["holds"]) == (cli.EXIT_NEGATIVE, False)


@pytest.mark.parametrize("text,entropies", [
    ("vars 2\n0 1/2\n1 1/2\n", {"h(1)": "1/2*log2(2) + 1/2*log2(2)"}),
    ("vars 3\n0 1/3\n1 1/6\n2 1/2\n", {"h(1)": "1/3*log2(3) + 1/6*log2(6) + 1/2*log2(2)"}),
    # a constant variable: its one outcome has probability 1
    ("vars 2 1\n0 0 1/4\n1 0 3/4\n", {"h(1)": "1/4*log2(4) + 3/4*log2(4/3)",
                                        "h(2)": "1*log2(1)",
                                        "h(3)": "1/4*log2(4) + 3/4*log2(4/3)"}),
], ids=["fair-bit", "unequal", "constant"])
def test_check_dist_writes_each_entropy_term_by_term(capsys, tmp_path, text, entropies):
    """Each h(S) is sum_x p_x * log2(1/p_x) over the marginal of S, one
    term per outcome in outcome order, each rational in lowest terms."""
    code, report = run(capsys, "check-dist", "--file", write(tmp_path, text, "p.dist"))
    assert (code, report["entropies"]) == (cli.EXIT_POSITIVE, entropies)


@pytest.mark.parametrize("text,budget,source,name", [
    ("H(X) - H(XY) >= 0\n", "s=2,D=2", "distribution", "counterexample.dist"),
    ("H(X) <= 0\n", "s=1,D=1,vsdim=1,vsq=2", "vector-space", "counterexample.vs"),
])
def test_refute_out_names_the_witness_file_by_its_source(capsys, tmp_path, text, budget,
                                                         source, name):
    out = tmp_path / "out"
    code, report = run(capsys, "refute", "--file", write(tmp_path, text), "--budget", budget,
                       "--out", str(out))
    assert code == cli.EXIT_NEGATIVE
    assert report["counterexample"]["source"] == source
    assert report["witness_file"] == str(out / name)
    assert [p.name for p in out.iterdir()] == [name]
    assert (out / name).read_text() == report["counterexample"]["witness"]


def test_corpus_show_gives_the_fixture_budget(capsys):
    """A `refutable` verdict holds at the fixture's budget."""
    code, report = run(capsys, "corpus", "--show", "false_mono_flip")
    assert code == cli.EXIT_POSITIVE
    assert report["budget"] == {"s": 2, "D": 2, "vsdim": 0, "vsq": []}


@pytest.mark.parametrize("with_constraint", [False, True])
def test_check_dist_bounds_the_common_denominator(capsys, tmp_path, with_constraint):
    """Every number of this pmf has at most 2,201 digits, but X's marginal
    1/a + 1/b has a denominator of 4,401: the pmf is rejected with the
    program's message, not with Python's 4300-digit int/text one when the
    entropies are written."""
    a, b = 10 ** 2200 + 1, 10 ** 2200 + 3
    dist = write(tmp_path, f"vars 2 2\n0 0 1/{a}\n0 1 1/{b}\n"
                           f"1 0 {a - 2}/{2 * a}\n1 1 {b - 2}/{2 * b}\n", "wide.dist")
    argv = ["check-dist", "--file", dist]
    if with_constraint:
        argv += ["--constraint", write(tmp_path, "H(X) >= 0 && H(XY) >= 0\n")]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "error": "the probabilities have a common denominator of more than 4000 digits"}


def test_cli_import_leaves_heavy_modules_unloaded():
    # sympy is gone, mpmath serves only near-tie signs, and the
    # counterexample search runs in one process, with no pool to import
    probe = ("import sys, infoineq.cli; "
             "print(sorted({'sympy', 'mpmath', 'concurrent.futures'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(infoineq.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_extra_generators_are_refuted_before_use(capsys, tmp_path):
    neg = write(tmp_path, "-H(X) >= 0\n", "neg.iic")
    assert cli.main(["prove", "--file", neg, "--extra-gens", neg]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert neg in error["error"]
    assert error["counterexample"]["witness"] == "vars 2\n0 1/2\n1 1/2\n"
    zy = write(tmp_path, ZHANG_YEUNG, "zy.iic")
    code, report = run(capsys, "prove", "--file", zy, "--extra-gens", zy, "--budget", "s=1,D=1")
    assert (code, report["status"]) == (cli.EXIT_POSITIVE, "proved")


def test_a_max_clause_proved_by_an_extra_generator_names_it(capsys, tmp_path):
    """The Zhang-Yeung inequality ZY is no Shannon inequality, so only the
    generator that states it proves max(ZY, ZY - H(A)) >= 0: lambdas
    (1, 0), and the certificate lists that generator as trusted."""
    zy_text = ZHANG_YEUNG.split(" >= ")[0]
    zy = write(tmp_path, ZHANG_YEUNG, "zy.iic")
    path = write(tmp_path, f"max({zy_text}, {zy_text} - H(A)) >= 0\n", "max.iic")
    code, report = run(capsys, "prove", "--file", path, "--budget", "s=1,D=1")
    assert (code, report["status"]) == (cli.EXIT_INCONCLUSIVE, "inconclusive")
    code, report = run(capsys, "prove", "--file", path, "--extra-gens", zy,
                       "--budget", "s=1,D=1")
    assert (code, report["status"]) == (cli.EXIT_POSITIVE, "proved")
    (entry,) = report["clauses"]
    assert (entry["method"], entry["lambdas"]) == ("max-to-linear", ["1", "0"])
    cert = entry["certificate"]
    assert cert["trusted_user_generators"] == [
        {"name": "zy", "provenance": f"user-supplied valid inequality from {zy}"}]
    gens = cli.load_generators(4, [zy])
    target = parse_constraint(ZHANG_YEUNG).clauses[0].consequents[0]
    assert verify(ProofCertificate.from_json(cert, gens), target, gens)


def test_a_file_of_shannon_quantities_is_not_searched(capsys, monkeypatch, tmp_path):
    """Each inequality of the file has a chain-rule certificate, so the
    counterexample search is skipped and the report is unchanged; a false
    file is still searched and refuted."""
    shannon_file = write(tmp_path, "I(A;B|CD) >= 0 && 2*H(A|B) >= 0\n", "shannon.iic")
    neg = write(tmp_path, "H(A) <= 0\n", "neg.iic")
    want = [run(capsys, "prove", "--file", path, "--extra-gens", path)
            for path in (shannon_file, neg)]
    searched = []
    refute = cli.refute

    def counting(*args):
        searched.append(args)
        return refute(*args)

    monkeypatch.setattr(cli, "refute", counting)
    assert run(capsys, "prove", "--file", shannon_file, "--extra-gens", shannon_file) == want[0]
    assert want[0][0] == cli.EXIT_POSITIVE and searched == []
    assert cli.main(["prove", "--file", neg, "--extra-gens", neg]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert len(searched) == 1 and out == ""
    assert json.loads(err)["counterexample"] == {
        "source": "distribution", "witness": "vars 2\n0 1/2\n1 1/2\n", "clause_index": 0,
        "trace": [{"role": "consequent", "index": 0, "sign": -1,
                   "value": "-1/2*log2(2) + -1/2*log2(2)"}]}


BUDGET_ERROR = "budget needs s >= 1 and D >= 1"


@pytest.mark.parametrize("command,budget,error", [
    ("prove", "s=0,D=4", BUDGET_ERROR),
    ("reduce", "s=0,D=4", BUDGET_ERROR),
    ("recognize", "s=0,D=4", BUDGET_ERROR),
    ("recognize", "s=2,D=2,vsdim=1,vsq=2",
     "recognize searches distributions only: its budget takes s and D, not vsdim or vsq"),
])
def test_budget_is_checked_before_the_extra_generators(capsys, tmp_path, command, budget, error):
    flip = write(tmp_path, "H(X) - H(XY) >= 0\n", "flip.iic")
    path = (write(tmp_path, "X 2 1 1\nY 2 1 1\nXY 3 1 1\n", "pair.cand") if command == "recognize"
            else write(tmp_path, "H(XY) - H(X) >= 0\n", "mono.iic"))
    argv = [command, "--file", path, "--extra-gens", flip, "--budget", budget]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert (out, json.loads(err)) == ("", {"error": error})


# ---------------------------------------------------------------------------
# Every proof is checked by `verify` before it is reported
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,method", [("agm_triangle", "generator-cone"),
                                         ("kopparty_rossman_conditional", "direct-lambda"),
                                         ("kopparty_rossman_max", "max-to-linear")])
def test_a_certificate_that_fails_verify_is_inconclusive(capsys, corrupted_solver, name,
                                                         method):
    code, report = run(capsys, "prove", "--file", str(fixture(name).path))
    (entry,) = report["clauses"]
    assert (code, report["status"], entry["status"], entry["method"]) == \
        (cli.EXIT_INCONCLUSIVE, "inconclusive", "inconclusive", method)
    assert entry["note"].startswith(f"the {method} certificate fails verify; ")
    assert "certificate" not in entry


@pytest.mark.parametrize("lambdas", [(0, 0, 0), (-1, 1, 1)])
def test_max_lambdas_that_fail_the_check_are_inconclusive(capsys, monkeypatch, lambdas):
    reduce_max = cli.max_to_linear

    def wrong_lambdas(clause, kept, gens):
        result = reduce_max(clause, kept, gens)
        return MaxReduction(tuple(Fraction(v) for v in lambdas), result.certificate)

    monkeypatch.setattr(cli, "max_to_linear", wrong_lambdas)
    code, report = run(capsys, "prove", "--file", str(fixture("kopparty_rossman_max").path))
    assert code == cli.EXIT_INCONCLUSIVE
    assert report["clauses"][0]["note"].startswith(
        "the max-to-linear lambdas fail the check: each >= 0, not all 0; ")


def test_ci_prove_checks_its_certificate(capsys, corrupted_solver):
    code, report = run(capsys, "ci", "prove", "--vars", "X Y Z", "--ante", "X;Y|Z",
                       "--ante", "X;Z", "--cons", "X;YZ")
    assert (code, report) == (cli.EXIT_INCONCLUSIVE, {
        "command": "ci prove", "status": "inconclusive",
        "implication": "I(X;Y|Z) = 0 and I(X;Z) = 0 => I(X;YZ) = 0",
        "note": "the ci prove certificate fails verify"})


# ---------------------------------------------------------------------------
# One argparse tree per process
# ---------------------------------------------------------------------------

def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_parser_is_built_once():
    cli.build_parser.cache_clear()
    assert cli.build_parser() is cli.build_parser()


# the `prog` of each parser in the whole tree, in the order it builds them
TREE_PROGS = ["infoineq", *(f"infoineq {name}" for name in cli.COMMANDS)]


@pytest.mark.parametrize("argv,built", [
    (["prove", "--file", "{F}"], []),
    (["prove", "--text", "--file", "{F}", "--budget", "s=1,D=1", "--json"], []),
    (["ci", "--vars", "X Y", "prove", "--cons", "X;Y"], []),
    (["prove"], TREE_PROGS),
    (["prove", "--fil", "{F}"], TREE_PROGS),
    (["prove", "--file", "{F}", "extra"], TREE_PROGS),
    (["nope"], TREE_PROGS),
])
def test_a_well_formed_call_builds_no_parser(capsys, monkeypatch, argv, built):
    """A well-formed call is parsed from the option table and builds no
    `ArgumentParser`.  Anything else builds the whole tree of nine, once:
    a second call builds none."""
    made = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    argv = [a.format(F=fixture("agm_triangle").path) for a in argv]
    code = cli.main(argv)
    capsys.readouterr()
    assert made == built
    assert cli.main(argv) == code
    capsys.readouterr()
    assert made == built


TREE_USAGE = """\
usage: infoineq [-h]
                {prove,refute,reduce,ci,recognize,corpus,secret-share,check-dist}
                ...
"""
PROVE_USAGE = """\
usage: infoineq prove [-h] [--text] [--json] [--budget BUDGET]
                      [--workers WORKERS] --file FILE
                      [--extra-gens EXTRA_GENS]
"""
# (exit code, stdout, stderr) of each usage case at 80 columns, as the
# whole argparse tree printed them before commands had their own parsers
USAGE_CASES = {
    (): (3, "", TREE_USAGE + "infoineq: error: the following arguments are required: command\n"),
    ("-h",): (0, TREE_USAGE + """
prove, refute, and transform Boolean constraints on entropic vectors

positional arguments:
  {prove,refute,reduce,ci,recognize,corpus,secret-share,check-dist}
    prove               prove a constraint file
    refute              search for a counterexample
    reduce              run a sub-list of the prove stages and report it
    ci                  conditional-independence implication tools
    recognize           recognize a candidate vector file
    corpus              list or show bundled fixtures
    secret-share        emit the information-ratio constraint
    check-dist          entropies of a distribution file

options:
  -h, --help            show this help message and exit
""", ""),
    ("nope",): (3, "", TREE_USAGE + "infoineq: error: argument command: invalid choice: "
                "'nope' (choose from 'prove', 'refute', 'reduce', 'ci', 'recognize', "
                "'corpus', 'secret-share', 'check-dist')\n"),
    ("prove",): (3, "", PROVE_USAGE
                 + "infoineq prove: error: the following arguments are required: --file\n"),
    ("prove", "-h"): (0, PROVE_USAGE + """
options:
  -h, --help            show this help message and exit
  --text                human-readable output
  --json                JSON output (default)
  --budget BUDGET       search budget, e.g. s=3,D=6,vsdim=3,vsq=2,3
  --workers WORKERS     only 1: the counterexample search runs in one process
  --file FILE
  --extra-gens EXTRA_GENS
                        file of additional valid inequalities; a file the
                        default-budget counterexample search falsifies is an
                        input error
""", ""),
    ("prove", "--file", "{F}", "--bogus", "1"):
        (3, "", TREE_USAGE + "infoineq: error: unrecognized arguments: --bogus 1\n"),
    ("prove", "--file", "{F}", "extra"):
        (3, "", TREE_USAGE + "infoineq: error: unrecognized arguments: extra\n"),
    ("ci", "nope", "--vars", "X", "--cons", "X;X"): (3, "", """\
usage: infoineq ci [-h] [--text] [--json] --vars VARS [--ante ANTE] --cons
                   CONS [--extra-gens EXTRA_GENS] [--domain DOMAIN]
                   [--denominator DENOMINATOR]
                   {prove,falsify,export}
infoineq ci: error: argument verb: invalid choice: 'nope' (choose from 'prove', 'falsify', 'export')
"""),
    ("refute", "--workers", "x", "--file", "{F}"): (3, "", """\
usage: infoineq refute [-h] [--text] [--json] [--budget BUDGET]
                       [--workers WORKERS] --file FILE [--out OUT]
infoineq refute: error: argument --workers: invalid int value: 'x'
"""),
}


@pytest.mark.parametrize("argv", list(USAGE_CASES))
def test_usage_text_is_the_whole_trees(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    path = str(fixture("agm_triangle").path)
    code = cli.main([a.format(F=path) for a in argv])
    assert (code, *capsys.readouterr()) == USAGE_CASES[argv]


def test_option_abbreviations_still_parse(capsys):
    path = str(fixture("agm_triangle").path)
    assert cli.main(["prove", "--file", path]) == cli.EXIT_POSITIVE
    full = capsys.readouterr()
    assert cli.main(["prove", "--fil", path]) == cli.EXIT_POSITIVE
    assert capsys.readouterr() == full
    assert full.err == ""


def test_module_entry_point_reads_sys_argv():
    """`python -m infoineq.cli` (like the console script) calls `main()`
    without argv, and prints the report that `main(argv)` prints."""
    path = str(fixture("agm_triangle").path)
    env = dict(os.environ, PYTHONPATH=str(Path(infoineq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "infoineq.cli", "prove", "--file", path],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_POSITIVE, "")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["prove", "--file", path]) == cli.EXIT_POSITIVE
    assert proc.stdout == out.getvalue()


def run_with_closed_stdout(argv: list[str], unbuffered: bool) -> subprocess.CompletedProcess:
    """The command run with stdout on a pipe whose read end is closed."""
    env = dict(os.environ, PYTHONPATH=str(Path(infoineq.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-m", "infoineq.cli", *argv],
                              env=env, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_keeps_the_verdicts_exit_code(unbuffered):
    """A reader that is gone before the report is written (as with
    `infoineq refute ... | true`) changes neither the exit code of the
    refutation nor stderr, with stdout buffered or not."""
    proc = run_with_closed_stdout(["refute", "--file", str(fixture("false_mono_flip").path),
                                   "--budget", "s=2,D=2"], unbuffered)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_NEGATIVE, "")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_keeps_ci_export_silent(unbuffered):
    """`ci export ... | true` writes its SMT-LIB text through the same
    handling as the reports: exit 0, nothing on stderr."""
    proc = run_with_closed_stdout(["ci", "export", "--vars", "X Y Z", "--ante", "X;Y|Z",
                                   "--cons", "X;Y", "--domain", "3"], unbuffered)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_POSITIVE, "")


def test_shared_parser_keeps_no_state_between_calls(capsys, tmp_path):
    """Each call through the shared parsers prints what it prints through
    fresh ones, and no command mutates a list-valued default."""
    zy = write(tmp_path, ZHANG_YEUNG, "zy.iic")
    cand = write(tmp_path, "X 2 1 1\n", "cand.txt")
    prove = ["prove", "--file", zy, "--budget", "s=1,D=1"]
    sequence = [
        ["prove"],
        [*prove, "--extra-gens", zy],
        prove,
        [*prove, "--text"],
        [*prove, "--json"],
        ["reduce", "--file", zy, "--budget", "s=1,D=1"],
        ["ci", "prove", "--vars", "X Y", "--cons", "X;Y"],
        ["recognize", "--file", cand, "--budget", "s=1,D=1"],
    ]
    # the list defaults of the cached tree that serves the calls below
    defaults = {(command, a.dest): a.default
                for command, sub in _subparsers(cli.build_parser()).items()
                for a in sub._actions if isinstance(a.default, list)}
    assert {dest for _, dest in defaults} == {"extra_gens", "ante"}
    shared = [(cli.main(argv), capsys.readouterr()) for argv in sequence]
    assert [code for code, _ in shared[:3]] == [cli.EXIT_USAGE, cli.EXIT_POSITIVE,
                                                cli.EXIT_INCONCLUSIVE]
    assert defaults == {key: [] for key in defaults}
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append((cli.main(argv), capsys.readouterr()))
    assert shared == fresh


# ---------------------------------------------------------------------------
# The exact parser and argparse read one option table alike
# ---------------------------------------------------------------------------

# values for any option: good ones for some rows, and ones that only
# argparse may judge (a leading "-", ints that `int` takes but
# `core.read_int` does not: underscores, other scripts' digits and
# spaces; ints with a sign or ASCII spaces, which both take; choices
# that are not)
INTS = ("1", "2", "0_1", "1_0", "\u0662", "\u0663", "\uff12", "\u0661\u0660", "\u00a02",
        "+1", " 2")
VALUES = (*INTS, "{F}", "{C}", "{P}", "{D}", "", "x", "-1", "-x", "-", "X Y", "X Y Z", "X;Y",
          "X;Y|Z", "1,2", "1/2", "s=1,D=1", "s=x", "auto", "slack", "aut", "prove", "export",
          "falsify", "agm_triangle")
# a value for each required row or positional, so that some argv parse
GOOD = {"file": "{F}", "verb": "prove", "vars": "X Y Z", "cons": "X;Y|Z",
        "participants": "2", "access": "1"}


def _required(name: str) -> list[tuple[str, ...]]:
    """NAME's required rows and positional, each with its good value."""
    return [(opt.flag, GOOD[opt.dest]) if opt.flag.startswith("--") else (GOOD[opt.dest],)
            for opt in cli.COMMANDS[name][2]
            if opt.required or not opt.flag.startswith("--")]


def _fragments(name: str):
    """Two strategies of argument fragments for NAME: an option row in its
    exact form with a value it may take; and a row cut short, as
    `--opt=v`, without its value or with any value, help, `--`, an
    unknown option, or a stray value."""
    value = st.sampled_from(VALUES)
    good, bad = [], []
    for opt in cli.COMMANDS[name][2]:
        if not opt.flag.startswith("--"):
            continue
        takes_value = opt.action in ("store", "append")
        if opt.choices:
            fits = st.sampled_from(opt.choices)
        elif opt.type is read_int:
            fits = st.sampled_from(INTS)
        else:
            fits = st.sampled_from([v for v in VALUES if not v.startswith("-")])
        good.append(st.tuples(st.just(opt.flag), fits) if takes_value
                    else st.tuples(st.just(opt.flag)))
        short = st.sampled_from([opt.flag[:-1], opt.flag[:4]])
        bad.append(st.tuples(short, value) if takes_value else st.tuples(short))
        bad.append(st.tuples(st.just(opt.flag), value))
        bad.append(st.builds(lambda v, f=opt.flag: (f"{f}={v}",), value))
        bad.append(st.tuples(st.just(opt.flag)))
    bad.append(st.tuples(st.sampled_from(["-h", "--help", "--", "--bogus", "-x"])))
    bad.append(st.tuples(value))
    return st.one_of(good), st.one_of(bad)


@functools.cache
def _argv(name: str):
    """NAME's argv, in any order: each required row three times in four,
    up to five good fragments, and at most one bad one."""
    good, bad = _fragments(name)
    required = st.tuples(*(st.sampled_from([(f,), (f,), (f,), ()]) for f in _required(name)))
    parts = st.builds(lambda lead, frags, extra: [f for kept in lead for f in kept] + frags
                      + ([extra] if extra else []),
                      required, st.lists(good, max_size=5), st.one_of(st.none(), bad))
    return parts.flatmap(st.permutations).map(
        lambda frags: [name, *(t for f in frags for t in f)])


@pytest.fixture(scope="module")
def arg_paths(tmp_path_factory):
    """The files and directory that {F}, {C}, {P} and {D} name."""
    root = tmp_path_factory.mktemp("argv")
    files = {"F": ("one.iic", "H(X) >= 0\n"), "C": ("bit.cand", "X 2 1 1\n"),
             "P": ("bit.dist", "vars 2\n0 1/2\n1 1/2\n")}
    paths = {key: write(root, text, name) for key, (name, text) in files.items()}
    return {**paths, "D": str(root / "out")}


def _outcome(argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _tree_namespace(name: str, exact) -> dict:
    """What the argparse tree gives for the argv `parse_exact` read: the
    same namespace, with the subcommand under `command` as well."""
    return {**vars(exact), "command": name}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_the_required_rows_parse_exactly(name, arg_paths):
    argv = [t.format(**arg_paths) for f in _required(name) for t in f]
    assert _tree_namespace(name, cli.parse_exact(name, argv)) == \
        vars(cli.build_parser().parse_args([name, *argv]))


@pytest.mark.parametrize("name", list(cli.COMMANDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exact_parser_agrees_with_argparse(name, arg_paths, data):
    """Wherever the exact parser accepts, argparse accepts too and gives
    the same namespace."""
    argv = [a.format(**arg_paths) for a in data.draw(_argv(name))]
    exact = cli.parse_exact(name, argv[1:])
    if exact is not None:
        assert _tree_namespace(name, exact) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("name", list(cli.COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_main_without_the_exact_parser_prints_the_same(name, arg_paths, data):
    """`main` gives the same exit code, stdout and stderr when argparse
    parses every argv."""
    argv = [a.format(**arg_paths) for a in data.draw(_argv(name))]
    with_exact = _outcome(argv)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "parse_exact", lambda name, argv: None)
        assert _outcome(argv) == with_exact


# ---------------------------------------------------------------------------
# reduce: a sub-list of the same stages
# ---------------------------------------------------------------------------

def test_reduce_auto_proves_with_non_tight_antecedent(capsys, tmp_path):
    text = "[I(X;Y) = 0, H(X) >= H(Y)] => H(X|Y) >= 0\n"
    path = write(tmp_path, text)
    code, report = run(capsys, "reduce", "--file", path)
    assert code == 0
    assert report["status"] == "proved"
    assert report["clauses"][0]["regime"] == "auto"
    assert_proofs_verify(report, parse_constraint(text))
    prove_code, prove_report = run(capsys, "prove", "--file", path)
    assert prove_code == 0
    assert [{k: v for k, v in e.items() if k != "regime"} for e in report["clauses"]] \
        == prove_report["clauses"]


def test_reduce_tight_on_slack_antecedents_is_inconclusive(capsys):
    path = str(fixture("kopparty_rossman_conditional").path)
    code, report = run(capsys, "reduce", "--regime", "tight", "--file", path)
    assert code == 2
    assert report["status"] == "inconclusive"
    (entry,) = report["clauses"]
    assert "not verified tight (classified slack)" in entry["note"]


def test_tight_stage_classifies_at_the_commands_budget(capsys, tmp_path):
    # the antecedent is positive on an XOR pmf, which s=1,D=1 does not reach
    path = write(tmp_path, "[I(X;Y|Z) >= 2*I(X;Y)] => I(X;Y) >= H(Z)\n")
    for budget, verdict in (("s=1,D=1", "unknown"), ("s=2,D=4", "slack")):
        code, report = run(capsys, "reduce", "--regime", "tight", "--file", path,
                           "--budget", budget)
        assert code == 2
        assert report["clauses"][0]["note"] == \
            f"antecedent 0 not verified tight (classified {verdict})"


def test_reduce_slack_without_joint_slack_still_decides(capsys):
    fx = fixture("ci_contraction_basic")
    code, report = run(capsys, "reduce", "--regime", "slack", "--file", str(fx.path))
    assert code == 0
    assert report["status"] == "proved"
    assert all("slack_witness" not in e for e in report["clauses"])
    assert_proofs_verify(report, fx.constraint)


def test_reduce_slack_attaches_the_witness(capsys):
    path = str(fixture("kopparty_rossman_conditional").path)
    code, report = run(capsys, "reduce", "--regime", "slack", "--file", path)
    assert code == 0
    assert report["clauses"][0]["slack_witness"] == {"kind": "modular",
                                                     "weights": ["2", "0", "1"]}


def test_reduce_tight_never_proves_a_false_inequality(capsys, tmp_path):
    path = write(tmp_path, "-1/16*H(X) >= 0\n")
    code, report = run(capsys, "reduce", "--regime", "tight", "--file", path)
    assert code == 2
    assert report["status"] == "inconclusive"
    assert "needs one" in report["clauses"][0]["note"]
    code, report = run(capsys, "prove", "--file", path)
    assert code == 1
    assert report["status"] == "refuted"


@pytest.mark.parametrize("text", [
    "max(-H(X), -H(Y)) >= 0 && H(X) - H(XY) >= 0\n",
    "H(X) - H(XY) >= 0 && max(-H(X), -H(Y)) >= 0\n",
])
def test_reduce_exit_code_ignores_clause_order(capsys, tmp_path, text):
    path = write(tmp_path, text)
    code, report = run(capsys, "reduce", "--file", path, "--budget", "s=2,D=2")
    assert code == 1
    assert report["status"] == "refuted"
    assert run(capsys, "prove", "--file", path, "--budget", "s=2,D=2")[0] == 1


def test_secret_share_runs_the_tight_stage(capsys):
    code, report = run(capsys, "secret-share", "--participants", "2", "--access", "1,2",
                       "--prove")
    assert code == 0
    assert report["status"] == "proved"
    constraint = parse_constraint(report["constraint"])
    gens = elemental(constraint.n)
    assert certificate_problems(report, constraint.clauses[0], gens) == []


@pytest.mark.parametrize("participants,access,closed", [
    ("1", "1", [[1]]),
    ("2", "1,2", [[1, 2]]),
    ("3", "1,2;3", [[1, 2], [1, 2, 3], [1, 3], [2, 3], [3]]),
    ("3", "2;1,2", [[1, 2], [1, 2, 3], [2], [2, 3]]),
    ("3", "1;2;3", [[1], [1, 2], [1, 2, 3], [1, 3], [2], [2, 3], [3]]),
    ("4", "1,2;2,3;3,4", [[1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 2, 4], [1, 3, 4], [2, 3],
                          [2, 3, 4], [3, 4]]),
])
def test_secret_share_closes_the_access_sets_upward(capsys, participants, access, closed):
    code, report = run(capsys, "secret-share", "--participants", participants,
                       "--access", access)
    assert code == 0
    assert report["access_structure"] == closed


def test_secret_share_prints_a_constraint_that_parses_back(capsys, tmp_path):
    code, report = run(capsys, "secret-share", "--participants", "4", "--access", "1")
    assert code == 0 and "H(X1 X5)" in report["constraint"]
    path = write(tmp_path, report["constraint"])
    code, refuted = run(capsys, "refute", "--file", path, "--budget", "s=1,D=1")
    assert code == 2 and refuted["constraint"] == report["constraint"]


PATH_ACCESS = ("--participants", "4", "--access", "1,2;2,3;3,4")


def write_path_scheme(tmp_path) -> str:
    """Stinson's decomposition scheme for the path 1-2-3-4, from a [4,2] MDS
    code over GF(3): uniform over (x, y, r, t, u, w) in GF(3)^6, with the
    shares X1..X4 and the secret X5 = (x, y) in `secret-share`'s order.
    Checks that the shares hold 2, 3, 3 and 2 and the secret 2 units of
    log2 3, from the marginals' uniform supports."""
    rows = [(r + 3 * t, (x + r) % 3 + 3 * ((y + t) % 3) + 9 * u,
             (x + u) % 3 + 3 * ((y + w) % 3) + 9 * t, u + 3 * w, x + 3 * y)
            for x, y, r, t, u, w in product(range(3), repeat=6)]
    assert len(set(rows)) == 729
    for column, size in enumerate((9, 27, 27, 9, 9)):
        counts = Counter(row[column] for row in rows)
        assert sorted(counts) == list(range(size))
        assert set(counts.values()) == {729 // size}
    lines = ["vars 9 27 27 9 9", *(" ".join(map(str, row)) + " 1/729" for row in rows)]
    return write(tmp_path, "\n".join(lines) + "\n", "path.dist")


@pytest.mark.parametrize("ratio,proved", [("3/2", True), ("8/5", False)])
def test_path_access_structure_is_pinned_at_three_halves(capsys, tmp_path, ratio, proved):
    """The path on four participants has optimal information ratio 3/2:
    the tight stage proves the bound 3/2, and the scheme above, at ratio
    3/2, falsifies the bound 8/5, which the default budget cannot."""
    code, report = run(capsys, "secret-share", *PATH_ACCESS, "--ratio", ratio, "--prove")
    assert (code, report["status"]) == ((0, "proved") if proved else (2, "inconclusive"))
    code, report = run(capsys, "secret-share", *PATH_ACCESS, "--ratio", ratio)
    constraint = write(tmp_path, report["constraint"])
    code, report = run(capsys, "check-dist", "--file", write_path_scheme(tmp_path),
                       "--constraint", constraint)
    assert (code, report["holds"]) == ((0, True) if proved else (1, False))


@pytest.mark.parametrize("ante,implication", [
    ((), "I(X;Y) = 0"),
    (("--ante", "X;Y|Z", "--ante", "X;Z"), "I(X;Y|Z) = 0 and I(X;Z) = 0 => I(X;Y) = 0"),
])
def test_ci_prove_states_the_implication(capsys, ante, implication):
    code, report = run(capsys, "ci", "prove", "--vars", "X Y Z", *ante, "--cons", "X;Y")
    assert report["implication"] == implication
    assert (code, report["status"]) == ((cli.EXIT_POSITIVE, "proved") if ante
                                        else (cli.EXIT_INCONCLUSIVE, "inconclusive"))


def test_tight_stage_note_gives_the_least_relaxation(capsys):
    for participants, access, ratio, epsilon, p in (("3", "1,2;2,3", "3/2", "1/4", 4),
                                                    ("2", "1,2", "2", "1/2", 2)):
        code, report = run(capsys, "secret-share", "--participants", participants,
                           "--access", access, "--ratio", ratio, "--prove")
        assert code == 2
        assert report["status"] == "inconclusive"
        assert report["note"] == (f"least relaxation eps* = {epsilon}: certificates exist "
                                  f"for p <= {p} and for no larger p")


def test_tight_stage_note_when_no_p_has_a_certificate(capsys, tmp_path):
    # on a polymatroid with h(X) = h(XY) = 1 the relaxation reads eps - 2
    path = write(tmp_path, "[H(X) - H(XY) >= 0] => -2*H(X) >= 0\n")
    code, report = run(capsys, "reduce", "--regime", "tight", "--file", path)
    assert code == 2
    assert report["clauses"][0]["note"] == "least relaxation eps* = 2: no p >= 1 has a certificate"


def test_prove_notes_every_inconclusive_stage(capsys):
    _, report = run(capsys, "prove", "--file", str(fixture("kaced_romashchenko_ci").path))
    assert report["clauses"][1]["note"] == (
        "no multiplier reduction at this generator set; least relaxation eps* = 1/4: "
        "certificates exist for p <= 4 and for no larger p; no counterexample in budget")


@pytest.mark.parametrize("regime", ["auto", "slack", "max"])
def test_reduce_regimes_with_multipliers_refute(capsys, regime):
    path = str(fixture("false_max_nonneg").path)
    code, report = run(capsys, "reduce", "--regime", regime, "--file", path,
                       "--budget", "s=2,D=2")
    assert code == 1
    assert report["clauses"][0]["method"] == "counterexample-search"


@pytest.mark.parametrize("argv", [
    ["prove", "--file", str(fixture("kaced_romashchenko_ci").path)],
    ["secret-share", "--participants", "2", "--access", "1,2", "--prove"],
])
def test_empty_schedule_exits_3(capsys, argv):
    """The p-schedule is gone, so its flag is an input error, empty or not."""
    assert cli.main([*argv, "--schedule", "p="]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["prove", "--file", str(fixture("kopparty_rossman_max").path), "--lambda-max", "8"],
    ["reduce", "--file", str(fixture("kaced_romashchenko_ci").path), "--schedule", "p=1"],
    ["reduce", "--file", str(fixture("kopparty_rossman_max").path), "--lambda-max", "8"],
    ["ci", "falsify", "--vars", "X Y", "--cons", "X;Y", "--workers", "1"],
])
def test_removed_flags_exit_3(capsys, argv):
    """The lambda cap and the p-schedule are gone: the max stage solves for
    its multipliers and the tight stage for eps* directly.  `ci falsify`
    scans serially, with no worker pool."""
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Every declared option is read by its subcommand
# ---------------------------------------------------------------------------

class ReadRecorder(argparse.Namespace):
    """A namespace that remembers which attributes were read."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_every_declared_option_is_read(capsys, tmp_path):
    corpus_dir = fixture("false_mono_flip").path.parent
    mono = str(corpus_dir / "false_mono_flip.iic")
    dist = write(tmp_path, "vars 2\n0 1/2\n1 1/2\n", "bit.dist")
    bit = write(tmp_path, "H(X) >= 0\n", "bit.iic")
    cand = write(tmp_path, "X 2 1 1\n", "cand.txt")
    shannon3 = write(tmp_path, "I(X;Y|Z) >= 0\n", "shannon3.iic")
    ci = ["--vars", "X Y Z", "--ante", "X;Y", "--cons", "X;Y|Z"]
    runs = {
        "prove": [["--file", mono, "--budget", "s=2,D=2"]],
        "refute": [["--file", mono, "--budget", "s=2,D=2"]],
        "reduce": [["--file", mono, "--budget", "s=2,D=2"]],
        # each verb only the options it reads: it rejects the others
        "ci": [["prove", *ci, "--extra-gens", shannon3],
               ["falsify", *ci, "--domain", "2", "--denominator", "2"],
               ["export", *ci, "--domain", "2"]],
        "recognize": [["--file", cand, "--budget", "s=2,D=2"]],
        "corpus": [["--show", "agm_triangle"]],
        "secret-share": [["--participants", "1", "--access", "1", "--prove"]],
        "check-dist": [["--file", dist, "--constraint", bit]],
    }
    parser = cli.build_parser()
    subs = _subparsers(parser)
    assert set(runs) == set(subs)
    for command, variants in runs.items():
        declared = {a.dest for a in subs[command]._actions
                    if not isinstance(a, argparse._HelpAction)}
        read: set = set()
        for extra in variants:
            args = parser.parse_args([command, *extra], namespace=ReadRecorder())
            args._reads = set()
            assert args.func(args) != cli.EXIT_USAGE
            # each option given is read by the run it is given to, not only by
            # some other variant of the command
            given = {a.dest for a in subs[command]._actions if set(a.option_strings) & set(extra)}
            assert given <= args._reads, (command, extra)
            read |= args._reads
        capsys.readouterr()
        assert declared - read == set(), command
