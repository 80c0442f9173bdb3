"""Command-line front end.

Subcommands: prove, refute, reduce, ci, recognize, corpus, secret-share,
check-dist.  Reports are canonical JSON by default (``--text`` for a
human-readable digest).  Exit codes:

    0  conclusive positive (proved / realized)
    1  conclusive negative (refuted / rejected)
    2  inconclusive or budget exhausted
    3  usage or input error

Each subcommand declares its options once, as the rows of its option
table in `COMMANDS`, and two readers share the table.  `parse_exact` is
the one exact reader: it reads a well-formed argv from the table
directly, that is exact long options, each value in a token of its own
that does not start with "-", ints that `core.read_int` reads, values
among the choices, every required option and at most one positional.
Everything it declines goes to the one argparse tree, `build_parser`,
to which `_add_options` declares the same rows: `-h`, abbreviated
options, `--opt=value`, `--`, negative numbers and every usage error.
argparse alone writes help, usage and error text.  The tree is built
once per process, and only this path imports argparse.

Every clause decision goes through `decide_clause`, which runs an
ordered list of stages until one concludes, over the clause's antecedents
without the provably valid ones (`decide_constraint` drops those once per
distinct antecedent tuple):

    multiplier  one exact LP: for a single consequent, its multipliers
                over the kept antecedents (the plain generator cone when
                none is kept); for a max clause, consequent weights
                lambda summing to 1 as well, reported as primitive
                integers; the same LP's other multipliers, scaled
                alike, certify sum(lambda_i c_i)
    tight       when every kept antecedent is tight, one LP for eps*,
                the least eps with a certificate for
                sum(lambda_i c_i) + eps h([n]) - q sum(kept); eps* = 0
                gives the multiplier stage's proof, eps* > 0 is
                inconclusive, and its note names the p = 1/eps up to
                which certificates exist
    refute      the budgeted counterexample search; its pmf scan
                evaluates the kept antecedents only, since each dropped
                one has a verified proof

``prove`` runs all three; ``secret-share --prove`` runs ``tight``;
``reduce --regime`` selects a sub-list: ``auto`` runs all three,
``slack`` and ``max`` run multiplier then refute (``slack`` also reports
a joint-slack witness when the budget finds one), ``tight`` runs tight.
An inconclusive clause carries the method of its first stage and the
notes of every stage that ran.  Every proof is re-checked by
`shannon.verify` before it is reported, as is the proof of each
antecedent that is dropped as valid; a certificate that fails the check
leaves its stage inconclusive, with a note that names the check.

"Not proved" never claims invalidity: it means the search concluded
nothing at the configured generator set and budgets.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from math import floor
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

from .apps import corpus, fixture, secret_sharing_constraint
from .ci import CIStatement, ci_prove, export_delta, parse_ci, to_clause
from .core import (BooleanConstraint, Clause, LinExpr, Value, check_var_count, entropy_terms,
                   log_sum_text, read_fraction, read_int)
from .parser import (ParseError, _split_var_token, format_clause, format_constraint,
                     parse_constraint)
from .reductions import (PreparedAntecedents, chain_rule_certificate, elemental_index,
                         max_to_linear, prepare_antecedents, tight_reduction)
from .refuter import DISTRIBUTION, Budget, Counterexample, refute, violation
from .shannon import (GeneratorSet, ProofCertificate, TIGHT, classify_tight, elemental,
                      joint_slack, prove, verify)

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

class FalseGenerator(ValueError):
    """An extra generator file that the refuter falsified."""

    def __init__(self, path: str, counterexample: Counterexample):
        super().__init__(f"extra generator file {path} is not valid: inequality "
                         f"{counterexample.clause_index} fails on the counterexample")
        self.counterexample = counterexample


def load_generators(n: int, extra_files: list[str]) -> GeneratorSet:
    """The elemental set plus each file's inequalities, once the default
    budget's counterexample search finds no distribution violating them.
    A file of multiples of Shannon quantities needs no search: each of its
    inequalities has a chain-rule certificate that `verify` accepts."""
    gens = elemental(n)
    for path in extra_files:
        text = Path(path).read_text()
        constraint = parse_constraint(text)
        if constraint.n != n:
            raise ValueError(f"extra generator file {path} has {constraint.n} variables, expected {n}")
        if any(c.antecedents or len(c.consequents) != 1 for c in constraint.clauses):
            raise ValueError(f"extra generators must be plain inequalities: {path}")
        index = elemental_index(gens)
        if not all((cert := chain_rule_certificate(c.consequents[0], gens, index)) is not None
                   and verify(cert, c.consequents[0], gens) for c in constraint.clauses):
            refutation = refute(constraint, Budget())
            if refutation.found:
                raise FalseGenerator(path, refutation.counterexample)
        for i, clause in enumerate(constraint.clauses):
            name = Path(path).stem if len(constraint.clauses) == 1 else f"{Path(path).stem}#{i}"
            gens = gens.with_user(clause.consequents[0], name,
                                  f"user-supplied valid inequality from {path}")
    return gens


# ---------------------------------------------------------------------------
# Clause-level proving pipeline
# ---------------------------------------------------------------------------

class ClauseOutcome(Value):
    """One clause's verdict.  Its `detail` is a dict, so it has no hash."""

    __slots__ = ("status", "method", "detail", "kept")

    def __init__(self, status: str, method: str, detail: dict,
                 kept: tuple[LinExpr, ...] = ()):
        self.status = status  # "proved" | "refuted" | "inconclusive"
        self.method, self.detail = method, detail
        self.kept = kept  # the antecedents the stages worked with


def _refuted(counterexample: Counterexample) -> ClauseOutcome:
    return ClauseOutcome("refuted", "counterexample-search",
                         {"counterexample": counterexample.to_json()})


def _unverified(method: str, cert: "ProofCertificate | None", target: LinExpr,
                kept: tuple[LinExpr, ...], gens: GeneratorSet) -> "ClauseOutcome | None":
    """The inconclusive outcome of a certificate that `verify` rejects for
    the target (or that is missing), else None: no proof is reported
    before it is re-checked."""
    if cert is not None and verify(cert, target, gens, kept):
        return None
    return ClauseOutcome("inconclusive", method, {
        "note": f"the {method} certificate fails verify"})


def _multiplier_stage(clause: Clause, prepared: PreparedAntecedents, gens: GeneratorSet,
                      budget: Budget) -> ClauseOutcome:
    """One multiplier LP for a single consequent (the plain generator cone
    when no antecedent is kept); the max-to-linear LP for a max clause.
    Each proof is re-checked by `verify` before it is reported."""
    kept = prepared.kept
    if len(clause.consequents) > 1:
        result = max_to_linear(clause, kept, gens)
        if result is None:
            return ClauseOutcome("inconclusive", "max-to-linear", {
                "note": "no multipliers at this generator set"})
        if any(v < 0 for v in result.lambdas) or not any(result.lambdas):
            return ClauseOutcome("inconclusive", "max-to-linear", {
                "note": "the max-to-linear lambdas fail the check: each >= 0, not all 0"})
        target = LinExpr.zero(clause.n)
        for weight, c in zip(result.lambdas, clause.consequents):
            target = target + c.scale(weight)
        return _unverified("max-to-linear", result.certificate, target, kept, gens) or \
            ClauseOutcome("proved", "max-to-linear", {
                "lambdas": [str(v) for v in result.lambdas],
                "certificate": result.certificate.to_json(gens)})
    cert = prove(clause.consequents[0], gens, antecedents=kept)
    if cert is None:
        if kept:
            return ClauseOutcome("inconclusive", "conditional", {
                "note": "no multiplier reduction at this generator set"})
        return ClauseOutcome("inconclusive", "generator-cone", {
            "note": "not provable at this generator set"})
    method = "direct-lambda" if kept else "generator-cone"
    lambdas = {"lambdas": [str(m) for m in cert.antecedent_multipliers]} if kept else {}
    return _unverified(method, cert, clause.consequents[0], kept, gens) or \
        ClauseOutcome("proved", method, {**lambdas, "certificate": cert.to_json(gens)})


def _tight_stage(clause: Clause, prepared: PreparedAntecedents, gens: GeneratorSet,
                 budget: Budget) -> ClauseOutcome:
    """The least relaxation eps*, run only when every kept antecedent is
    tight.  A kept antecedent whose negation was pruned as valid is tight
    without a second proof."""
    kept = prepared.kept
    note = None
    if not kept:
        note = "no antecedent survives pruning; the tight stage needs one"
    for a in kept:
        verdict = TIGHT if -a in prepared.valid else classify_tight(a, gens, budget)
        if verdict != TIGHT:
            note = (f"antecedent {clause.antecedents.index(a)} not verified tight "
                    f"(classified {verdict})")
            break
    if note is None:
        epsilon = tight_reduction(clause, kept, gens)
        if epsilon == 0:
            return _multiplier_stage(clause, prepared, gens, budget)
        p = floor(1 / epsilon)
        note = f"least relaxation eps* = {epsilon}: " + (
            f"certificates exist for p <= {p} and for no larger p" if p
            else "no p >= 1 has a certificate")
    return ClauseOutcome("inconclusive", "tight-relaxation", {"note": note})


def _refute_stage(clause: Clause, prepared: PreparedAntecedents, gens: GeneratorSet,
                  budget: Budget) -> ClauseOutcome:
    """Counterexample search for the clause, single or max."""
    result = refute(clause, budget, prepared.valid)
    if result.found:
        return _refuted(result.counterexample)
    return ClauseOutcome("inconclusive", "counterexample-search",
                         {"note": "no counterexample in budget"})


STAGES = {"multiplier": _multiplier_stage, "tight": _tight_stage, "refute": _refute_stage}
PROVE_STAGES = ("multiplier", "tight", "refute")
REGIME_STAGES = {"auto": PROVE_STAGES, "slack": ("multiplier", "refute"),
                 "max": ("multiplier", "refute"), "tight": ("tight",)}


def decide_clause(clause: Clause, prepared: PreparedAntecedents, gens: GeneratorSet,
                  budget: Budget, stages: tuple[str, ...] = PROVE_STAGES) -> ClauseOutcome:
    """Run the named stages in order on one clause, over its antecedents
    without the provably valid ones (`prepare_antecedents`); the first
    conclusive outcome wins.  An inconclusive outcome carries the method
    of the leading stage and the notes of every stage, in order."""
    inconclusive = []
    for name in stages:
        outcome = STAGES[name](clause, prepared, gens, budget)
        if outcome.status != "inconclusive":
            return ClauseOutcome(outcome.status, outcome.method, outcome.detail, prepared.kept)
        inconclusive.append(outcome)
    note = "; ".join(o.detail["note"] for o in inconclusive)
    return ClauseOutcome("inconclusive", inconclusive[0].method, {"note": note}, prepared.kept)


def decide_constraint(constraint: BooleanConstraint, gens: GeneratorSet, budget: Budget,
                      stages: tuple[str, ...] = PROVE_STAGES) -> tuple[str, list[ClauseOutcome]]:
    # clauses split from one equality consequent share their antecedents,
    # so the valid ones are dropped once per distinct antecedent tuple
    prepared: dict[tuple[LinExpr, ...], PreparedAntecedents] = {}
    outcomes = []
    for clause in constraint.clauses:
        if clause.antecedents not in prepared:
            prepared[clause.antecedents] = prepare_antecedents(clause.antecedents, gens)
        outcomes.append(decide_clause(clause, prepared[clause.antecedents], gens, budget, stages))
    if any(o.status == "refuted" for o in outcomes):
        return "refuted", outcomes
    if all(o.status == "proved" for o in outcomes):
        return "proved", outcomes
    return "inconclusive", outcomes


def _clause_entry(clause: Clause, outcome: ClauseOutcome) -> dict:
    return {"clause": format_clause(clause), "status": outcome.status,
            "method": outcome.method, **outcome.detail}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def write_out(text: str) -> None:
    """Write command output to stdout.  A reader that closed stdout early
    does not turn the verdict into an error: stdout is pointed at the null
    device, so neither this write nor the flush at exit raises, and the
    command returns its own exit code (the recipe of the Python `signal`
    docs, "Note on SIGPIPE")."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def emit(report: dict, as_text: bool) -> None:
    """Print the report, as indented JSON or as `key: value` lines."""
    if as_text:
        write_out("".join(line + "\n" for line in _text_lines(report)))
    else:
        write_out(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _text_lines(report: dict, indent: int = 0) -> Iterator[str]:
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            yield f"{pad}{key}:"
            yield from _text_lines(value, indent + 1)
        elif isinstance(value, list):
            yield f"{pad}{key}: {json.dumps(value)}"
        else:
            yield f"{pad}{key}: {value}"


_STATUS_EXIT = {"proved": EXIT_POSITIVE, "realized": EXIT_POSITIVE,
                "refuted": EXIT_NEGATIVE, "rejected": EXIT_NEGATIVE,
                "inconclusive": EXIT_INCONCLUSIVE}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _one_process(workers: int) -> None:
    if workers != 1:
        raise ValueError(f"--workers {workers}: the counterexample search runs in one "
                         f"process, so only --workers 1 is accepted")


def cmd_prove(args) -> int:
    _one_process(args.workers)
    constraint = parse_constraint(Path(args.file).read_text())
    budget = Budget.parse(args.budget)
    gens = load_generators(constraint.n, args.extra_gens)
    status, outcomes = decide_constraint(constraint, gens, budget)
    report = {
        "command": "prove",
        "constraint": format_constraint(constraint),
        "status": status,
        "clauses": [_clause_entry(c, o) for c, o in zip(constraint.clauses, outcomes)],
    }
    emit(report, args.text)
    return _STATUS_EXIT[status]


def cmd_refute(args) -> int:
    _one_process(args.workers)
    constraint = parse_constraint(Path(args.file).read_text())
    budget = Budget.parse(args.budget)
    result = refute(constraint, budget)
    report = {"command": "refute", "constraint": format_constraint(constraint),
              **result.to_json()}
    if result.found and args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        hit = result.counterexample
        witness_path = out / ("counterexample." + ("dist" if hit.source == DISTRIBUTION else "vs"))
        witness_path.write_text(hit.witness.to_file_text())
        report["witness_file"] = str(witness_path)
    emit(report, args.text)
    return EXIT_NEGATIVE if result.found else EXIT_INCONCLUSIVE


def cmd_reduce(args) -> int:
    constraint = parse_constraint(Path(args.file).read_text())
    budget = Budget.parse(args.budget)
    gens = load_generators(constraint.n, args.extra_gens)
    status, outcomes = decide_constraint(constraint, gens, budget, REGIME_STAGES[args.regime])
    entries = []
    for clause, outcome in zip(constraint.clauses, outcomes):
        entry = {**_clause_entry(clause, outcome), "regime": args.regime}
        if args.regime == "slack":
            witness = joint_slack(outcome.kept, budget)
            if witness is not None:
                entry["slack_witness"] = witness.describe()
        entries.append(entry)
    emit({"command": "reduce", "constraint": format_constraint(constraint),
          "status": status, "clauses": entries}, args.text)
    return _STATUS_EXIT[status]


# the options that each `ci` verb does not read; a parse leaves them None
# or empty, so a verb's defaults apply only to the verbs that read them
_CI_UNREAD = {"prove": ("--domain", "--denominator"),
              "falsify": ("--extra-gens",),
              "export": ("--denominator", "--extra-gens")}


def _ci_parts(args) -> tuple[list[CIStatement], CIStatement, int, list[str]]:
    # an option that the verb does not read fails before any input is read
    for flag in _CI_UNREAD[args.verb]:
        if getattr(args, flag[2:].replace("-", "_")) not in (None, []):
            raise ValueError(f"ci {args.verb} does not read {flag}")
    names = args.vars.split()
    if not names:
        raise ValueError("--vars must list the variable names")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"duplicate variable name {name!r} in --vars")
        if _split_var_token(name) != [name]:
            raise ValueError(f"--vars name {name!r} is two or more capitals, which a "
                             f"statement reads as one variable per letter")
    antecedents = [parse_ci(a, names) for a in args.ante]
    consequent = parse_ci(args.cons, names)
    # `prove` and `falsify` reject it later, and `export` at --domain 1 never
    check_var_count(len(names))
    return antecedents, consequent, len(names), names


def cmd_ci(args) -> int:
    antecedents, consequent, n, names = _ci_parts(args)
    if args.verb == "prove":
        gens = load_generators(n, args.extra_gens)
        cert = ci_prove(antecedents, consequent, n, gens)
        implication = consequent.label(names) + " = 0"
        if antecedents:
            implication = (" and ".join(a.label(names) + " = 0" for a in antecedents)
                           + " => " + implication)
        report = {"command": "ci prove", "status": "inconclusive", "implication": implication}
        if cert is not None:
            failed = _unverified("ci prove", cert, -consequent.expr(n),
                                 [-a.expr(n) for a in antecedents], gens)
            report.update(failed.detail if failed is not None
                          else {"status": "proved", "certificate": cert.to_json(gens)})
        emit(report, args.text)
        return _STATUS_EXIT[report["status"]]
    domain = _DEFAULT_BUDGET.max_support if args.domain is None else args.domain
    if args.verb == "falsify":
        denominator = (_DEFAULT_BUDGET.max_denominator if args.denominator is None
                       else args.denominator)
        result = refute(to_clause(antecedents, consequent, n), Budget(domain, denominator))
        emit({"command": "ci falsify", **result.to_json()}, args.text)
        return EXIT_NEGATIVE if result.found else EXIT_INCONCLUSIVE
    write_out(export_delta(antecedents, consequent, n, domain))
    return EXIT_POSITIVE


def cmd_recognize(args) -> int:
    from .recognizer import CandidateRepr, check_candidate  # no other command needs it
    repr_ = CandidateRepr.from_file_text(Path(args.file).read_text())
    budget = Budget.parse(args.budget)
    if budget.vs_primes or budget.vs_max_dim:
        raise ValueError("recognize searches distributions only: "
                         "its budget takes s and D, not vsdim or vsq")
    gens = load_generators(repr_.n, args.extra_gens)
    result = check_candidate(repr_, gens, budget)
    report = {"command": "recognize", **result.to_json()}
    emit(report, args.text)
    return _STATUS_EXIT[result.verdict]


def cmd_corpus(args) -> int:
    if args.show is not None:
        fx = fixture(args.show)
        emit({"command": "corpus", "name": fx.name, "file": str(fx.path),
              "expected_verdict": fx.expected_verdict, "notes": fx.notes,
              "budget": Budget.parse(fx.budget).describe(),
              "source": fx.source, "parsed": format_constraint(fx.constraint)}, args.text)
        return EXIT_POSITIVE
    emit({"command": "corpus",
          "fixtures": [{"name": f.name, "expected_verdict": f.expected_verdict,
                        "file": f.path.name} for f in corpus()]}, args.text)
    return EXIT_POSITIVE


def cmd_secret_share(args) -> int:
    # the closure below walks the 2^participants - 1 participant sets, so
    # the variable count is checked before it (below one participant,
    # `secret_sharing_constraint` says so)
    m = args.participants
    check_var_count(max(m, 0) + 1)
    family = set()
    for part in args.access.split(";"):
        part = part.strip()
        if part:
            family.add(frozenset(read_int(v) for v in part.replace(",", " ").split()))
    # close upward for convenience: every participant set that contains a
    # written set (none below one participant, which the library rejects).
    # The written sets stay as written, so the library's checks name the
    # sets the user wrote
    closed = set(family)
    for bits in range(1, 1 << max(m, 0)):
        g = frozenset(i + 1 for i in range(m) if (bits >> i) & 1)
        if any(f <= g for f in family):
            closed.add(g)
    constraint = secret_sharing_constraint(m, closed, read_fraction(args.ratio))
    report = {"command": "secret-share",
              "participants": m,
              "ratio": args.ratio,
              "access_structure": sorted(sorted(f) for f in closed),
              "constraint": format_constraint(constraint)}
    exit_code = EXIT_POSITIVE
    if args.prove:
        _, (outcome,) = decide_constraint(constraint, elemental(constraint.n), Budget(),
                                          REGIME_STAGES["tight"])
        report.update(status=outcome.status, **outcome.detail)
        exit_code = _STATUS_EXIT[outcome.status]
    emit(report, args.text)
    return exit_code


def cmd_check_dist(args) -> int:
    from .distributions import Distribution
    dist = Distribution.from_file_text(Path(args.file).read_text())
    entropies = {}
    for mask in range(1, 1 << dist.n):
        counts = [count for _, count in dist.marginal_counts(mask)]
        entropies[f"h({mask})"] = log_sum_text(entropy_terms(1, dist.total, counts))
    report = {"command": "check-dist", "n": dist.n, "entropies": entropies}
    exit_code = EXIT_POSITIVE
    if args.constraint:
        constraint = parse_constraint(Path(args.constraint).read_text())
        if constraint.n != dist.n:
            raise ValueError("constraint and distribution disagree on variable count")
        clause_reports = []
        all_hold = True
        for clause in constraint.clauses:
            ok = violation(BooleanConstraint(dist.n, (clause,)), DISTRIBUTION, dist,
                           traced=False) is None
            all_hold = all_hold and ok
            clause_reports.append({"clause": format_clause(clause), "holds": ok})
        report["clauses"] = clause_reports
        report["holds"] = all_hold
        exit_code = EXIT_POSITIVE if all_hold else EXIT_NEGATIVE
    emit(report, args.text)
    return exit_code


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class Option(NamedTuple):
    """One row of a subcommand's option table: a long option, or the
    positional argument `flag` when it has no leading dashes."""

    flag: str
    dest: str
    action: str = "store"  # store, store_true, store_false or append
    type: "Callable[[str], object] | None" = None
    choices: "tuple[str, ...] | None" = None
    default: object = None
    required: bool = False
    help: "str | None" = None


_FORMAT = (Option("--text", "text", "store_true", default=False, help="human-readable output"),
           Option("--json", "text", "store_false", default=True, help="JSON output (default)"))
_BUDGET = Option("--budget", "budget", default="",
                 help="search budget, e.g. s=3,D=6,vsdim=3,vsq=2,3")
_WORKERS = Option("--workers", "workers", type=read_int, default=1,
                  help="only 1: the counterexample search runs in one process")
_FILE = Option("--file", "file", required=True)
_EXTRA_GENS = Option("--extra-gens", "extra_gens", "append", default=[])
# `ci falsify` and `ci export` take their --domain and --denominator defaults from it
_DEFAULT_BUDGET = Budget()

# subcommand -> (its help line, the function that runs it, its options in
# the order argparse declares them)
COMMANDS = {
    "prove": ("prove a constraint file", cmd_prove, (
        *_FORMAT, _BUDGET, _WORKERS, _FILE,
        _EXTRA_GENS._replace(help="file of additional valid inequalities; a file the "
                                  "default-budget counterexample search falsifies is an "
                                  "input error"))),
    "refute": ("search for a counterexample", cmd_refute, (
        *_FORMAT, _BUDGET, _WORKERS, _FILE,
        Option("--out", "out", help="directory for the counterexample witness file"))),
    "reduce": ("run a sub-list of the prove stages and report it", cmd_reduce, (
        *_FORMAT, _BUDGET, _FILE,
        Option("--regime", "regime", choices=("auto", "tight", "slack", "max"), default="auto"),
        _EXTRA_GENS)),
    "ci": ("conditional-independence implication tools", cmd_ci, (
        *_FORMAT,
        Option("verb", "verb", choices=("prove", "falsify", "export")),
        Option("--vars", "vars", required=True, help="variable names, e.g. 'X Y Z'"),
        Option("--ante", "ante", "append", default=[],
               help="antecedent statement 'Y;Z|X' (repeatable)"),
        Option("--cons", "cons", required=True, help="consequent statement"),
        _EXTRA_GENS._replace(help="file of additional valid inequalities (prove only)"),
        Option("--domain", "domain", type=read_int,
               help=f"domain size per variable (falsify and export; "
                    f"default {_DEFAULT_BUDGET.max_support})"),
        Option("--denominator", "denominator", type=read_int,
               help=f"probability denominator cap (falsify only; "
                    f"default {_DEFAULT_BUDGET.max_denominator})"))),
    "recognize": ("recognize a candidate vector file", cmd_recognize, (
        *_FORMAT, _BUDGET, _FILE, _EXTRA_GENS)),
    "corpus": ("list or show bundled fixtures", cmd_corpus, (
        *_FORMAT, Option("--show", "show", help="fixture name to display"))),
    "secret-share": ("emit the information-ratio constraint", cmd_secret_share, (
        *_FORMAT,
        Option("--participants", "participants", type=read_int, required=True),
        Option("--access", "access", required=True,
               help="qualified sets, e.g. '1,2;1,3' (closed upward automatically)"),
        Option("--ratio", "ratio", default="1", help="claimed information-ratio lower bound"),
        Option("--prove", "prove", "store_true", default=False, help="run the tight stage"))),
    "check-dist": ("entropies of a distribution file", cmd_check_dist, (
        *_FORMAT, _FILE,
        Option("--constraint", "constraint", help="optional constraint file to evaluate"))),
}


def parse_exact(name: str, argv: list[str]) -> "SimpleNamespace | None":
    """The namespace that argparse gives for `infoineq NAME ARGV`, or None
    for argparse to decide.  Accepted are exact long options, each value in
    a token of its own that does not start with "-", ints that convert,
    values among the choices, every required option, and at most one
    positional; abbreviations, `--opt=value`, `--`, `-h`, negative
    numbers and every usage error are argparse's."""
    _, func, options = COMMANDS[name]
    values: dict = {}
    for opt in options:
        values.setdefault(opt.dest, opt.default)
    flags = {opt.flag: opt for opt in options if opt.flag.startswith("--")}
    positionals = [opt for opt in options if opt.flag not in flags]
    seen = set()
    tokens = iter(argv)
    for token in tokens:
        if token.startswith("-"):
            opt = flags.get(token)
            if opt is None:
                return None
            seen.add(token)
            if opt.action in ("store_true", "store_false"):
                values[opt.dest] = opt.action == "store_true"
                continue
            token = next(tokens, None)
            if token is None or token.startswith("-"):
                return None
        elif positionals:
            opt = positionals.pop(0)
        else:
            return None
        value = token
        if opt.type is not None:
            try:
                value = opt.type(token)
            except ValueError:
                return None
        if opt.choices is not None and value not in opt.choices:
            return None
        # a fresh list, as argparse's, so the table's default stays empty
        values[opt.dest] = [*values[opt.dest], value] if opt.action == "append" else value
    if positionals or any(opt.required and flag not in seen for flag, opt in flags.items()):
        return None
    return SimpleNamespace(**values, func=func)


def _add_options(parser, name: str) -> None:
    """Declare NAME's option table to an argparse parser, row by row.  A
    keyword goes only where the row departs from argparse's own default,
    and a positional takes neither `dest` nor `required`."""
    _, func, options = COMMANDS[name]
    for opt in options:
        kwargs: dict = {"action": opt.action}
        if opt.flag.startswith("--"):
            kwargs["dest"] = opt.dest
            if opt.required:
                kwargs["required"] = True
        for key in ("type", "choices", "default", "help"):
            if getattr(opt, key) is not None:
                kwargs[key] = getattr(opt, key)
        parser.add_argument(opt.flag, **kwargs)
    parser.set_defaults(func=func)


@functools.cache
def build_parser() -> "argparse.ArgumentParser":
    """The whole argparse tree, for every argv that `parse_exact`
    declines: help, abbreviations and usage errors.  It is built once and
    shared by every later call in the process, so commands must not
    mutate the list-valued fields of their namespace: argparse hands out
    the option table's `default=[]` objects themselves."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="infoineq",
        description="prove, refute, and transform Boolean constraints on entropic vectors")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, _, _) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_), name)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_exact(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    if args is None:  # help, abbreviations and usage errors are argparse's
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(json.dumps({"error": exc.message,
                          "line": exc.span.line, "column": exc.span.column}),
              file=sys.stderr)
        return EXIT_USAGE
    except FalseGenerator as exc:
        print(json.dumps({"error": str(exc), "counterexample": exc.counterexample.to_json()}),
              file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, KeyError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
