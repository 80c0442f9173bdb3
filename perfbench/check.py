"""Known-answer gate: is a report's verdict the expected one, and does
every artefact it offers hold up?

* certificates are re-checked with `ProofCertificate.from_json` and
  `shannon.verify`, against a target rebuilt from the input;
* counterexample witnesses are re-evaluated with the benchmark's own exact
  entropy code (`entropy.py`), never the program's sign test.

`digest` condenses the parts of a report that must stay byte-identical
across commits: verdict, certificates and the first counterexample.
`judge` applies all of this to one decided input.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import entropy
from gen import cmi

# manifest verdict -> (status, exit code) at the elemental generator set
MANIFEST_ANSWER = {
    "provable": ("proved", 0),
    "refutable": ("refuted", 1),
    "not-provable-at-elemental": ("inconclusive", 2),
    "tight-needs-extra-generators": ("inconclusive", 2),
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def input_digest(argv: list, files: dict) -> str:
    return _sha([argv, files])


def digest(report: dict, exit_code: int) -> str:
    def witness(cx):
        return cx and {k: cx[k] for k in ("source", "witness", "clause_index")}

    clauses = [{k: c[k] for k in ("status", "certificate", "lambdas", "steps",
                                  "consequent_index") if k in c}
               for c in report.get("clauses", [])]
    first = report.get("counterexample")
    if first is None:
        first = next((c["counterexample"] for c in report.get("clauses", [])
                      if "counterexample" in c), None)
    return _sha({"exit": exit_code, "status": report.get("status"),
                 "found": report.get("found"), "certificate": report.get("certificate"),
                 "clauses": clauses, "counterexample": witness(first)})


# ---------------------------------------------------------------------------
# Artefact checks; each returns a list of problems, empty when all is well
# ---------------------------------------------------------------------------

def clause_dicts(clause) -> tuple[list[dict], list[dict]]:
    return ([dict(a.items) for a in clause.antecedents],
            [dict(c.items) for c in clause.consequents])


def check_witness(cx: dict, clauses: list[tuple[list[dict], list[dict]]]) -> list[str]:
    """The witness satisfies every antecedent and fails every consequent of
    the clause it names, by exact signs."""
    if cx.get("source") != "distribution":
        return [f"unsupported witness source {cx.get('source')!r}"]
    domains, pmf = entropy.parse_dist(cx["witness"])
    h = entropy.entropy_vector(pmf, len(domains))
    ants, cons = clauses[cx["clause_index"]]
    if all(entropy.sign(entropy.evaluate(a, h)) >= 0 for a in ants) and \
            all(entropy.sign(entropy.evaluate(c, h)) < 0 for c in cons):
        return []
    return ["counterexample witness does not violate the clause"]


def _check_certificate(cert_json: dict, target, gens, antecedents=()) -> list[str]:
    from infoineq.shannon import ProofCertificate, verify
    cert = ProofCertificate.from_json(cert_json, gens)
    if cert.target != target:
        return ["certificate proves a different target"]
    if not verify(cert, target, gens, antecedents):
        return ["certificate does not verify"]
    return []


def _check_proved_clause(entry: dict, clause, gens) -> list[str]:
    from infoineq.core import LinExpr
    from infoineq.reductions import prepare_antecedents, tight_target
    kept = prepare_antecedents(clause.antecedents, gens).kept
    if "steps" in entry:
        consequent = clause.consequents[entry["consequent_index"]]
        return [p for step in entry["steps"]
                for p in _check_certificate(step["certificate"],
                                            tight_target(consequent, kept, step["p"], step["q"]),
                                            gens)]
    if "certificate" not in entry:
        return ["proved clause without a certificate"]
    if len(clause.consequents) == 1:
        target = clause.consequents[0]
    else:
        lambdas = [Fraction(v) for v in entry.get("lambdas", [])]
        if len(lambdas) != len(clause.consequents) or min(lambdas) < 0 or max(lambdas) <= 0:
            return ["max clause without a nonnegative nonzero multiplier per disjunct"]
        target = LinExpr.zero(clause.n)
        for lam, c in zip(lambdas, clause.consequents):
            target = target + c.scale(lam)
    return _check_certificate(entry["certificate"], target, gens, kept)


def check_prove_report(report: dict, constraint) -> list[str]:
    from infoineq.shannon import elemental
    gens = elemental(constraint.n)
    entries = report.get("clauses", [])
    if len(entries) != len(constraint.clauses):
        return ["report does not cover every clause"]
    problems = []
    for entry, clause in zip(entries, constraint.clauses):
        if entry["status"] == "proved":
            problems += _check_proved_clause(entry, clause, gens)
        elif entry["status"] == "refuted":
            # each clause is refuted on its own, so the index is within it
            problems += check_witness(entry["counterexample"], [clause_dicts(clause)])
    statuses = [e["status"] for e in entries]
    overall = ("refuted" if "refuted" in statuses else
               "proved" if all(s == "proved" for s in statuses) else "inconclusive")
    if report.get("status") != overall:
        problems.append("overall status disagrees with the clause statuses")
    return problems


def check_ci_report(report: dict, n: int, antecedents: list, consequent) -> list[str]:
    if report.get("status") != "proved":
        return []
    from infoineq.core import LinExpr
    from infoineq.shannon import elemental

    def neg_cmi(st):
        return LinExpr.make(n, {m: -c for m, c in cmi(*st).items()})

    return _check_certificate(report["certificate"], neg_cmi(consequent), elemental(n),
                              [neg_cmi(st) for st in antecedents])


# ---------------------------------------------------------------------------
# The gate for one decided input
# ---------------------------------------------------------------------------

def judge(inp, result: dict, golden: dict) -> dict:
    """failed / ok / identical flags and problems for one decided input."""
    out = {"key": inp.key, "failed": False, "ok": False, "identical": False, "problems": []}
    try:
        report = json.loads(result["stdout"])
    except ValueError:
        report = None
    if result["error"] or result["exit"] in (None, 3) or not isinstance(report, dict):
        out["failed"] = True
        out["problems"].append(result["error"] or result["stderr"][-500:]
                               or "unparsable report")
        return out
    status = report.get("status")
    if status is None and "found" in report:
        status = "refuted" if report["found"] else "inconclusive"
    if (status, result["exit"]) != (inp.expected_status, inp.expected_exit):
        out["problems"].append(f"expected {inp.expected_status}/{inp.expected_exit}, "
                               f"got {status}/{result['exit']}")
    out["problems"] += verify_artefacts(inp, report)
    out["ok"] = not out["problems"]
    recorded = golden.get(inp.key, {})
    out["identical"] = (recorded.get("input") == input_digest(inp.argv, inp.files)
                        and recorded.get("output") == digest(report, result["exit"]))
    return out


def verify_artefacts(inp, report: dict) -> list[str]:
    """Problems with the certificates and witnesses of one report."""
    from infoineq.parser import parse_constraint
    kind = inp.props.get("kind")
    if kind in ("ci-chain", "ci-kr"):
        antecedents, consequent = inp.props["statements"]
        return check_ci_report(report, inp.props["n"], antecedents, consequent)
    constraint = parse_constraint(next(iter(inp.files.values())))
    if inp.expr is not None and [dict(c.items) for c in constraint.clauses[0].consequents] \
            != [inp.expr]:
        return ["the program parsed a different inequality than was generated"]
    if report.get("command") == "refute":
        if not report.get("found"):
            return []
        problems = check_witness(report["counterexample"],
                                 [clause_dicts(c) for c in constraint.clauses])
        planted = inp.props.get("planted_index")
        if planted is not None and report["candidates_scanned"] > planted + 1:
            problems.append("first counterexample lies after the planted pmf")
        return problems
    return check_prove_report(report, constraint)
