"""CI implication: falsification as `refute` of the implication's clause,
the polynomial product-equality system it stands for, and the SMT-LIB
export of that system."""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

import pytest

from infoineq import cli
from infoineq.ci import PolySystem, ProductEquality, build_delta, export_delta, parse_ci, to_clause
from infoineq.core import mask_indices
from infoineq.distributions import cell_outcomes
from infoineq.parser import parse_constraint
from infoineq.refuter import Budget, refute

XYZ = ("X", "Y", "Z")
WEAKENING = ([parse_ci("X;Y|Z", XYZ)], parse_ci("X;Y", XYZ))


def pmf_vector(dist, domain: int) -> list[Fraction]:
    """Dense atom-probability vector of a distribution on [domain]^n: the
    atom index of an outcome is its position among `cell_outcomes`."""
    atoms = {outcome: i for i, outcome in enumerate(cell_outcomes((domain,) * dist.n))}
    vec = [Fraction(0)] * len(atoms)
    for outcome, p in dist.pmf:
        vec[atoms[outcome]] = p
    return vec


def holds(eq, pmf) -> bool:
    """The product equality sum(p[a]) * sum(p[b]) == sum(p[c]) * sum(p[d])."""
    sa, sb, sc, sd = (sum((pmf[i] for i in atoms), Fraction(0))
                      for atoms in (eq.a, eq.b, eq.c, eq.d))
    return sa * sb == sc * sd


def phi_holds(system, pmf) -> bool:
    return all(holds(eq, pmf) for eq in system.antecedent_equalities)


def satisfied_by(system, pmf) -> bool:
    """A pmf satisfying every antecedent equality and failing a consequent one."""
    if len(pmf) != system.unknowns:
        raise ValueError("pmf length must equal the number of atoms")
    if any(p < 0 for p in pmf) or sum(pmf) != 1:
        return False
    return phi_holds(system, pmf) and not all(holds(eq, pmf)
                                              for eq in system.consequent_equalities)


def test_falsifier_finds_a_witness_for_a_false_implication():
    result = refute(to_clause(*WEAKENING, 3), Budget(2, 4))
    assert result.found
    assert result.candidates_scanned == 58


def test_witness_satisfies_the_polynomial_system():
    witness = refute(to_clause(*WEAKENING, 3), Budget(2, 4)) \
        .counterexample.witness
    system = build_delta(*WEAKENING, 3, 2)
    assert satisfied_by(system, pmf_vector(witness, 2))


def test_independent_pmf_does_not_satisfy_the_system():
    system = build_delta(*WEAKENING, 3, 2)
    uniform = [Fraction(1, 8)] * 8
    assert phi_holds(system, uniform)
    assert not satisfied_by(system, uniform)
    with pytest.raises(ValueError):
        satisfied_by(system, uniform[:4])


def test_true_implication_has_no_witness():
    clause = to_clause([parse_ci("X;YZ", XYZ)], parse_ci("X;Y", XYZ), 3)
    result = refute(clause, Budget(3, 3))
    assert not result.found


def test_smt_export_shape():
    text = export_delta(build_delta(*WEAKENING, 3, 2))
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines[0] == "(set-logic QF_NRA)"
    assert [line for line in lines if line.startswith("(declare-const")] \
        == [f"(declare-const p_{i} Real)" for i in range(8)]
    # 8 nonnegativity bounds, the total, 8 antecedent equalities, one negated block
    asserts = [line for line in lines if line.startswith("(assert")]
    assert len(asserts) == 18
    assert asserts[-1].startswith("(assert (or (not (= (*")
    assert lines[-2:] == ["(check-sat)", "(get-model)"]


# ---------------------------------------------------------------------------
# The one-pass build against the per-assignment construction it replaced
# ---------------------------------------------------------------------------

def reference_marginal_atoms(assignment: dict[int, int], n: int, domain: int) -> tuple[int, ...]:
    """Atom indices of all outcomes consistent with a partial assignment,
    enumerating the free variables once per assignment."""
    free = [i for i in range(n) if i not in assignment]
    out = []
    for values in product(range(domain), repeat=len(free)):
        outcome = [0] * n
        for i, v in assignment.items():
            outcome[i] = v
        for i, v in zip(free, values):
            outcome[i] = v
        idx = 0
        for v in outcome:
            idx = idx * domain + v
        out.append(idx)
    return tuple(sorted(out))


def reference_equalities(st, n: int, domain: int) -> list[ProductEquality]:
    y_vars, z_vars, x_vars = (mask_indices(m) for m in (st.y, st.z, st.x))
    out = []
    for xv in product(range(domain), repeat=len(x_vars)):
        for yv in product(range(domain), repeat=len(y_vars)):
            for zv in product(range(domain), repeat=len(z_vars)):
                ax = dict(zip(x_vars, xv))
                axy = ax | dict(zip(y_vars, yv))
                axz = ax | dict(zip(z_vars, zv))
                axyz = axy | dict(zip(z_vars, zv))
                out.append(ProductEquality(*(reference_marginal_atoms(a, n, domain)
                                             for a in (axyz, ax, axy, axz))))
    return out


def reference_delta(antecedents, consequent, n: int, domain: int) -> PolySystem:
    ante = [eq for st in antecedents for eq in reference_equalities(st, n, domain)]
    return PolySystem(n, domain, tuple(ante), tuple(reference_equalities(consequent, n, domain)))


@pytest.mark.parametrize("names,ante,cons,domain", [
    # an empty X in the consequent
    ("X Y Z", ["X;Y|Z"], "X;Y", 2),
    ("X Y Z", [], "X;Z", 3),
    # multi-variable groups, on either side of the conditioning bar
    ("X Y Z W", ["XW;Y"], "X;YZ|W", 3),
    ("A B C D E", ["AB;CD|E", "E;A"], "B;DE|AC", 2),
    # Y and Z of one size with equal values: their groups stay apart
    ("A B C D", ["A;C|BD"], "B;D", 3),
    ("X Y", [], "X;Y", 1),
])
def test_build_delta_matches_the_per_assignment_construction(names, ante, cons, domain):
    names = names.split()
    antecedents = [parse_ci(a, names) for a in ante]
    consequent = parse_ci(cons, names)
    want = reference_delta(antecedents, consequent, len(names), domain)
    assert build_delta(antecedents, consequent, len(names), domain) == want


def test_ci_falsify_reports_refute_of_the_implication(capsys):
    constraint = parse_constraint("[I(X;Y) = 0] => I(X;Y|Z) <= 0\n")
    clause = to_clause([parse_ci("X;Y", XYZ)], parse_ci("X;Y|Z", XYZ), 3)
    assert constraint.clauses == (clause,)
    code = cli.main(["ci", "falsify", "--vars", "X Y Z", "--ante", "X;Y", "--cons", "X;Y|Z"])
    report = json.loads(capsys.readouterr().out)
    want = refute(constraint, Budget()).to_json()
    assert code == cli.EXIT_NEGATIVE
    for key in ("found", "candidates_scanned", "counterexample"):
        assert report[key] == want[key], key
