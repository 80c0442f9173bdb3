"""CI implication: falsification as `refute` of the implication's clause,
the polynomial product-equality system it stands for, and the SMT-LIB
export of that system.  An equality is the tuple (a, b, c, d) of atom
indices of sum(p[a]) * sum(p[b]) == sum(p[c]) * sum(p[d])."""
from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

import pytest

from infoineq import cli
from infoineq.ci import _statement_equalities, export_delta, parse_ci, to_clause
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


def equalities(statements, n: int, domain: int) -> list[tuple[tuple[int, ...], ...]]:
    """The statements' product equalities on [domain]^n, in export order."""
    outcomes = cell_outcomes((domain,) * n)
    return [eq for st in statements for eq in _statement_equalities(st, outcomes)]


def holds(eq, pmf) -> bool:
    sa, sb, sc, sd = (sum((pmf[i] for i in atoms), Fraction(0)) for atoms in eq)
    return sa * sb == sc * sd


def satisfied_by(antecedent_eqs, consequent_eqs, atoms: int, pmf) -> bool:
    """A pmf on `atoms` atoms satisfying every antecedent equality and
    failing a consequent one."""
    if len(pmf) != atoms:
        raise ValueError("pmf length must equal the number of atoms")
    if any(p < 0 for p in pmf) or sum(pmf) != 1:
        return False
    return (all(holds(eq, pmf) for eq in antecedent_eqs)
            and not all(holds(eq, pmf) for eq in consequent_eqs))


# the weakening's equalities on binary variables: 2^3 atoms
ANTECEDENT_EQS = equalities(WEAKENING[0], 3, 2)
CONSEQUENT_EQS = equalities([WEAKENING[1]], 3, 2)


def test_falsifier_finds_a_witness_for_a_false_implication():
    result = refute(to_clause(*WEAKENING, 3), Budget(2, 4))
    assert result.found
    assert result.candidates_scanned == 58


def test_witness_satisfies_the_polynomial_system():
    witness = refute(to_clause(*WEAKENING, 3), Budget(2, 4)) \
        .counterexample.witness
    assert satisfied_by(ANTECEDENT_EQS, CONSEQUENT_EQS, 2 ** 3, pmf_vector(witness, 2))


def test_independent_pmf_does_not_satisfy_the_system():
    uniform = [Fraction(1, 8)] * 8
    assert all(holds(eq, uniform) for eq in ANTECEDENT_EQS)
    assert not satisfied_by(ANTECEDENT_EQS, CONSEQUENT_EQS, 2 ** 3, uniform)
    with pytest.raises(ValueError):
        satisfied_by(ANTECEDENT_EQS, CONSEQUENT_EQS, 2 ** 3, uniform[:4])


def test_true_implication_has_no_witness():
    clause = to_clause([parse_ci("X;YZ", XYZ)], parse_ci("X;Y", XYZ), 3)
    result = refute(clause, Budget(3, 3))
    assert not result.found


def test_smt_export_shape():
    text = export_delta(*WEAKENING, 3, 2)
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines[0] == "(set-logic QF_NRA)"
    assert [line for line in lines if line.startswith("(declare-const")] \
        == [f"(declare-const p_{i} Real)" for i in range(8)]
    # 8 nonnegativity bounds, the total, 8 antecedent equalities, one negated block
    asserts = [line for line in lines if line.startswith("(assert")]
    assert len(ANTECEDENT_EQS) == 8 and len(CONSEQUENT_EQS) == 4
    assert len(asserts) == 2 ** 3 + 1 + len(ANTECEDENT_EQS) + 1
    assert asserts[-1].startswith("(assert (or (not (= (*")
    assert lines[-2:] == ["(check-sat)", "(get-model)"]


# ---------------------------------------------------------------------------
# The one-pass equalities against the per-assignment construction
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


def reference_equalities(st, n: int, domain: int) -> list[tuple[tuple[int, ...], ...]]:
    y_vars, z_vars, x_vars = (mask_indices(m) for m in (st.y, st.z, st.x))
    out = []
    for xv in product(range(domain), repeat=len(x_vars)):
        for yv in product(range(domain), repeat=len(y_vars)):
            for zv in product(range(domain), repeat=len(z_vars)):
                ax = dict(zip(x_vars, xv))
                axy = ax | dict(zip(y_vars, yv))
                axz = ax | dict(zip(z_vars, zv))
                axyz = axy | dict(zip(z_vars, zv))
                out.append(tuple(reference_marginal_atoms(a, n, domain)
                                 for a in (axyz, ax, axy, axz)))
    return out


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
    """Each statement of the exported system (the delta of 'antecedents
    hold and the consequent fails'): its equalities from one pass over the
    outcomes equal those of one enumeration per partial assignment."""
    names = names.split()
    outcomes = cell_outcomes((domain,) * len(names))
    for st in [*(parse_ci(a, names) for a in ante), parse_ci(cons, names)]:
        assert list(_statement_equalities(st, outcomes)) \
            == reference_equalities(st, len(names), domain)


@pytest.mark.parametrize("verb", ["prove", "falsify", "export"])
def test_a_statement_in_i_form_is_the_bare_statement(capsys, verb):
    assert (parse_ci("I(X;Y|Z)", XYZ), parse_ci(" I(X;Y) ", XYZ)) == (WEAKENING[0][0],
                                                                       WEAKENING[1])
    runs = []
    for ante, cons in (("I(X;Y|Z)", "I(X;Y)"), ("X;Y|Z", "X;Y")):
        code = cli.main(["ci", verb, "--vars", "X Y Z", "--ante", ante, "--cons", cons])
        runs.append((code, capsys.readouterr()))
    assert runs[0] == runs[1]


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


# ---------------------------------------------------------------------------
# Whole `ci export` texts, pinned
# ---------------------------------------------------------------------------

WEAKENING_EXPORT = """\
(set-logic QF_NRA)
; atoms: 8 outcomes of 3 variables on [2]
(declare-const p_0 Real)
(declare-const p_1 Real)
(declare-const p_2 Real)
(declare-const p_3 Real)
(declare-const p_4 Real)
(declare-const p_5 Real)
(declare-const p_6 Real)
(declare-const p_7 Real)
(assert (>= p_0 0))
(assert (>= p_1 0))
(assert (>= p_2 0))
(assert (>= p_3 0))
(assert (>= p_4 0))
(assert (>= p_5 0))
(assert (>= p_6 0))
(assert (>= p_7 0))
(assert (= (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7) 1))
(assert (= (* p_0 (+ p_0 p_2 p_4 p_6)) (* (+ p_0 p_2) (+ p_0 p_4))))
(assert (= (* p_2 (+ p_0 p_2 p_4 p_6)) (* (+ p_0 p_2) (+ p_2 p_6))))
(assert (= (* p_4 (+ p_0 p_2 p_4 p_6)) (* (+ p_4 p_6) (+ p_0 p_4))))
(assert (= (* p_6 (+ p_0 p_2 p_4 p_6)) (* (+ p_4 p_6) (+ p_2 p_6))))
(assert (= (* p_1 (+ p_1 p_3 p_5 p_7)) (* (+ p_1 p_3) (+ p_1 p_5))))
(assert (= (* p_3 (+ p_1 p_3 p_5 p_7)) (* (+ p_1 p_3) (+ p_3 p_7))))
(assert (= (* p_5 (+ p_1 p_3 p_5 p_7)) (* (+ p_5 p_7) (+ p_1 p_5))))
(assert (= (* p_7 (+ p_1 p_3 p_5 p_7)) (* (+ p_5 p_7) (+ p_3 p_7))))
(assert (or (not (= (* (+ p_0 p_1) (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7)) (* (+ p_0 p_1 p_2 p_3) (+ p_0 p_1 p_4 p_5)))) (not (= (* (+ p_2 p_3) (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7)) (* (+ p_0 p_1 p_2 p_3) (+ p_2 p_3 p_6 p_7)))) (not (= (* (+ p_4 p_5) (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7)) (* (+ p_4 p_5 p_6 p_7) (+ p_0 p_1 p_4 p_5)))) (not (= (* (+ p_6 p_7) (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7)) (* (+ p_4 p_5 p_6 p_7) (+ p_2 p_3 p_6 p_7))))))
(check-sat)
(get-model)
"""


WEAKENING_EXPORT_DOMAIN_3 = """\
(set-logic QF_NRA)
; atoms: 27 outcomes of 3 variables on [3]
(declare-const p_0 Real)
(declare-const p_1 Real)
(declare-const p_2 Real)
(declare-const p_3 Real)
(declare-const p_4 Real)
(declare-const p_5 Real)
(declare-const p_6 Real)
(declare-const p_7 Real)
(declare-const p_8 Real)
(declare-const p_9 Real)
(declare-const p_10 Real)
(declare-const p_11 Real)
(declare-const p_12 Real)
(declare-const p_13 Real)
(declare-const p_14 Real)
(declare-const p_15 Real)
(declare-const p_16 Real)
(declare-const p_17 Real)
(declare-const p_18 Real)
(declare-const p_19 Real)
(declare-const p_20 Real)
(declare-const p_21 Real)
(declare-const p_22 Real)
(declare-const p_23 Real)
(declare-const p_24 Real)
(declare-const p_25 Real)
(declare-const p_26 Real)
(assert (>= p_0 0))
(assert (>= p_1 0))
(assert (>= p_2 0))
(assert (>= p_3 0))
(assert (>= p_4 0))
(assert (>= p_5 0))
(assert (>= p_6 0))
(assert (>= p_7 0))
(assert (>= p_8 0))
(assert (>= p_9 0))
(assert (>= p_10 0))
(assert (>= p_11 0))
(assert (>= p_12 0))
(assert (>= p_13 0))
(assert (>= p_14 0))
(assert (>= p_15 0))
(assert (>= p_16 0))
(assert (>= p_17 0))
(assert (>= p_18 0))
(assert (>= p_19 0))
(assert (>= p_20 0))
(assert (>= p_21 0))
(assert (>= p_22 0))
(assert (>= p_23 0))
(assert (>= p_24 0))
(assert (>= p_25 0))
(assert (>= p_26 0))
(assert (= (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7 p_8 p_9 p_10 p_11 p_12 p_13 p_14 p_15 p_16 p_17 p_18 p_19 p_20 p_21 p_22 p_23 p_24 p_25 p_26) 1))
(assert (= (* p_0 (+ p_0 p_3 p_6 p_9 p_12 p_15 p_18 p_21 p_24)) (* (+ p_0 p_3 p_6) (+ p_0 p_9 p_18))))
(assert (= (* p_3 (+ p_0 p_3 p_6 p_9 p_12 p_15 p_18 p_21 p_24)) (* (+ p_0 p_3 p_6) (+ p_3 p_12 p_21))))
(assert (= (* p_6 (+ p_0 p_3 p_6 p_9 p_12 p_15 p_18 p_21 p_24)) (* (+ p_0 p_3 p_6) (+ p_6 p_15 p_24))))
(assert (= (* p_9 (+ p_0 p_3 p_6 p_9 p_12 p_15 p_18 p_21 p_24)) (* (+ p_9 p_12 p_15) (+ p_0 p_9 p_18))))
(assert (= (* p_12 (+ p_0 p_3 p_6 p_9 p_12 p_15 p_18 p_21 p_24)) (* (+ p_9 p_12 p_15) (+ p_3 p_12 p_21))))
(assert (= (* p_15 (+ p_0 p_3 p_6 p_9 p_12 p_15 p_18 p_21 p_24)) (* (+ p_9 p_12 p_15) (+ p_6 p_15 p_24))))
(assert (= (* p_18 (+ p_0 p_3 p_6 p_9 p_12 p_15 p_18 p_21 p_24)) (* (+ p_18 p_21 p_24) (+ p_0 p_9 p_18))))
(assert (= (* p_21 (+ p_0 p_3 p_6 p_9 p_12 p_15 p_18 p_21 p_24)) (* (+ p_18 p_21 p_24) (+ p_3 p_12 p_21))))
(assert (= (* p_24 (+ p_0 p_3 p_6 p_9 p_12 p_15 p_18 p_21 p_24)) (* (+ p_18 p_21 p_24) (+ p_6 p_15 p_24))))
(assert (= (* p_1 (+ p_1 p_4 p_7 p_10 p_13 p_16 p_19 p_22 p_25)) (* (+ p_1 p_4 p_7) (+ p_1 p_10 p_19))))
(assert (= (* p_4 (+ p_1 p_4 p_7 p_10 p_13 p_16 p_19 p_22 p_25)) (* (+ p_1 p_4 p_7) (+ p_4 p_13 p_22))))
(assert (= (* p_7 (+ p_1 p_4 p_7 p_10 p_13 p_16 p_19 p_22 p_25)) (* (+ p_1 p_4 p_7) (+ p_7 p_16 p_25))))
(assert (= (* p_10 (+ p_1 p_4 p_7 p_10 p_13 p_16 p_19 p_22 p_25)) (* (+ p_10 p_13 p_16) (+ p_1 p_10 p_19))))
(assert (= (* p_13 (+ p_1 p_4 p_7 p_10 p_13 p_16 p_19 p_22 p_25)) (* (+ p_10 p_13 p_16) (+ p_4 p_13 p_22))))
(assert (= (* p_16 (+ p_1 p_4 p_7 p_10 p_13 p_16 p_19 p_22 p_25)) (* (+ p_10 p_13 p_16) (+ p_7 p_16 p_25))))
(assert (= (* p_19 (+ p_1 p_4 p_7 p_10 p_13 p_16 p_19 p_22 p_25)) (* (+ p_19 p_22 p_25) (+ p_1 p_10 p_19))))
(assert (= (* p_22 (+ p_1 p_4 p_7 p_10 p_13 p_16 p_19 p_22 p_25)) (* (+ p_19 p_22 p_25) (+ p_4 p_13 p_22))))
(assert (= (* p_25 (+ p_1 p_4 p_7 p_10 p_13 p_16 p_19 p_22 p_25)) (* (+ p_19 p_22 p_25) (+ p_7 p_16 p_25))))
(assert (= (* p_2 (+ p_2 p_5 p_8 p_11 p_14 p_17 p_20 p_23 p_26)) (* (+ p_2 p_5 p_8) (+ p_2 p_11 p_20))))
(assert (= (* p_5 (+ p_2 p_5 p_8 p_11 p_14 p_17 p_20 p_23 p_26)) (* (+ p_2 p_5 p_8) (+ p_5 p_14 p_23))))
(assert (= (* p_8 (+ p_2 p_5 p_8 p_11 p_14 p_17 p_20 p_23 p_26)) (* (+ p_2 p_5 p_8) (+ p_8 p_17 p_26))))
(assert (= (* p_11 (+ p_2 p_5 p_8 p_11 p_14 p_17 p_20 p_23 p_26)) (* (+ p_11 p_14 p_17) (+ p_2 p_11 p_20))))
(assert (= (* p_14 (+ p_2 p_5 p_8 p_11 p_14 p_17 p_20 p_23 p_26)) (* (+ p_11 p_14 p_17) (+ p_5 p_14 p_23))))
(assert (= (* p_17 (+ p_2 p_5 p_8 p_11 p_14 p_17 p_20 p_23 p_26)) (* (+ p_11 p_14 p_17) (+ p_8 p_17 p_26))))
(assert (= (* p_20 (+ p_2 p_5 p_8 p_11 p_14 p_17 p_20 p_23 p_26)) (* (+ p_20 p_23 p_26) (+ p_2 p_11 p_20))))
(assert (= (* p_23 (+ p_2 p_5 p_8 p_11 p_14 p_17 p_20 p_23 p_26)) (* (+ p_20 p_23 p_26) (+ p_5 p_14 p_23))))
(assert (= (* p_26 (+ p_2 p_5 p_8 p_11 p_14 p_17 p_20 p_23 p_26)) (* (+ p_20 p_23 p_26) (+ p_8 p_17 p_26))))
(assert (or (not (= (* (+ p_0 p_1 p_2) (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7 p_8 p_9 p_10 p_11 p_12 p_13 p_14 p_15 p_16 p_17 p_18 p_19 p_20 p_21 p_22 p_23 p_24 p_25 p_26)) (* (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7 p_8) (+ p_0 p_1 p_2 p_9 p_10 p_11 p_18 p_19 p_20)))) (not (= (* (+ p_3 p_4 p_5) (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7 p_8 p_9 p_10 p_11 p_12 p_13 p_14 p_15 p_16 p_17 p_18 p_19 p_20 p_21 p_22 p_23 p_24 p_25 p_26)) (* (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7 p_8) (+ p_3 p_4 p_5 p_12 p_13 p_14 p_21 p_22 p_23)))) (not (= (* (+ p_6 p_7 p_8) (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7 p_8 p_9 p_10 p_11 p_12 p_13 p_14 p_15 p_16 p_17 p_18 p_19 p_20 p_21 p_22 p_23 p_24 p_25 p_26)) (* (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7 p_8) (+ p_6 p_7 p_8 p_15 p_16 p_17 p_24 p_25 p_26)))) (not (= (* (+ p_9 p_10 p_11) (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7 p_8 p_9 p_10 p_11 p_12 p_13 p_14 p_15 p_16 p_17 p_18 p_19 p_20 p_21 p_22 p_23 p_24 p_25 p_26)) (* (+ p_9 p_10 p_11 p_12 p_13 p_14 p_15 p_16 p_17) (+ p_0 p_1 p_2 p_9 p_10 p_11 p_18 p_19 p_20)))) (not (= (* (+ p_12 p_13 p_14) (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7 p_8 p_9 p_10 p_11 p_12 p_13 p_14 p_15 p_16 p_17 p_18 p_19 p_20 p_21 p_22 p_23 p_24 p_25 p_26)) (* (+ p_9 p_10 p_11 p_12 p_13 p_14 p_15 p_16 p_17) (+ p_3 p_4 p_5 p_12 p_13 p_14 p_21 p_22 p_23)))) (not (= (* (+ p_15 p_16 p_17) (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7 p_8 p_9 p_10 p_11 p_12 p_13 p_14 p_15 p_16 p_17 p_18 p_19 p_20 p_21 p_22 p_23 p_24 p_25 p_26)) (* (+ p_9 p_10 p_11 p_12 p_13 p_14 p_15 p_16 p_17) (+ p_6 p_7 p_8 p_15 p_16 p_17 p_24 p_25 p_26)))) (not (= (* (+ p_18 p_19 p_20) (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7 p_8 p_9 p_10 p_11 p_12 p_13 p_14 p_15 p_16 p_17 p_18 p_19 p_20 p_21 p_22 p_23 p_24 p_25 p_26)) (* (+ p_18 p_19 p_20 p_21 p_22 p_23 p_24 p_25 p_26) (+ p_0 p_1 p_2 p_9 p_10 p_11 p_18 p_19 p_20)))) (not (= (* (+ p_21 p_22 p_23) (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7 p_8 p_9 p_10 p_11 p_12 p_13 p_14 p_15 p_16 p_17 p_18 p_19 p_20 p_21 p_22 p_23 p_24 p_25 p_26)) (* (+ p_18 p_19 p_20 p_21 p_22 p_23 p_24 p_25 p_26) (+ p_3 p_4 p_5 p_12 p_13 p_14 p_21 p_22 p_23)))) (not (= (* (+ p_24 p_25 p_26) (+ p_0 p_1 p_2 p_3 p_4 p_5 p_6 p_7 p_8 p_9 p_10 p_11 p_12 p_13 p_14 p_15 p_16 p_17 p_18 p_19 p_20 p_21 p_22 p_23 p_24 p_25 p_26)) (* (+ p_18 p_19 p_20 p_21 p_22 p_23 p_24 p_25 p_26) (+ p_6 p_7 p_8 p_15 p_16 p_17 p_24 p_25 p_26))))))
(check-sat)
(get-model)
"""


INDEPENDENCE_EXPORT_DOMAIN_1 = """\
(set-logic QF_NRA)
; atoms: 1 outcomes of 2 variables on [1]
(declare-const p_0 Real)
(assert (>= p_0 0))
(assert (= p_0 1))
(assert (not (= (* p_0 p_0) (* p_0 p_0))))
(check-sat)
(get-model)
"""


@pytest.mark.parametrize("argv,want", [
    (["--vars", "X Y Z", "--ante", "X;Y|Z", "--cons", "X;Y"], WEAKENING_EXPORT),
    (["--vars", "X Y Z", "--ante", "X;Y|Z", "--cons", "X;Y", "--domain", "3"],
     WEAKENING_EXPORT_DOMAIN_3),
    # one consequent equality: a single negation, with no `or`
    (["--vars", "X Y", "--cons", "X;Y", "--domain", "1"], INDEPENDENCE_EXPORT_DOMAIN_1),
], ids=["weakening", "weakening-domain-3", "independence-domain-1"])
def test_export_text_is_pinned(capsys, argv, want):
    assert cli.main(["ci", "export", *argv]) == cli.EXIT_POSITIVE
    assert capsys.readouterr() == (want, "")
