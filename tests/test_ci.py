"""CI implication: the bounded falsifier, the polynomial product-equality
system it stands for, and the SMT-LIB export of that system."""
from __future__ import annotations

from fractions import Fraction

import pytest

from infoineq.ci import _atom_index, build_delta, export_delta, falsify, parse_ci
from infoineq.refuter import Budget

XYZ = ("X", "Y", "Z")
WEAKENING = ([parse_ci("X;Y|Z", XYZ)], parse_ci("X;Y", XYZ))


def pmf_vector(dist, domain: int) -> list[Fraction]:
    """Dense atom-probability vector of a distribution on [domain]^n."""
    vec = [Fraction(0)] * (domain ** dist.n)
    for outcome, p in dist.pmf:
        vec[_atom_index(outcome, dist.n, domain)] = p
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
    result = falsify(*WEAKENING, 3, Budget(2, 4))
    assert result.found
    assert result.candidates_scanned == 58


def test_witness_satisfies_the_polynomial_system():
    witness = falsify(*WEAKENING, 3, Budget(2, 4)) \
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
    result = falsify([parse_ci("X;YZ", XYZ)], parse_ci("X;Y", XYZ), 3, Budget(3, 3))
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
