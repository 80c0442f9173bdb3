"""CI implication: the bounded falsifier, the polynomial product-equality
system it stands for, and the SMT-LIB export of that system."""
from __future__ import annotations

from fractions import Fraction

import pytest

from infoineq.ci import build_delta, export_delta, falsify, parse_ci, pmf_vector

XYZ = ("X", "Y", "Z")
WEAKENING = ([parse_ci("X;Y|Z", XYZ)], parse_ci("X;Y", XYZ))


def test_falsifier_finds_a_witness_for_a_false_implication():
    result = falsify(*WEAKENING, 3, max_domain=2, max_denominator=4)
    assert result.found
    assert result.candidates_scanned == 58


def test_witness_satisfies_the_polynomial_system():
    witness = falsify(*WEAKENING, 3, max_domain=2, max_denominator=4) \
        .counterexample.distribution
    system = build_delta(*WEAKENING, 3, 2)
    assert system.satisfied_by(pmf_vector(witness, 2))


def test_independent_pmf_does_not_satisfy_the_system():
    system = build_delta(*WEAKENING, 3, 2)
    uniform = [Fraction(1, 8)] * 8
    assert system.phi_holds(uniform)
    assert not system.satisfied_by(uniform)
    with pytest.raises(ValueError):
        system.satisfied_by(uniform[:4])


def test_true_implication_has_no_witness():
    result = falsify([parse_ci("X;YZ", XYZ)], parse_ci("X;Y", XYZ), 3,
                     max_domain=3, max_denominator=3)
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
