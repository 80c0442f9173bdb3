"""The reduction LP.  For max clauses it decides what a race of integer
multiplier tuples against counterexample search decides, with the same
multipliers and certificates.  For the tight stage it gives eps*, the
least relaxation 1/p at which `tight_target` has a certificate."""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import ceil, floor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoineq import reductions, shannon
from infoineq.apps import fixture, secret_sharing_constraint
from infoineq.core import BooleanConstraint, Clause, LinExpr, cond_entropy, mutual_info
from infoineq.distributions import enumerate_distributions
from infoineq.parser import parse_constraint
from infoineq.reductions import (PreparedAntecedents, max_to_linear, prepare_antecedents,
                                 tight_reduction, tight_target)
from infoineq.refuter import DISTRIBUTION, Budget, refute, violation
from infoineq.shannon import ProofCertificate, cone_lp, elemental, prove, verify

from conftest import lin_exprs


# ---------------------------------------------------------------------------
# Tight stage: eps*
# ---------------------------------------------------------------------------

def kaced_clause(index):
    return fixture("kaced_romashchenko_ci").constraint.clauses[index]


def secret_sharing_clause(participants, access, ratio):
    return secret_sharing_constraint(participants, access, ratio).clauses[0]


THREE_ACCESS = [{1, 2}, {2, 3}, {1, 2, 3}]  # "1,2;2,3", closed upward

# name -> (clause builder, eps*)
CASES = {
    "kaced_romashchenko_ci": (lambda: kaced_clause(1), Fraction(1, 4)),
    "kaced_romashchenko_ci_first": (lambda: kaced_clause(0), Fraction(0)),
    "secret_sharing_ratio_1": (lambda: secret_sharing_clause(2, [{1, 2}], 1), Fraction(0)),
    "secret_sharing_ratio_2": (lambda: secret_sharing_clause(2, [{1, 2}], 2), Fraction(1, 2)),
    "secret_sharing_three_ratio_1": (lambda: secret_sharing_clause(3, THREE_ACCESS, 1),
                                     Fraction(0)),
    "secret_sharing_three_ratio_3_2": (
        lambda: secret_sharing_clause(3, THREE_ACCESS, Fraction(3, 2)), Fraction(1, 4)),
}


@lru_cache(maxsize=None)
def case_inputs(name):
    clause = CASES[name][0]()
    gens = elemental(clause.n)
    return clause, prepare_antecedents(clause.antecedents, gens).kept, gens


def relaxation_certificate(consequent, kept, gens, p):
    """A verified certificate for `tight_target(consequent, kept, p, q)` at
    the least integer q that has one, or None when no q >= 0 has one.

    The least rational q is one LP with sum(kept) as the only antecedent;
    the kept antecedents are tight, so every larger q works too."""
    total = sum(kept, LinExpr.zero(consequent.n))
    least = prove(tight_target(consequent, kept, p, 0), gens, antecedents=(total,))
    if least is None:
        return None
    target = tight_target(consequent, kept, p, ceil(least.antecedent_multipliers[0]))
    cert = prove(target, gens)
    assert cert is not None and verify(cert, target, gens)
    return cert


@pytest.mark.parametrize("name", sorted(CASES))
def test_least_relaxation(name):
    """eps* is pinned, and it is the edge of `tight_target`: p = floor(1/eps*)
    has a certificate for some consequent and q, p + 1 has none.  At
    eps* = 0 the multiplier LP proves the clause."""
    clause, kept, gens = case_inputs(name)
    epsilon = tight_reduction(clause, kept, gens)
    assert epsilon == CASES[name][1]
    if epsilon == 0:
        assert max_to_linear(clause, kept, gens) is not None
        return
    p = floor(1 / epsilon)
    assert any(relaxation_certificate(c, kept, gens, p) for c in clause.consequents)
    assert not any(relaxation_certificate(c, kept, gens, p + 1) for c in clause.consequents)


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_lp_per_tight_reduction(monkeypatch, name):
    clause, kept, gens = case_inputs(name)
    calls = []
    solve_lp = shannon.solve_lp

    def counting(*args):
        calls.append(1)
        return solve_lp(*args)

    monkeypatch.setattr(shannon, "solve_lp", counting)
    tight_reduction(clause, kept, gens)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["kopparty_rossman_max", "pairwise_max_two_thirds",
                                  "conditional_max_two_thirds"])
def test_one_lp_per_max_reduction(monkeypatch, name):
    """The reduction LP's solution is the certificate too: no second LP
    proves the combination of the consequents."""
    (clause,) = fixture(name).constraint.clauses
    gens = elemental(clause.n)
    kept = prepare_antecedents(clause.antecedents, gens).kept
    calls = []
    solve_lp = shannon.solve_lp

    def counting(*args):
        calls.append(1)
        return solve_lp(*args)

    monkeypatch.setattr(shannon, "solve_lp", counting)
    result = max_to_linear(clause, kept, gens)
    assert result is not None and len(calls) == 1
    combo = combination(result.lambdas, clause)
    assert verify(result.certificate, combo, gens, kept)


# ---------------------------------------------------------------------------
# Max clauses: the LP against the race it replaced
# ---------------------------------------------------------------------------

def compositions(total: int, parts: int):
    """Nonnegative integer tuples with the given sum, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def combination(lambdas, clause: Clause) -> LinExpr:
    combo = LinExpr.zero(clause.n)
    for weight, d in zip(lambdas, clause.consequents):
        if weight:
            combo = combo + d.scale(weight)
    return combo


def race_lambdas(clause, kept, gens, total):
    """The first multiplier tuple with the given sum that proves the clause,
    graded lexicographically, with its certificate; None if none does.
    Each tuple is one feasibility LP with no cost on any column, the LP
    that the race solved."""
    k = len(kept)
    for lam in compositions(total, len(clause.consequents)):
        combo = combination(lam, clause)
        res = cone_lp(combo, list(kept) + gens.exprs(), [0] * (k + len(gens.generators)))
        if res.status == "optimal":
            return tuple(Fraction(v) for v in lam), ProofCertificate(combo, res.x[:k], res.x[k:])
    return None


def race_reference(clause, kept, gens, budget, lambda_sum_max=8, block_size=64):
    """Alternating epochs: the multiplier tuples of sum `epoch`, then the
    next `block_size` pmfs of the stream, each checked by `violation`.
    The first side to conclude wins."""
    constraint = BooleanConstraint(clause.n, (clause,))
    stream = (violation(constraint, DISTRIBUTION, d) for d in enumerate_distributions(
        clause.n, budget.max_support, budget.max_denominator))
    for epoch in count(1):
        if epoch <= lambda_sum_max:
            found = race_lambdas(clause, kept, gens, epoch)
            if found is not None:
                return "valid", found[0], found[1].to_json(gens)
        block = list(islice(stream, block_size))
        hit = next((h for h in block if h is not None), None)
        if hit is not None:
            return "invalid", hit.to_json()
        if epoch > lambda_sum_max and len(block) < block_size:
            return ("exhausted",)


def decide_max(clause, kept, gens, budget):
    """The multiplier stage, then the refute stage."""
    result = max_to_linear(clause, kept, gens)
    if result is not None:
        return "valid", result.lambdas, result.certificate.to_json(gens)
    found = refute(clause, budget)
    return ("invalid", found.counterexample.to_json()) if found.found else ("exhausted",)


DEEP_MAX = "max(H(X|Y) - H(Z), H(Z) - 2*H(X|Y)) >= 0"  # first hit at position 193


@pytest.mark.parametrize("source,budget,lambda_sum_max,block_size", [
    ("false_max_nonneg", "s=2,D=2", 8, 64),
    ("false_max_nonneg", "s=2,D=4", 8, 1),
    ("kopparty_rossman_max", "s=2,D=2", 8, 64),
    ("pairwise_max_two_thirds", "s=2,D=3", 8, 64),
    ("conditional_max_two_thirds", "s=2,D=3", 8, 16),
    (DEEP_MAX, "s=2,D=4", 8, 64),
    (DEEP_MAX, "s=2,D=4", 8, 5),
])
def test_max_race_matches_a_race_over_every_position(source, budget, lambda_sum_max,
                                                      block_size):
    """The max race is the reference: the multiplier LP, then the refute
    stage, conclude as it does, with its multipliers, certificate and
    counterexample."""
    constraint = parse_constraint(source) if "(" in source else fixture(source).constraint
    (clause,) = constraint.clauses
    gens = elemental(clause.n)
    kept = prepare_antecedents(clause.antecedents, gens).kept
    budget = Budget.parse(budget)
    assert decide_max(clause, kept, gens, budget) \
        == race_reference(clause, kept, gens, budget, lambda_sum_max, block_size)


GENS3 = elemental(3)


@st.composite
def max_clauses(draw):
    """Two-disjunct n=3 max clauses, half of them planted so that a tuple
    (a, b) with a + b <= 8 proves them; some with one antecedent."""
    first = draw(lin_exprs(3))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 2), min_size=len(GENS3.generators),
                                max_size=len(GENS3.generators)))
        valid = sum((g.scale(w) for g, w in zip(GENS3.exprs(), weights) if w),
                    LinExpr.zero(3))
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        second = (valid - first.scale(a)).scale(Fraction(1, b))
    else:
        second = draw(lin_exprs(3))
    antecedents = tuple(draw(st.lists(lin_exprs(3), max_size=1)))
    return Clause(3, antecedents, (first, second))


@settings(max_examples=40, deadline=None)
@given(max_clauses())
def test_max_lp_proves_whatever_the_race_proves(clause):
    kept = prepare_antecedents(clause.antecedents, GENS3).kept
    result = max_to_linear(clause, kept, GENS3)
    if result is None:
        assert all(race_lambdas(clause, kept, GENS3, total) is None for total in range(1, 9))
        return
    assert min(result.lambdas) >= 0 and max(result.lambdas) > 0
    combo = combination(result.lambdas, clause)
    assert result.certificate.target == combo
    assert verify(result.certificate, combo, GENS3, kept)



def test_an_antecedent_whose_proof_fails_verify_is_kept(request):
    """`prepare_antecedents` drops a valid antecedent only once `verify`
    accepts its proof; the zero antecedent needs none.  This antecedent,
    h(X) + I(X;Y), is no multiple of one Shannon quantity and is >= 0 on
    every step function, so only the LP decides it."""
    gens = elemental(2)
    valid = antecedent("2*H(X) + H(Y) - H(XY) >= 0")
    zero = LinExpr.zero(2)
    assert prepare_antecedents([valid, zero], gens) == PreparedAntecedents((), (valid, zero))
    request.getfixturevalue("corrupted_solver")
    assert prepare_antecedents([valid, zero], gens) == PreparedAntecedents((valid,), (zero,))


def antecedent(text: str) -> LinExpr:
    return parse_constraint(f"[{text}] => H(XY) >= 0\n").clauses[0].antecedents[0]


def test_a_chain_rule_certificate_that_fails_verify_keeps_its_antecedent(monkeypatch):
    gens = elemental(2)
    valid = antecedent("I(X;Y) >= 0")
    assert prepare_antecedents([valid], gens) == PreparedAntecedents((), (valid,))
    certify = reductions.chain_rule_certificate

    def corrupted(a, gens, index):
        cert = certify(a, gens, index)
        multipliers = cert.generator_multipliers
        return ProofCertificate(cert.target, (), (multipliers[0] + 1,) + multipliers[1:])

    monkeypatch.setattr(reductions, "chain_rule_certificate", corrupted)
    monkeypatch.setattr(reductions, "prove", None)  # no LP is tried either
    assert prepare_antecedents([valid], gens) == PreparedAntecedents((valid,), ())


def test_a_user_generator_negative_on_a_step_function_disables_the_step_rule():
    """-h(X) is negative on every r_T with X in T; so is the (false) user
    generator -h(X), so the LP decides it, and proves it from that
    generator."""
    gens = elemental(2)
    a = antecedent("-H(X) >= 0")
    assert prepare_antecedents([a], gens) == PreparedAntecedents((a,), ())
    with_user = gens.with_user(a, "negative", "a hand-built generator")
    assert prepare_antecedents([a], with_user) == PreparedAntecedents((), (a,))


@st.composite
def rule_inputs(draw):
    """n = 3..5 and an expression: a signed multiple of one Shannon
    quantity half of the time, else a few random items."""
    n = draw(st.integers(3, 5))
    if draw(st.booleans()):
        return n, draw(lin_exprs(n))
    full = (1 << n) - 1
    y, z = draw(st.integers(1, full)), draw(st.integers(1, full))
    x = draw(st.integers(0, full))
    quantity = mutual_info(n, y, z, x) if draw(st.booleans()) else cond_entropy(n, y, x)
    return n, quantity.scale(draw(st.sampled_from([1, 3, Fraction(1, 2), -1, -2])))


@settings(max_examples=200, deadline=None)
@given(rule_inputs())
def test_the_rules_settle_antecedents_as_the_lp_does(inputs):
    """A chain-rule certificate only for what `prove` proves, an
    antecedent kept without an LP (the step-function rule) only where
    `prove` finds nothing, and every antecedent where the LP alone puts
    it."""
    n, a = inputs
    gens = GENS[n]
    proof = prove(a, gens)
    cert = reductions.chain_rule_certificate(a, gens, reductions.elemental_index(gens))
    if cert is not None:
        assert verify(cert, a, gens) and proof is not None
    lps = []
    with mock.patch.object(reductions, "prove", lambda *args: lps.append(args) or prove(*args)):
        prepared = prepare_antecedents([a], gens)
    assert prepared.valid == ((a,) if a.is_zero() or proof is not None else ())
    if prepared.kept and not lps:
        assert proof is None


GENS = {n: elemental(n) for n in (3, 4, 5)}
