"""The tight (p, q) schedule: solving for the least q gives the same
steps, certificates and failing p as probing q = 0..Q_MAX one LP at a
time, with at most two LPs per scheduled p.  The max race gives the same
result as a race that checks every stream position."""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count, islice

import pytest

from infoineq import cli, shannon
from infoineq.apps import fixture, secret_sharing_constraint
from infoineq.core import BooleanConstraint, LinExpr
from infoineq.distributions import enumerate_distributions
from infoineq.parser import parse_constraint
from infoineq.reductions import (Q_MAX, MaxReduction, Schedule, _compositions,
                                 max_to_linear, prepare_antecedents, tight_reduction,
                                 tight_target)
from infoineq.refuter import DISTRIBUTION, Budget, violation
from infoineq.shannon import elemental, prove


def kaced_second_clause():
    return fixture("kaced_romashchenko_ci").constraint.clauses[1]


def secret_sharing_clause(ratio):
    return secret_sharing_constraint(2, [{1, 2}], ratio).clauses[0]


CASES = {
    "kaced_romashchenko_ci": (kaced_second_clause,
                              [(1, 0), (2, 1), (4, 1)], (8,)),
    "secret_sharing_ratio_1": (lambda: secret_sharing_clause(1),
                               [(1, 0), (2, 1), (4, 1), (8, 1)], ()),
    "secret_sharing_ratio_2": (lambda: secret_sharing_clause(2), [], (4, 4, 4)),
}


def probe_reference(clause, kept, gens, schedule):
    """The q-probe loop: one plain `prove` per q = 0..Q_MAX, the first
    success wins; returns (proved, consequent index, steps, failed_p)."""
    failed_p = []
    for ci, consequent in enumerate(clause.consequents):
        steps = []
        for p in schedule.p_values:
            found = None
            for q in range(Q_MAX + 1):
                cert = prove(tight_target(consequent, kept, p, q), gens)
                if cert is not None:
                    found = (p, q, cert.to_json(gens))
                    break
            if found is None:
                failed_p.append(p)
                break
            steps.append(found)
        else:
            return True, ci, steps, ()
    return False, None, [], tuple(failed_p)


@lru_cache(maxsize=None)
def case_inputs(name):
    clause = CASES[name][0]()
    gens = elemental(clause.n)
    return clause, prepare_antecedents(clause.antecedents, gens).kept, gens


def outcome(result, gens):
    return (result.proved, result.consequent_index,
            [(s.p, s.q, s.certificate.to_json(gens)) for s in result.steps], result.failed_p)


@pytest.mark.parametrize("name", sorted(CASES))
def test_least_q_matches_the_probe_loop(name):
    """The full schedule gives the failing p; the p values that succeed,
    scheduled alone, give the steps."""
    clause, kept, gens = case_inputs(name)
    _, expected_steps, expected_failed = CASES[name]
    full = outcome(tight_reduction(clause, kept, gens), gens)
    assert full[3] == expected_failed
    assert full == probe_reference(clause, kept, gens, Schedule())
    if expected_steps:
        schedule = Schedule(tuple(p for p, _ in expected_steps))
        proved = outcome(tight_reduction(clause, kept, gens, schedule), gens)
        assert [(p, q) for p, q, _ in proved[2]] == expected_steps
        assert proved == probe_reference(clause, kept, gens, schedule)


@pytest.mark.parametrize("name", sorted(CASES))
def test_at_most_two_lps_per_scheduled_p(monkeypatch, name):
    clause, kept, gens = case_inputs(name)
    calls = []
    solve_lp = shannon.solve_lp

    def counting(*args):
        calls.append(1)
        return solve_lp(*args)

    monkeypatch.setattr(shannon, "solve_lp", counting)
    schedule = Schedule()
    tight_reduction(clause, kept, gens, schedule)
    assert len(calls) <= 2 * len(schedule.p_values) * len(clause.consequents)
    if name == "kaced_romashchenko_ci":
        assert len(calls) == 7  # two at each of p=1, 2, 4; one infeasible LP at p=8


def test_schedule_needs_a_p():
    with pytest.raises(ValueError):
        Schedule(())
    with pytest.raises(ValueError):
        Schedule((1, 0))


def test_qmax_is_an_unknown_schedule_item(capsys):
    path = str(fixture("kaced_romashchenko_ci").path)
    assert cli.main(["prove", "--file", path, "--schedule", "p=1,2 qmax=64"]) \
        == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "qmax=64" in err


def race_reference(clause, kept, gens, budget, lambda_sum_max, block_size):
    """Each epoch tries its multiplier tuples, then the next `block_size`
    stream positions, every pmf checked by `violation`."""
    constraint = BooleanConstraint(clause.n, (clause,))
    stream = (violation(constraint, DISTRIBUTION, d) for d in enumerate_distributions(
        clause.n, budget.max_support, budget.max_denominator))
    for epoch in count(1):
        if epoch <= lambda_sum_max:
            for lam in _compositions(epoch, len(clause.consequents)):
                combo = LinExpr.zero(clause.n)
                for weight, d in zip(lam, clause.consequents):
                    if weight:
                        combo = combo + d.scale(weight)
                cert = prove(combo, gens, antecedents=kept)
                if cert is not None:
                    return MaxReduction("valid", tuple(Fraction(v) for v in lam), cert)
        block = list(islice(stream, block_size))
        hit = next((h for h in block if h is not None), None)
        if hit is not None:
            return MaxReduction("invalid", counterexample=hit)
        if epoch > lambda_sum_max and len(block) < block_size:
            return MaxReduction("exhausted")


DEEP_MAX = "max(H(X|Y) - H(Z), H(Z) - 2*H(X|Y)) >= 0"  # first hit at position 193


@pytest.mark.parametrize("source,budget,lambda_sum_max,block_size", [
    ("false_max_nonneg", "s=2,D=2", 8, 64),
    ("false_max_nonneg", "s=2,D=4", 8, 1),
    ("kopparty_rossman_max", "s=2,D=2", 8, 64),
    ("kopparty_rossman_max", "s=2,D=2", 1, 7),
    ("pairwise_max_two_thirds", "s=2,D=3", 8, 64),
    ("conditional_max_two_thirds", "s=2,D=3", 8, 16),
    (DEEP_MAX, "s=2,D=4", 8, 64),
    (DEEP_MAX, "s=2,D=4", 8, 5),
])
def test_max_race_matches_a_race_over_every_position(source, budget, lambda_sum_max,
                                                      block_size):
    constraint = parse_constraint(source) if "(" in source else fixture(source).constraint
    (clause,) = constraint.clauses
    gens = elemental(clause.n)
    kept = prepare_antecedents(clause.antecedents, gens).kept
    budget = Budget.parse(budget)
    assert max_to_linear(clause, kept, gens, budget, lambda_sum_max, block_size) \
        == race_reference(clause, kept, gens, budget, lambda_sum_max, block_size)
