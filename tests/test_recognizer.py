"""Recognizing candidate vectors: rejection by a violated generator,
realization equal to the first match of a scan over every pmf of
`enumerate_distributions`, and inconclusive verdicts, against a
reference that evaluates `LogLinValue`s."""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoineq import recognizer
from infoineq.distributions import (Distribution, enumerate_distributions, pmf_walk,
                                    to_distribution)
from infoineq.recognizer import CandidateRepr, check_candidate
from infoineq.refuter import Budget
from infoineq.shannon import elemental

from conftest import combine, log_value


def candidate(text: str) -> CandidateRepr:
    return CandidateRepr.from_file_text(text)


def entry_value(repr_: CandidateRepr, mask: int):
    """h(mask) = (1/c) * log2(a/b) as a `LogLinValue`."""
    a, b, c = repr_.entries[mask - 1]
    return log_value((Fraction(1, c), Fraction(a, b)))


def reference_realization(repr_: CandidateRepr, max_support: int, max_denominator: int):
    """The first distribution of the whole stream with the candidate's
    entropic vector, nothing skipped."""
    for dist in enumerate_distributions(repr_.n, max_support, max_denominator):
        hd = dist.entropic_vector()
        if all(combine((1, hd[m]), (-1, entry_value(repr_, m))).sign() == 0
               for m in range(1, 1 << repr_.n)):
            return dist
    return None


FAIR_BIT = "X 2 1 1\n"
INDEPENDENT_BITS = "X 2 1 1\nY 2 1 1\nXY 4 1 1\n"
COPIED_BIT = "X 2 1 1\nY 2 1 1\nXY 2 1 1\n"
XOR = ("X 2 1 1\nY 2 1 1\nZ 2 1 1\n"
       "XY 4 1 1\nXZ 4 1 1\nYZ 4 1 1\nXYZ 4 1 1\n")
TRIT_AND_BIT = "X 3 1 1\nY 2 1 1\nXY 6 1 1\n"
HALF_BIT = "X 2 1 2\n"  # h(X) = 1/2 bit
THREE_OUTCOMES = "X 2 1 1\nY 2 1 1\nXY 3 1 1\n"  # h(XY) = log2(3)


@pytest.mark.parametrize("text,budget", [
    (FAIR_BIT, (1, 1)),
    (FAIR_BIT, (2, 2)),
    (INDEPENDENT_BITS, (2, 4)),
    (COPIED_BIT, (2, 4)),
    (XOR, (2, 4)),
    (TRIT_AND_BIT, (3, 6)),
    (HALF_BIT, (2, 4)),
    (THREE_OUTCOMES, (2, 4)),
    (THREE_OUTCOMES, (3, 3)),
])
def test_realization_is_the_first_match_of_the_whole_stream(text, budget):
    repr_ = candidate(text)
    result = check_candidate(repr_, elemental(repr_.n), Budget(*budget))
    expected = reference_realization(repr_, *budget)
    assert result.realization == expected
    assert result.verdict == ("inconclusive" if expected is None else "realized")


def test_realized_fair_bit():
    result = check_candidate(candidate(FAIR_BIT), elemental(1), Budget(2, 2))
    assert result.verdict == "realized"
    assert result.to_json()["realization"] == "vars 2\n0 1/2\n1 1/2\n"


def test_rejected_by_the_violated_generator():
    # h(XY) = 3 bits exceeds h(X) + h(Y) = 2 bits
    result = check_candidate(candidate("X 2 1 1\nY 2 1 1\nXY 8 1 1\n"), elemental(2), Budget())
    assert result.verdict == "rejected"
    assert result.violated.kind == "elemental-submodularity"
    assert result.realization is None
    # h(X) = log2(1/2) is negative
    result = check_candidate(candidate("X 1 2 1\n"), elemental(1), Budget())
    assert result.verdict == "rejected"


def test_inconclusive_outside_the_budget():
    # a uniform trit needs a domain of size 3
    repr_ = candidate("X 3 1 1\n")
    assert check_candidate(repr_, elemental(1), Budget(2, 6)).verdict == "inconclusive"
    assert check_candidate(repr_, elemental(1), Budget(3, 3)).verdict == "realized"
    # two fair bits whose pair carries log2(3) bits: no pmf in the budget
    repr_ = candidate(THREE_OUTCOMES)
    assert check_candidate(repr_, elemental(2), Budget(2, 2)).verdict == "inconclusive"


def test_each_pmf_is_dropped_at_its_first_mismatching_mask(monkeypatch):
    """Each pmf's marginals are read from its atoms, masks in order, each
    feeding one exact equality test, and a pmf is dropped at its first
    mismatch, so the walk builds no marginal that no test reads and no
    `Distribution` for a pmf that does not match."""
    built, mismatches = [], []
    marginal, coprime_exponents = recognizer._marginal, recognizer.coprime_exponents

    def counted_marginal(atoms, projection):
        built.append(atoms)
        return marginal(atoms, projection)

    def counted_exponents(weights):
        exps = coprime_exponents(weights)
        mismatches.append(bool(exps))
        return exps

    def unused(*pmf):
        raise AssertionError(f"a pmf that does not match was built: {pmf}")

    monkeypatch.setattr(recognizer, "_marginal", counted_marginal)
    monkeypatch.setattr(recognizer, "coprime_exponents", counted_exponents)
    monkeypatch.setattr(recognizer, "to_distribution", unused)
    # two fair bits whose pair carries log2(3) bits: a pmf with both
    # marginals fair passes two masks and fails the third
    repr_, gens = candidate(THREE_OUTCOMES), elemental(2)
    assert check_candidate(repr_, gens, Budget(2, 8)).verdict == "inconclusive"
    tests = mismatches[len(gens.generators):]  # one sign per generator comes first
    # the first mismatching mask of each walked pmf, by the reference
    firsts = []
    for _, pmf in pmf_walk(2, 2, 8):
        if pmf is not None:
            h = to_distribution(*pmf).entropic_vector()
            firsts.append((pmf[2], next(m for m in range(1, 4) if combine(
                (1, h[m]), (-1, entry_value(repr_, m))).sign())))
    assert built == [atoms for atoms, first in firsts for _ in range(first)]
    assert tests == [m == first for _, first in firsts for m in range(1, first + 1)]
    assert any(first > 1 for _, first in firsts)


def test_a_realization_is_checked_again_on_its_distribution(monkeypatch):
    """The match found on the walk's atoms is re-checked on the marginal
    counts of its `Distribution`; a disagreement is an error, not a
    realization."""
    assert check_candidate(candidate(FAIR_BIT), elemental(1), Budget(2, 2)).verdict == "realized"
    monkeypatch.setattr(Distribution, "marginal_counts", lambda dist, mask: [((0,), dist.total)])
    with pytest.raises(RuntimeError, match="the reference marginals disagree"):
        check_candidate(candidate(FAIR_BIT), elemental(1), Budget(2, 2))


@st.composite
def pmf_candidates(draw) -> CandidateRepr:
    """The exact entropic vector of a small pmf, n <= 3, domains <= 3 and
    total <= 6, some of them outside the budget s=2,D=4: for counts C_x
    over N, h(S) = (1/N) * log2(N^N / prod_x C_x^C_x)."""
    domains = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    cells = list(product(*(range(d) for d in domains)))
    counts = draw(st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells))
                  .filter(lambda cs: 0 < sum(cs) <= 6))
    dist = Distribution.make(domains, {o: Fraction(c, sum(counts))
                                       for o, c in zip(cells, counts) if c})
    total = dist.total
    entries = []
    for mask in range(1, 1 << dist.n):
        marginal = [count for _, count in dist.marginal_counts(mask)]
        entries.append((total ** total, prod(c ** c for c in marginal), total))
    return CandidateRepr(dist.n, tuple(entries))


@st.composite
def candidates(draw) -> CandidateRepr:
    """Random (a, b, c) entries, the vector of a small pmf, or that vector
    with one entry replaced by a random one."""
    entry = st.tuples(st.integers(1, 16), st.integers(1, 16), st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "pmf", "perturbed"]))
    if kind == "random":
        n = draw(st.integers(1, 3))
        return CandidateRepr(n, tuple(draw(st.lists(entry, min_size=(1 << n) - 1,
                                                    max_size=(1 << n) - 1))))
    repr_ = draw(pmf_candidates())
    if kind == "pmf":
        return repr_
    entries = list(repr_.entries)
    entries[draw(st.integers(0, len(entries) - 1))] = draw(entry)
    return CandidateRepr(repr_.n, tuple(entries))


@settings(max_examples=150, deadline=None)
@given(candidates())
def test_check_candidate_matches_the_log_lin_value_reference(repr_):
    """The integer tests against `LinExpr.eval` and `LogLinValue.sign`: the
    first generator with a negative value, else the first realizing pmf of
    the whole stream."""
    gens, budget = elemental(repr_.n), Budget(2, 4)
    h = {m: entry_value(repr_, m) for m in range(1, 1 << repr_.n)}
    violated = next((g for g in gens.generators if g.expr.eval(h).sign() < 0), None)
    realization = None if violated else reference_realization(repr_, 2, 4)
    result = check_candidate(repr_, gens, budget)
    assert (result.violated, result.realization) == (violated, realization)


def test_generator_count_must_match():
    with pytest.raises(ValueError):
        check_candidate(candidate(FAIR_BIT), elemental(2), Budget())
