"""Recognizing candidate vectors: rejection by a violated generator,
realization equal to the first match of a scan over every pmf of
`enumerate_distributions`, and inconclusive verdicts."""
from __future__ import annotations

import pytest

from infoineq.core import LogLinValue
from infoineq.distributions import Distribution, enumerate_distributions
from infoineq.recognizer import CandidateRepr, check_candidate
from infoineq.refuter import Budget
from infoineq.shannon import elemental


def candidate(text: str) -> CandidateRepr:
    return CandidateRepr.from_file_text(text)


def reference_realization(repr_: CandidateRepr, max_support: int, max_denominator: int):
    """The first distribution of the whole stream with the candidate's
    entropic vector, nothing skipped."""
    for dist in enumerate_distributions(repr_.n, max_support, max_denominator):
        hd = dist.entropic_vector()
        if all((hd[m] - repr_.entropy(m)).sign() == 0 for m in range(1, 1 << repr_.n)):
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
TRITS = ("X 3 1 1\nY 3 1 1\nZ 3 1 1\n"
         "XY 9 1 1\nXZ 9 1 1\nYZ 9 1 1\nXYZ 27 1 1\n")


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


def test_each_pmf_builds_one_entropy_per_sign(monkeypatch):
    """A pmf is dropped at its first mismatching mask, so the walk builds
    no entropy that no sign comparison reads."""
    calls = {"entropy": 0, "sign": 0}
    entropy, sign = Distribution.entropy, LogLinValue.sign

    def counted_entropy(dist, mask):
        calls["entropy"] += 1
        return entropy(dist, mask)

    def counted_sign(value):
        calls["sign"] += 1
        return sign(value)

    monkeypatch.setattr(Distribution, "entropy", counted_entropy)
    monkeypatch.setattr(LogLinValue, "sign", counted_sign)
    # h(S) = |S| log2 3, three independent uniform trits: no binary pmf
    assert check_candidate(candidate(TRITS), elemental(3), Budget(2, 8)).verdict == "inconclusive"
    assert 0 < calls["entropy"] <= calls["sign"]


def test_generator_count_must_match():
    with pytest.raises(ValueError):
        check_candidate(candidate(FAIR_BIT), elemental(2), Budget())
