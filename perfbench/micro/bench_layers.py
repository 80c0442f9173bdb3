"""Per-layer microbenchmarks, one per layer of the ROADMAP's list.

    python3 -m pytest perfbench/micro/bench_layers.py \
        --benchmark-json .perfbench_work/micro.json

Inputs are fixed (seeded generators from `gen.py`), so two commits run the
same work.  Per-candidate benchmarks time a batch of BATCH candidates and
record the batch size in `extra_info`; divide by it for the per-candidate
cost.  The stream-size checks assert the exact candidate counts and record
the distinct entropy profiles beside them.
"""
from __future__ import annotations

import random

import pytest

import entropy
import gen
from infoineq.core import LinExpr
from infoineq.distributions import Distribution, enumerate_distributions
from infoineq.parser import parse_constraint
from infoineq.refuter import DISTRIBUTION, Budget, refute, violation
from infoineq.shannon import elemental, prove

BATCH = 64
KR_TEXT = ("[I(C;D|A) = 0, I(C;D|B) = 0, I(A;B) = 0, I(B;C|D) = 0] => I(C;D) = 0\n")
MATUS_K1 = "I(C;D|A) + 2*I(C;D|B) + I(A;B) + 1*I(B;D|C) >= I(C;D)\n"


def _shannon(n: int) -> LinExpr:
    """A fixed nonnegative combination of elemental inequalities."""
    return LinExpr.make(n, gen.elemental_combination(random.Random(f"micro/{n}"), n, 4))


def test_parse_constraint(benchmark):
    benchmark(parse_constraint, KR_TEXT)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_elemental(benchmark, n):
    gens = benchmark(elemental, n)
    assert len(gens.generators) == n + n * (n - 1) // 2 * 2 ** (n - 2)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("feasible", [True, False], ids=["feasible", "infeasible"])
def test_prove(benchmark, n, feasible):
    gens = elemental(n)
    # the negation of a nonzero Shannon inequality is never provable:
    # the elemental cone contains no line
    target = _shannon(n) if feasible else -_shannon(n)
    cert = benchmark.pedantic(prove, (target, gens), rounds=3, iterations=1)
    assert (cert is not None) == feasible


def _live_candidates(n: int) -> list[Distribution]:
    """BATCH pmfs of the n-variable stream (s=2, D=4) with no constant variable."""
    out = []
    for dist in enumerate_distributions(n, 2, 4):
        if all(len(dist.marginal(1 << i).support()) > 1 for i in range(n)):
            out.append(dist)
            if len(out) == BATCH:
                return out
    raise AssertionError("stream too short")


@pytest.fixture(scope="module")
def n4_candidates():
    dists = _live_candidates(4)
    target = LinExpr.make(4, gen.elemental_combination(random.Random("micro/eval"), 4, 3))
    return dists, [d.entropic_vector() for d in dists], target


def test_entropic_vector_n4(benchmark, n4_candidates):
    dists, _, _ = n4_candidates
    benchmark.extra_info["candidates"] = BATCH
    benchmark(lambda: [d.entropic_vector() for d in dists])


def test_eval_n4(benchmark, n4_candidates):
    _, vectors, target = n4_candidates
    benchmark.extra_info["candidates"] = BATCH
    benchmark(lambda: [target.eval(h) for h in vectors])


def test_sign_n4(benchmark, n4_candidates):
    _, vectors, target = n4_candidates
    values = [target.eval(h) for h in vectors]
    benchmark.extra_info["candidates"] = BATCH
    signs = benchmark(lambda: [v.sign() for v in values])
    # the program's signs agree with the benchmark's own exact entropy code
    for dist, s in zip(n4_candidates[0], signs):
        pmf = dict(dist.pmf)
        assert entropy.sign(entropy.evaluate(dict(target.items),
                                             entropy.entropy_vector(pmf, 4))) == s


def test_violation_n4(benchmark, n4_candidates):
    dists, _, _ = n4_candidates
    constraint = parse_constraint(MATUS_K1)
    benchmark.extra_info["candidates"] = BATCH
    benchmark(lambda: [violation(constraint, DISTRIBUTION, d) for d in dists])


def test_full_stream_scan_n4(benchmark):
    """Every pmf of n=4, s=2, D=4 against matus_k1, which none violates."""
    constraint = parse_constraint(MATUS_K1)
    result = benchmark.pedantic(refute, (constraint, Budget(2, 4)), rounds=1, iterations=1)
    assert not result.found and result.candidates_scanned == 6779


@pytest.mark.parametrize("n,s,d,size,profiles", [
    (3, 2, 4, 617, 64),
    (4, 2, 4, 6779, 326),
    (3, 3, 4, 61196, 217),
])
def test_stream_size(benchmark, n, s, d, size, profiles):
    """Exact stream sizes; distinct entropy profiles by exact arithmetic."""
    count = benchmark.pedantic(lambda: sum(1 for _ in enumerate_distributions(n, s, d)),
                               rounds=1, iterations=1)
    assert count == size
    assert sum(1 for _ in gen.canonical_stream(n, s, d)) == size
    distinct = {entropy.profile_key(entropy.entropy_vector(pmf, n))
                for _, pmf in gen.canonical_stream(n, s, d)}
    benchmark.extra_info.update({"candidates": count, "distinct_profiles": len(distinct)})
    assert len(distinct) == profiles
