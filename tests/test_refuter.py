"""The profile-scan kernel of the refuter against the reference evaluation:
exact signs, reports byte-identical to a `violation` scan over
`enumerate_distributions` (every pmf, nothing skipped), candidate and
distinct-profile counts, scans over a shared walk, the positions of the
subspace systems after the pmfs, and `violation` itself against an
evaluation over the whole entropic vector."""
from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings

from infoineq import distributions, refuter
from infoineq.apps import corpus, fixture
from infoineq.core import BooleanConstraint, Clause, LinExpr, LogLinValue
from infoineq.distributions import (Distribution, cell_outcomes, enumerate_distributions,
                                    pmf_stream, to_distribution)
from infoineq.models import enumerate_systems
from infoineq.parser import parse_constraint
from infoineq.reductions import prepare_antecedents
from infoineq.refuter import (DISTRIBUTION, MAX_DENOMINATOR, VECTOR_SPACE, Budget, ProfileScan,
                              RefutationResult, _subspace_systems, check_budget, refute,
                              violation)
from infoineq.shannon import elemental

from conftest import (lin_exprs, log_exponents, log_text, parse_expr, reference_profile,
                      subspace_candidate)

XYZ = ("X", "Y", "Z")


@lru_cache(maxsize=None)
def n3_stream() -> list[tuple]:
    """The 617 pmfs of n=3, s=2, D=4 with their reference entropic vectors."""
    return [(pmf, to_distribution(*pmf).entropic_vector()) for pmf in pmf_stream(3, 2, 4)]


def _scan_of(expr: LinExpr) -> ProfileScan:
    return ProfileScan(BooleanConstraint(expr.n, (Clause(expr.n, (), (expr,)),)), 4)


def _kernel_and_reference_signs(expr: LinExpr) -> list[tuple[int, int]]:
    scan = _scan_of(expr)
    compiled = scan.compile(expr)
    return [(scan.sign(compiled, scan.profile(*pmf)), expr.eval(h).sign())
            for pmf, h in n3_stream()]


def test_stream_has_617_pmfs():
    assert len(n3_stream()) == 617


@settings(max_examples=25, deadline=None)
@given(lin_exprs(3))
def test_kernel_sign_matches_reference(expr):
    pairs = _kernel_and_reference_signs(expr)
    assert all(kernel == reference for kernel, reference in pairs)


@pytest.mark.parametrize("text", [
    "H(X)",
    "H(X) + H(Y) - H(XY)",
    "3*H(X) - 2*H(YZ)",
    "H(XY) - H(X) - 1/2*H(Z)",
    "H(XYZ) - 3/2*H(Y)",
])
def test_kernel_sign_matches_reference_on_multi_prime_values(text):
    expr = parse_expr(text, XYZ)
    pairs = _kernel_and_reference_signs(expr)
    assert all(kernel == reference for kernel, reference in pairs)
    # the D'=3 pmfs put log 3 beside log 2, so interval refinement runs
    assert any(len(log_exponents(expr.eval(h))) > 1 for _, h in n3_stream())


@pytest.mark.parametrize("n,s,d", [(4, 2, 4), (3, 3, 3)])
@pytest.mark.parametrize("masks", ["every", "some"])
def test_profile_matches_one_marginal_per_mask(n, s, d, masks):
    full = (1 << n) - 1
    # "some" mentions masks that differ from each other only in one variable
    chosen = range(1, full + 1) if masks == "every" else (1, 3, full - 1, full)
    expr = LinExpr.make(n, {mask: Fraction(1) for mask in chosen})
    scan = ProfileScan(BooleanConstraint(n, (Clause(n, (), (expr,)),)), d)
    assert scan.masks == tuple(chosen)
    profiles = [(scan.profile(*pmf), pmf) for pmf in pmf_stream(n, s, d)]
    # a profile holds the scan's ids of sorted count tuples
    counts = {i: key for key, i in scan.ids.items()}
    for profile, pmf in profiles:
        assert tuple(counts[i] for i in profile) == \
            reference_profile(scan.masks, scan.total, *pmf)


def reference_refute(constraint: BooleanConstraint, budget: Budget) -> RefutationResult:
    """`violation` on every candidate, in stream order, nothing skipped."""
    candidates = [(DISTRIBUTION, d) for d in enumerate_distributions(
        constraint.n, budget.max_support, budget.max_denominator)]
    if budget.vs_primes and budget.vs_max_dim >= 1:
        candidates += [(VECTOR_SPACE, s) for s in enumerate_systems(
            constraint.n, budget.vs_primes, budget.vs_max_dim)]
    for scanned, (kind, obj) in enumerate(candidates, 1):
        hit = violation(constraint, kind, obj)
        if hit is not None:
            return RefutationResult(hit, budget, scanned)
    return RefutationResult(None, budget, len(candidates))


@pytest.mark.parametrize("fx", corpus(), ids=lambda fx: fx.name)
def test_refute_report_matches_reference_scan(fx):
    budget = Budget.parse(fx.budget or "s=2,D=4")
    assert refute(fx.constraint, budget).to_json() \
        == reference_refute(fx.constraint, budget).to_json()


# h(X) >= 0 and I(X;Y) >= 0 are valid, and the hit's trace lists them
PLANTED = parse_constraint("[H(X) >= 0, I(X;Y) = 0] => I(X;Y) >= H(X)\n").clauses[0]
CLAUSES = {**{f"{fx.name}-{i}": (clause, fx.budget) for fx in corpus()
              for i, clause in enumerate(fx.constraint.clauses)},
           "planted": (PLANTED, "")}


@pytest.mark.parametrize("name", list(CLAUSES))
def test_a_scan_that_skips_the_valid_antecedents_reports_the_same(name):
    """The scan evaluates only the kept antecedents, and the report is
    that of a scan over them all."""
    clause, budget = CLAUSES[name]
    budget = Budget.parse(budget)
    valid = prepare_antecedents(clause.antecedents, elemental(clause.n)).valid
    whole, kept_only = refute(clause, budget), refute(clause, budget, valid)
    assert kept_only.to_json() == whole.to_json()
    assert kept_only.candidates_scanned == whole.candidates_scanned
    if name == "planted":
        assert valid == PLANTED.antecedents[:2] and kept_only.found
        trace = kept_only.counterexample.trace
        assert [(t["role"], t["index"], t["sign"]) for t in trace] == [
            ("antecedent", 0, 1), ("antecedent", 1, 0), ("antecedent", 2, 0),
            ("consequent", 0, -1)]


@pytest.mark.parametrize("n,profiles", [(3, 64), (4, 326)])
def test_distinct_profiles_when_every_mask_is_mentioned(n, profiles):
    every = LinExpr.make(n, {mask: Fraction(1) for mask in range(1, 1 << n)})
    result = refute(Clause(n, (), (every,)), Budget(2, 4))
    assert not result.found
    assert result.candidates_scanned == (617 if n == 3 else 6779)
    assert result.distinct_profiles == profiles
    assert "distinct_profiles" not in result.to_json()


@pytest.mark.parametrize("constraint,scanned,profiles", [
    # the walk builds 464 of these 61,196 stream positions
    (Clause(3, (), (LinExpr.make(3, {mask: Fraction(1) for mask in range(1, 8)}),)),
     61196, 217),
    # and 5,882 of these 4,579,316: the rest are placed in closed form
    (fixture("matus_k2").constraint, 4579316, 1541),
], ids=["every-mask-n3", "matus_k2"])
def test_counts_at_domain_size_three(constraint, scanned, profiles):
    result = refute(constraint, Budget(3, 4))
    assert not result.found
    assert (result.candidates_scanned, result.distinct_profiles) == (scanned, profiles)


def test_matus_k1_is_refuted():
    # the k = 1 member of `matus_expr` (tests/test_shannon.py) is negative
    # on a binary pmf
    result = refute(fixture("matus_k1").constraint, Budget(2, 6))
    assert result.found and result.candidates_scanned == 41895
    assert result.counterexample.witness == Distribution.make((2, 2, 2, 2), {
        (0, 0, 1, 1): Fraction(1, 6), (0, 1, 1, 0): Fraction(1, 6),
        (1, 0, 1, 0): Fraction(1, 6), (1, 1, 0, 0): Fraction(1, 2)})


def test_scans_over_a_replayed_walk_match_fresh_ones(monkeypatch):
    def scan(fx):
        result = refute(fx.constraint, Budget.parse(fx.budget or "s=2,D=4"))
        return result.to_json(), result.candidates_scanned, result.distinct_profiles

    fresh = []
    for fx in corpus():
        monkeypatch.setattr(distributions, "_walks", {})
        fresh.append(scan(fx))
    # one process: the fixtures of one budget share its walk, the first
    # round keeps it, the second round only replays it
    monkeypatch.setattr(distributions, "_walks", {})
    monkeypatch.setattr(distributions, "_kept_total", 0)
    for _ in range(2):
        assert [scan(fx) for fx in corpus()] == fresh
    assert distributions._kept_total > 0


@pytest.mark.parametrize("n,primes,dim", [(1, (2,), 3), (2, (2, 3), 2), (3, (5,), 1), (3, (2,), 2),
                                          (1, (2 ** 61 - 1,), 1), (1, (2,), 5), (1, (2, 31), 2)])
def test_subspace_systems_count_the_stream(n, primes, dim):
    streamed = sum(1 for _ in enumerate_systems(n, primes, dim))
    budget = Budget.parse(f"s=1,D=1,vsdim={dim},vsq={','.join(map(str, primes))}")
    assert (budget.vs_primes, budget.vs_max_dim) == (primes, dim)
    assert _subspace_systems(n, budget) == streamed


# subspace hits over GF(3): a conditional clause whose H(Z) has rank 0, and
# a max clause; the candidates with constant pmfs come first and hold
SUBSPACE_HITS = {
    "[H(Z) <= 0] => 2/3*H(X) + 2/3*H(Y) <= H(XY) + 5/7*H(Z)": (8, {
        "source": VECTOR_SPACE, "witness": "3 1 3\n1 1\n1 1\n0\n", "clause_index": 0,
        "trace": [{"role": "antecedent", "index": 0, "sign": 0, "value": "0"},
                  {"role": "consequent", "index": 0, "sign": -1,
                   "value": "-2/3*log2(3) + -2/3*log2(3) + 1*log2(3)"}]}),
    "max(H(X) - 3/2*H(Y), 2/5*H(Y) - H(XY)) >= 0": (3, {
        "source": VECTOR_SPACE, "witness": "3 1 2\n0\n1 1\n", "clause_index": 0,
        "trace": [{"role": "consequent", "index": 0, "sign": -1, "value": "-3/2*log2(3)"},
                  {"role": "consequent", "index": 1, "sign": -1,
                   "value": "2/5*log2(3) + -1*log2(3)"}]}),
}


@pytest.mark.parametrize("text", list(SUBSPACE_HITS))
def test_subspace_systems_are_decided_from_their_ranks(monkeypatch, text):
    def unused(*args):
        raise AssertionError("a subspace system needs no LogLinValue")

    monkeypatch.setattr(LogLinValue, "sign", unused)
    monkeypatch.setattr(LinExpr, "eval", unused)
    result = refute(parse_constraint(text), Budget(1, 1, (3,), 2))
    assert (result.candidates_scanned, result.counterexample.to_json()) == SUBSPACE_HITS[text]


# GF(2)^7 alone has 29,212 subspaces; the dimensions up to 6 have 3,289
@pytest.mark.parametrize("text", ["vsdim=1000000000,vsq=2", "vsdim=7,vsq=2"])
def test_subspace_budget_is_bounded_before_the_stream_is_built(text):
    with pytest.raises(ValueError,
                       match="streams more than 10000 subspace systems for 1 variable$"):
        Budget.parse(text)


@pytest.mark.parametrize("text", [f"s=2,D={MAX_DENOMINATOR + 1}", "s=2,D=1000"])
def test_denominator_is_capped_before_any_scan(text):
    with pytest.raises(ValueError, match=rf"^budget {text[4:]} is over the cap D <= 128$"):
        Budget.parse(text)


def test_the_empty_budget_is_the_default_budget():
    assert Budget.parse("") == Budget.parse(" ") == Budget()
    # a key left out keeps its default
    assert Budget.parse("D=6") == Budget(max_denominator=6)
    assert Budget.parse("vsdim=1,vsq=2") == Budget(vs_primes=(2,), vs_max_dim=1)


@pytest.mark.parametrize("text,error", [
    # `int` takes other scripts' digits and underscores; a budget does not
    ("s=\u0662,D=\u0662", "budget item 's=\u0662' needs an integer in ASCII digits"),
    ("D=1_0", "budget item 'D=1_0' needs an integer in ASCII digits"),
    ("vsdim=1,vsq=2,\u0663", "budget item '\u0663' needs an integer in ASCII digits"),
    ("s=-+2", "budget item 's=-+2' needs an integer in ASCII digits"),
    # a repeated key is an error, not the last value
    ("s=2,D=2,D=3", "budget item 'D=3' repeats the key 'D'"),
    ("vsdim=1,vsq=2,vsq=3", "budget item 'vsq=3' repeats the key 'vsq'"),
])
def test_budget_values_are_ascii_and_keys_are_given_once(text, error):
    with pytest.raises(ValueError) as exc:
        Budget.parse(text)
    assert str(exc.value) == error


def test_budget_values_keep_their_sign_and_spaces():
    assert Budget.parse("s= +3 , D=2") == Budget(3, 2)
    with pytest.raises(ValueError, match="^budget needs s >= 1 and D >= 1$"):
        Budget.parse("s=2,D=-1")


# s^n D(D+1)/2 domain tuples: 10^5 * 10 is the cap, 11^5 * 10 is over it
def test_the_walk_is_bounded_before_it_starts():
    check_budget(5, Budget(10, 4))
    with pytest.raises(ValueError, match=r"^budget s=11,D=4 walks more than 1000000 domain "
                                         r"tuples for 5 variables$"):
        check_budget(5, Budget(11, 4))
    # over the cap at one variable: rejected before n is known
    with pytest.raises(ValueError, match="tuples for 1 variable$"):
        Budget.parse(f"s=122,D={MAX_DENOMINATOR}")


def test_one_projection_table_per_squeezed_domain_tuple(monkeypatch):
    """Domain tuples that differ only in constant variables share the
    projection tables of their squeezed tuple.  Here the hit comes after
    the 2^9 tuples with A constant in each block, and no table is built
    for a tuple with a constant variable in it."""
    built = []

    def recording(domains):
        built.append(domains)
        return cell_outcomes(domains)

    monkeypatch.setattr(refuter, "cell_outcomes", recording)
    refuter._projection.cache_clear()
    try:
        result = refute(parse_constraint("H(A) <= 0 + 0*H(BCDEFGHIJ)\n"), Budget())
    finally:
        refuter._projection.cache_clear()
    assert result.found and result.counterexample.witness.domains[0] == 2
    assert built and all(1 not in domains for domains in built)
    # per squeezed tuple, one table for A and, where A is constant, one for {}
    assert len(built) <= 2 * len(set(built))


def test_a_scan_at_the_denominator_cap_finishes_at_one_variable():
    result = refute(parse_constraint("H(X) >= 0\n"), Budget(2, MAX_DENOMINATOR))
    assert (result.found, result.candidates_scanned, result.distinct_profiles) == \
        (False, 5024, 2512)


@pytest.mark.parametrize("constraint,budget,found,scanned", [
    # the one pmf at s=1 and the zero subspace have H(X) = 0; the third
    # candidate, the line GF(2)^1, has H(X) = 1 and is the hit
    (parse_constraint("H(X) <= 0\n"), "s=1,D=1,vsdim=1,vsq=2", True, 3),
    # a 19-digit prime: GF(q)^1 still has two subspaces
    (parse_constraint("H(X) <= 0\n"), "s=1,D=1,vsdim=1,vsq=2305843009213693951", True, 3),
    # a valid fixture: the one pmf, then 2^3 systems for each prime
    (fixture("agm_triangle").constraint, "s=1,D=2,vsdim=1,vsq=2,3", False, 1 + 16),
    # the one pmf, then 2 + 34 subspaces of GF(31)^1 and GF(31)^2
    (parse_constraint("H(X) >= 0\n"), "s=1,D=1,vsdim=2,vsq=31", False, 1 + 36),
], ids=["hit-in-subspace-stream", "hit-at-a-large-prime", "exhausted",
        "exhausted-at-dimension-2"])
def test_refute_report_matches_reference_scan_on_subspace_budgets(constraint, budget, found,
                                                                   scanned):
    budget = Budget.parse(budget)
    result, reference = refute(constraint, budget), reference_refute(constraint, budget)
    assert result.to_json() == reference.to_json()
    assert (result.found, result.candidates_scanned) == (found, scanned)


# ---------------------------------------------------------------------------
# `violation` against an evaluation over the whole entropic vector
# ---------------------------------------------------------------------------

def whole_vector_violation(constraint: BooleanConstraint, kind: str, obj) -> "dict | None":
    """The report of the first clause `obj` falsifies, evaluated over its
    entropic vector at every mask."""
    h = obj.entropic_vector() if kind == DISTRIBUTION else subspace_candidate(obj)
    for idx, clause in enumerate(constraint.clauses):
        trace, holds = [], False
        for role, exprs, satisfied in (("antecedent", clause.antecedents, lambda s: s < 0),
                                       ("consequent", clause.consequents, lambda s: s >= 0)):
            for i, expr in enumerate(exprs):
                if holds:
                    break
                value = expr.eval(h)
                trace.append({"role": role, "index": i, "sign": value.sign(),
                              "value": log_text(value)})
                holds = satisfied(value.sign())
        if not holds:
            return {"source": kind, "witness": obj.to_file_text(),
                    "clause_index": idx, "trace": trace}
    return None


REFUTED = ["false_ci_weakening", "false_max_nonneg", "false_mono_flip", "false_three_subadd"]


@pytest.mark.parametrize("name", REFUTED)
def test_violation_matches_whole_vector_on_every_candidate(name):
    constraint = fixture(name).constraint
    candidates = [(DISTRIBUTION, d) for d in enumerate_distributions(constraint.n, 2, 4)]
    candidates += [(VECTOR_SPACE, s) for s in enumerate_systems(constraint.n, (2, 3), 2)]
    hits = set()
    for kind, obj in candidates:
        hit = violation(constraint, kind, obj)
        report = hit.to_json() if hit else None
        assert report == whole_vector_violation(constraint, kind, obj)
        if hit:
            hits.add(kind)
    assert DISTRIBUTION in hits


# `check-dist`-style pmfs, which the re-check scales to the lcm of their
# denominators: unequal denominators, an lcm (30) above every denominator,
# and a mass of 1/10^40
TINY = Fraction(1, 10 ** 40)
SCALED = {
    "thirds-sixths-halves": {(0, 0, 0): Fraction(1, 3), (1, 0, 1): Fraction(1, 6),
                             (2, 1, 1): Fraction(1, 2)},
    "lcm-30": {(0, 0, 0): Fraction(1, 6), (1, 0, 1): Fraction(1, 10),
               (1, 1, 0): Fraction(1, 15), (2, 1, 1): Fraction(2, 3)},
    "tiny-mass": {(0, 0, 0): TINY, (1, 1, 0): 1 - TINY},
    "unequal-and-tiny": {(0, 0, 0): Fraction(1, 3), (0, 1, 1): Fraction(1, 6) - TINY,
                         (1, 1, 0): Fraction(1, 2) + TINY},
}


@pytest.mark.parametrize("pmf", list(SCALED))
@pytest.mark.parametrize("name", REFUTED)
def test_violation_matches_whole_vector_on_scaled_distributions(name, pmf):
    constraint = fixture(name).constraint
    n = constraint.n
    dist = Distribution.make((3, 2, 2)[:n], {o[:n]: p for o, p in SCALED[pmf].items()})
    hit = violation(constraint, DISTRIBUTION, dist)
    assert (hit.to_json() if hit else None) == whole_vector_violation(constraint, DISTRIBUTION, dist)
    if name == "false_three_subadd":  # H(XY) > 0 on each of them
        assert hit is not None


def test_a_kernel_hit_that_the_recheck_rejects_is_an_error(monkeypatch):
    """A kernel that claims a violation of a valid clause is caught by the
    re-check, and the error names the pmf."""
    monkeypatch.setattr(ProfileScan, "sign", lambda self, expr, profile: -1)
    with pytest.raises(RuntimeError, match=r"disagrees on \(1, \(1,\), \(\(0, 1\),\)\)$"):
        refute(parse_constraint("H(X) >= 0\n"), Budget())


@lru_cache(maxsize=None)
def planted_n5() -> list:
    """The first 20 n=5 inputs of the `refute-early` benchmark pool."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import gen
    pool = [inp for inp in gen.refute_pool() if inp.key.startswith("planted5-")][:20]
    budget = Budget.parse(gen.REFUTE_BUDGET)
    return [(parse_constraint(text), budget) for inp in pool for text in inp.files.values()]


@pytest.mark.parametrize("index", range(20))
def test_violation_matches_whole_vector_on_planted_hits(index):
    constraint, budget = planted_n5()[index]
    hit = refute(constraint, budget).counterexample
    assert hit.to_json() == whole_vector_violation(constraint, DISTRIBUTION, hit.witness)


def test_recheck_builds_only_the_mentioned_marginals(monkeypatch):
    """The re-check marginalizes a pmf only at the masks the constraint
    mentions and never builds its whole entropic vector, both for a
    `Distribution` and for the walk item that the scan passes it."""
    constraint, budget = planted_n5()[0]
    hit = refute(constraint, budget).counterexample
    mentioned = {m for e in constraint.clauses[0].consequents for m, _ in e.items}
    assert len(mentioned) < 31
    built = []
    marginal_counts = Distribution.marginal_counts

    def recording(self, mask):
        built.append(mask)
        return marginal_counts(self, mask)

    def whole_vector(self):
        raise AssertionError("the re-check built the whole entropic vector")

    monkeypatch.setattr(Distribution, "marginal_counts", recording)
    monkeypatch.setattr(Distribution, "entropic_vector", whole_vector)
    assert violation(constraint, DISTRIBUTION, hit.witness) == hit
    assert sorted(built) == sorted(mentioned)
    built.clear()
    assert refute(constraint, budget).counterexample == hit
    assert sorted(built) == sorted(mentioned)
