"""Exact entropic vectors and the canonical enumeration."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoineq import distributions
from infoineq.core import BooleanConstraint, Clause, LinExpr, entropy_of
from infoineq.distributions import (Distribution, cell_outcomes, enumerate_distributions,
                                    pmf_walk, shared_walk, to_distribution)
from infoineq.refuter import ProfileScan
from infoineq.shannon import elemental

from conftest import as_rational, combine, integer_pmfs, log_value

F = Fraction


class TestEntropicVector:
    def test_fair_bit(self, fair_bit):
        assert as_rational(fair_bit.entropic_vector()[1]) == 1

    def test_three_point_pmf(self):
        d = Distribution.make((3,), {(0,): F(1, 2), (1,): F(1, 4), (2,): F(1, 4)})
        # oracle: expand -sum p*log2 p term by term over the dyadic atoms
        oracle = F(1, 2) * 1 + F(1, 4) * 2 + F(1, 4) * 2
        assert as_rational(d.entropic_vector()[1]) == oracle == F(3, 2)

    def test_entropy_is_the_sum_of_p_log_one_over_p_term_by_term(self):
        pmf = {(0, 0): F(1, 2), (0, 1): F(1, 3), (1, 1): F(1, 6)}
        h = Distribution.make((2, 2), pmf).entropic_vector()
        assert h[3].terms == ((F(1, 2), F(2)), (F(1, 3), F(3)), (F(1, 6), F(6)))
        # the marginal on the first variable merges the last two atoms
        assert h[1].terms == ((F(5, 6), F(6, 5)), (F(1, 6), F(6)))
        assert all(type(x) is Fraction for term in h[3].terms for x in term)

    def test_xor_triple_full_vector(self, xor_triple):
        h = xor_triple.entropic_vector()
        expected = {1: 1, 2: 1, 4: 1, 3: 2, 5: 2, 6: 2, 7: 2}
        for mask, value in expected.items():
            assert as_rational(h[mask]) == value
        assert h[0].sign() == 0

    def test_zero_probability_atoms_ignored(self):
        d = Distribution.make((2,), {(0,): F(1), (1,): F(0)})
        assert d.entropic_vector()[1].sign() == 0


class TestMarginal:
    def test_xor_pair_marginal_uniform(self, xor_triple):
        m = xor_triple.marginal(3)
        assert sorted(m.pmf) == [((0, 0), F(1, 4)), ((0, 1), F(1, 4)),
                                 ((1, 0), F(1, 4)), ((1, 1), F(1, 4))]

    def test_full_marginal_is_identity(self, xor_triple):
        assert xor_triple.marginal(7) == xor_triple

    def test_empty_marginal_is_point_mass(self, xor_triple):
        m = xor_triple.marginal(0)
        assert m.pmf == (((0,), F(1)),)


class TestCounts:
    """One pmf has one form: integer counts over the least common
    denominator of its probabilities."""

    def test_reduced_and_unreduced_fractions_give_one_form(self):
        reduced = Distribution.from_file_text("vars 2 3\n0 0 1/6\n0 2 1/3\n1 1 1/2\n")
        unreduced = Distribution.from_file_text("vars 2 3\n0 0 2/12\n0 2 4/12\n1 1 9/18\n")
        assert reduced == unreduced
        assert reduced.total == 6
        assert reduced.counts == (((0, 0), 1), ((0, 2), 2), ((1, 1), 3))
        assert reduced.pmf == (((0, 0), F(1, 6)), ((0, 2), F(1, 3)), ((1, 1), F(1, 2)))

    def test_walk_item_is_make_of_its_fractions(self):
        for dprime, domains, atoms in islice(integer_pmfs(3, 2, 4), 0, None, 7):
            outcomes = cell_outcomes(domains)
            made = Distribution.make(domains, {outcomes[c]: F(v, dprime) for c, v in atoms})
            assert to_distribution(dprime, domains, atoms) == made

    def test_marginal_has_the_least_total(self):
        uniform = Distribution.make((2, 2), {o: F(1, 4) for o in product(range(2), repeat=2)})
        assert uniform.total == 4
        m = uniform.marginal(1)
        assert (m.total, m.counts) == (2, (((0,), 1), ((1,), 1)))
        assert m == Distribution.make((2,), {(0,): F(1, 2), (1,): F(1, 2)})

    def test_counts_with_a_factor_of_the_total_are_rejected(self):
        with pytest.raises(ValueError, match="share a factor"):
            Distribution((2,), 4, (((0,), 2), ((1,), 2)))

    def test_a_common_denominator_past_the_digit_bound_is_rejected(self):
        # each number has at most 2,201 digits, their lcm 4,401
        a, b = 10 ** 2200 + 1, 10 ** 2200 + 3
        with pytest.raises(ValueError, match="common denominator of more than 4000 digits"):
            Distribution.make((2, 2), {(0, 0): F(1, a), (0, 1): F(1, b),
                                       (1, 0): F(1, 2) - F(1, a), (1, 1): F(1, 2) - F(1, b)})


class TestValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution.make((2,), {(0,): F(1, 2)})

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Distribution.make((2,), {(0,): F(3, 2), (1,): F(-1, 2)})

    def test_outcome_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Distribution.make((2,), {(5,): F(1)})


class TestEnumeration:
    def test_single_variable_budget_two(self):
        stream = list(enumerate_distributions(1, 2, 2))
        as_sets = [(d.domains, tuple(d.pmf)) for d in stream]
        assert ((1,), (((0,), F(1)),)) in as_sets
        assert ((2,), (((0,), F(1, 2)), ((1,), F(1, 2)))) in as_sets
        assert ((2,), (((0,), F(1)),)) in as_sets
        assert ((2,), (((1,), F(1)),)) in as_sets
        assert len(stream) == 4

    def test_point_mass_only_at_trivial_budget(self):
        stream = list(enumerate_distributions(1, 1, 1))
        assert stream == [Distribution.make((1,), {(0,): F(1)})]

    def test_zero_budget_is_empty(self):
        assert list(enumerate_distributions(2, 0, 4)) == []
        assert list(enumerate_distributions(2, 2, 0)) == []

    def test_xor_triple_is_enumerated(self, xor_triple):
        assert any(d == xor_triple for d in enumerate_distributions(3, 2, 4))

    def test_no_duplicates(self):
        stream = list(enumerate_distributions(2, 2, 4))
        keys = [(d.domains, tuple(d.pmf)) for d in stream]
        assert len(keys) == len(set(keys))

    def test_canonical_order_prefix(self):
        # reduced denominator first, then support size, then domains, then
        # the numerator tuple lexicographically
        first = list(islice(enumerate_distributions(2, 2, 2), 9))
        assert first[0].domains == (1, 1)
        denominators = [max(p.denominator for _, p in d.pmf) for d in first]
        assert denominators == sorted(denominators)

    def test_reduced_denominator_means_gcd_one(self):
        for d in enumerate_distributions(2, 2, 4):
            nums = [p.numerator for _, p in d.pmf]
            dens = {p.denominator for _, p in d.pmf}
            assert max(dens) == 1 or any(n % 2 for n in nums) or max(dens) % 2


def brute_force_stream(n, max_support, max_denominator):
    """The canonical order by its definition: every numerator tuple of
    each (D', support size, domains) block, lexicographically, gcd 1."""
    out = []
    for dprime in range(1, max_denominator + 1):
        for k in range(1, dprime + 1):
            for domains in product(range(1, max_support + 1), repeat=n):
                for nums in product(range(dprime + 1), repeat=prod(domains)):
                    if sum(nums) == dprime and sum(map(bool, nums)) == k and gcd(*nums) == 1:
                        out.append((dprime, domains,
                                    tuple((i, v) for i, v in enumerate(nums) if v)))
    return out


def full_use(pmf) -> bool:
    _, domains, atoms = pmf
    outcomes = cell_outcomes(domains)
    return all({outcomes[c][i] for c, _ in atoms} == set(range(d))
               for i, d in enumerate(domains))


def relabel_minimal(pmf) -> bool:
    """No swap of two adjacent values of one variable gives a
    lexicographically smaller numerator tuple."""
    _, domains, atoms = pmf
    outcomes = cell_outcomes(domains)
    cell_of = {o: c for c, o in enumerate(outcomes)}
    nums = [0] * len(outcomes)
    for c, v in atoms:
        nums[c] = v
    for i, d in enumerate(domains):
        for a in range(d - 1):
            swap = {a: a + 1, a + 1: a}
            swapped = [nums[cell_of[o[:i] + (swap.get(o[i], o[i]),) + o[i + 1:]]]
                       for o in outcomes]
            if swapped < nums:
                return False
    return True


# the n=4 budgets replay blocks: (1, 2, 2, 2) squeezes to (2, 2, 2), as
# (2, 1, 2, 2) and the other tuples with one constant variable do; (3, 2, 8)
# and (4, 2, 5) descend 5-8 levels, with swaps across three and four variables
WALK_GRID = [(1, 1, 1), (2, 1, 3), (1, 2, 2), (1, 3, 6), (2, 2, 4), (3, 2, 4),
             (2, 3, 3), (3, 3, 2), (2, 2, 7), (1, 4, 8), (4, 2, 4), (4, 3, 2),
             (3, 2, 8), (4, 2, 5)]


class TestWalk:
    @pytest.mark.parametrize("n,s,d", [(1, 3, 5), (2, 2, 4), (3, 2, 2), (2, 1, 4)])
    def test_stream_is_the_defined_order(self, n, s, d):
        assert list(integer_pmfs(n, s, d)) == brute_force_stream(n, s, d)

    @pytest.mark.parametrize("n,s,d", WALK_GRID)
    def test_pruned_walk_is_a_filter_of_the_stream(self, n, s, d):
        stream = list(integer_pmfs(n, s, d))
        expected = [(i, pmf) for i, pmf in enumerate(stream)
                    if full_use(pmf) and relabel_minimal(pmf)]
        assert list(pmf_walk(n, s, d)) == expected + [(len(stream), None)]

    @pytest.mark.parametrize("n,s,d", [(2, 3, 4), (3, 2, 4), (3, 3, 3), (2, 2, 7)])
    def test_first_pmf_of_every_profile_is_walked(self, n, s, d):
        every = LinExpr.make(n, {mask: Fraction(1) for mask in range(1, 1 << n)})
        scan = ProfileScan(BooleanConstraint(n, (Clause(n, (), (every,)),)), d)
        first: dict = {}
        for i, pmf in enumerate(integer_pmfs(n, s, d)):
            first.setdefault(scan.profile(*pmf), i)
        walked = {i for i, pmf in pmf_walk(n, s, d) if pmf is not None}
        assert set(first.values()) <= walked

    @pytest.mark.parametrize("cells", range(1, 7))
    def test_full_block_is_every_numerator_tuple(self, cells):
        """A block of the listing is its definition: every tuple of
        `cells` numerators summing to D' with k nonzero and gcd 1, in
        lexicographic order."""
        for dprime in range(1, 7):
            blocks: dict[int, list] = {}
            for nums in product(range(dprime + 1), repeat=cells):
                if sum(nums) == dprime and gcd(*nums) == 1:
                    blocks.setdefault(sum(map(bool, nums)), []).append(
                        tuple((i, v) for i, v in enumerate(nums) if v))
            for k in range(1, dprime + 1):
                listed = [tuple((i, v) for i, v in enumerate(nums) if v)
                          for nums in distributions._numerators(cells, dprime, k)
                          if gcd(*nums) == 1]
                assert listed == blocks.get(k, [])

    @pytest.mark.parametrize("n,s,d", [(4, 2, 4), (4, 3, 2), (3, 3, 3)])
    def test_each_squeezed_block_is_walked_once(self, monkeypatch, n, s, d):
        walked = []
        numerator_walk = distributions._numerator_walk

        def recording(dprime, k, domains):
            walked.append((dprime, k, tuple(x for x in domains if x > 1)))
            return numerator_walk(dprime, k, domains)

        monkeypatch.setattr(distributions, "_numerator_walk", recording)
        expected = list(pmf_walk(n, s, d))
        blocks = {(dprime, len(atoms), tuple(x for x in domains if x > 1))
                  for _, (dprime, domains, atoms) in expected[:-1]}
        assert len(walked) == len(set(walked))
        assert blocks <= set(walked)

    def test_a_consumer_that_stops_early_builds_one_item_of_a_replayed_block(
            self, monkeypatch):
        built = []
        numerator_walk = distributions._numerator_walk

        def counting(dprime, k, domains):
            for item in numerator_walk(dprime, k, domains):
                built.append((dprime, k, domains))
                yield item

        block = (4, 4, (1, 2, 2, 2))  # squeezes to (2, 2, 2), so it is recorded
        assert sum((pmf[0], len(pmf[2]), pmf[1]) == block
                   for _, pmf in pmf_walk(4, 2, 4) if pmf) > 1
        monkeypatch.setattr(distributions, "_numerator_walk", counting)
        for _, (dprime, domains, atoms) in pmf_walk(4, 2, 4):
            if (dprime, len(atoms), domains) == block:
                break
        assert built.count(block) == 1

    def test_zero_budget_walk_is_empty(self):
        assert list(pmf_walk(2, 0, 4)) == [(0, None)]
        assert list(pmf_walk(2, 2, 0)) == [(0, None)]


@pytest.fixture
def fresh_walks(monkeypatch):
    """A process that has walked no budget yet."""
    monkeypatch.setattr(distributions, "_walks", {})
    monkeypatch.setattr(distributions, "_kept_total", 0)


def kept(budget) -> int:
    walk = distributions._walks[budget]
    return 0 if walk is None else len(walk.kept)


@pytest.mark.usefixtures("fresh_walks")
class TestSharedWalk:
    BUDGETS = [(3, 2, 4), (4, 2, 4), (5, 2, 4), (3, 3, 4)]

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_every_walk_is_the_twin_skipping_walk(self, budget):
        expected = list(pmf_walk(*budget))
        for _ in range(3):  # bare, keeping, replaying
            assert list(shared_walk(*budget)) == expected

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("abandoned", [1, 2, 3])
    def test_an_abandoned_walk_leaves_the_later_ones_whole(self, budget, abandoned):
        expected = list(pmf_walk(*budget))
        for _ in range(abandoned - 1):
            assert list(shared_walk(*budget)) == expected
        walk = shared_walk(*budget)
        assert [next(walk) for _ in range(3)] == expected[:3]
        walk.close()
        for _ in range(2):
            assert list(shared_walk(*budget)) == expected

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("lead", [0, 1, 7])
    def test_interleaved_walks_each_see_the_whole_stream(self, budget, lead):
        expected = list(pmf_walk(*budget))
        list(shared_walk(*budget))
        first, second = shared_walk(*budget), shared_walk(*budget)
        seen_first = [next(first) for _ in range(lead)]
        seen_second = []
        for a, b in zip(first, second):
            seen_first.append(a)
            seen_second.append(b)
        seen_first += list(first)
        seen_second += list(second)
        assert seen_first == seen_second == expected

    def test_a_stream_past_the_bound_comes_out_whole(self, monkeypatch):
        monkeypatch.setattr(distributions, "MAX_SHARED_PMFS", 50)
        budget = (4, 2, 4)
        expected = list(pmf_walk(*budget))
        assert len(expected) > 100
        list(shared_walk(*budget))
        keeping = shared_walk(*budget)
        assert [next(keeping) for _ in range(30)] == expected[:30]
        behind, ahead = shared_walk(*budget), shared_walk(*budget)
        # `ahead` runs past the kept items and takes the live walk over;
        # `keeping` and `behind` then walk the rest alone
        assert list(ahead) == expected
        assert [next(keeping) for _ in range(30)] == expected[30:60]
        assert list(behind) == expected
        assert list(keeping) == expected[60:]
        assert list(shared_walk(*budget)) == expected
        assert kept(budget) == distributions._kept_total == 50

    def test_the_bound_holds_over_all_budgets(self, monkeypatch):
        monkeypatch.setattr(distributions, "MAX_SHARED_PMFS", 600)
        for budget in [(4, 2, 4), (3, 2, 4)]:
            expected = list(pmf_walk(*budget))
            for _ in range(3):
                assert list(shared_walk(*budget)) == expected
        assert kept((4, 2, 4)) == len(list(pmf_walk(4, 2, 4)))
        assert kept((4, 2, 4)) + kept((3, 2, 4)) == distributions._kept_total == 600

    def test_one_walk_keeps_nothing(self):
        budget = (4, 2, 4)
        list(shared_walk(*budget))
        assert distributions._walks == {budget: None}
        assert distributions._kept_total == 0


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_enumerated_satisfy_elemental_inequalities(self, seed):
        pool = list(enumerate_distributions(2, 2, 3))
        dist = random.Random(seed).choice(pool)
        h = dist.entropic_vector()
        for gen in elemental(2).generators:
            assert gen.expr.eval(h).sign() >= 0

    def test_support_bound(self):
        for dist in islice(enumerate_distributions(2, 3, 3), 120):
            h = dist.entropic_vector()
            for mask in range(1, 4):
                bound = log_value(*[
                    (1, d) for i, d in enumerate(dist.domains) if (mask >> i) & 1])
                assert combine((1, bound), (-1, h[mask])).sign() >= 0

    def test_product_additivity(self):
        x = Distribution.make((2,), {(0,): F(1, 3), (1,): F(2, 3)})
        y = Distribution.make((3,), {(0,): F(1, 2), (1,): F(1, 4), (2,): F(1, 4)})
        joint = Distribution.make((2, 3), {
            (a, b): pa * pb for (a,), pa in x.pmf for (b,), pb in y.pmf})
        h = joint.entropic_vector()
        assert combine((1, h[3]), (-1, h[1]), (-1, h[2])).sign() == 0


def test_file_round_trip(xor_triple):
    text = xor_triple.to_file_text()
    assert Distribution.from_file_text(text) == xor_triple
    assert text.splitlines()[0] == "vars 2 2 2"
