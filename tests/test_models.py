"""GF(q) subspace systems, and the modular vectors that tests build as
reference candidates (`conftest.modular_candidate`)."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoineq.core import entropy_of, mutual_info
from infoineq.models import (VectorSpaceSystem, all_subspaces, enumerate_systems, rank_mod,
                             rref_mod)
from infoineq.shannon import elemental

from conftest import as_rational, log_exponents, modular_candidate, parse_expr, subspace_candidate


def random_system(rng: random.Random, n: int, q: int, dim: int) -> VectorSpaceSystem:
    """A random subspace system: n random RREF bases of GF(q)^dim, each of
    up to dim random rows."""
    bases = []
    for _ in range(n):
        rows = [[rng.randrange(q) for _ in range(dim)] for _ in range(rng.randrange(dim + 1))]
        bases.append(rref_mod(rows, q))
    return VectorSpaceSystem(q, dim, tuple(bases))


F = Fraction


class TestModular:
    def test_basic_modular_values(self):
        h = modular_candidate([1, 0, 0])  # weight on X
        assert as_rational(h[1]) == 1   # h(X)
        assert as_rational(h[2]) == 0   # h(Y)
        assert as_rational(h[4]) == 0   # h(Z)
        assert as_rational(h[3]) == 1   # h(XY)

    def test_weighted_combination_on_conditional_antecedents(self):
        # weights (2, 0, 1): both slack antecedents evaluate to exactly 1
        h = modular_candidate([2, 0, 1])
        a1 = parse_expr("H(XYZ) + H(X) - 2*H(XY)", ["X", "Y", "Z"])
        a2 = parse_expr("H(XYZ) + H(Y) - 2*H(YZ)", ["X", "Y", "Z"])
        assert as_rational(a1.eval(h)) == 1  # 3 + 2 - 4
        assert as_rational(a2.eval(h)) == 1  # 3 + 0 - 2
        assert as_rational(h[7]) == 3

    def test_zero_weights_zero_vector(self):
        h = modular_candidate([0, 0, 0])
        assert all(h[m].sign() == 0 for m in range(8))


class TestRankVector:
    def test_three_lines_in_the_plane(self):
        h = subspace_candidate(VectorSpaceSystem(2, 2, (((1, 0),), ((0, 1),), ((1, 1),))))
        for single in (1, 2, 4):
            assert as_rational(h[single]) == 1
        for mask in (3, 5, 6, 7):
            assert as_rational(h[mask]) == 2

    def test_ambient_subspace(self):
        h = subspace_candidate(VectorSpaceSystem(3, 2, (((1, 0), (0, 1)), ((1, 2),))))
        # any set containing the full subspace has rank 2, value 2*log2(3)
        assert log_exponents(h[1]) == {3: F(2)}
        assert log_exponents(h[3]) == {3: F(2)}

    def test_all_zero_subspaces(self):
        h = subspace_candidate(VectorSpaceSystem(2, 2, ((), (), ())))
        assert all(h[m].sign() == 0 for m in range(8))

    def test_dependent_basis_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            VectorSpaceSystem(2, 2, (((1, 0), (1, 0)),))

    def test_rank_oracle_small_cases(self):
        assert rank_mod([[1, 0], [0, 1]], 2) == 2
        assert rank_mod([[1, 1], [1, 1]], 2) == 1
        assert rank_mod([[2, 1], [1, 2]], 3) == 1  # second row is 2x the first mod 3

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_random_systems_satisfy_elemental_inequalities(self, seed):
        rng = random.Random(seed)
        q = rng.choice([2, 3])
        dim = rng.randint(1, 4)
        n = rng.randint(2, 4)
        h = subspace_candidate(random_system(rng, n, q, dim))
        for gen in elemental(n).generators:
            assert gen.expr.eval(h).sign() >= 0

    def test_submodularity_of_rank(self):
        rng = random.Random(7)
        for _ in range(50):
            h = subspace_candidate(random_system(rng, 3, 2, 3))
            assert mutual_info(3, 1, 2, 4).eval(h).sign() >= 0


class TestEnumeration:
    def test_subspace_counts_gf2(self):
        # Gaussian binomials: GF(2)^2 has 1 + 3 + 1 subspaces
        assert len(all_subspaces(2, 2)) == 5
        assert len(all_subspaces(2, 3)) == 16
        assert len(all_subspaces(3, 2)) == 6

    def test_enumerate_systems_counts(self):
        systems = list(enumerate_systems(2, (2,), 1))
        # 2 subspaces of GF(2)^1, squared
        assert len(systems) == 4

    def test_rref_canonical(self):
        assert rref_mod([[1, 1], [0, 1]], 2) == ((1, 0), (0, 1))
        assert rref_mod([[0, 0]], 2) == ()


def test_witness_file_text():
    """The file `refute --out` writes for a subspace witness: `q dim n`,
    then each subspace's basis size and rows."""
    sys_ = VectorSpaceSystem(2, 2, (((1, 0),), (), ((1, 0), (0, 1))))
    assert sys_.to_file_text() == "2 2 3\n1 1 0\n0\n2 1 0 0 1\n"
