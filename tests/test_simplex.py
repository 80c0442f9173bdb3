"""Exact LP: feasibility, optima, and certified infeasibility."""
from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from infoineq.simplex import solve_lp

F = Fraction
Z = F(0)


def test_simple_optimum():
    # min x + y  s.t.  x + 2y = 4, x, y >= 0
    res = solve_lp([[F(1), F(2)]], [F(4)], [F(1), F(1)])
    assert res.status == "optimal"
    assert res.objective == 2
    assert res.x == (Z, F(2))


def test_infeasible():
    # x + y = -1 with x, y >= 0
    res = solve_lp([[F(1), F(1)]], [F(-1)], [Z, Z])
    assert res.status == "infeasible"


def test_unbounded():
    # min -x  s.t.  x - y = 0
    res = solve_lp([[F(1), F(-1)]], [Z], [F(-1), Z])
    assert res.status == "unbounded"


def test_redundant_rows_handled():
    a = [[F(1), F(1)], [F(2), F(2)]]
    res = solve_lp(a, [F(3), F(6)], [F(1), Z])
    assert res.status == "optimal"
    assert res.objective == 0
    assert res.x == (Z, F(3))


def test_zero_rows():
    res = solve_lp([[Z, Z]], [Z], [F(1), F(1)])
    assert res.status == "optimal"
    res = solve_lp([[Z, Z]], [F(1)], [F(1), F(1)])
    assert res.status == "infeasible"


def test_degenerate_problem_terminates():
    # classic cycling-prone structure; Bland's rule must terminate
    a = [
        [F(1, 4), F(-8), F(-1), F(9), F(1), Z, Z],
        [F(1, 2), F(-12), F(-1, 2), F(3), Z, F(1), Z],
        [Z, Z, F(1), Z, Z, Z, F(1)],
    ]
    b = [Z, Z, F(1)]
    c = [F(-3, 4), F(20), F(-1, 2), F(6), Z, Z, Z]
    res = solve_lp(a, b, c)
    assert res.status == "optimal"
    assert res.objective == F(-5, 4)


def test_zero_cost_feasibility_exact():
    # x (1, 0) + y (1, 1) = target, x, y >= 0
    a = [[F(1), F(1)], [Z, F(1)]]
    res = solve_lp(a, [F(3), F(2)], [Z, Z])
    assert res.status == "optimal"
    assert res.x == (F(1), F(2))
    assert solve_lp(a, [F(-1), Z], [Z, Z]).status == "infeasible"


def test_no_columns():
    res = solve_lp([[], []], [Z, Z], [])
    assert (res.status, res.x) == ("optimal", ())
    assert solve_lp([[]], [F(1)], []).status == "infeasible"


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_random_feasible_systems(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(2, 6)
    a = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
    x0 = [F(rng.randint(0, 3)) for _ in range(n)]
    b = [sum(row[j] * x0[j] for j in range(n)) for row in a]
    c = [F(rng.randint(0, 3)) for _ in range(n)]
    res = solve_lp(a, b, c)
    assert res.status == "optimal"
    # exact feasibility of the returned point, and optimality vs the seed point
    for row, bi in zip(a, b):
        assert sum(r * x for r, x in zip(row, res.x)) == bi
    assert all(x >= 0 for x in res.x)
    assert res.objective <= sum(ci * xi for ci, xi in zip(c, x0))
