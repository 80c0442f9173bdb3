"""Exact LP: feasibility, optima, and certified infeasibility.

The revised integer simplex must take exactly the pivots of the rational
tableau, so the differential tests compare the whole `LPResult` (status,
vertex, objective) with the `Fraction` tableau kept here as the reference.
Both solvers take the same sparse rows; the reference densifies them."""
from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoineq import shannon, simplex
from infoineq.core import LinExpr, mutual_info
from infoineq.shannon import elemental, prove, verify
from infoineq.simplex import LPResult, solve_lp

from conftest import sparse

F = Fraction
Z = F(0)


# classic cycling-prone structure; Bland's rule must terminate
CYCLING_A = sparse([
    [F(1, 4), F(-8), F(-1), F(9), F(1), Z, Z],
    [F(1, 2), F(-12), F(-1, 2), F(3), Z, F(1), Z],
    [Z, Z, F(1), Z, Z, Z, F(1)],
])
CYCLING_B = [Z, Z, F(1)]
CYCLING_C = [F(-3, 4), F(20), F(-1, 2), F(6), Z, Z, Z]


# ---------------------------------------------------------------------------
# Reference: the two-phase simplex on a Fraction tableau
# ---------------------------------------------------------------------------

def _reference_pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [a - factor * b for a, b in zip(line, tableau[row])]
    basis[row] = col


class _ReferenceUnbounded(Exception):
    pass


def _reference_simplex(tableau, basis, cost, allowed, pivots):
    """Bland's rule with every reduced cost recomputed per pivot; each
    pivot's entering column is appended to `pivots`."""
    m = len(tableau)
    width = len(tableau[0])
    while True:
        entering = -1
        for j in range(allowed):
            if j in basis:
                continue
            red = cost[j]
            for i in range(m):
                if cost[basis[i]] != 0:
                    red -= cost[basis[i]] * tableau[i][j]
            if red < 0:
                entering = j
                break
        if entering < 0:
            obj = Z
            for i in range(m):
                if cost[basis[i]] != 0:
                    obj += cost[basis[i]] * tableau[i][width - 1]
            return obj
        leaving = -1
        best = None
        for i in range(m):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][width - 1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise _ReferenceUnbounded()
        _reference_pivot(tableau, basis, leaving, entering)
        pivots.append(entering)


def reference_solve_lp(a, b, c, paths=None) -> LPResult:
    """The two-phase simplex on a `Fraction` tableau, from the sparse rows
    `a` made dense.  `paths`, when given, collects the names of the rarer
    paths the solve takes (`RISKY_PATHS`)."""
    paths = set() if paths is None else paths
    n = len(c)
    rows, rhs = [], []
    for items, bi in zip(a, b):
        row = [Z] * n
        for j, v in items:
            row[j] = F(v)
        if all(v == 0 for v in row):
            if bi != 0:
                return LPResult("infeasible", (), Z)
            continue
        if bi < 0:
            if any(F(v).denominator > 1 for v in row):
                paths.add("fraction-entries-negative-b")
            rows.append([-v for v in row])
            rhs.append(-bi)
        else:
            rows.append(row)
            rhs.append(F(bi))
    m = len(rows)
    if m == 0:
        if any(v < 0 for v in c):
            return LPResult("unbounded", (), Z)
        return LPResult("optimal", tuple(Z for _ in range(n)), Z)
    tableau = [rows[i] + [F(j == i) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    art = _reference_simplex(tableau, basis, [Z] * n + [F(1)] * m + [Z], n + m, [])
    if art != 0:
        return LPResult("infeasible", (), art)
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if pivot_col is not None:
                if tableau[i][pivot_col] < 0:
                    paths.add("drive-out-on-negative-entry")
                _reference_pivot(tableau, basis, i, pivot_col)
    keep = [i for i in range(m) if basis[i] < n]
    if len(keep) < m:
        paths.add("redundant-row")
    tableau = [tableau[i] for i in keep]
    basis = [basis[i] for i in keep]
    pivots = []
    try:
        obj = _reference_simplex(tableau, basis, [F(v) for v in c] + [Z] * m + [Z], n, pivots)
    except _ReferenceUnbounded:
        paths.add("phase-2-unbounded")
        return LPResult("unbounded", (), Z)
    finally:
        if pivots:
            paths.add("phase-2-pivot")
    x = [Z] * n
    for i, bi in enumerate(basis):
        x[bi] = tableau[i][-1]
    return LPResult("optimal", tuple(x), obj)


def test_simple_optimum():
    # min x + y  s.t.  x + 2y = 4, x, y >= 0
    res = solve_lp(sparse([[F(1), F(2)]]), [F(4)], [F(1), F(1)])
    assert res.status == "optimal"
    assert res.objective == 2
    assert res.x == (Z, F(2))


def test_infeasible():
    # x + y = -1 with x, y >= 0
    res = solve_lp(sparse([[F(1), F(1)]]), [F(-1)], [Z, Z])
    assert res.status == "infeasible"


def test_unbounded():
    # min -x  s.t.  x - y = 0
    res = solve_lp(sparse([[F(1), F(-1)]]), [Z], [F(-1), Z])
    assert res.status == "unbounded"


def test_unbounded_without_binding_rows():
    # min -x  s.t.  0x = 0: no row remains, and x grows without bound
    assert solve_lp([[]], [Z], [F(-1)]) == LPResult("unbounded", (), Z)
    assert reference_solve_lp([[]], [Z], [F(-1)]) == LPResult("unbounded", (), Z)
    assert solve_lp([], [], [F(1), F(-1)]).status == "unbounded"
    assert solve_lp([], [], [F(1), Z]) == LPResult("optimal", (Z, Z), Z)


def test_redundant_rows_handled():
    a = sparse([[F(1), F(1)], [F(2), F(2)]])
    res = solve_lp(a, [F(3), F(6)], [F(1), Z])
    assert res.status == "optimal"
    assert res.objective == 0
    assert res.x == (Z, F(3))


def test_zero_rows():
    res = solve_lp([[]], [Z], [F(1), F(1)])
    assert res.status == "optimal"
    res = solve_lp([[]], [F(1)], [F(1), F(1)])
    assert res.status == "infeasible"


def test_degenerate_problem_terminates():
    res = solve_lp(CYCLING_A, CYCLING_B, CYCLING_C)
    assert res.status == "optimal"
    assert res.objective == F(-5, 4)


def test_zero_cost_feasibility_exact():
    # x (1, 0) + y (1, 1) = target, x, y >= 0
    a = sparse([[F(1), F(1)], [Z, F(1)]])
    res = solve_lp(a, [F(3), F(2)], [Z, Z])
    assert res.status == "optimal"
    assert res.x == (F(1), F(2))
    assert solve_lp(a, [F(-1), Z], [Z, Z]).status == "infeasible"


def test_no_columns():
    res = solve_lp([[], []], [Z, Z], [])
    assert (res.status, res.x) == ("optimal", ())
    assert solve_lp([[]], [F(1)], []).status == "infeasible"


@pytest.mark.parametrize("a,b,c", [
    ([[(0, 1), (2, 1)]], [1], [0, 0]),  # column 2 of 2
    ([[(-1, 1)]], [1], [0, 0]),  # a negative column
    ([[(0, 1)]], [1, 0], [0, 0]),  # two right-hand sides, one row
    ([[(0, 1)], [(1, 1)]], [1], [0, 0]),  # one right-hand side, two rows
    ([[(0, 1)]], [1], []),  # no column at all
])
def test_inconsistent_shapes_are_rejected(a, b, c):
    with pytest.raises(ValueError, match="inconsistent LP shapes"):
        solve_lp(a, b, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_random_feasible_systems(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(2, 6)
    a = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
    x0 = [F(rng.randint(0, 3)) for _ in range(n)]
    b = [sum(row[j] * x0[j] for j in range(n)) for row in a]
    c = [F(rng.randint(0, 3)) for _ in range(n)]
    res = solve_lp(sparse(a), b, c)
    assert res.status == "optimal"
    # exact feasibility of the returned point, and optimality vs the seed point
    for row, bi in zip(a, b):
        assert sum(r * x for r, x in zip(row, res.x)) == bi
    assert all(x >= 0 for x in res.x)
    assert res.objective <= sum(ci * xi for ci, xi in zip(c, x0))


# ---------------------------------------------------------------------------
# Differential tests against the Fraction tableau
# ---------------------------------------------------------------------------

def random_lp(rng: random.Random):
    """A small LP with fractional entries, either sign of b and c, and at
    times a zero row or a row that is a multiple of another."""
    m, n = rng.randint(1, 5), rng.randint(1, 6)

    def entry():
        return F(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.7 else Z

    a = [[entry() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        x0 = [F(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n)]
        b = [sum((r * x for r, x in zip(row, x0)), Z) for row in a]
    else:
        b = [entry() for _ in range(m)]
    if rng.random() < 0.3:
        i = rng.randrange(m)
        a[i] = [Z] * n
        b[i] = entry() if rng.random() < 0.3 else Z
    if m > 1 and rng.random() < 0.4:
        i, j = rng.sample(range(m), 2)
        k = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
        a[j] = [k * v for v in a[i]]
        b[j] = k * b[i]
    c = [entry() for _ in range(n)]
    return sparse(a), b, c


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_matches_fraction_tableau_on_random_lps(seed):
    a, b, c = random_lp(random.Random(seed))
    assert solve_lp(a, b, c) == reference_solve_lp(a, b, c)


def with_int_entries(rng: random.Random, a, b, c):
    """The same LP with the first row and some others scaled by the lcm of
    their denominators, and every integral entry given as an int."""
    def integral(v):
        return v.numerator if v.denominator == 1 else v

    a, b = list(a), list(b)
    for i, row in enumerate(a):
        if i == 0 or rng.random() < 0.5:
            scale = lcm(b[i].denominator, *(v.denominator for _, v in row))
            a[i], b[i] = [(j, v * scale) for j, v in row], b[i] * scale
    return ([[(j, integral(v)) for j, v in row] for row in a],
            [integral(v) for v in b], [integral(v) for v in c])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_costless_lps_match_fraction_tableau(seed):
    # phase 1 stops at zero mass, before the drive-out and the redundant
    # rows that the reference still goes through
    a, b, c = random_lp(random.Random(seed))
    c = [Z] * len(c)
    assert solve_lp(a, b, c) == reference_solve_lp(a, b, c)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_int_entries_match_fraction_tableau(seed):
    rng = random.Random(seed)
    a, b, c = with_int_entries(rng, *random_lp(rng))
    as_fractions = [[(j, F(v)) for j, v in row] for row in a], [F(v) for v in b], [F(v) for v in c]
    assert solve_lp(a, b, c) == reference_solve_lp(*as_fractions)


def test_random_lps_reach_every_status():
    statuses = {reference_solve_lp(*random_lp(random.Random(seed))).status
                for seed in range(200)}
    assert statuses == {"optimal", "infeasible", "unbounded"}


RISKY_PATHS = {"fraction-entries-negative-b", "redundant-row", "drive-out-on-negative-entry",
               "phase-2-pivot", "phase-2-unbounded"}


def test_random_lps_reach_every_risky_path():
    paths = set()
    for seed in range(200):
        reference_solve_lp(*random_lp(random.Random(seed)), paths)
    assert paths == RISKY_PATHS


# one LP per risky path, each of which also pivots in phase 2 on nonzero
# costs; `test_matches_fraction_tableau_when_an_artificial_leaves_on_a_negative_entry`
# covers the drive-out path
RISKY_LPS = {
    # b_0 < 0 flips the first row's signs; the rows' scales are 30 and 12
    "fraction-entries-negative-b": (sparse([[F(-1, 2), F(1, 3), F(-2, 5)],
                                            [F(3, 4), F(-1), F(1, 6)]]),
                                    [F(-1, 2), F(1, 3)], [F(1), F(2), F(1, 2)]),
    # the second row is twice the first: its artificial stays basic at 0,
    # no column can drive it out, and the row is dropped before phase 2
    "redundant-row": (sparse([[1, 1, 1, 0], [2, 2, 2, 0], [0, 1, 0, 1]]), [4, 8, 1],
                      [3, 0, 1, -1]),
    # phase 2 brings in x1 for x0, then x2 has a negative reduced cost and
    # no positive entry
    "phase-2-unbounded": (sparse([[1, 1, -1]]), [1], [1, 0, -1]),
}


@pytest.mark.parametrize("path", sorted(RISKY_LPS))
def test_matches_fraction_tableau_on_risky_path(path):
    a, b, c = RISKY_LPS[path]
    paths = set()
    assert solve_lp(a, b, c) == reference_solve_lp(a, b, c, paths)
    assert {path, "phase-2-pivot"} <= paths


def test_matches_fraction_tableau_on_cycling_prone_lp():
    assert solve_lp(CYCLING_A, CYCLING_B, CYCLING_C) == \
        reference_solve_lp(CYCLING_A, CYCLING_B, CYCLING_C)


def test_matches_fraction_tableau_when_an_artificial_leaves_on_a_negative_entry():
    # phase 1 ends with the second artificial basic at 0; its row's only
    # nonzero entry is -1/3, and phase 2 then moves on to another vertex
    a = sparse([[F(1), F(1), F(1, 2)], [F(-1, 3), Z, Z]])
    b = [F(1), Z]
    c = [F(1), F(2), F(-1)]
    res = solve_lp(a, b, c)
    paths = set()
    assert res == reference_solve_lp(a, b, c, paths)
    assert paths == {"drive-out-on-negative-entry", "phase-2-pivot"}
    assert res == LPResult("optimal", (Z, Z, F(2)), F(-2))


def test_matches_fraction_tableau_on_a_ratio_test_tie():
    # the first phase-1 pivot ties at ratio 3 in both rows; the row of the
    # lower basis index leaves, and this optimum has more than one vertex
    a = sparse([[F(1), F(1), F(1), Z], [F(1), Z, F(1), F(1)]])
    b = [F(3), F(3)]
    c = [F(2), Z, Z, Z]
    res = solve_lp(a, b, c)
    assert res == reference_solve_lp(a, b, c)
    assert res == LPResult("optimal", (Z, F(3), Z, F(3)), Z)


@pytest.mark.parametrize("n", [3, 4])
def test_phase_2_removes_antecedent_use(monkeypatch, n):
    # the target is its own antecedent, which phase 1 puts in the basis;
    # phase 2 prices the antecedent columns at cost 1 and pivots them out
    lps = []

    def recording(a, b, c):
        lps.append((a, b, c))
        return solve_lp(a, b, c)

    monkeypatch.setattr(shannon, "solve_lp", recording)
    target = mutual_info(n, 1, 6, 0)
    antecedents = (target, mutual_info(n, 1, 2, 0))
    cert = prove(target, elemental(n), antecedents)
    assert cert.antecedent_multipliers == (Z, Z)
    assert verify(cert, target, elemental(n), antecedents)
    (a, b, c), = lps
    paths = set()
    assert solve_lp(a, b, c) == reference_solve_lp(a, b, c, paths)
    assert "phase-2-pivot" in paths


def prove_cases(n: int):
    """(target, antecedents) pairs for `prove`, feasible and infeasible,
    on the variables X, Y, Z (bits 1, 2, 4) of n."""
    x_y = mutual_info(n, 1, 2, 0)
    return {
        "feasible": (mutual_info(n, 1, 6, 0), ()),
        "infeasible": (-x_y, ()),
        # I(X;YZ) = I(X;Y) + I(X;Z|Y)
        "feasible-antecedents": (-mutual_info(n, 1, 6, 0),
                                 (-x_y, -mutual_info(n, 1, 4, 2))),
        # I(X;Y) = 0 does not imply I(X;Y|Z) = 0
        "infeasible-antecedents": (-mutual_info(n, 1, 2, 4), (-x_y,)),
        # I(X;Y) + I(X;Z) = 0 implies I(X;Y) = 0; the antecedent's column
        # has five nonzeros, more than the four `simplex._entries` pads to
        "feasible-wide-antecedent": (-x_y, (-(x_y + mutual_info(n, 1, 4, 0)),)),
    }


@pytest.mark.parametrize("n", [3, 4, 5])
def test_matches_fraction_tableau_on_prove_lps(monkeypatch, n):
    lps = []

    def recording(a, b, c):
        lps.append((a, b, c))
        return solve_lp(a, b, c)

    monkeypatch.setattr(shannon, "solve_lp", recording)
    gens = elemental(n)
    proved = {}
    for name, (target, antecedents) in prove_cases(n).items():
        proved[name] = prove(target, gens, antecedents) is not None
    assert proved == {name: name.startswith("feasible") for name in proved}
    assert len(lps) == len(proved) and any(any(c) for _, _, c in lps)
    assert any(max(Counter(j for row in a for j, _ in row).values()) > 4 for a, _, _ in lps)
    for a, b, c in lps:
        assert solve_lp(a, b, c) == reference_solve_lp(a, b, c)


def random_target(gens, seed: int, terms: int = 12) -> LinExpr:
    """A positive combination of `terms` generators drawn by the seed."""
    rng = random.Random(seed)
    target = LinExpr(gens.n, ())
    for g in rng.sample(gens.generators, terms):
        target = target + g.expr.scale(F(rng.randint(1, 6), rng.randint(1, 3)))
    return target


def test_n7_prove_and_its_negation():
    # 127 rows and 679 columns: the feasible LP takes 2,343 pivots and about
    # 1.1 s on a 2-core VM, its negation 0.05 s; the digest pins the
    # certificate's exact bytes
    gens = elemental(7)
    target = random_target(gens, 1)
    cert = prove(target, gens)
    assert cert is not None and verify(cert, target, gens)
    assert len(cert.nonzero_generators(gens)) == 13
    text = json.dumps(cert.to_json(gens), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "bc51b371705938a8"
    assert prove(-target, gens) is None


def test_sparse_target_stops_at_zero_mass(monkeypatch):
    # I(X1;X2|X3..X7) is a generator: phase 1 reaches zero mass in 2 pivots,
    # where running it to its end, as an LP with costs does, takes 1,714
    exchanges = []

    def counting(*args):
        exchanges.append(args[3:])
        return exchange(*args)

    exchange = simplex._exchange
    monkeypatch.setattr(simplex, "_exchange", counting)
    gens = elemental(7)
    target = mutual_info(7, 1, 2, 0b1111100)
    cert = prove(target, gens)
    assert len(exchanges) <= 2
    assert cert.nonzero_generators(gens) == {"I(X1;X2|X3X4X5X6X7)": 1}
    assert verify(cert, target, gens)
