"""Exact rational linear programming via two-phase simplex with Bland's
rule.

Everything runs on `fractions.Fraction`; there is no floating point
anywhere, so feasibility answers are exact and every solution vector can
be re-verified by plain arithmetic.  Bland's pivoting rule guarantees
termination even on degenerate problems.

Problems are given in standard form:  minimize c.x  subject to A x = b,
x >= 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...]
    objective: Fraction


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [a - factor * b for a, b in zip(line, tableau[row])]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction],
                 allowed: int) -> Fraction:
    """Minimize cost over the tableau in place; returns the optimum.

    `allowed` bounds the columns eligible to enter the basis (used to keep
    artificials out in phase 2).  Bland's rule: entering column is the
    lowest-index one with negative reduced cost; leaving row is the
    lowest-basis-index among the minimum-ratio rows.
    """
    m = len(tableau)
    width = len(tableau[0])
    # reduced-cost row: z_j - c_j bookkeeping via explicit recomputation
    while True:
        # reduced costs: c_j - sum_i c_basis[i] * T[i][j]
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
            obj = ZERO
            for i in range(m):
                if cost[basis[i]] != 0:
                    obj += cost[basis[i]] * tableau[i][width - 1]
            return obj
        # ratio test
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
            raise _Unbounded()
        _pivot(tableau, basis, leaving, entering)


class _Unbounded(Exception):
    pass


def solve_lp(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction],
             c: Sequence[Fraction]) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0, exactly."""
    m = len(a)
    n = len(c)
    if any(len(row) != n for row in a) or len(b) != m:
        raise ValueError("inconsistent LP shapes")
    # drop identically-zero rows (consistent ones only)
    rows = []
    rhs = []
    for row, bi in zip(a, b):
        if all(v == 0 for v in row):
            if bi != 0:
                return LPResult("infeasible", (), ZERO)
            continue
        if bi < 0:
            rows.append([-v for v in row])
            rhs.append(-bi)
        else:
            rows.append([Fraction(v) for v in row])
            rhs.append(Fraction(bi))
    m = len(rows)
    if m == 0:
        x = tuple(ZERO for _ in range(n))
        return LPResult("optimal", x, ZERO)

    width = n + m + 1
    tableau = []
    for i in range(m):
        line = rows[i] + [ONE if j == i else ZERO for j in range(m)] + [rhs[i]]
        tableau.append(line)
    basis = [n + i for i in range(m)]

    # phase 1: minimize the artificial total
    phase1_cost = [ZERO] * n + [ONE] * m + [ZERO]
    try:
        art = _run_simplex(tableau, basis, phase1_cost, allowed=n + m)
    except _Unbounded:  # pragma: no cover - phase 1 objective is bounded below
        raise RuntimeError("phase-1 simplex reported unbounded")
    if art != 0:
        return LPResult("infeasible", (), art)
    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            pivot_col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if pivot_col is not None:
                _pivot(tableau, basis, i, pivot_col)
    # drop rows still ruled by an artificial (redundant constraints)
    keep = [i for i in range(m) if basis[i] < n]
    tableau = [tableau[i] for i in keep]
    basis = [basis[i] for i in keep]

    phase2_cost = [Fraction(v) for v in c] + [ZERO] * m + [ZERO]
    try:
        obj = _run_simplex(tableau, basis, phase2_cost, allowed=n)
    except _Unbounded:
        return LPResult("unbounded", (), ZERO)
    x = [ZERO] * n
    width = n + m + 1
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tableau[i][width - 1]
    return LPResult("optimal", tuple(x), obj)
