"""Exact rational linear programming via two-phase simplex with Bland's
rule.

Problems are given in standard form:  minimize c.x  subject to A x = b,
x >= 0.  There is no floating point anywhere, so feasibility answers are
exact and every solution vector can be re-verified by plain arithmetic.
Bland's pivoting rule guarantees termination even on degenerate problems.

The tableau is held in integers.  Each constraint row is a positive
integer multiple of the rational tableau row B^-1 [A | I | b]: at set-up
a row is scaled by the lcm of its denominators, and after every update it
is divided by the gcd of its entries.  The artificial columns share their
row's scale, so their entry in row i starts at that scale, not at 1.  The
reduced costs are one more such row, pivoted with the others.  A pivot
on a positive entry p replaces every other row r by r*p - r[col]*pivot_row,
a positive multiple of the rational update, so no sign ever changes;
driving an artificial out of the basis may meet a negative entry, and
then the pivot row (whose right-hand side is 0) is negated first.

Bland's rule reads only signs of reduced costs and entries, and the
ratio test compares ratios, which cross-multiplication decides exactly;
none of these changes under positive row scaling.  So the integer
tableau takes exactly the pivots of the rational one and returns the
same vertex, recovered at the end as x[B_i] = rhs_i / row_i[B_i].
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

ZERO = Fraction(0)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...]
    objective: Fraction


def _primitive(line: list[int]) -> list[int]:
    g = gcd(*line)
    return [v // g for v in line] if g > 1 else line


def _pivot(tableau: list[list[int]], basis: list[int], row: int, col: int) -> None:
    """Pivot on tableau[row][col], which must be positive.  Every line of
    the tableau other than `row` is updated, including an objective row
    kept after the constraint rows."""
    pivot_row = tableau[row]
    p = pivot_row[col]
    # pivot rows are sparse: beyond the scaling by p, only their nonzero
    # columns change
    nonzero = [(j, v) for j, v in enumerate(pivot_row) if v]
    for r, line in enumerate(tableau):
        f = line[col]
        if f and r != row:
            new = [a * p for a in line] if p != 1 else line[:]
            for j, v in nonzero:
                new[j] -= f * v
            tableau[r] = _primitive(new)
    basis[row] = col


def _objective_row(tableau: list[list[int]], basis: list[int], cost: list[int]) -> list[int]:
    """A positive multiple of the reduced-cost row cost - sum_i cost[B_i] T_i
    (rational rows T_i = tableau[i] / tableau[i][B_i]), for integer costs
    with a 0 in the right-hand-side column."""
    scale = lcm(*(line[b] for b, line in zip(basis, tableau) if cost[b]))
    obj = [scale * v for v in cost]
    for b, line in zip(basis, tableau):
        if cost[b]:
            f = cost[b] * (scale // line[b])
            obj = [o - f * v for o, v in zip(obj, line)]
    return _primitive(obj)


def _run_simplex(tableau: list[list[int]], basis: list[int]) -> bool:
    """Minimize in place; the last line of `tableau` is the objective row.
    False when the objective is unbounded below.

    Bland's rule: the entering column is the lowest-index one with a
    negative reduced cost; the leaving row is the lowest-basis-index
    among the minimum-ratio rows.  Columns absent from the tableau (the
    artificials in phase 2) never enter.
    """
    rows = range(len(basis))
    while True:
        obj = tableau[-1]
        entering = next((j for j in range(len(obj) - 1) if obj[j] < 0), -1)
        if entering < 0:
            return True
        leaving = -1
        for i in rows:
            line = tableau[i]
            a = line[entering]
            if a > 0:
                if leaving < 0:
                    leaving, best_rhs, best_a = i, line[-1], a
                    continue
                # line[-1] / a against best_rhs / best_a, both denominators positive
                lhs, rhs = line[-1] * best_a, best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, best_rhs, best_a = i, line[-1], a
        if leaving < 0:
            return False
        _pivot(tableau, basis, leaving, entering)


def solve_lp(a: Sequence[Sequence["int | Fraction"]], b: Sequence["int | Fraction"],
             c: Sequence["int | Fraction"]) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0, exactly.

    `a` is a list of rows.  Entries may be int or Fraction, mixed freely:
    only their numerator and denominator are read, and zero entries are
    skipped while the rows are scaled to integers."""
    m = len(a)
    n = len(c)
    if any(len(row) != n for row in a) or len(b) != m:
        raise ValueError("inconsistent LP shapes")
    # integer rows [A_i | b_i] scaled so that b_i >= 0; identically-zero
    # rows are dropped (consistent ones only)
    rows = []
    scales = []
    for row, bi in zip(a, b):
        if not any(row):
            if bi != 0:
                return LPResult("infeasible", (), ZERO)
            continue
        line = list(row) + [bi]
        scale = lcm(*(v.denominator for v in line if v))
        signed = -scale if bi < 0 else scale
        rows.append([signed // v.denominator * v.numerator if v else 0 for v in line])
        scales.append(scale)
    m = len(rows)
    if m == 0:
        # no constraint binds x >= 0: x = 0 is optimal unless a cost is negative
        if any(v < 0 for v in c):
            return LPResult("unbounded", (), ZERO)
        return LPResult("optimal", tuple(ZERO for _ in range(n)), ZERO)

    # phase 1: minimize the artificial total from the all-artificial basis;
    # artificial i has entry scales[i] in row i, the row's own scale
    tableau = [line[:n] + [scales[i] if k == i else 0 for k in range(m)] + line[n:]
               for i, line in enumerate(rows)]
    basis = [n + i for i in range(m)]
    tableau.append(_objective_row(tableau, basis, [0] * n + [1] * m + [0]))
    _run_simplex(tableau, basis)  # bounded below by 0
    tableau.pop()
    art = sum((Fraction(line[-1], line[bi]) for bi, line in zip(basis, tableau) if bi >= n),
              ZERO)
    if art != 0:
        return LPResult("infeasible", (), art)
    # drive remaining artificials out of the basis where possible; such a
    # row's right-hand side is 0, so negating it keeps the tableau valid
    for i in range(m):
        if basis[i] >= n:
            line = tableau[i]
            pivot_col = next((j for j in range(n) if line[j]), None)
            if pivot_col is not None:
                if line[pivot_col] < 0:
                    tableau[i] = [-v for v in line]
                _pivot(tableau, basis, i, pivot_col)
    # drop rows still ruled by an artificial (redundant constraints), then
    # the artificial columns, which never enter in phase 2
    keep = [i for i in range(m) if basis[i] < n]
    tableau = [_primitive(tableau[i][:n] + tableau[i][-1:]) for i in keep]
    basis = [basis[i] for i in keep]

    cost_scale = lcm(*(v.denominator for v in c))
    cost = [cost_scale // v.denominator * v.numerator for v in c] + [0]
    tableau.append(_objective_row(tableau, basis, cost))
    if not _run_simplex(tableau, basis):
        return LPResult("unbounded", (), ZERO)
    x = [ZERO] * n
    for bi, line in zip(basis, tableau):
        x[bi] = Fraction(line[-1], line[bi])
    obj = sum((Fraction(cj) * xj for cj, xj in zip(c, x) if cj != 0), ZERO)
    return LPResult("optimal", tuple(x), obj)
