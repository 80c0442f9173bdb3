"""Exact rational linear programming: a two-phase revised simplex with
Bland's rule, which terminates even on degenerate problems.

Problems are given in standard form: minimize c.x subject to A x = b,
x >= 0, with A as sparse rows of (column, value) items, int or Fraction.
No floating point is used, so answers are exact and every solution can
be re-verified by plain arithmetic.

Each row of [A | b] is scaled to integers (negated when b_i < 0) to give
[Â | b̂]; Â is held as sparse columns of (row, value) items, and phase 1's
artificial k is the column scales[k]·e_k.  Instead of the tableau
B^-1 [Â | b̂] the solver keeps the block R: row i is a positive integer
multiple of row i of [B^-1 | B^-1 b̂], so R_i . Â_j is a positive
multiple of a tableau entry.  The reduced costs are (s, y) with s > 0
and d_j = s*c_j - y . Â_j; pricing stops at the first negative d_j,
Bland's entering column, whose entries R_i . Â_j are taken in one pass
over the rows.  A pivot on the positive entry p in row r replaces every
other row R_i with entry f by p*R_i - f*R_r, made primitive, or, when p
divides f, updates R_i in place to R_i - (f/p)*R_r, which keeps R_i's
scale, needs no gcd pass and changes only the entries where R_r is
nonzero; (s, y) becomes (s*p, p*y + d*R_r).  An artificial driven out of
the basis may leave on a negative entry; its row's right-hand side is 0,
so that row is negated first.

These are the dense rational tableau's pivots: Bland's rule reads only
signs of reduced costs and entries, the ratio test compares ratios by
cross-multiplication, and positive row scaling changes neither.  Every
quantity above is a positive multiple of its rational counterpart, whether
a row was replaced or updated in place and whatever multiple the gcd step
leaves, so the pivots and the vertex x[B_i] = R_i[-1] / (R_i . Â_{B_i})
are those of the `Fraction` tableau that `tests/test_simplex.py` keeps as
the reference.

An LP without costs stops phase 1 once the artificials' mass is 0 and reads
its vertex there.  The full path would find the same one: at objective 0
every later Bland pivot has ratio 0, the artificials are driven out of
rows whose right-hand side is 0, and a zero cost row prices no column in
phase 2.  Pivots that move no value are all it skips, thousands of them on
a sparse target over the elemental cone at n = 7 or 8.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .core import Value

ZERO = Fraction(0)


class LPResult(Value):
    __slots__ = ("status", "x", "objective")

    def __init__(self, status: str, x: tuple[Fraction, ...], objective: Fraction):
        self.status = status  # "optimal" | "infeasible" | "unbounded"
        self.x, self.objective = x, objective


def _primitive(line: list[int]) -> list[int]:
    g = gcd(*line)
    return [v // g for v in line] if g > 1 else line


def _dot(line: list[int], col: list[tuple[int, int]]) -> int:
    return sum(line[k] * v for k, v in col)


def _entries(rows: list[list[int]], col: list[tuple[int, int]]) -> list[int]:
    """The column B^-1 Â_j, row i scaled as rows[i] is: R_i . Â_j for each
    row in one pass, a positive multiple of the tableau's entry.  Columns of
    up to four nonzeros, every elemental one, are padded to four."""
    if len(col) > 4:
        return [sum([line[k] * v for k, v in col]) for line in rows]
    (a, va), (b, vb), (c, vc), (d, vd) = col + [(0, 0)] * (4 - len(col))
    return [line[a] * va + line[b] * vb + line[c] * vc + line[d] * vd for line in rows]


def _exchange(rows: list[list[int]], basis: list[int], entries: list[int],
              row: int, col: int) -> None:
    """Make `col`, whose column is `entries`, basic in `row`, where its entry
    must be positive: every other row with a nonzero entry is updated, in
    place when the pivot divides its entry.  Each row stays a positive
    multiple of its tableau row, so the pivot is the `Fraction` tableau's.
    Every pivot of `solve_lp` goes through here."""
    pivot_row = rows[row]
    p = entries[row]
    nonzero = [(j, v) for j, v in enumerate(pivot_row) if v]
    for r, f in enumerate(entries):
        if f and r != row:
            scaled = f % p
            if scaled:
                line = [a * p for a in rows[r]]
            else:
                # R_r - (f/p)*R_row, in place: row r keeps its scale, no gcd pass
                line, f = rows[r], f // p
            for j, v in nonzero:
                line[j] -= f * v
            if scaled:
                rows[r] = _primitive(line)
    basis[row] = col


def _minimize(rows: list[list[int]], basis: list[int], cols: list[list[tuple[int, int]]],
              cost: list[int], until_zero: bool = False) -> bool:
    """Minimize in place over the columns `cost` covers; False if unbounded.
    Bland's rule: the lowest-index column with a negative reduced cost
    enters; of the minimum-ratio rows, the lowest basis index leaves.

    With `until_zero` (costs >= 0), stop as soon as every basic column
    with a cost is 0, looked for at the start and after each pivot whose
    ratio is positive (a degenerate one moves no value).  The objective is
    then 0, its least value, so every later pivot would have ratio 0 and
    leave every value as it is."""
    # y = s * c_B B^-1, where row i of B^-1 is R_i / (R_i . Â_{B_i})
    pivots = {i: _dot(rows[i], cols[bi]) for i, bi in enumerate(basis) if cost[bi]}
    s = lcm(*pivots.values())
    y = [0] * (len(rows[0]) - 1 if rows else 0)
    for i, p in pivots.items():
        f = cost[basis[i]] * (s // p)
        y = [u + f * v for u, v in zip(y, rows[i])]
    moved = until_zero  # whether to look for zero mass
    while True:
        if moved and not any(line[-1] for line, bi in zip(rows, basis) if cost[bi]):
            return True
        entering = -1
        for j, cj in enumerate(cost):
            d = s * cj
            for k, v in cols[j]:
                d -= y[k] * v
            if d < 0:
                entering = j
                break
        if entering < 0:
            return True
        entries = _entries(rows, cols[entering])
        leaving, best_rhs, best_a = -1, 1, 0
        for i, a in enumerate(entries):
            if a > 0:
                # rhs / a against best_rhs / best_a (1/0 at first), exactly
                lhs, rhs = rows[i][-1] * best_a, best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, best_rhs, best_a = i, rows[i][-1], a
        if leaving < 0:
            return False
        p = entries[leaving]
        s, *y = _primitive([s * p] + [p * u + d * v for u, v in zip(y, rows[leaving])])
        _exchange(rows, basis, entries, leaving, entering)
        moved = until_zero and best_rhs


def solve_lp(a: Sequence[Sequence[tuple[int, "int | Fraction"]]],
             b: Sequence["int | Fraction"], c: Sequence["int | Fraction"]) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0, exactly.

    `a` is a list of sparse rows: row i lists (column, value) for the
    nonzero entries of A's row i.  Values may be int or Fraction, mixed
    freely: only their numerator and denominator are read.  When every
    cost is 0, the answer is the vertex where phase 1 first reaches zero
    mass, with no drive-out and no phase 2: the vertex they would end at."""
    n = len(c)
    if len(b) != len(a) or any(not 0 <= j < n for row in a for j, _ in row):
        raise ValueError("inconsistent LP shapes")
    # sparse integer columns of Â, and b̂ >= 0; consistent zero rows are dropped
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    rhs, scales = [], []
    for row, bi in zip(a, b):
        if not row:
            if bi != 0:
                return LPResult("infeasible", (), ZERO)
            continue
        scale = lcm(bi.denominator, *(v.denominator for _, v in row))
        signed = -scale if bi < 0 else scale
        i = len(rhs)
        for j, v in row:
            cols[j].append((i, signed // v.denominator * v.numerator))
        rhs.append(signed // bi.denominator * bi.numerator)
        scales.append(scale)
    m = len(rhs)
    # phase 1 from the all-artificial basis: B^-1 = diag(1 / scales), R = [I | b̂]
    cols += [[(k, scales[k])] for k in range(m)]
    rows = [[0] * (m + 1) for _ in range(m)]
    for i, line in enumerate(rows):
        line[i], line[m] = 1, rhs[i]
    basis = [n + i for i in range(m)]
    # an LP without costs ends at zero mass: no later pivot moves x (`_minimize`)
    costless = not any(c)
    _minimize(rows, basis, cols, [0] * n + [1] * m, costless)  # bounded below by 0
    art = sum((Fraction(line[-1], _dot(line, cols[bi]))
               for bi, line in zip(basis, rows) if bi >= n), ZERO)
    if art != 0:
        return LPResult("infeasible", (), art)
    if not costless:
        # drive artificials out where possible; their rows' right-hand sides are 0
        for i in range(m):
            if basis[i] >= n:
                line = rows[i]
                pivot_col = next((j for j in range(n) if _dot(line, cols[j])), None)
                if pivot_col is not None:
                    entries = _entries(rows, cols[pivot_col])
                    if entries[i] < 0:
                        rows[i] = [-v for v in line]
                        entries[i] = -entries[i]
                    _exchange(rows, basis, entries, i, pivot_col)
        # drop rows still ruled by an artificial (redundant); phase 2 prices j < n
        keep = [i for i in range(m) if basis[i] < n]
        rows = [rows[i] for i in keep]
        basis = [basis[i] for i in keep]
        cost_scale = lcm(*(v.denominator for v in c))
        if not _minimize(rows, basis, cols,
                         [cost_scale // v.denominator * v.numerator for v in c]):
            return LPResult("unbounded", (), ZERO)
    # artificials still basic after a costless stop are 0
    x = [ZERO] * n
    for bi, line in zip(basis, rows):
        if bi < n:
            x[bi] = Fraction(line[-1], _dot(line, cols[bi]))
    obj = sum((Fraction(cj) * xj for cj, xj in zip(c, x) if cj != 0), ZERO)
    return LPResult("optimal", tuple(x), obj)
