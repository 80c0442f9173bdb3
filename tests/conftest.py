from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from infoineq import shannon
from infoineq.core import LinExpr, LogLinValue
from infoineq.distributions import Distribution, cell_outcomes
from infoineq.models import VectorSpaceSystem
from infoineq.parser import _Parser, _tokenize
from infoineq.shannon import elemental
from infoineq.simplex import LPResult


def as_rational(value: LogLinValue) -> "Fraction | None":
    """The exact rational value of a `LogLinValue` that is a multiple of
    log2(2^j) for one j, else None: log2 of any other coprime-basis
    element is irrational and independent of log2(2)."""
    exps = value.log_exponents()
    if not exps:
        return Fraction(0)
    if len(exps) == 1:
        ((b, f),) = exps.items()
        if b & (b - 1) == 0:
            return f * (b.bit_length() - 1)
    return None


def sparse(rows) -> list[list[tuple]]:
    """Dense LP rows as the sparse rows `solve_lp` takes: (column, value)
    for every nonzero entry, in column order."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in rows]


def modular_candidate(weights) -> tuple[LogLinValue, ...]:
    """h(alpha) = sum_{j in alpha} w_j for nonnegative weights w, indexed
    by mask, each value as a rational multiple of log2(2).  Every
    nonnegative modular function is entropic."""
    n = len(weights)
    values = []
    for mask in range(1 << n):
        total = sum((Fraction(w) for j, w in enumerate(weights) if (mask >> j) & 1), Fraction(0))
        values.append(LogLinValue.of((total, 2)) if total else LogLinValue.zero())
    return tuple(values)


def zero_candidate(n: int) -> tuple[LogLinValue, ...]:
    return modular_candidate([0] * n)


def subspace_candidate(system: VectorSpaceSystem) -> tuple[LogLinValue, ...]:
    """The whole entropy vector of a subspace system, h(alpha) =
    rank(alpha) * log2(q) at every mask, as `LogLinValue`s."""
    ranks = [system.joint_rank(m) for m in range(1 << system.n)]
    return tuple(LogLinValue.of((r, system.q)) if r else LogLinValue.zero() for r in ranks)


def reference_profile(masks, total: int, dprime: int, domains: tuple[int, ...], atoms) -> tuple:
    """`refuter.ProfileScan.profile` with one marginal built per mask, none
    shared: per mask, the pmf's marginal counts scaled to the common
    denominator `total`, sorted."""
    outcomes = cell_outcomes(domains)
    scale = total // dprime
    key = []
    for mask in masks:
        idx = [i for i in range(len(domains)) if (mask >> i) & 1]
        acc: dict[tuple[int, ...], int] = {}
        for cell, count in atoms:
            m = tuple(outcomes[cell][i] for i in idx)
            acc[m] = acc.get(m, 0) + count * scale
        key.append(tuple(sorted(acc.values())))
    return tuple(key)


def parse_expr(text: str, var_names: list[str]) -> LinExpr:
    """Parse a single linear entropy expression over the given variables,
    with the grammar and errors of a constraint's sides."""
    p = _Parser(text, *_tokenize(text), var_names)
    expr = LinExpr.make(p.n, p.parse_coeffs())
    p.expect("eof")
    return expr


@pytest.fixture(scope="session")
def gens2():
    return elemental(2)


@pytest.fixture(scope="session")
def gens3():
    return elemental(3)


@pytest.fixture(scope="session")
def gens4():
    return elemental(4)


@pytest.fixture
def xor_triple() -> Distribution:
    q = Fraction(1, 4)
    return Distribution.make((2, 2, 2), {(0, 0, 0): q, (0, 1, 1): q,
                                         (1, 0, 1): q, (1, 1, 0): q})


@pytest.fixture
def corrupted_solver(monkeypatch) -> None:
    """`shannon.solve_lp` with 1 added to the first nonzero entry of every
    optimal solution: one multiplier of each certificate built from it is
    off, so `verify` rejects the certificate."""
    solve = shannon.solve_lp

    def corrupted(rows, b, cost):
        res = solve(rows, b, cost)
        if res.status != "optimal":
            return res
        x = list(res.x)
        x[next(j for j, v in enumerate(x) if v)] += 1
        return LPResult(res.status, tuple(x), res.objective)

    monkeypatch.setattr(shannon, "solve_lp", corrupted)


@pytest.fixture
def fair_bit() -> Distribution:
    return Distribution.make((2,), {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})


# -- hypothesis strategies ---------------------------------------------------

small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=4),
)

positive_rationals = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
)

log_lin_values = st.lists(
    st.tuples(small_rationals, positive_rationals), max_size=5
).map(lambda terms: LogLinValue.of(*terms))


def lin_exprs(n: int):
    masks = st.integers(min_value=1, max_value=(1 << n) - 1)
    return st.dictionaries(masks, small_rationals, max_size=5).map(
        lambda coeffs: LinExpr.make(n, coeffs))
