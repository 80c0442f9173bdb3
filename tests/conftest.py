from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import strategies as st

from infoineq import shannon
from infoineq.core import LinExpr, LogLinValue, coprime_exponents, log_sum_text
from infoineq.distributions import Distribution, cell_outcomes, enumerate_distributions
from infoineq.models import VectorSpaceSystem
from infoineq.parser import _Parser, _tokenize
from infoineq.shannon import elemental
from infoineq.simplex import LPResult


def log_value(*terms) -> LogLinValue:
    """The `LogLinValue` sum_i q_i * log2(r_i) of (q_i, r_i) pairs of ints,
    strings or Fractions."""
    return LogLinValue(tuple((Fraction(q), Fraction(r)) for q, r in terms))


def combine(*scaled) -> LogLinValue:
    """sum_i q_i * v_i for (q_i, v_i) pairs: the terms of each q_i * v_i in
    order, no term merged or dropped."""
    return LogLinValue(tuple((Fraction(q) * qi, ri) for q, v in scaled for qi, ri in v.terms))


def log_exponents(value: LogLinValue) -> dict[int, Fraction]:
    """The value as sum_b f_b * log2(b) over a coprime basis
    (`core.coprime_exponents`), only the nonzero f_b: empty iff it is 0."""
    scale = lcm(*(q.denominator for q, _ in value.terms))
    weights: dict[int, int] = {}
    for q, r in value.terms:
        w = q.numerator * (scale // q.denominator)
        weights[r.numerator] = weights.get(r.numerator, 0) + w
        weights[r.denominator] = weights.get(r.denominator, 0) - w
    return {b: Fraction(f, scale) for b, f in coprime_exponents(weights).items()}


def log_text(value: LogLinValue) -> str:
    """The value's terms as the reports write them (`core.log_sum_text`)."""
    return log_sum_text((q.numerator, q.denominator, r.numerator, r.denominator)
                        for q, r in value.terms)


def as_rational(value: LogLinValue) -> "Fraction | None":
    """The exact rational value of a `LogLinValue` that is a multiple of
    log2(2^j) for one j, else None: log2 of any other coprime-basis
    element is irrational and independent of log2(2)."""
    exps = log_exponents(value)
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
        values.append(log_value((total, 2)) if total else log_value())
    return tuple(values)


def zero_candidate(n: int) -> tuple[LogLinValue, ...]:
    return modular_candidate([0] * n)


def subspace_candidate(system: VectorSpaceSystem) -> tuple[LogLinValue, ...]:
    """The whole entropy vector of a subspace system, h(alpha) =
    rank(alpha) * log2(q) at every mask, as `LogLinValue`s."""
    ranks = [system.joint_rank(m) for m in range(1 << system.n)]
    return tuple(log_value((r, system.q)) if r else log_value() for r in ranks)


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


def integer_pmfs(n: int, max_support: int, max_denominator: int):
    """Every pmf of the stream, nothing skipped, as a walk item
    `(D', domains, atoms)`: the listing `enumerate_distributions` in
    the form that `pmf_walk` yields."""
    for dist in enumerate_distributions(n, max_support, max_denominator):
        cell = {o: c for c, o in enumerate(cell_outcomes(dist.domains))}
        yield dist.total, dist.domains, tuple((cell[o], v) for o, v in dist.counts)


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
).map(lambda terms: log_value(*terms))


def lin_exprs(n: int):
    masks = st.integers(min_value=1, max_value=(1 << n) - 1)
    return st.dictionaries(masks, small_rationals, max_size=5).map(
        lambda coeffs: LinExpr.make(n, coeffs))
