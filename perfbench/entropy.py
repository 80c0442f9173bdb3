"""Exact entropies of rational pmfs, independent of the program under test.

An entropy of a pmf with rational probabilities is sum_x p_x * log2(1/p_x).
Writing every probability as a product of prime powers turns it into
sum_q a_q * log(q) over primes q with rational a_q, up to the positive
factor 1/ln(2).  Logarithms of distinct primes are linearly independent
over the rationals, so such a value is zero exactly when every a_q is
zero, and otherwise its sign is settled by evaluating it at a precision
high enough to clear the rounding error.

Expressions are dicts {mask: Fraction} over subsets of the variables
(bit i is variable i); pmfs are dicts {outcome tuple: Fraction}.
"""
from __future__ import annotations

from fractions import Fraction

import mpmath

LogCoeffs = dict  # prime -> Fraction coefficient of log(prime)


def factor(k: int) -> dict[int, int]:
    """Prime factorisation of a positive integer by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= k:
        while k % d == 0:
            out[d] = out.get(d, 0) + 1
            k //= d
        d += 1
    if k > 1:
        out[k] = out.get(k, 0) + 1
    return out


def _add_log(acc: LogCoeffs, weight: Fraction, r: Fraction) -> None:
    """acc += weight * log(r) for a positive rational r."""
    for q, e in factor(r.numerator).items():
        acc[q] = acc.get(q, Fraction(0)) + weight * e
    for q, e in factor(r.denominator).items():
        acc[q] = acc.get(q, Fraction(0)) - weight * e


def marginal(pmf: dict, mask: int) -> dict:
    acc: dict = {}
    idx = [i for i in range(len(next(iter(pmf)))) if (mask >> i) & 1]
    for outcome, p in pmf.items():
        key = tuple(outcome[i] for i in idx)
        acc[key] = acc.get(key, Fraction(0)) + p
    return acc


def entropy(probs) -> LogCoeffs:
    """sum p * log(1/p) over the positive probabilities, as log coefficients."""
    acc: LogCoeffs = {}
    for p in probs:
        if p > 0:
            _add_log(acc, p, 1 / p)
    return {q: a for q, a in acc.items() if a != 0}


def entropy_vector(pmf: dict, n: int) -> list[LogCoeffs]:
    """h(mask) for every mask of n variables; h(0) is empty."""
    return [entropy(marginal(pmf, mask).values()) if mask else {}
            for mask in range(1 << n)]


def profile_key(h: list[LogCoeffs]) -> tuple:
    """A hashable canonical form of an entropy vector."""
    return tuple(tuple(sorted(v.items())) for v in h)


def evaluate(expr: dict, h: list[LogCoeffs]) -> LogCoeffs:
    """The exact value of sum_mask c_mask * h(mask)."""
    acc: LogCoeffs = {}
    for mask, c in expr.items():
        for q, a in h[mask].items():
            acc[q] = acc.get(q, Fraction(0)) + c * a
    return {q: a for q, a in acc.items() if a != 0}


def approx(value: LogCoeffs, dps: int = 50) -> mpmath.mpf:
    with mpmath.workdps(dps):
        return mpmath.fsum(mpmath.mpf(a.numerator) / a.denominator * mpmath.log(q)
                           for q, a in value.items())


def sign(value: LogCoeffs) -> int:
    """Exact sign in {-1, 0, 1}."""
    if not value:
        return 0
    dps = 50
    while dps <= 3200:
        v = approx(value, dps)
        if abs(v) > mpmath.mpf(10) ** (10 - dps):
            return 1 if v > 0 else -1
        dps *= 2
    raise ArithmeticError("nonzero value too close to zero to separate")


def parse_dist(text: str) -> tuple[tuple[int, ...], dict]:
    """Parse the 'vars d1 .. dn' / 'x1 .. xn p' distribution file format."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0][0] != "vars":
        raise ValueError("distribution text must start with 'vars'")
    domains = tuple(int(t) for t in lines[0][1:])
    pmf: dict = {}
    for toks in lines[1:]:
        outcome = tuple(int(t) for t in toks[:-1])
        if len(outcome) != len(domains) or outcome in pmf:
            raise ValueError(f"bad outcome line {' '.join(toks)!r}")
        if any(not 0 <= x < d for x, d in zip(outcome, domains)):
            raise ValueError(f"outcome {outcome} outside domains {domains}")
        pmf[outcome] = Fraction(toks[-1])
    if any(p < 0 for p in pmf.values()) or sum(pmf.values()) != 1:
        raise ValueError("not a pmf")
    return domains, pmf
