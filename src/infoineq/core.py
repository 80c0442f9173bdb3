"""Shared domain types: variable sets, exact log-linear reals, linear
expressions over joint entropies, and clause/constraint structure.

Everything here is exact.  Probabilities and coefficients are
`fractions.Fraction`; entropy-like quantities are `LogLinValue`, a formal
sum of rational multiples of base-2 logarithms of positive rationals.
Such values admit a decidable sign test (prime-exponent canonicalization
plus interval refinement), which is what makes every decision path in the
toolkit float-free.

All types are immutable after construction and safe to share between
concurrent workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping

import mpmath
from sympy import factorint

MAX_VARS = 16


def as_fraction(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction; reject floats."""
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact arithmetic paths")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Variable sets
# ---------------------------------------------------------------------------

class VarSet(int):
    """A subset of the variable index set [n], encoded as a bit mask.

    The canonical index of a subset equals its mask value, so a `VarSet`
    *is* an int and can index dense length-2^n vectors directly.  Bit i
    corresponds to variable X_i; the empty set has index 0.
    """

    __slots__ = ()

    def __new__(cls, bits: int = 0):
        if bits < 0 or bits >= (1 << MAX_VARS):
            raise ValueError(f"variable mask out of range: {bits}")
        return super().__new__(cls, bits)

    @classmethod
    def of(cls, *indices: int) -> "VarSet":
        mask = 0
        for i in indices:
            mask |= 1 << i
        return cls(mask)

    def indices(self) -> Iterator[int]:
        bits = int(self)
        i = 0
        while bits:
            if bits & 1:
                yield i
            bits >>= 1
            i += 1

    def union(self, other: int) -> "VarSet":
        return VarSet(int(self) | int(other))

    def intersect(self, other: int) -> "VarSet":
        return VarSet(int(self) & int(other))

    def contains(self, index: int) -> bool:
        return bool(int(self) >> index & 1)

    def size(self) -> int:
        return int(self).bit_count()

    def label(self, names: "tuple[str, ...] | None" = None) -> str:
        if int(self) == 0:
            return "{}"
        if names is None:
            return "".join(f"X{i + 1}" for i in self.indices())
        return "".join(names[i] for i in self.indices())


def full_set(n: int) -> VarSet:
    return VarSet((1 << n) - 1)


def subsets(n: int) -> Iterator[VarSet]:
    """All subsets of [n] in canonical (mask) order, starting with {}."""
    for mask in range(1 << n):
        yield VarSet(mask)


# ---------------------------------------------------------------------------
# Exact log-linear values
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _factor_cached(k: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(factorint(k).items()))


_INTERVAL_START_PREC = 64
_INTERVAL_MAX_PREC = 1 << 20


@dataclass(frozen=True)
class LogLinValue:
    """A formal sum sum_i q_i * log2(r_i) with q_i rational, r_i positive
    rational.  This class covers every joint entropy of a finite
    distribution with rational probabilities, and the (1/c) * log2(a/b)
    inputs of the recognizability checks.
    """

    terms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        for q, r in self.terms:
            if not isinstance(q, Fraction) or not isinstance(r, Fraction):
                raise TypeError("LogLinValue terms must be Fractions")
            if r <= 0:
                raise ValueError(f"logarithm argument must be positive, got {r}")

    @staticmethod
    def zero() -> "LogLinValue":
        return LogLinValue(())

    @staticmethod
    def of(*terms) -> "LogLinValue":
        return LogLinValue(tuple((as_fraction(q), as_fraction(r)) for q, r in terms))

    @staticmethod
    def from_rational(q) -> "LogLinValue":
        """The rational q itself, represented as q * log2(2)."""
        q = as_fraction(q)
        if q == 0:
            return LogLinValue.zero()
        return LogLinValue(((q, Fraction(2)),))

    def __add__(self, other: "LogLinValue") -> "LogLinValue":
        return LogLinValue(self.terms + other.terms)

    def scale(self, q) -> "LogLinValue":
        q = as_fraction(q)
        if q == 0:
            return LogLinValue.zero()
        return LogLinValue(tuple((q * qi, ri) for qi, ri in self.terms))

    def __neg__(self) -> "LogLinValue":
        return self.scale(-1)

    def __sub__(self, other: "LogLinValue") -> "LogLinValue":
        return self + (-other)

    def prime_exponents(self) -> dict[int, Fraction]:
        """Aggregate the value as sum_p f_p * log2(p) over primes p.

        By unique factorization the value is zero iff every f_p vanishes.
        """
        exps: dict[int, Fraction] = {}
        for q, r in self.terms:
            if q == 0 or r == 1:
                continue
            for p, e in _factor_cached(r.numerator):
                exps[p] = exps.get(p, Fraction(0)) + q * e
            for p, e in _factor_cached(r.denominator):
                exps[p] = exps.get(p, Fraction(0)) - q * e
        return {p: f for p, f in exps.items() if f != 0}

    def is_zero(self) -> bool:
        return not self.prime_exponents()

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, from the prime-exponent form."""
        return prime_sum_sign(self.prime_exponents())

    def as_rational(self) -> "Fraction | None":
        """Exact rational value when all prime exponents live on p=2."""
        exps = self.prime_exponents()
        if not exps:
            return Fraction(0)
        if set(exps) == {2}:
            return exps[2]
        return None

    def to_json(self) -> list:
        return [{"q": str(q), "r": str(r)} for q, r in self.terms]

    @staticmethod
    def from_json(data: list) -> "LogLinValue":
        return LogLinValue(tuple((Fraction(t["q"]), Fraction(t["r"])) for t in data))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{q}*log2({r})" for q, r in self.terms)


def prime_sum_sign(exps: Mapping[int, "Fraction | int"]) -> int:
    """Exact sign of sum_p f_p * log(p) over primes p, given the nonzero f_p.

    Zero iff there is no term; with one prime the sign is that of f_p,
    since log p > 0; otherwise the sum is provably nonzero, so interval
    arithmetic at increasing precision eventually excludes zero.
    """
    if not exps:
        return 0
    if len(exps) == 1:
        ((_, f),) = exps.items()
        return 1 if f > 0 else -1
    items = sorted(exps.items())
    prec = _INTERVAL_START_PREC
    while prec <= _INTERVAL_MAX_PREC:
        lo, hi = _interval_log_sum(items, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2
    raise RuntimeError("interval refinement failed to separate a nonzero value")


def _interval_log_sum(items, prec: int) -> tuple:
    """Rigorous enclosure of sum f_p * ln(p) at the given binary precision.

    Natural log is fine for the sign: it differs from log2 by a positive
    factor.
    """
    saved = mpmath.iv.prec
    try:
        mpmath.iv.prec = prec
        total = mpmath.iv.mpf(0)
        for p, f in items:
            coeff = mpmath.iv.mpf(f.numerator) / mpmath.iv.mpf(f.denominator)
            total += coeff * mpmath.iv.log(mpmath.iv.mpf(p))
        return total.a, total.b
    finally:
        mpmath.iv.prec = saved


# ---------------------------------------------------------------------------
# Linear expressions over entropies
# ---------------------------------------------------------------------------

def _normalize_coeffs(n: int, coeffs: Mapping[int, Fraction]) -> tuple[tuple[int, Fraction], ...]:
    out = []
    for mask in sorted(coeffs):
        c = coeffs[mask]
        if c == 0:
            continue
        if mask == 0:
            raise ValueError("coefficient on the empty set must be zero (h({}) = 0)")
        if mask < 0 or mask >= (1 << n):
            raise ValueError(f"subset mask {mask} out of range for n={n}")
        out.append((int(mask), as_fraction(c)))
    return tuple(out)


@dataclass(frozen=True)
class LinExpr:
    """A rational linear functional c over the 2^n joint entropies.

    Stored sparsely as (mask, coefficient) pairs; absent masks mean zero,
    and the coefficient on the empty set is identically zero.
    """

    n: int
    items: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def make(n: int, coeffs: Mapping[int, Fraction]) -> "LinExpr":
        if n < 1 or n > MAX_VARS:
            raise ValueError(f"variable count {n} out of range 1..{MAX_VARS}")
        return LinExpr(n, _normalize_coeffs(n, coeffs))

    @staticmethod
    def zero(n: int) -> "LinExpr":
        return LinExpr.make(n, {})

    def coeff(self, mask: int) -> Fraction:
        for m, c in self.items:
            if m == mask:
                return c
        return Fraction(0)

    def coeffs(self) -> dict[int, Fraction]:
        return {m: c for m, c in self.items}

    def is_zero(self) -> bool:
        return not self.items

    def __add__(self, other: "LinExpr") -> "LinExpr":
        self._check(other)
        merged = self.coeffs()
        for m, c in other.items:
            merged[m] = merged.get(m, Fraction(0)) + c
        return LinExpr.make(self.n, merged)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + other.scale(-1)

    def __neg__(self) -> "LinExpr":
        return self.scale(-1)

    def scale(self, q) -> "LinExpr":
        q = as_fraction(q)
        return LinExpr.make(self.n, {m: q * c for m, c in self.items})

    def _check(self, other: "LinExpr"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: n={self.n} vs n={other.n}")

    def eval(self, h: "EntropicCandidate") -> LogLinValue:
        """The exact dot product c . h as a LogLinValue."""
        if self.n != h.n:
            raise ValueError(f"dimension mismatch: expr n={self.n}, candidate n={h.n}")
        total = LogLinValue.zero()
        for mask, c in self.items:
            total = total + h.value(mask).scale(c)
        return total

    def dot_basic_modular(self, j: int) -> Fraction:
        """c . h^(j) where h^(j)(alpha) = 1 iff j in alpha."""
        return sum((c for m, c in self.items if (m >> j) & 1), Fraction(0))

    def dense(self) -> list[Fraction]:
        """Dense coefficient vector of length 2^n (index 0 is the empty set)."""
        vec = [Fraction(0)] * (1 << self.n)
        for m, c in self.items:
            vec[m] = c
        return vec

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": {str(m): str(c) for m, c in self.items}}

    @staticmethod
    def from_json(data: dict) -> "LinExpr":
        return LinExpr.make(int(data["n"]),
                            {int(m): Fraction(c) for m, c in data["coeffs"].items()})

    def __str__(self) -> str:
        from .parser import format_expr  # avoid import cycle at module load
        return format_expr(self)


# Entropy-expression builders.  Masks are ints (or VarSets).

def entropy_of(n: int, mask: int) -> LinExpr:
    """h(X_mask) as a LinExpr."""
    if mask == 0:
        return LinExpr.zero(n)
    return LinExpr.make(n, {mask: Fraction(1)})


def cond_entropy(n: int, y: int, given: int) -> LinExpr:
    """h(Y | X) = h(XY) - h(X)."""
    return entropy_of(n, y | given) - entropy_of(n, given)


def mutual_info(n: int, y: int, z: int, given: int = 0) -> LinExpr:
    """I(Y;Z | X) = h(XY) + h(XZ) - h(XYZ) - h(X)."""
    x = given
    return (entropy_of(n, x | y) + entropy_of(n, x | z)
            - entropy_of(n, x | y | z) - entropy_of(n, x))


# ---------------------------------------------------------------------------
# Entropic candidates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropicCandidate:
    """A vector h indexed by all 2^n subsets, with h({}) = 0.

    Candidates come from distributions, modular weight vectors, linear
    subspace systems, or parsed recognizability inputs; nothing here
    assumes the vector is actually entropic.
    """

    n: int
    values: tuple[LogLinValue, ...]

    def __post_init__(self):
        if len(self.values) != (1 << self.n):
            raise ValueError("candidate must have one value per subset")
        if not self.values[0].is_zero():
            raise ValueError("value at the empty set must be zero")

    @staticmethod
    def zero(n: int) -> "EntropicCandidate":
        return EntropicCandidate(n, tuple(LogLinValue.zero() for _ in range(1 << n)))

    def value(self, mask: int) -> LogLinValue:
        return self.values[mask]

    def to_json(self) -> dict:
        return {"n": self.n, "values": {str(m): v.to_json() for m, v in enumerate(self.values)}}

    @staticmethod
    def from_json(data: dict) -> "EntropicCandidate":
        n = int(data["n"])
        values = [LogLinValue.from_json(data["values"][str(m)]) for m in range(1 << n)]
        return EntropicCandidate(n, tuple(values))


# ---------------------------------------------------------------------------
# Clauses and constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Clause:
    """(A_1 >= 0 and ... and A_k >= 0) implies (C_1 >= 0 or ... or C_l >= 0).

    The antecedent list may be empty (unconditional case); the consequent
    list may not (an implication with empty disjunction is never valid:
    the zero vector already violates it).
    """

    n: int
    antecedents: tuple[LinExpr, ...]
    consequents: tuple[LinExpr, ...]

    def __post_init__(self):
        if not self.consequents:
            raise ValueError("clause must have at least one consequent")
        for e in self.antecedents + self.consequents:
            if e.n != self.n:
                raise ValueError("clause expressions disagree on variable count")

    def holds(self, h: EntropicCandidate) -> bool:
        """True iff the clause is satisfied on the candidate h."""
        if self.n != h.n:
            raise ValueError("dimension mismatch between clause and candidate")
        for a in self.antecedents:
            if a.eval(h).sign() < 0:
                return True
        for c in self.consequents:
            if c.eval(h).sign() >= 0:
                return True
        return False

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "antecedents": [a.to_json() for a in self.antecedents],
            "consequents": [c.to_json() for c in self.consequents],
        }

    @staticmethod
    def from_json(data: dict) -> "Clause":
        return Clause(
            int(data["n"]),
            tuple(LinExpr.from_json(a) for a in data["antecedents"]),
            tuple(LinExpr.from_json(c) for c in data["consequents"]),
        )


@dataclass(frozen=True)
class BooleanConstraint:
    """A conjunction of clauses over a shared variable count.

    Valid iff every clause is valid, so provers and refuters work one
    clause at a time.
    """

    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if not self.clauses:
            raise ValueError("constraint must have at least one clause")
        for c in self.clauses:
            if c.n != self.n:
                raise ValueError("clauses disagree on variable count")

    def holds(self, h: EntropicCandidate) -> bool:
        return all(c.holds(h) for c in self.clauses)

    def to_json(self) -> dict:
        return {"n": self.n, "clauses": [c.to_json() for c in self.clauses]}

    @staticmethod
    def from_json(data: dict) -> "BooleanConstraint":
        return BooleanConstraint(int(data["n"]),
                                 tuple(Clause.from_json(c) for c in data["clauses"]))

