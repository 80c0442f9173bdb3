"""Shared domain types: variable sets, exact log-linear reals, linear
expressions over joint entropies, and clause/constraint structure.

Everything here is exact.  Probabilities and coefficients are
`fractions.Fraction`; entropy-like quantities are `LogLinValue`, a formal
sum of rational multiples of base-2 logarithms of positive rationals.
Such values admit a decidable sign test, which is what makes every
decision path in the toolkit exact: factor each rational into primes
(`_factor_cached`, stdlib trial division, Miller-Rabin and Pollard rho),
collect the value as sum_p f_p * log p, and bound that sum away from zero.
The bound is a ladder of enclosures (`prime_sum_sign`): a float sum first,
whose error margin 2^-30 * sum |f_p log p| exceeds its worst rounding error
by a factor of about 2^20, then mpmath intervals at doubling precision.  A
float rung that cannot exclude zero only passes the value up the ladder, so
floats never decide a sign they cannot bound.  `mpmath` is imported only
when the float rung fails, which no corpus fixture needs.

All types are immutable after construction and safe to share between
concurrent workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import fsum, gcd, inf, isfinite, isqrt, log
from typing import Iterator, Mapping

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

_SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % d for d in range(2, isqrt(p) + 1)))
_MR_BASES = _SMALL_PRIMES[:13]  # 2..41
# Miller-Rabin on bases 2..41 is a proof of primality below this bound
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality of an int: exact below 3.3 * 10^24 (Miller-Rabin on the
    primes up to 41); above that the strong Lucas test is added, which
    makes it the Baillie-PSW test, with no known counterexample."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BELOW or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D) / 4."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1

    def halve(x: int) -> int:
        return (x + n if x % 2 else x) // 2

    U, V, Qk = 1, 1, Q % n  # index 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = halve((U + V) % n), halve((D * U + V) % n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's variant)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=None)
def _factor_cached(k: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of k >= 1 as sorted (prime, exponent) pairs."""
    if k < 1:
        raise ValueError(f"can only factor positive integers, got {k}")
    exps: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > k:
            break
        while k % p == 0:
            k //= p
            exps[p] = exps.get(p, 0) + 1
    rest = [k] if k > 1 else []
    while rest:
        m = rest.pop()
        if is_prime(m):
            exps[m] = exps.get(m, 0) + 1
            continue
        # rho would need about sqrt(p) steps on p^j, so split powers first;
        # every prime factor left is above 1000 > 2^9
        for j in range(2, m.bit_length() // 9 + 1):
            root = _iroot(m, j)
            if root ** j == m:
                rest += [root] * j
                break
        else:
            d = _pollard_rho(m)
            rest += [d, m // d]
    return tuple(sorted(exps.items()))


def _iroot(m: int, j: int) -> int:
    """floor(m ** (1/j)) for m >= 1, by Newton's method from above."""
    x = 1 << -(-m.bit_length() // j)
    while True:
        y = ((j - 1) * x + m // x ** (j - 1)) // j
        if y >= x:
            return x
        x = y


# Rungs of the sign ladder: a float sum, then mpmath intervals
_FLOAT_PREC = 53
_PRECISIONS = (_FLOAT_PREC,) + tuple(64 << k for k in range(15))  # up to 2^20 bits


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
    since log p > 0; otherwise the sum is provably nonzero (the log p are
    linearly independent over the rationals), so an enclosure fine enough
    excludes zero.  The ladder of `_interval_log_sum` enclosures starts
    with a float sum at 53 bits, whose margin is safe by a wide factor (see
    there) and which decides all but near-ties such as q log 3 - p log 2
    for a convergent p/q of log2 3; those go on to mpmath intervals at
    64, 128, ... bits.
    """
    if not exps:
        return 0
    if len(exps) == 1:
        ((_, f),) = exps.items()
        return 1 if f > 0 else -1
    items = sorted(exps.items())
    for prec in _PRECISIONS:
        lo, hi = _interval_log_sum(items, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    raise RuntimeError("interval refinement failed to separate a nonzero value")


def _interval_log_sum(items, prec: int) -> tuple:
    """Rigorous enclosure of sum f_p * ln(p) at the given binary precision.

    Natural log is fine for the sign: it differs from log2 by a positive
    factor.

    At 53 bits the sum is taken in floats: each term float(f_p) * log(p)
    is within a few units in the last place (2^-53 relative) of its true
    value, and `fsum` adds them with one rounding, so the error is below
    about 10 * 2^-53 * sum |terms|.  The enclosure widens the float sum by
    2^-30 * sum |terms|, about 2^20 times that.  Any overflow, or a term
    below 2^-1000 (where rounding is no longer relative), gives the
    undecided (-inf, inf).  Higher precisions use mpmath interval arithmetic.
    """
    if prec <= _FLOAT_PREC:
        try:
            terms = [float(f) * log(p) for p, f in items]
            total = fsum(terms)
            margin = fsum(map(abs, terms)) * 2.0 ** -30
        except (OverflowError, ValueError):  # float(f) too large, or inf - inf
            return -inf, inf
        if not isfinite(margin) or min(map(abs, terms)) < 2.0 ** -1000:
            return -inf, inf
        return total - margin, total + margin
    import mpmath
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
        """The exact dot product c . h as a LogLinValue: the terms of each
        c_m * h(m) in mask order.  Only `h.n` and `h.value(m)` at the masks
        of c are read."""
        if self.n != h.n:
            raise ValueError(f"dimension mismatch: expr n={self.n}, candidate n={h.n}")
        terms: list[tuple[Fraction, Fraction]] = []
        for mask, c in self.items:
            terms += [(c * q, r) for q, r in h.value(mask).terms]
        return LogLinValue(tuple(terms))

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

