"""Shared domain types: variable sets as int masks, exact log-linear
reals, linear expressions over joint entropies, and clause/constraint
structure.

Everything here is exact.  Probabilities and coefficients are
`fractions.Fraction`; entropy-like quantities are `LogLinValue`, a formal
sum of rational multiples of base-2 logarithms of positive rationals.
Such values admit a decidable sign test, which is what makes every
decision path in the toolkit exact.  First the numerators and denominators
of the terms are split into a coprime basis by gcds alone (`_coprime_basis`),
and the value is collected as sum_b f_b * log b over that basis.  The logs
of pairwise coprime integers > 1 are linearly independent over the
rationals, so the value is zero iff every f_b vanishes, and otherwise it is
bounded away from zero by a ladder of enclosures (`prime_sum_sign`): a float
sum first, whose error margin 2^-30 * sum |f_b log b| exceeds its worst
rounding error by a factor of about 2^20, then mpmath intervals at doubling
precision.  A float rung that cannot exclude zero only passes the value up
the ladder, so floats never decide a sign they cannot bound.  `mpmath` is
imported only when the float rung fails, which no corpus fixture needs.

A candidate entropy vector h has no class of its own: it is any mapping
from masks to `LogLinValue`s, such as a dict of the masks a constraint
mentions, or a 2^n tuple with h({}) = 0 first.  `LinExpr.eval` reads
h[mask] at its own masks and nothing else.

Every number read from outside text (budget values, the int options and
`secret-share`'s access sets and ratio, the numbers of `.dist` and
candidate files) goes through `read_int` or `read_fraction`.  They read
ASCII text as `int` and `Fraction` do, decimals included, and turn other
scripts' digits, underscores, a zero denominator, an exponent of more
than MAX_EXPONENT_DIGITS digits and a value of more than MAX_DIGITS digits
into a ValueError that names the text.
Constraint text has its own lexer, which takes ASCII digits only, and
its parser bounds each number as written and each collected coefficient
by MAX_DIGITS too.

The types are plain `__slots__` classes on the `Value` base.  Each
`__init__` runs the checks of its type; `Value` gives equality, hashing
and a repr over the fields named in `__slots__`.  No field is assigned
after construction, so values are safe to share and to hash.  That is a
convention, not enforced: a `__setattr__` guard would slow down every
construction, and `LogLinValue` and `LinExpr` are built on hot paths.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import fsum, gcd, inf, isfinite, lcm, log
from typing import Mapping, Sequence

MAX_VARS = 16


def check_var_count(n: int) -> None:
    """ValueError unless 1 <= n <= MAX_VARS: the one check of a variable
    count, and the one spelling of its message."""
    if n < 1 or n > MAX_VARS:
        raise ValueError(f"variable count {n} out of range 1..{MAX_VARS}")


class Value:
    """Base of the package's value types: `==`, `hash` and `repr` over the
    fields that a subclass names, in order, in its `__slots__`, as a frozen
    dataclass has them.  Instances of different classes are never equal."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


def as_fraction(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction; reject floats.  A Fraction
    comes back as is, past the slow abstract type check of `Fraction(x)`."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact arithmetic paths")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Numbers in outside text
# ---------------------------------------------------------------------------

# Python 3.10.7 and later convert an int of more than 4300 digits to or
# from text only when told to, and their error names no text; a number
# read is bounded below that on every version
MAX_DIGITS = 4000
_DIGITS_BOUND = 10 ** MAX_DIGITS
_DIGIT_RUN = re.compile(f"[0-9]{{{MAX_DIGITS + 1}}}")


class TooManyDigits(ValueError):
    """A number in outside text of more than MAX_DIGITS digits, as
    written or in the numerator or denominator of its value."""

    def __init__(self, text: str):
        super().__init__(f"{text!r} is a number of more than {MAX_DIGITS} digits")


def _ascii_number(text: str) -> str:
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a number in ASCII digits")
    if _DIGIT_RUN.search(text):
        raise TooManyDigits(text)
    return text


def read_int(text: str) -> int:
    """The integer that TEXT spells, as `int` reads ASCII text, with
    `int`'s message when it is no integer.  Other scripts' digits and
    underscores, which `int` also takes, are a ValueError, and more than
    MAX_DIGITS digits a `TooManyDigits`."""
    return int(_ascii_number(text))


# argparse names the type of an option value it rejects by `__name__`:
# "invalid int value: 'x'"
read_int.__name__ = "int"


# `Fraction` builds 10**exp before any check of the value, in time and
# memory that grow with exp: 0.2 ms at exp = 9999, 0.3 s at exp = 10**6
# (2-core VM)
MAX_EXPONENT_DIGITS = 4


def read_fraction(text: str) -> Fraction:
    """The rational that TEXT spells, as `read_int` reads integers:
    `Fraction`'s forms in ASCII ("1/2", "0.25", "2.5e-1") without
    underscores, with at most MAX_EXPONENT_DIGITS exponent digits after
    leading zeros, a `TooManyDigits` for a numerator or denominator of
    more than MAX_DIGITS digits, and a ValueError, not a
    ZeroDivisionError, for a zero denominator."""
    exponent = _ascii_number(text).lower().partition("e")[2].strip().lstrip("+-").lstrip("0")
    if exponent.isdigit() and len(exponent) > MAX_EXPONENT_DIGITS:
        raise ValueError(f"{text!r} has an exponent of more than {MAX_EXPONENT_DIGITS} digits")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None
    if abs(value.numerator) >= _DIGITS_BOUND or value.denominator >= _DIGITS_BOUND:
        raise TooManyDigits(text)
    return value


# ---------------------------------------------------------------------------
# Variable sets
# ---------------------------------------------------------------------------

# A set of variables is a plain int mask: bit i is variable X_i, so a
# subset's mask is its index in a dense 2^n vector, and the empty set is 0.
# `LinExpr.make` checks the masks of an expression against its n.

def mask_indices(mask: int) -> list[int]:
    """The indices of the variables in a mask, in increasing order: bit i
    is variable X_i."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mask_label(mask: int, names: Sequence[str], sep: str = "") -> str:
    """The names of the variables in a mask, in index order, joined by
    `sep`; the empty mask has the empty label."""
    return sep.join([names[i] for i in mask_indices(mask)])


# ---------------------------------------------------------------------------
# Exact log-linear values
# ---------------------------------------------------------------------------

# Miller-Rabin on the primes up to 41 is a proof of primality below this bound
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality of an int below 3.3 * 10^24, exactly: Miller-Rabin on the
    primes up to 41.  Above that bound the test proves nothing, so a larger
    n is a ValueError."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} out of range: primality is decided only below {_MR_EXACT_BELOW}")
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
    return True


@lru_cache(maxsize=None)
def _factor_cached(k: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of k >= 1 as sorted (prime, exponent) pairs,
    by trial division.

    Its cost grows with the prime factors of k, so it is meant for
    D-smooth k, whose prime factors are at most the denominator cap D of a
    scan: the marginal counts of `refuter.ProfileScan`, T = lcm(1..D), and
    the g <= D of `distributions._mobius_divisors`.  Exact signs of other
    values need no factoring (`coprime_exponents`).
    """
    if k < 1:
        raise ValueError(f"can only factor positive integers, got {k}")
    exps: dict[int, int] = {}
    p = 2
    while p * p <= k:
        while k % p == 0:
            k //= p
            exps[p] = exps.get(p, 0) + 1
        p += 1
    if k > 1:  # a prime above every p tried
        exps[k] = 1
    return tuple(sorted(exps.items()))


def _coprime_basis(ks) -> list[int]:
    """Pairwise coprime integers > 1 such that every k > 1 in ks is a
    product of their powers, by gcd splitting: a k that shares g > 1 with a
    basis element b replaces b by g, b / g and k / g.  The product of all
    pending numbers falls by g at each split, so the loop ends."""
    basis: list[int] = []
    todo = [k for k in ks if k > 1]
    while todo:
        k = todo.pop()
        for i, b in enumerate(basis):
            g = gcd(k, b)
            if g > 1:
                basis[i] = basis[-1]
                basis.pop()
                todo += [m for m in (g, b // g, k // g) if m > 1]
                break
        else:
            basis.append(k)
    return basis


# Rungs of the sign ladder: a float sum, then mpmath intervals
_FLOAT_PREC = 53
_PRECISIONS = (_FLOAT_PREC,) + tuple(64 << k for k in range(15))  # up to 2^20 bits


class LogLinValue(Value):
    """A formal sum sum_i q_i * log2(r_i) with q_i rational, r_i positive
    rational.  This class covers every joint entropy of a finite
    distribution with rational probabilities, and the (1/c) * log2(a/b)
    inputs of the recognizability checks.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Fraction, Fraction], ...]):
        self.terms = terms
        for q, r in terms:
            if not isinstance(q, Fraction) or not isinstance(r, Fraction):
                raise TypeError("LogLinValue terms must be Fractions")
            if r.numerator <= 0:  # the denominator is positive
                raise ValueError(f"logarithm argument must be positive, got {r}")

    @staticmethod
    def zero() -> "LogLinValue":
        return LogLinValue(())

    @staticmethod
    def of(*terms) -> "LogLinValue":
        return LogLinValue(tuple((as_fraction(q), as_fraction(r)) for q, r in terms))

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

    def log_exponents(self) -> dict[int, Fraction]:
        """Aggregate the value as sum_b f_b * log2(b) over a coprime basis
        (`coprime_exponents`), which is zero iff every f_b vanishes."""
        scale = lcm(*(q.denominator for q, _ in self.terms))
        weights: dict[int, int] = {}  # integer weights of log k, over scale
        for q, r in self.terms:
            w = q.numerator * (scale // q.denominator)
            weights[r.numerator] = weights.get(r.numerator, 0) + w
            weights[r.denominator] = weights.get(r.denominator, 0) - w
        return {b: Fraction(f, scale) for b, f in coprime_exponents(weights).items()}

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, from the coprime-basis form."""
        return prime_sum_sign(self.log_exponents())

    def __str__(self) -> str:
        return log_sum_text((q.numerator, q.denominator, r.numerator, r.denominator)
                            for q, r in self.terms)


def coprime_exponents(weights: Mapping[int, int]) -> dict[int, int]:
    """sum_k w_k * log k, for integers k >= 1 and integer weights w_k, as
    sum_b f_b * log b over a coprime basis: pairwise coprime integers b > 1
    that generate every k (`_coprime_basis`), with only the nonzero f_b.

    The logs of pairwise coprime integers > 1 are linearly independent
    over the rationals, so the sum is zero iff no f_b is left, and
    `prime_sum_sign` of the result is its exact sign.  Nothing is factored,
    so any k will do: the numerators and denominators of a `LogLinValue`,
    or the marginal counts of a pmf (`refuter.violation`).
    """
    weights = {k: w for k, w in weights.items() if w and k > 1}
    exps = {}
    for b in _coprime_basis(weights):
        f = 0
        for k, w in weights.items():
            while k % b == 0:
                k, f = k // b, f + w
        if f:
            exps[b] = f
    return exps


def _ratio_text(num: int, den: int) -> str:
    return f"{num}/{den}" if den != 1 else str(num)


def log_sum_text(terms) -> str:
    """The text of sum_i q_i * log2(r_i), "0" for no terms, from each
    term's integers (q_i numerator, q_i denominator, r_i numerator, r_i
    denominator) in lowest terms, each rational written as `str` of its
    `Fraction`: the one form of an exact value in the reports."""
    return " + ".join(f"{_ratio_text(qn, qd)}*log2({_ratio_text(rn, rd)})"
                      for qn, qd, rn, rd in terms) or "0"


def prime_sum_sign(exps: Mapping[int, "Fraction | int"]) -> int:
    """Exact sign of sum_b f_b * log(b), given the nonzero f_b.

    Precondition: the keys b are pairwise coprime integers > 1, such as
    primes or a coprime basis (`coprime_exponents`).  Then the
    log b are linearly independent over the rationals, and the ladder
    terminates on every input.  The sum is zero iff there is no term; with
    one key the sign is that of f_b, since log b > 0; otherwise the sum is
    provably nonzero, so an enclosure fine enough excludes zero.  The
    ladder of `_interval_log_sum` enclosures starts with a float sum at 53
    bits, whose margin is safe by a wide factor (see there) and which
    decides all but near-ties such as q log 3 - p log 2 for a convergent
    p/q of log2 3; those go on to mpmath intervals at 64, 128, ... bits.
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
    """Rigorous enclosure of sum f_b * ln(b) at the given binary precision.

    Natural log is fine for the sign: it differs from log2 by a positive
    factor.

    At 53 bits the sum is taken in floats: each term float(f_b) * log(b)
    is within a few units in the last place (2^-53 relative) of its true
    value, and `fsum` adds them with one rounding, so the error is below
    about 10 * 2^-53 * sum |terms|.  The enclosure widens the float sum by
    2^-30 * sum |terms|, about 2^20 times that.  Any overflow, or a term
    below 2^-1000 (where rounding is no longer relative), gives the
    undecided (-inf, inf).  Higher precisions use mpmath interval arithmetic.
    """
    if prec <= _FLOAT_PREC:
        try:
            terms = [float(f) * log(b) for b, f in items]
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
        for b, f in items:
            coeff = mpmath.iv.mpf(f.numerator) / mpmath.iv.mpf(f.denominator)
            total += coeff * mpmath.iv.log(mpmath.iv.mpf(b))
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
        out.append((mask, as_fraction(c)))
    return tuple(out)


class LinExpr(Value):
    """A rational linear functional c over the 2^n joint entropies.

    Stored sparsely as (mask, coefficient) pairs; absent masks mean zero,
    and the coefficient on the empty set is identically zero.
    """

    __slots__ = ("n", "items")

    def __init__(self, n: int, items: tuple[tuple[int, Fraction], ...]):
        self.n, self.items = n, items

    @staticmethod
    def make(n: int, coeffs: Mapping[int, Fraction]) -> "LinExpr":
        check_var_count(n)
        return LinExpr(n, _normalize_coeffs(n, coeffs))

    @staticmethod
    def zero(n: int) -> "LinExpr":
        return LinExpr.make(n, {})

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

    def eval(self, h: "Mapping[int, LogLinValue] | Sequence[LogLinValue]") -> LogLinValue:
        """The exact dot product c . h as a LogLinValue: the terms of each
        c_m * h[m] in mask order.  h is indexed by mask: a dict of the
        masks of c, or a 2^n tuple.  Only h[m] at the masks of c is read,
        so the caller vouches that h has this expression's n."""
        terms: list[tuple[Fraction, Fraction]] = []
        for mask, c in self.items:
            terms += [(c * q, r) for q, r in h[mask].terms]
        return LogLinValue(tuple(terms))

    def step_value(self, t: int) -> Fraction:
        """c . r_T, where r_T(S) = 1 when S meets the mask T and 0
        otherwise; r_T for T = {j} is the j-th basic modular vector."""
        return sum((c for m, c in self.items if m & t), Fraction(0))

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


# Entropy-expression builders.  Masks are ints.

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
# Clauses and constraints
# ---------------------------------------------------------------------------

class Clause(Value):
    """(A_1 >= 0 and ... and A_k >= 0) implies (C_1 >= 0 or ... or C_l >= 0).

    The antecedent list may be empty (unconditional case); the consequent
    list may not (an implication with empty disjunction is never valid:
    the zero vector already violates it).  `refuter.violation` decides it
    on a candidate.
    """

    __slots__ = ("n", "antecedents", "consequents")

    def __init__(self, n: int, antecedents: tuple[LinExpr, ...],
                 consequents: tuple[LinExpr, ...]):
        self.n, self.antecedents, self.consequents = n, antecedents, consequents
        if not consequents:
            raise ValueError("clause must have at least one consequent")
        for e in antecedents + consequents:
            if e.n != n:
                raise ValueError("clause expressions disagree on variable count")


class BooleanConstraint(Value):
    """A conjunction of clauses over a shared variable count.

    Valid iff every clause is valid, so provers and refuters work one
    clause at a time.
    """

    __slots__ = ("n", "clauses")

    def __init__(self, n: int, clauses: tuple[Clause, ...]):
        self.n, self.clauses = n, clauses
        if not clauses:
            raise ValueError("constraint must have at least one clause")
        for c in clauses:
            if c.n != n:
                raise ValueError("clauses disagree on variable count")

