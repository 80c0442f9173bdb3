"""Recognizing candidate vectors given in (1/c) * log2(a/b) form.

Both checks decide integer weights of log k (see `core`), as
`refuter.violation` does, and are one-sided, matching what a terminating
tool can promise:

* rejection is sound -- the candidate violates an inequality that is
  valid on the closed cone (an elemental one, or a user-supplied valid
  generator).  On the candidate, L * g . h has the weights
  {a_m: +w_m, b_m: -w_m} with w_m = L * g_m / c_m for one common L > 0;
* realization is sound -- an enumerated distribution reproduces every
  coordinate exactly, certifying the vector entropic: for its marginal
  counts C_x over N, c * (N log N - sum_x C_x log C_x) - N * log(a/b) has
  no coprime exponent left at every mask.  The search walks
  the canonical stream skipping twins (`shared_walk`, which the
  refuter's scans of the same budget share): a skipped pmf has an
  earlier twin with the same entropic vector, so the first realizing pmf
  is never skipped.  Each pmf is compared with the candidate one mask at
  a time and is dropped at its first mismatch;
* everything else is reported as inconclusive, a first-class verdict.
"""
from __future__ import annotations

from math import lcm

from .core import (Value, add_entropy_weights, check_var_count, coprime_exponents,
                   prime_sum_sign, read_int)
from .distributions import Distribution, shared_walk, to_distribution
from .parser import _split_var_token
from .refuter import Budget, check_budget
from .shannon import Generator, GeneratorSet


class CandidateRepr(Value):
    """For every nonempty subset alpha: naturals (a, b, c) encoding
    h(alpha) = (1/c) * log2(a/b).  Negative values are representable
    (a < b) and simply fail the nonnegativity tests."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: tuple[tuple[int, int, int], ...]):
        self.n = n
        self.entries = entries  # indexed by mask-1
        if len(entries) != (1 << n) - 1:
            raise ValueError("need an (a, b, c) entry for every nonempty subset")
        for a, b, c in entries:
            if c < 1:
                raise ValueError("malformed representation: c must be >= 1")
            if b < 1:
                raise ValueError("malformed representation: b must be >= 1")
            if a < 1:
                raise ValueError("malformed representation: a must be >= 1")

    @staticmethod
    def from_file_text(text: str) -> "CandidateRepr":
        """Lines 'SUBSET a b c'; variables inferred alphabetically."""
        rows: list[tuple[str, int, int, int]] = []
        names: set[str] = set()
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) != 4:
                raise ValueError(f"candidate line needs 'subset a b c': {raw!r}")
            subset = toks[0]
            for name in _split_var_token(subset):
                names.add(name)
            rows.append((subset, read_int(toks[1]), read_int(toks[2]), read_int(toks[3])))
        if not rows:
            raise ValueError("candidate file has no subset lines")
        # checked before the 2^n - 1 subsets are looked up
        check_var_count(len(names))
        order = sorted(names)
        index = {name: i for i, name in enumerate(order)}
        n = len(order)
        table: dict[int, tuple[int, int, int]] = {}
        for subset, a, b, c in rows:
            mask = 0
            for name in _split_var_token(subset):
                mask |= 1 << index[name]
            if mask in table:
                raise ValueError(f"duplicate subset {subset!r}")
            table[mask] = (a, b, c)
        missing = [m for m in range(1, 1 << n) if m not in table]
        if missing:
            raise ValueError(f"candidate file is missing {len(missing)} subset lines")
        return CandidateRepr(n, tuple(table[m] for m in range(1, 1 << n)))


class RecognitionResult(Value):
    __slots__ = ("violated", "realization")

    def __init__(self, violated: "Generator | None" = None,
                 realization: "Distribution | None" = None):
        self.violated, self.realization = violated, realization

    @property
    def verdict(self) -> str:
        if self.violated is not None:
            return "rejected"
        return "inconclusive" if self.realization is None else "realized"

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.violated is not None:
            out["violated"] = {"name": self.violated.name, "kind": self.violated.kind}
        if self.realization is not None:
            out["realization"] = self.realization.to_file_text()
        return out


def check_candidate(repr_: CandidateRepr, gens: GeneratorSet, budget: Budget) -> RecognitionResult:
    """Sound necessary tests, then a bounded sufficient test.

    Rejects with a witness when some generator inequality evaluates to a
    negative value on the candidate (exact sign); realizes when a
    distribution in the budget reproduces every coordinate exactly;
    otherwise inconclusive.  Rejections are sound for almost-entropic
    vectors as well; realizations certify entropic.
    """
    if gens.n != repr_.n:
        raise ValueError("generator set has wrong variable count")
    check_budget(repr_.n, budget)
    entries = repr_.entries
    for gen in gens.generators:
        scale = lcm(*(g.denominator * entries[m - 1][2] for m, g in gen.expr.items))
        weights: dict[int, int] = {}
        for m, g in gen.expr.items:
            a, b, c = entries[m - 1]
            w = g.numerator * (scale // (g.denominator * c))
            weights[a] = weights.get(a, 0) + w
            weights[b] = weights.get(b, 0) - w
        if prime_sum_sign(coprime_exponents(weights)) < 0:
            return RecognitionResult(violated=gen)
    for _, pmf in shared_walk(repr_.n, budget.max_support, budget.max_denominator):
        if pmf is None:
            break
        dist = to_distribution(*pmf)
        if all(_matches(dist, mask, entry) for mask, entry in enumerate(entries, 1)):
            return RecognitionResult(realization=dist)
    return RecognitionResult()


def _matches(dist: Distribution, mask: int, entry: tuple[int, int, int]) -> bool:
    """Whether c * N * h(mask) = N * log(a/b) on the pmf, exactly."""
    (a, b, c), total = entry, dist.total
    weights = {a: -total}
    weights[b] = weights.get(b, 0) + total
    add_entropy_weights(weights, c, total, [count for _, count in dist.marginal_counts(mask)])
    return not coprime_exponents(weights)
