"""Finite probability spaces with rational probabilities, their exact
entropic vectors, and a budgeted canonical enumeration.

Every entropic vector of such a space is exactly representable: each atom
with probability p contributes p*log2(1/p), a LogLinValue term.  The
enumeration is the engine behind counterexample search; its order is the
contract that makes "minimal counterexample" well defined:

    by increasing reduced denominator D', then increasing support size,
    then domain-size tuple (lexicographic), then the integer numerator
    tuple (lexicographic).

Each distribution appears exactly once per domain tuple: numerator tuples
with a common factor are skipped, so a pmf is emitted only at its reduced
denominator.

The order is defined once, by `pmf_stream`, which yields integer pmfs;
`enumerate_distributions` wraps each in a `Distribution`.  The refuter
scans the integer stream directly and skips pmfs whose marginal profile
it has already seen (exact, since the answer depends only on the
entropies that profile fixes); skipped pmfs still count as scanned.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, prod
from typing import Iterator, Mapping

from .core import EntropicCandidate, LogLinValue, as_fraction

Outcome = tuple[int, ...]
# (D', domains, ((cell, count), ...)): a pmf with probabilities count / D'
IntegerPmf = tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class Distribution:
    """A joint pmf on n finite variables with exact rational probabilities."""

    domains: tuple[int, ...]
    pmf: tuple[tuple[Outcome, Fraction], ...]

    def __post_init__(self):
        if not self.domains or any(d < 1 for d in self.domains):
            raise ValueError("domain sizes must be positive")
        total = Fraction(0)
        seen = set()
        for outcome, p in self.pmf:
            if len(outcome) != len(self.domains):
                raise ValueError("outcome arity mismatch")
            if any(not 0 <= x < d for x, d in zip(outcome, self.domains)):
                raise ValueError(f"outcome {outcome} outside domains {self.domains}")
            if outcome in seen:
                raise ValueError(f"duplicate outcome {outcome}")
            if p < 0:
                raise ValueError("negative probability")
            seen.add(outcome)
            total += p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if not any(p > 0 for _, p in self.pmf):
            raise ValueError("support must be nonempty")

    @staticmethod
    def make(domains, pmf: Mapping[Outcome, Fraction]) -> "Distribution":
        items = tuple(sorted((tuple(o), as_fraction(p)) for o, p in pmf.items() if p != 0))
        return Distribution(tuple(domains), items)

    @property
    def n(self) -> int:
        return len(self.domains)

    def support(self) -> list[Outcome]:
        return [o for o, p in self.pmf if p > 0]

    def marginal(self, mask: int) -> "Distribution":
        """Exact marginal on the variables selected by the mask."""
        idx = [i for i in range(self.n) if (mask >> i) & 1]
        if not idx:
            return Distribution.make((1,), {(0,): Fraction(1)})
        acc: dict[Outcome, Fraction] = {}
        for outcome, p in self.pmf:
            if p == 0:
                continue
            key = tuple(outcome[i] for i in idx)
            acc[key] = acc.get(key, Fraction(0)) + p
        return Distribution.make(tuple(self.domains[i] for i in idx), acc)

    def entropic_vector(self) -> EntropicCandidate:
        """h(alpha) = sum_x p_alpha(x) * log2(1 / p_alpha(x)), exactly."""
        values = [LogLinValue.zero()]
        for mask in range(1, 1 << self.n):
            marg = self.marginal(mask)
            terms = tuple((p, 1 / p) for _, p in marg.pmf if p > 0)
            values.append(LogLinValue(terms))
        return EntropicCandidate(self.n, tuple(values))

    def to_file_text(self) -> str:
        lines = ["vars " + " ".join(str(d) for d in self.domains)]
        for outcome, p in self.pmf:
            lines.append(" ".join(str(x) for x in outcome) + f" {p.numerator}/{p.denominator}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_file_text(text: str) -> "Distribution":
        lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        if not lines or not lines[0].startswith("vars"):
            raise ValueError("distribution file must start with a 'vars d1 ... dn' header")
        domains = tuple(int(tok) for tok in lines[0].split()[1:])
        pmf: dict[Outcome, Fraction] = {}
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != len(domains) + 1:
                raise ValueError(f"bad outcome line: {ln!r}")
            outcome = tuple(int(t) for t in toks[:-1])
            try:
                pmf[outcome] = Fraction(toks[-1])
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in outcome line: {ln!r}") from None
        return Distribution.make(domains, pmf)


# ---------------------------------------------------------------------------
# Canonical enumeration
# ---------------------------------------------------------------------------

def _tuples_with_support(cells: int, total: int, k: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer tuples of length `cells` summing to `total` with
    exactly k nonzero entries, in lexicographic order of the full tuple."""

    def rec(prefix: list[int], remaining: int, slots_left: int, zeros_left: int):
        if len(prefix) == cells:
            if remaining == 0:
                yield tuple(prefix)
            return
        # zero first keeps the stream lexicographically increasing
        if zeros_left > 0:
            prefix.append(0)
            yield from rec(prefix, remaining, slots_left, zeros_left - 1)
            prefix.pop()
        if slots_left == 1:
            values = (remaining,) if remaining >= 1 else ()
        elif slots_left > 1:
            # each remaining positive slot needs at least 1
            values = range(1, remaining - (slots_left - 1) + 1)
        else:
            values = ()
        for v in values:
            prefix.append(v)
            yield from rec(prefix, remaining - v, slots_left - 1, zeros_left)
            prefix.pop()

    if k < 1 or k > cells or total < k:
        return
    yield from rec([], total, k, cells - k)


def pmf_stream(n: int, max_support: int, max_denominator: int) -> Iterator[IntegerPmf]:
    """Exhaustive, duplicate-free-per-domain-tuple stream of joint pmfs as
    integers: `(D', domains, atoms)`, where `atoms` lists `(cell, count)`
    for the nonzero counts in increasing cell order, a cell is the index of
    an outcome in `cell_outcomes(domains)`, and each count is a numerator
    over D'.

    Covers all pmfs on per-variable domains of size <= max_support whose
    probabilities are multiples of 1/D' for some D' <= max_denominator,
    in the canonical order documented in the module docstring.  Budgets
    of zero yield an empty stream; completeness holds in the limit of
    growing budgets.
    """
    if max_support < 1 or max_denominator < 1:
        return
    for dprime in range(1, max_denominator + 1):
        for support_size in range(1, dprime + 1):
            for domains in product(range(1, max_support + 1), repeat=n):
                cells = prod(domains)
                if support_size > cells:
                    continue
                for nums in _tuples_with_support(cells, dprime, support_size):
                    if gcd(*nums) > 1:
                        # already emitted at the reduced denominator D'/g
                        continue
                    yield dprime, domains, tuple((i, v) for i, v in enumerate(nums) if v)


@lru_cache(maxsize=None)
def cell_outcomes(domains: tuple[int, ...]) -> tuple[Outcome, ...]:
    """The outcomes of a domain tuple in lexicographic (cell) order."""
    return tuple(product(*(range(d) for d in domains)))


def to_distribution(dprime: int, domains: tuple[int, ...], atoms) -> Distribution:
    """The `Distribution` of one `pmf_stream` item."""
    outcomes = cell_outcomes(domains)
    return Distribution.make(domains, {outcomes[i]: Fraction(v, dprime) for i, v in atoms})


def enumerate_distributions(n: int, max_support: int, max_denominator: int) -> Iterator[Distribution]:
    """`pmf_stream` as `Distribution`s, in the same order."""
    for dprime, domains, atoms in pmf_stream(n, max_support, max_denominator):
        yield to_distribution(dprime, domains, atoms)
