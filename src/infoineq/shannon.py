"""Provability in the cone spanned by the elemental inequalities (plus
optional user-supplied valid inequalities), with exact certificates.

A certificate is a nonnegative rational multiplier per generator (and per
antecedent, in the conditional case) such that

    target = sum_i mu_i * antecedent_i + sum_e lambda_e * generator_e

holds as an exact identity of linear expressions.  `verify` re-checks
that identity by plain coefficient arithmetic, independently of the LP
that produced it.

"Not provable" always means: the feasibility LP over *this* generator set
has no solution.  It is never a validity refutation -- there are valid
inequalities outside every fixed generator cone.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .core import Clause, LinExpr, Value, check_var_count, mask_label
from .distributions import Distribution
from .parser import default_names
from .refuter import Budget, refute
from .simplex import LPResult, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)

MONOTONICITY = "elemental-monotonicity"
SUBMODULARITY = "elemental-submodularity"
USER = "user-valid"


class Generator(Value):
    __slots__ = ("name", "kind", "expr", "provenance")

    def __init__(self, name: str, kind: str, expr: LinExpr, provenance: "str | None" = None):
        self.name, self.kind, self.expr, self.provenance = name, kind, expr, provenance


class GeneratorSet(Value):
    """The canonical elemental set for n, optionally extended by trusted
    user inequalities (each carrying a provenance note)."""

    __slots__ = ("n", "generators")

    def __init__(self, n: int, generators: tuple[Generator, ...]):
        self.n, self.generators = n, generators

    def exprs(self) -> list[LinExpr]:
        return [g.expr for g in self.generators]

    def names(self) -> list[str]:
        return [g.name for g in self.generators]

    def with_user(self, expr: LinExpr, name: str, provenance: str) -> "GeneratorSet":
        if expr.n != self.n:
            raise ValueError("user generator has wrong variable count")
        if name in self.names():
            raise ValueError(f"duplicate generator name {name!r}")
        return GeneratorSet(self.n, self.generators + (Generator(name, USER, expr, provenance),))


def elemental(n: int) -> GeneratorSet:
    """The n + C(n,2)*2^(n-2) elemental inequalities for n variables.

    Monotonicity instances h(X_i | X_{[n] - i}) >= 0 and submodularity
    instances I(X_i; X_j | X_alpha) >= 0 for i < j, alpha in [n] - {i,j}.
    Every inequality implied by monotonicity and submodularity is a
    nonnegative combination of these.

    Each generator's +-1 items are written directly, in mask order:
    h(N) - h(N - i), and h(Ki) + h(Kj) - h(Kij) - h(K) with the h(K) term
    absent when K is empty (K < Ki < Kj < Kij as masks, for i < j).
    """
    check_var_count(n)
    names = default_names(n)
    gens: list[Generator] = []
    everything = (1 << n) - 1
    labels = [mask_label(mask, names) for mask in range(everything + 1)]
    for i in range(n):
        rest = everything & ~(1 << i)
        if rest:
            label = f"H({names[i]}|{labels[rest]})"
            items = ((rest, MINUS_ONE), (everything, ONE))
        else:
            label = f"H({names[i]})"
            items = ((everything, ONE),)
        gens.append(Generator(label, MONOTONICITY, LinExpr(n, items)))
    for i, j in combinations(range(n), 2):
        bi, bj = 1 << i, 1 << j
        for mask in range(1 << n):
            if mask & (bi | bj):
                continue
            items = ((mask | bi, ONE), (mask | bj, ONE), (mask | bi | bj, MINUS_ONE))
            if mask:
                label = f"I({names[i]};{names[j]}|{labels[mask]})"
                items = ((mask, MINUS_ONE),) + items
            else:
                label = f"I({names[i]};{names[j]})"
            gens.append(Generator(label, SUBMODULARITY, LinExpr(n, items)))
    order = {MONOTONICITY: 0, SUBMODULARITY: 1}
    gens.sort(key=lambda g: (order[g.kind], g.name))
    return GeneratorSet(n, tuple(gens))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class ProofCertificate(Value):
    """Nonnegative multipliers witnessing target = sum mu_i a_i + sum l_e g_e;
    the proof trusts the user generators with a nonzero multiplier."""

    __slots__ = ("target", "antecedent_multipliers", "generator_multipliers")

    def __init__(self, target: LinExpr, antecedent_multipliers: Sequence[Fraction],
                 generator_multipliers: Sequence[Fraction]):
        self.target = target
        self.antecedent_multipliers = tuple(antecedent_multipliers)
        self.generator_multipliers = tuple(generator_multipliers)

    def nonzero_generators(self, gens: GeneratorSet) -> dict[str, Fraction]:
        return {g.name: m for g, m in zip(gens.generators, self.generator_multipliers) if m != 0}

    def to_json(self, gens: GeneratorSet) -> dict:
        return {
            "target": self.target.to_json(),
            "antecedent_multipliers": [str(m) for m in self.antecedent_multipliers],
            "generator_multipliers": {name: str(m)
                                      for name, m in self.nonzero_generators(gens).items()},
            "trusted_user_generators": [
                {"name": g.name, "provenance": g.provenance or ""}
                for g, m in zip(gens.generators, self.generator_multipliers)
                if m != 0 and g.kind == USER],
        }

    @staticmethod
    def from_json(data: dict, gens: GeneratorSet) -> "ProofCertificate":
        """The certificate of a `to_json` report; its trusted generators
        follow from the multipliers and `gens`, so that key is not read.
        A multiplier of a generator that `gens` lacks is a ValueError."""
        by_name = {name: Fraction(m) for name, m in data["generator_multipliers"].items()}
        unknown = sorted(by_name.keys() - {g.name for g in gens.generators})
        if unknown:
            raise ValueError(f"certificate names generators not in the set: {', '.join(unknown)}")
        return ProofCertificate(LinExpr.from_json(data["target"]),
                                [Fraction(m) for m in data["antecedent_multipliers"]],
                                [by_name.get(g.name, ZERO) for g in gens.generators])


def cone_lp(target: LinExpr, columns: Sequence[LinExpr], cost: Sequence[int],
            convex: int = 0) -> LPResult:
    """Minimize cost.x over x >= 0 with sum_j x_j * columns_j = target and,
    when `convex` > 0, with the first `convex` entries of x summing to 1.

    Row m lists (j, coefficient of h(m) in columns_j) for every column
    that mentions m, in column order, for every mask m including the
    empty set; the convex row comes last.
    """
    rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(1 << target.n)]
    for j, col in enumerate(columns):
        for m, v in col.items:
            rows[m].append((j, v))
    b = target.dense()
    if convex:
        rows.append([(j, 1) for j in range(convex)])
        b.append(ONE)
    return solve_lp(rows, b, cost)


def prove(c: LinExpr, gens: GeneratorSet,
          antecedents: Sequence[LinExpr] = ()) -> "ProofCertificate | None":
    """Certificate for c in cone(antecedents) + cone(generators), or None.

    None means the exact feasibility LP has no solution over this
    generator set -- not that c is invalid.  Among all certificates, one
    minimizing the total antecedent multiplier mass is returned: the LP's
    columns are the antecedents at cost 1, then the generators at cost 0
    (`cone_lp`).
    """
    for a in antecedents:
        if a.n != c.n:
            raise ValueError("antecedent has wrong variable count")
    if gens.n != c.n:
        raise ValueError(f"dimension mismatch: target n={c.n}, generators n={gens.n}")
    k = len(antecedents)
    res = cone_lp(c, list(antecedents) + gens.exprs(), [1] * k + [0] * len(gens.generators))
    if res.status != "optimal":
        return None
    return ProofCertificate(c, res.x[:k], res.x[k:])


def verify(cert: ProofCertificate, c: LinExpr, gens: GeneratorSet,
           antecedents: Sequence[LinExpr] = ()) -> bool:
    """Exact re-check of the certificate identity, independent of the LP."""
    if len(cert.antecedent_multipliers) != len(antecedents):
        return False
    if len(cert.generator_multipliers) != len(gens.generators):
        return False
    if any(m < 0 for m in cert.antecedent_multipliers):
        return False
    if any(m < 0 for m in cert.generator_multipliers):
        return False
    residual = c
    for m, a in zip(cert.antecedent_multipliers, antecedents):
        residual = residual - a.scale(m)
    for m, g in zip(cert.generator_multipliers, gens.generators):
        if m != 0:
            residual = residual - g.expr.scale(m)
    return residual.is_zero()


# ---------------------------------------------------------------------------
# Tight / slack classification
# ---------------------------------------------------------------------------

TIGHT = "tight"
SLACK = "slack"
UNKNOWN = "unknown"


class SlackWitness(Value):
    """A candidate on which the inspected expressions are strictly
    positive: the modular vector h(alpha) = sum_{j in alpha} w_j of
    nonnegative rational weights, or a distribution; `kind` names which."""

    __slots__ = ("weights", "distribution")

    def __init__(self, weights: "tuple[Fraction, ...] | None" = None,
                 distribution: "Distribution | None" = None):
        self.weights, self.distribution = weights, distribution

    @property
    def kind(self) -> str:
        return "modular" if self.distribution is None else "distribution"

    def describe(self) -> dict:
        if self.distribution is None:
            return {"kind": self.kind, "weights": [str(w) for w in self.weights]}
        return {"kind": self.kind, "file": self.distribution.to_file_text()}


def _nonpositive(c: LinExpr, gens: GeneratorSet) -> bool:
    """Whether -c has a certificate from gens that `verify` accepts."""
    cert = prove(-c, gens)
    return cert is not None and verify(cert, -c, gens)


def classify_tight(c: LinExpr, gens: GeneratorSet, budget: Budget) -> str:
    """TIGHT if -c has a verified proof from gens (so c.h <= 0 on the
    whole cone); SLACK if the searches of `joint_slack` find a candidate
    with c.h > 0: the modular LP, then the distribution scan within the
    budget; UNKNOWN otherwise.  A failed proof of -c at gens means none at
    the elemental subset either, so the scan runs without `joint_slack`'s
    second proof."""
    if _nonpositive(c, gens):
        return TIGHT
    if _modular_slack([c]) or _distribution_slack([c], budget):
        return SLACK
    return UNKNOWN


def joint_slack(exprs: Sequence[LinExpr], budget: Budget) -> "SlackWitness | None":
    """A single candidate making every expression strictly positive.

    First tries modular vectors (`_modular_slack`).  Then, unless some -c_i
    has a verified proof at the elemental set (c_i <= 0 everywhere, so no
    witness exists), falls back to the canonical distribution stream
    within the budget (`_distribution_slack`).  None means not found at
    this budget.
    """
    witness = _modular_slack(exprs)
    if witness is not None:
        return witness
    gens = elemental(exprs[0].n)
    if any(_nonpositive(c, gens) for c in exprs):
        return None
    return _distribution_slack(exprs, budget)


def _modular_slack(exprs: Sequence[LinExpr]) -> "SlackWitness | None":
    """The modular vector of least total weight with c_i . h_w >= 1 for all
    i, from one LP over w >= 0; scale invariance makes the unit margin
    lossless, so None means no modular vector makes every c_i positive.
    No expression gives the empty vector."""
    if not exprs:
        return SlackWitness(weights=())
    n = exprs[0].n
    k = len(exprs)
    # variables: w_1..w_n, slacks s_1..s_k; rows: sum_j A_ij w_j - s_i = 1
    a_rows = [[(j, v) for j in range(n) if (v := c.step_value(1 << j))] + [(n + i, MINUS_ONE)]
              for i, c in enumerate(exprs)]
    b = [Fraction(1)] * k
    cost = [Fraction(1)] * n + [ZERO] * k
    res = solve_lp(a_rows, b, cost)
    if res.status == "optimal":
        return SlackWitness(weights=tuple(res.x[:n]))
    return None


def _distribution_slack(exprs: Sequence[LinExpr], budget: Budget) -> "SlackWitness | None":
    """The first pmf of the canonical stream with every c_i.h > 0: it
    falsifies max(-c_1, ..., -c_k) >= 0.  The scan takes the budget's s
    and D only, never its subspace systems, since a `SlackWitness` is a
    pmf."""
    result = refute(Clause(exprs[0].n, (), tuple(-c for c in exprs)),
                    Budget(budget.max_support, budget.max_denominator))
    if result.found:
        return SlackWitness(distribution=result.counterexample.witness)
    return None
