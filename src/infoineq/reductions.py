"""Reductions from conditional and max clauses to plain inequalities.

* antecedent preparation: antecedents that are provably valid are
  dropped, and the rest (`kept`) feed every reduction below;
* one exact LP per clause (`_reduction_lp`) in nonnegative weights
  lambda_i on the consequents c_i with sum(lambda) = 1, a multiplier
  mu_j per kept antecedent a_j, an optional slack eps on h([n]), and a
  multiplier per generator g:

      sum_i lambda_i c_i + eps h([n]) = sum_j mu_j a_j + sum_g nu_g g.

  `max_to_linear` solves it with no slack: max_i c_i >= 0 holds on the
  generator cone cut by the kept antecedents iff such a lambda exists.
  `tight_reduction` minimizes eps over it.

The direct multiplier reduction for a single consequent needs no code of
its own: it is one `shannon.prove` call with the kept antecedents.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .core import Clause, LinExpr, Value, entropy_of, full_set
from .shannon import GeneratorSet, ProofCertificate, cone_lp, prove, verify
from .simplex import LPResult


# ---------------------------------------------------------------------------
# Antecedent preprocessing shared by the conditional reductions
# ---------------------------------------------------------------------------

class PreparedAntecedents(Value):
    __slots__ = ("kept", "valid")

    def __init__(self, kept: tuple[LinExpr, ...], valid: tuple[LinExpr, ...]):
        self.kept = kept
        self.valid = valid  # the dropped ones, each zero or proved


def prepare_antecedents(antecedents: Sequence[LinExpr], gens: GeneratorSet) -> PreparedAntecedents:
    """Drop antecedents that are provably valid inequalities (they are
    always satisfied, so removing them only strengthens the implication).
    Each proof is re-checked by `verify`; one it rejects keeps its
    antecedent."""
    kept, valid = [], []
    for a in antecedents:
        dropped = a.is_zero() or ((proof := prove(a, gens)) is not None
                                  and verify(proof, a, gens))
        (valid if dropped else kept).append(a)
    return PreparedAntecedents(tuple(kept), tuple(valid))


def _reduction_lp(clause: Clause, kept: Sequence[LinExpr], gens: GeneratorSet,
                  relax: bool) -> LPResult:
    """The module's LP: columns -c_i per consequent, the kept antecedents,
    -h([n]) when `relax` (the only column with a cost), then the
    generators; the convex row makes the lambdas sum to 1."""
    n = clause.n
    columns = [-c for c in clause.consequents] + list(kept)
    cost = [0] * len(columns)
    if relax:
        columns.append(-entropy_of(n, full_set(n)))
        cost.append(1)
    cost += [0] * len(gens.generators)
    return cone_lp(LinExpr.zero(n), columns + gens.exprs(), cost,
                   convex=len(clause.consequents))


# ---------------------------------------------------------------------------
# Tight regime
# ---------------------------------------------------------------------------

def tight_target(consequent: LinExpr, antecedents: Sequence[LinExpr],
                 p: int, q: int) -> LinExpr:
    """c + (1/p) h([n]) - q * sum_j a_j, the unconditional relaxation."""
    n = consequent.n
    target = consequent + entropy_of(n, full_set(n)).scale(Fraction(1, p))
    for a in antecedents:
        target = target - a.scale(q)
    return target


def tight_reduction(clause: Clause, kept: Sequence[LinExpr], gens: GeneratorSet) -> Fraction:
    """eps*, the least eps at which some combination c = sum_i lambda_i c_i
    of the consequents has a certificate for c + eps h([n]) - q sum(kept)
    for some q >= 0.

    The caller establishes that every kept antecedent is tight (-a is in
    the cone).  Then one multiplier q = max_j mu_j serves every antecedent,
    so the LP's minimum is that eps*, and `tight_target(c, kept, p, q)`
    has a certificate for some q iff 1/p >= eps*: for every p <= 1/eps*
    and for no larger p.  At eps* = 0 the q sum(kept) proof is a
    multiplier reduction of the clause.  At eps* > 0 no finite schedule
    of p proves the clause at this generator set, and Farkas' lemma gives
    a polymatroid that meets every kept antecedent and violates c.

    The LP is always feasible: h([n]) is positive on every nonzero
    polymatroid, so it is interior to the elemental cone, and c + eps
    h([n]) is in the cone for eps large enough.
    """
    return _reduction_lp(clause, kept, gens, relax=True).objective


# ---------------------------------------------------------------------------
# Max-to-linear reduction
# ---------------------------------------------------------------------------

class MaxReduction(Value):
    __slots__ = ("lambdas", "certificate")

    def __init__(self, lambdas: tuple[Fraction, ...], certificate: ProofCertificate):
        self.lambdas = lambdas  # primitive integers
        self.certificate = certificate  # for sum_i lambdas_i c_i under the kept antecedents


def max_to_linear(clause: Clause, kept: Sequence[LinExpr],
                  gens: GeneratorSet) -> "MaxReduction | None":
    """Multipliers for a max clause, or None when the LP has no solution
    at this generator set.

    The LP's lambdas are scaled to primitive integers, and the combination
    sum_i lambda_i c_i is proved again by `prove` with the kept
    antecedents, so the certificate is that of the combination alone.
    """
    res = _reduction_lp(clause, kept, gens, relax=False)
    if res.status != "optimal":
        return None
    weights = res.x[:len(clause.consequents)]
    scale = lcm(*(w.denominator for w in weights))
    ints = [int(w * scale) for w in weights]
    g = gcd(*ints)
    lambdas = tuple(Fraction(v // g) for v in ints)
    combo = LinExpr.zero(clause.n)
    for weight, c in zip(lambdas, clause.consequents):
        if weight:
            combo = combo + c.scale(weight)
    return MaxReduction(lambdas, prove(combo, gens, antecedents=kept))
