"""Reductions from conditional and max clauses to plain inequalities.

* antecedent preparation: antecedents that are provably valid are
  dropped, and the rest (`kept`) feed every reduction below.  Two exact
  rules come first: a positive multiple of one Shannon quantity is valid,
  by its chain-rule certificate, and an antecedent negative on a step
  function r_T(S) = [S & T nonempty], a polymatroid, is not provable when
  every generator is >= 0 on r_T.  Only the rest fall back to an LP;
* one exact LP per clause (`_reduction_lp`) in nonnegative weights
  lambda_i on the consequents c_i with sum(lambda) = 1, a multiplier
  mu_j per kept antecedent a_j, an optional slack eps on h([n]), and a
  multiplier per generator g:

      sum_i lambda_i c_i + eps h([n]) = sum_j mu_j a_j + sum_g nu_g g.

  `max_to_linear` solves it with no slack: max_i c_i >= 0 holds on the
  generator cone cut by the kept antecedents iff such a lambda exists,
  and the same solution's mu and nu certify sum_i lambda_i c_i, so a max
  clause costs one LP.  `tight_reduction` minimizes eps over it.

The direct multiplier reduction for a single consequent needs no code of
its own: it is one `shannon.prove` call with the kept antecedents.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .core import Clause, LinExpr, Value, entropy_of, mutual_info
from .shannon import USER, GeneratorSet, ProofCertificate, cone_lp, prove, verify
from .simplex import LPResult


# ---------------------------------------------------------------------------
# Antecedent preprocessing shared by the conditional reductions
# ---------------------------------------------------------------------------

class PreparedAntecedents(Value):
    __slots__ = ("kept", "valid")

    def __init__(self, kept: tuple[LinExpr, ...], valid: tuple[LinExpr, ...]):
        self.kept = kept
        self.valid = valid  # the dropped ones, each zero or proved


def elemental_index(gens: GeneratorSet) -> dict[frozenset[int], int]:
    """Each elemental generator's position in the set, by its masks."""
    return {frozenset(m for m, _ in g.expr.items): k for k, g in enumerate(gens.generators)
            if g.kind != USER}


def chain_rule_certificate(a: LinExpr, gens: GeneratorSet,
                           index: dict[frozenset[int], int]) -> "ProofCertificate | None":
    """A certificate for a = c I(P;Q|R) with c > 0 and R within P & Q (the
    case P = Q is c h(P|R)), read off a's at most four items, or None.
    `index` is the set's `elemental_index`.  By the chain rule I(P;Q|R)
    sums I(y; Q | S) over y in P - R, with S = R + the earlier y; that is
    h(y|S) = h(y|N-y) + I(y; N-y-S | S) for y in Q, and each I(y; T | S)
    sums the elemental I(y; t | S + the earlier t) over t in T."""
    c = max((v for _, v in a.items), default=0)
    pos = [m for m, v in a.items if v == c]
    if c <= 0 or len(pos) > 2:
        return None
    p, q = pos[0], pos[-1]
    r = sum(m for m, v in a.items if v == -c) - (p | q if p != q else 0)
    if r & ~(p & q) or a != mutual_info(a.n, p, q, r).scale(c):
        return None
    full, keys = (1 << a.n) - 1, []  # the masks of each elemental generator used
    for y in (1 << i for i in range(a.n) if (p & ~r) >> i & 1):
        s = r | p & (y - 1)
        if q & y:
            keys.append((full & ~y, full))
        t_set = (full & ~y if q & y else q) & ~s
        for t in (1 << j for j in range(a.n) if t_set >> j & 1):
            keys.append((s, s | y, s | t, s | y | t))
            s |= t
    multipliers = [Fraction(0)] * len(gens.generators)
    for key in keys:
        k = index.get(frozenset(key) - {0})
        if k is None:
            return None
        multipliers[k] += c
    return ProofCertificate(a, (), multipliers)


def prepare_antecedents(antecedents: Sequence[LinExpr], gens: GeneratorSet) -> PreparedAntecedents:
    """Drop antecedents that are provably valid inequalities (they are
    always satisfied, so removing them only strengthens the implication).
    A multiple of one Shannon quantity is dropped on its chain-rule
    certificate; one negative on a step function r_T on which every
    generator is >= 0 is kept, since no cone point is negative there;
    `prove` decides the rest.  Each proof is re-checked by `verify`; one
    it rejects keeps its antecedent."""
    if not antecedents:
        return PreparedAntecedents((), ())
    index = elemental_index(gens)
    users = [g.expr for g in gens.generators if g.kind == USER]
    kept, valid = [], []
    for a in antecedents:
        if a.is_zero():
            dropped = True
        elif (proof := chain_rule_certificate(a, gens, index)) is not None:
            dropped = verify(proof, a, gens)
        elif any(a.step_value(t) < 0 and all(g.step_value(t) >= 0 for g in users)
                 for t in range(1, 1 << gens.n)):
            dropped = False
        else:
            dropped = (proof := prove(a, gens)) is not None and verify(proof, a, gens)
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
        columns.append(-entropy_of(n, (1 << n) - 1))
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
    target = consequent + entropy_of(n, (1 << n) - 1).scale(Fraction(1, p))
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

    The LP's lambdas are scaled to primitive integers, and its antecedent
    and generator multipliers, scaled by the same factor, certify the
    combination sum_i lambda_i c_i with the kept antecedents.
    """
    res = _reduction_lp(clause, kept, gens, relax=False)
    if res.status != "optimal":
        return None
    m, k = len(clause.consequents), len(kept)
    scale = lcm(*(w.denominator for w in res.x[:m]))
    factor = Fraction(scale, gcd(*(int(w * scale) for w in res.x[:m])))
    x = [v * factor for v in res.x]
    combo = LinExpr.zero(clause.n)
    for weight, c in zip(x[:m], clause.consequents):
        if weight:
            combo = combo + c.scale(weight)
    return MaxReduction(tuple(x[:m]), ProofCertificate(combo, x[m:m + k], x[m + k:]))
