"""Reductions from conditional and max clauses to plain inequalities.

* antecedent preparation: antecedents that are provably valid are
  dropped, and the rest (`kept`) feed every reduction below;
* the (p, q) relaxation schedule for tight antecedents, with the least
  q at each p solved for by one LP;
* the max-to-linear driver that races a multiplier search against
  counterexample enumeration.

The direct multiplier reduction for a single consequent needs no code of
its own: it is one `shannon.prove` call with the kept antecedents.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import ceil
from typing import Iterator, Sequence

from .core import Clause, LinExpr, entropy_of, full_set
from .refuter import Budget, Counterexample, scan_stream
from .shannon import GeneratorSet, ProofCertificate, prove


# ---------------------------------------------------------------------------
# Antecedent preprocessing shared by the conditional reductions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PreparedAntecedents:
    kept: tuple[LinExpr, ...]
    valid: tuple[LinExpr, ...]  # the dropped ones, each zero or proved


def prepare_antecedents(antecedents: Sequence[LinExpr], gens: GeneratorSet) -> PreparedAntecedents:
    """Drop antecedents that are provably valid inequalities (they are
    always satisfied, so removing them only strengthens the implication)."""
    kept, valid = [], []
    for a in antecedents:
        (valid if a.is_zero() or prove(a, gens) is not None else kept).append(a)
    return PreparedAntecedents(tuple(kept), tuple(valid))


# ---------------------------------------------------------------------------
# Tight regime
# ---------------------------------------------------------------------------

Q_MAX = 64  # the largest q the schedule accepts at any p


@dataclass(frozen=True)
class Schedule:
    p_values: tuple[int, ...] = (1, 2, 4, 8)

    def __post_init__(self):
        if not self.p_values or any(p < 1 for p in self.p_values):
            raise ValueError("schedule needs at least one p, each p >= 1")


@dataclass(frozen=True)
class TightStep:
    p: int
    q: int
    certificate: ProofCertificate


@dataclass(frozen=True)
class TightReduction:
    proved: bool
    consequent_index: "int | None"
    steps: tuple[TightStep, ...]
    failed_p: tuple[int, ...] = ()  # per consequent, the first p without a certificate


def tight_target(consequent: LinExpr, antecedents: Sequence[LinExpr],
                 p: int, q: int) -> LinExpr:
    """c + (1/p) h([n]) - q * sum_i c_i, the unconditional relaxation."""
    n = consequent.n
    target = consequent + entropy_of(n, full_set(n)).scale(Fraction(1, p))
    for a in antecedents:
        target = target - a.scale(q)
    return target


def tight_reduction(clause: Clause, kept: Sequence[LinExpr], gens: GeneratorSet,
                    schedule: Schedule = Schedule()) -> TightReduction:
    """Prove a conditional clause through the relaxation schedule: for
    each p, find the least integer q <= Q_MAX such that
    c + (1/p) h([n]) - q * sum(kept) lands in the generator cone.

    The least rational q* is one LP: prove the q = 0 target with
    sum(kept) as the single antecedent, minimizing its multiplier.  The
    caller establishes that every kept antecedent is tight (-a is in the
    cone), so -sum(kept) is in the cone and feasibility can only grow
    with q; the least feasible integer is therefore ceil(q*), and the
    step's certificate is the plain proof of the target at that q.  A p
    fails when the LP is infeasible or q exceeds Q_MAX: at most two LPs
    per p.

    Succeeding at every scheduled p is a sound demonstration of the
    closed-cone conditional at this generator strength; failure of any p
    is inconclusive (reported, never interpreted).  Multi-consequent
    clauses are tried one consequent at a time; proving any single
    disjunct under the antecedents proves the clause.
    """
    total = sum(kept, LinExpr.zero(clause.n))
    failed_p = []
    for ci, consequent in enumerate(clause.consequents):
        steps = []
        for p in schedule.p_values:
            least = prove(tight_target(consequent, kept, p, 0), gens,
                          antecedents=(total,), minimize_antecedent_use=True)
            q = None if least is None else ceil(least.antecedent_multipliers[0])
            cert = prove(tight_target(consequent, kept, p, q), gens) \
                if q is not None and q <= Q_MAX else None
            if cert is None:
                failed_p.append(p)
                break
            steps.append(TightStep(p, q, cert))
        else:
            return TightReduction(True, ci, tuple(steps))
    return TightReduction(False, None, (), tuple(failed_p))


# ---------------------------------------------------------------------------
# Max-to-linear driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxReduction:
    status: str  # "valid" | "invalid" | "exhausted"
    lambdas: "tuple[Fraction, ...] | None" = None
    certificate: "ProofCertificate | None" = None
    counterexample: "Counterexample | None" = None


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer tuples with the given sum, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def max_to_linear(clause: Clause, kept: Sequence[LinExpr], gens: GeneratorSet,
                  budget: Budget, lambda_sum_max: int = 8,
                  block_size: int = 64) -> MaxReduction:
    """Decide a max-clause by racing two searches in alternating epochs:
    natural-number multiplier tuples (graded by total, then lexicographic)
    against counterexample enumeration over the canonical candidate
    streams.  The first side to conclude wins; if both conclude within the
    same epoch, the certificate is preferred.  Deterministic for fixed
    budgets regardless of scheduling."""
    stream = scan_stream(clause, budget)
    pending = (-1, None)  # the next (index, hit) of the stream, not yet consumed
    for epoch in count(1):
        lambdas_done = epoch > lambda_sum_max
        if not lambdas_done:
            for lam in _compositions(epoch, len(clause.consequents)):
                combo = LinExpr.zero(clause.n)
                for weight, d in zip(lam, clause.consequents):
                    if weight:
                        combo = combo + d.scale(weight)
                cert = prove(combo, gens, antecedents=kept)
                if cert is not None:
                    return MaxReduction("valid", tuple(Fraction(v) for v in lam), cert)
        # this epoch's block of stream positions; skipped pmfs use their
        # positions without being evaluated
        while pending is not None and pending[0] < epoch * block_size:
            if pending[1] is not None:
                return MaxReduction("invalid", counterexample=pending[1])
            pending = next(stream, None)
        if lambdas_done and pending is None:
            return MaxReduction("exhausted")
