"""Budgeted counterexample search over the canonical candidate streams.

Candidates are drawn first from the exact distribution enumeration, then
from the linear subspace systems.  A candidate refutes a clause when
every antecedent evaluates >= 0 and every consequent evaluates < 0 (all
signs exact).  Reported counterexamples are canonical-minimal: the scan
respects the stream order, and the parallel driver partitions the stream
into blocks whose results are consumed in order, so the answer is a
function of (constraint, budget) only, never of worker count.

A counterexample here witnesses failure on the set of finite-distribution
entropic vectors.  "Not found" carries the exhausted budget and means
nothing more; validity over the closed cone is out of reach of any
bounded search.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .core import BooleanConstraint, Clause, EntropicCandidate
from .distributions import Distribution, enumerate_distributions
from .models import VectorSpaceSystem, enumerate_systems

DISTRIBUTION = "distribution"
VECTOR_SPACE = "vector-space"


@dataclass(frozen=True)
class Budget:
    """Search bounds: distribution domain/denominator caps and, optionally,
    subspace-system primes and ambient dimension cap."""

    max_support: int = 2
    max_denominator: int = 4
    vs_primes: tuple[int, ...] = ()
    vs_max_dim: int = 0

    @staticmethod
    def parse(text: str) -> "Budget":
        """Parse 's=2,D=4,vsdim=2,vsq=2,3' style budget strings."""
        fields = {"s": 2, "D": 4, "vsdim": 0}
        primes: list[int] = []
        if text.strip():
            parts = text.split(",")
            i = 0
            while i < len(parts):
                item = parts[i]
                if "=" not in item:
                    raise ValueError(f"bad budget item {item!r}")
                key, value = item.split("=", 1)
                key = key.strip()
                if key == "vsq":
                    primes.append(int(value))
                    # bare numbers after vsq= continue the prime list
                    while i + 1 < len(parts) and "=" not in parts[i + 1]:
                        i += 1
                        primes.append(int(parts[i]))
                elif key in fields:
                    fields[key] = int(value)
                else:
                    raise ValueError(f"unknown budget key {key!r}")
                i += 1
        return Budget(fields["s"], fields["D"], tuple(primes), fields["vsdim"])

    def describe(self) -> dict:
        return {"s": self.max_support, "D": self.max_denominator,
                "vsdim": self.vs_max_dim, "vsq": list(self.vs_primes)}


@dataclass(frozen=True)
class Counterexample:
    source: str  # DISTRIBUTION | VECTOR_SPACE
    distribution: "Distribution | None"
    system: "VectorSpaceSystem | None"
    clause_index: int
    trace: tuple[dict, ...]

    def candidate(self) -> EntropicCandidate:
        if self.source == DISTRIBUTION:
            return self.distribution.entropic_vector()
        return self.system.candidate()

    def witness_file_text(self) -> str:
        if self.source == DISTRIBUTION:
            return self.distribution.to_file_text()
        return self.system.to_file_text()

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "witness": self.witness_file_text(),
            "clause_index": self.clause_index,
            "trace": list(self.trace),
        }


@dataclass(frozen=True)
class RefutationResult:
    counterexample: "Counterexample | None"
    budget: Budget
    candidates_scanned: int

    @property
    def found(self) -> bool:
        return self.counterexample is not None

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "budget": self.budget.describe(),
            "candidates_scanned": self.candidates_scanned,
            "counterexample": self.counterexample.to_json() if self.found else None,
        }


# ---------------------------------------------------------------------------
# Candidate streams and evaluation
# ---------------------------------------------------------------------------

def candidate_stream(n: int, budget: Budget) -> Iterator[tuple[str, object]]:
    """Distributions first (guaranteed witnesses when finite-model validity
    fails), then subspace systems as an accelerator for algebraic failures."""
    for dist in enumerate_distributions(n, budget.max_support, budget.max_denominator):
        yield DISTRIBUTION, dist
    if budget.vs_primes and budget.vs_max_dim >= 1:
        for system in enumerate_systems(n, budget.vs_primes, budget.vs_max_dim):
            yield VECTOR_SPACE, system


def _relevant_vars(clause: Clause) -> int:
    mask = 0
    for e in clause.antecedents + clause.consequents:
        for m, _ in e.items:
            mask |= m
    return mask


def _degenerate_vars(kind: str, obj) -> int:
    """Mask of variables whose marginal carries no information."""
    mask = 0
    if kind == DISTRIBUTION:
        for i in range(obj.n):
            if len(obj.marginal(1 << i).support()) == 1:
                mask |= 1 << i
    else:
        for i in range(obj.n):
            if obj.joint_rank(1 << i) == 0:
                mask |= 1 << i
    return mask


def violation(constraint: BooleanConstraint, kind: str, obj) -> "Counterexample | None":
    """First clause the candidate falsifies, with its evaluation trace."""
    relevant = [_relevant_vars(c) for c in constraint.clauses]
    degenerate = _degenerate_vars(kind, obj)
    if all(rel & ~degenerate == 0 for rel in relevant):
        # every relevant variable is constant: all expressions evaluate to
        # zero and every clause trivially holds
        return None
    h = obj.candidate() if kind == VECTOR_SPACE else obj.entropic_vector()
    for idx, clause in enumerate(constraint.clauses):
        trace = []
        failed = True
        for i, a in enumerate(clause.antecedents):
            value = a.eval(h)
            s = value.sign()
            trace.append({"role": "antecedent", "index": i, "sign": s, "value": str(value)})
            if s < 0:
                failed = False
                break
        if failed:
            for i, c in enumerate(clause.consequents):
                value = c.eval(h)
                s = value.sign()
                trace.append({"role": "consequent", "index": i, "sign": s, "value": str(value)})
                if s >= 0:
                    failed = False
                    break
        if failed:
            if kind == DISTRIBUTION:
                return Counterexample(kind, obj, None, idx, tuple(trace))
            return Counterexample(kind, None, obj, idx, tuple(trace))
    return None


def _as_constraint(target) -> BooleanConstraint:
    if isinstance(target, Clause):
        return BooleanConstraint(target.n, (target,))
    return target


def scan_stream(target, budget: Budget) -> Iterator["Counterexample | None"]:
    """Per-candidate scan results in canonical order (None = no violation)."""
    constraint = _as_constraint(target)
    for kind, obj in candidate_stream(constraint.n, budget):
        yield violation(constraint, kind, obj)


def refute(target, budget: Budget) -> RefutationResult:
    """First canonical counterexample within the budget, or not-found."""
    constraint = _as_constraint(target)
    scanned = 0
    for hit in scan_stream(constraint, budget):
        scanned += 1
        if hit is not None:
            return RefutationResult(hit, budget, scanned)
    return RefutationResult(None, budget, scanned)


# ---------------------------------------------------------------------------
# Parallel driver
# ---------------------------------------------------------------------------

def _scan_block(constraint: BooleanConstraint,
                block: list[tuple[str, object]]) -> "tuple[int, Counterexample] | None":
    for offset, (kind, obj) in enumerate(block):
        hit = violation(constraint, kind, obj)
        if hit is not None:
            return offset, hit
    return None


def refute_parallel(target, budget: Budget, workers: int = 1,
                    block_size: int = 64) -> RefutationResult:
    """Same function of (constraint, budget) as `refute`, for any worker
    count: blocks are scanned concurrently but consumed in stream order,
    and lower blocks always settle before a hit is reported."""
    constraint = _as_constraint(target)
    if workers <= 1:
        return refute(constraint, budget)
    stream = candidate_stream(constraint.n, budget)
    scanned = 0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = []
        exhausted = False
        while True:
            while not exhausted and len(pending) < 2 * workers:
                block = list(islice(stream, block_size))
                if not block:
                    exhausted = True
                    break
                pending.append((len(block), pool.submit(_scan_block, constraint, block)))
            if not pending:
                return RefutationResult(None, budget, scanned)
            size, fut = pending.pop(0)
            result = fut.result()
            if result is not None:
                offset, hit = result
                return RefutationResult(hit, budget, scanned + offset + 1)
            scanned += size
