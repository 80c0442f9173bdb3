"""Constraint generators for applications, and the bundled fixture corpus
of named inequalities with their expected tool verdicts.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .core import (BooleanConstraint, Clause, LinExpr, Value, cond_entropy, entropy_of,
                   mutual_info)
from .parser import parse_constraint


# ---------------------------------------------------------------------------
# Secret sharing
# ---------------------------------------------------------------------------

def secret_sharing_constraint(participants: int,
                              access_structure: Iterable[Iterable[int]],
                              ratio) -> BooleanConstraint:
    """Lower-bound constraint for the information ratio of a secret
    sharing scheme: participants are variables X_1..X_m, the secret is
    X_{m+1}.  Qualified sets recover the secret exactly, unqualified sets
    learn nothing, and the claim is that some share carries at least
    `ratio` times the secret's entropy (or the secret is trivial):

        AND_{F qualified}  h(X_s | X_F) = 0
        AND_{F unqualified, F nonempty}  I(X_s ; X_F) = 0
            =>  h(X_s) = 0  OR  OR_i h(X_i) >= ratio * h(X_s)

    The access structure must be upward closed; equalities are expanded
    into inequality pairs in the antecedents, and the h(X_s) = 0 disjunct
    is encoded as -h(X_s) >= 0 (equivalent on nonnegative vectors).
    """
    m = participants
    if m < 1:
        raise ValueError("need at least one participant")
    ratio = Fraction(ratio)
    family = {frozenset(f) for f in access_structure}
    if not family:
        raise ValueError("access structure must be nonempty")
    universe = frozenset(range(1, m + 1))
    for f in family:
        if not f:
            raise ValueError("the empty set cannot be qualified")
        if not f <= universe:
            raise ValueError(f"access set {sorted(f)} mentions unknown participants")
        for extra in universe - f:
            if f | {extra} not in family:
                raise ValueError("access structure is not closed under supersets")
    n = m + 1
    secret = 1 << m

    def mask_of(f: frozenset) -> int:
        mask = 0
        for i in f:
            mask |= 1 << (i - 1)
        return mask

    antecedents: list[LinExpr] = []
    for bits in range(1, 1 << m):
        f = frozenset(i + 1 for i in range(m) if (bits >> i) & 1)
        if f in family:
            eq = cond_entropy(n, secret, mask_of(f))
        else:
            eq = mutual_info(n, secret, mask_of(f))
        antecedents.append(eq)
        antecedents.append(-eq)
    consequents = [-entropy_of(n, secret)]
    for i in range(m):
        consequents.append(entropy_of(n, 1 << i) - entropy_of(n, secret).scale(ratio))
    clause = Clause(n, tuple(antecedents), tuple(consequents))
    return BooleanConstraint(n, (clause,))


# ---------------------------------------------------------------------------
# Fixture corpus
# ---------------------------------------------------------------------------

class Fixture(Value):
    __slots__ = ("name", "path", "source", "constraint", "expected_verdict", "notes", "budget")

    def __init__(self, name: str, path: Path, source: str, constraint: BooleanConstraint,
                 expected_verdict: str, notes: str, budget: str = ""):
        self.name, self.path, self.source, self.constraint = name, path, source, constraint
        self.expected_verdict, self.notes, self.budget = expected_verdict, notes, budget


def corpus() -> list[Fixture]:
    """All bundled fixtures, parsed, with their manifest metadata."""
    root = Path(__file__).parent / "corpus"
    manifest = json.loads((root / "manifest.json").read_text())
    fixtures = []
    for name in sorted(manifest):
        meta = manifest[name]
        path = root / meta["file"]
        source = path.read_text()
        fixtures.append(Fixture(
            name=name,
            path=path,
            source=source,
            constraint=parse_constraint(source),
            expected_verdict=meta["expected_verdict"],
            notes=meta.get("notes", ""),
            budget=meta.get("budget", ""),
        ))
    return fixtures


def fixture(name: str) -> Fixture:
    for f in corpus():
        if f.name == name:
            return f
    raise ValueError(f"no corpus fixture named {name!r}")
