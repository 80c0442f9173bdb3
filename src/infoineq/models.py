"""Systems of linear subspaces of GF(q)^d as entropic candidates, the
refuter's second stream after distributions.  h(alpha) is the rank of
the joint span times log2(q); these realize the linear subclass of
group-characterizable vectors.  A system gives only its integer ranks
(`joint_rank`): c . h is (sum_m c_m rank_m) * log2(q), so the refuter
decides its signs over rationals.
"""
from __future__ import annotations

from itertools import combinations, product
from typing import Iterator, Sequence

from .core import Value

Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# GF(q) linear algebra
# ---------------------------------------------------------------------------

def rref_mod(rows: Sequence[Sequence[int]], q: int) -> Matrix:
    """Reduced row echelon form over GF(q); zero rows are dropped."""
    mat = [list(int(x) % q for x in row) for row in rows]
    if not mat:
        return ()
    cols = len(mat[0])
    pivot_row = 0
    for col in range(cols):
        sel = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] % q != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
        inv = pow(mat[pivot_row][col], -1, q)
        mat[pivot_row] = [(x * inv) % q for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] % q != 0:
                factor = mat[r][col]
                mat[r] = [(a - factor * b) % q for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(row) for row in mat[:pivot_row] if any(row))


def rank_mod(rows: Sequence[Sequence[int]], q: int) -> int:
    return len(rref_mod(rows, q))


class VectorSpaceSystem(Value):
    """n subspaces of GF(q)^d, each given by an independent basis (rows).

    h(alpha) = rank(span of the union of the bases for i in alpha) * log2 q.
    """

    __slots__ = ("q", "dim", "bases")

    def __init__(self, q: int, dim: int, bases: tuple[Matrix, ...]):
        self.q, self.dim, self.bases = q, dim, bases
        if q < 2:
            raise ValueError("q must be a prime >= 2")
        for basis in bases:
            for row in basis:
                if len(row) != dim:
                    raise ValueError("basis row length must equal the ambient dimension")
            if basis and rank_mod(basis, q) != len(basis):
                raise ValueError("basis rows must be linearly independent")

    @property
    def n(self) -> int:
        return len(self.bases)

    def joint_rank(self, mask: int) -> int:
        rows: list[Sequence[int]] = []
        for i in range(self.n):
            if (mask >> i) & 1:
                rows.extend(self.bases[i])
        if not rows:
            return 0
        return rank_mod(rows, self.q)

    def to_file_text(self) -> str:
        """The witness file of `refute --out`: a `q dim n` line, then one
        line per subspace, its basis size followed by its rows."""
        lines = [f"{self.q} {self.dim} {self.n}"]
        for basis in self.bases:
            flat = [str(len(basis))]
            for row in basis:
                flat.extend(str(x) for x in row)
            lines.append(" ".join(flat))
        return "\n".join(lines) + "\n"


def all_subspaces(q: int, dim: int) -> list[Matrix]:
    """Every subspace of GF(q)^d as its canonical RREF basis, ordered by
    dimension then lexicographically on the basis matrix.  Each basis is
    built once, from its pivot columns and its free entries: those right
    of a row's pivot and off the pivot columns."""
    out: list[Matrix] = [()]
    for r in range(1, dim + 1):
        found = []
        for pivots in combinations(range(dim), r):
            free = [(i, j) for i, p in enumerate(pivots)
                    for j in range(p + 1, dim) if j not in pivots]
            for values in product(range(q), repeat=len(free)):
                rows = [[int(j == p) for j in range(dim)] for p in pivots]
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                found.append(tuple(map(tuple, rows)))
        out.extend(sorted(found))
    return out


def enumerate_systems(n: int, primes: Sequence[int], max_dim: int) -> Iterator[VectorSpaceSystem]:
    """Canonical stream of subspace systems: by prime, then ambient
    dimension, then the n-tuple of subspace indices (lexicographic)."""
    for q in primes:
        for dim in range(1, max_dim + 1):
            subs = all_subspaces(q, dim)
            for combo in product(range(len(subs)), repeat=n):
                yield VectorSpaceSystem(q, dim, tuple(subs[i] for i in combo))
