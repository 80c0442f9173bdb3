"""Budgeted counterexample search over the canonical candidate streams.

`refute` walks two streams in a fixed order: the pmfs of the exact
distribution enumeration, then the linear subspace systems, numbered on
from the size of the pmf stream.  A candidate refutes a clause when every
antecedent evaluates >= 0 and every consequent evaluates < 0 (all signs
exact).  Reported counterexamples are canonical-minimal: the scan
respects the stream order, so the answer is a function of (constraint,
budget) only.

Distributions are scanned as integer pmfs by `ProfileScan`: per pmf it
builds the marginal counts of every mask the constraint mentions, and
evaluates each expression as an integer prime-exponent vector, with exact
signs.  A pmf whose profile (those counts, sorted per mask) was seen
before is skipped without evaluation.  That is exact: the answer depends
only on h at the mentioned masks, which the profile fixes, and the
earlier pmf with the same profile returned no violation.  Masks that
differ only in constant variables (domain size 1) have the same marginal,
since h(S) = h(S & live) for the set `live` of nonconstant variables, so
the profile builds one marginal per distinct S & live and indexes each
mask's entry from those.  A profile is a tuple of per-scan ids, one per
mask: the scan numbers each sorted count tuple the first time it builds
it.  Ids are equal exactly when the tuples are, a tuple of small ints is
cheaper to hash into the set of seen profiles than a tuple of tuples, and
the signs read each id's prime exponents from a list by position.

Most pmfs are never built at all.  The scan walks `pmf_walk` with
`skip_twins`, which builds only the pmfs that use every value of every
domain and are minimal under adjacent value swaps.  Every other pmf has
an earlier twin with the same profile (see `distributions`), so the
first pmf of every profile is built, and the first hit, the distinct
profiles and the report are those of a scan over every pmf.  The walk
places each pmf it builds in closed form, from the sizes of the subtrees
before it, so every candidate carries its position in the whole stream.
`candidates_scanned` counts every candidate up to the hit, skipped ones
included, also the pmfs that were never built.  A hit is re-checked and
reported by `violation`, the reference evaluation, so the report does not
depend on the kernel.  It takes the walk's integer pmf and builds from
it only the `Distribution` that the hit reports.  It reads the marginal
counts at the masks the constraint mentions from that `Distribution`,
not from the kernel's tables, and decides each expression as an integer
sum of logs over a coprime basis (`core.coprime_exponents`), with no
`Fraction` per term.

Scans of one budget share the walk.  `refute` draws its pmfs from
`distributions.shared_walk`, so a process builds a budget's pmfs once
and replays them, in the same order with the same indices, to every
later scan of that budget, whatever its constraint.  Only pmfs are
shared; each scan keeps its own profiles and signs.

A counterexample here witnesses failure on the set of finite-distribution
entropic vectors.  "Not found" carries the exhausted budget and means
nothing more; validity over the closed cone is out of reach of any
bounded search.
"""
from __future__ import annotations

from functools import lru_cache
from math import lcm

from .core import (BooleanConstraint, Clause, LinExpr, TooManyDigits, Value, _factor_cached,
                   add_entropy_weights, coprime_exponents, entropy_terms, is_prime,
                   log_sum_text, prime_sum_sign, read_int)
from .distributions import Distribution, cell_outcomes, shared_walk, to_distribution

DISTRIBUTION = "distribution"
VECTOR_SPACE = "vector-space"

# `violation` checks one subspace system in 0.25-0.31 ms at n=4 on a 2-core
# VM, so this cap allows about 3 s of the system stream per `refute`.  It
# bounds all subspace work: n = 1 streams one system per subspace, every n
# at least as many, and `models.all_subspaces` builds each subspace once
MAX_SUBSPACE_SYSTEMS = 10_000

# Profile counts are scaled to T = lcm(1..D), which has 56 digits at
# D = 128 and 433 at D = 1000, and the sign caches keep one exponent
# vector of such numbers per distinct count tuple.  `refute` of
# H(X) >= 0 at n = 1, s = 2 takes 0.41 s and 40 MB at D = 128, 1.3 s and
# 106 MB at D = 200 and 4.6 s and 298 MB at D = 300 (2-core VM): memory
# grows about as D^3, so D = 1000 would need some 10 GB.  D stops here,
# whatever n and s are.
MAX_DENOMINATOR = 128

# The walk visits all s^n domain tuples in each of its D(D+1)/2 (D', k)
# blocks, also the tuples with a domain above k, which hold no pmf: about
# 1 us per visit on a 2-core VM (1.4 s at n = 3, s = 60, D = 3, 4.4 s at
# n = 4, s = 30, D = 3).  This cap allows about a second of such empty
# visits, and the default budget at n = MAX_VARS (655,360 visits).  The
# visits that build pmfs cost more: `refute` of
# H(A) <= 0 + 0*H(BCDEFGHIJKLMNOP) at the default budget takes about 2 s
# and 80 MB (2-core VM), mostly in the walk's blocks of up to 2^15 cells
MAX_WALK_VISITS = 1_000_000


class Budget(Value):
    """Search bounds: distribution domain/denominator caps and, optionally,
    subspace-system primes and ambient dimension cap.  Every bounded search
    takes one, and these defaults are the default budget."""

    __slots__ = ("max_support", "max_denominator", "vs_primes", "vs_max_dim")

    def __init__(self, max_support: int = 2, max_denominator: int = 4,
                 vs_primes: tuple[int, ...] = (), vs_max_dim: int = 0):
        self.max_support, self.max_denominator = max_support, max_denominator
        self.vs_primes, self.vs_max_dim = vs_primes, vs_max_dim
        if max_support < 1 or max_denominator < 1:
            raise ValueError("budget needs s >= 1 and D >= 1")
        if max_denominator > MAX_DENOMINATOR:
            raise ValueError(f"budget D={max_denominator} is over the cap "
                             f"D <= {MAX_DENOMINATOR}")
        if vs_max_dim < 0:
            raise ValueError("budget needs vsdim >= 0")
        for q in vs_primes:
            if not is_prime(q):
                raise ValueError(f"budget vsq={q} is not a prime")
        check_budget(1, self)

    @staticmethod
    def parse(text: str) -> "Budget":
        """Parse 's=2,D=4,vsdim=2,vsq=2,3' style budget strings; a key left
        out keeps its default, so "" is the default budget.  A value is
        ASCII digits with an optional sign, and a key is given once."""
        keys = {"s": "max_support", "D": "max_denominator", "vsdim": "vs_max_dim"}
        fields: dict = {}
        primes: list[int] = []
        seen: set[str] = set()
        key = None
        for item in text.split(",") if text.strip() else ():
            if "=" in item:
                key, value = item.split("=", 1)
                key = key.strip()
                if key in seen:
                    raise ValueError(f"budget item {item!r} repeats the key {key!r}")
                seen.add(key)
                if key != "vsq" and key not in keys:
                    raise ValueError(f"unknown budget key {key!r}")
            elif key == "vsq":  # bare numbers after vsq= continue the prime list
                value = item
            else:
                raise ValueError(f"bad budget item {item!r}")
            try:
                number = read_int(value)
            except TooManyDigits:
                raise
            except ValueError:
                raise ValueError(f"budget item {item!r} needs an integer in ASCII digits") from None
            if key == "vsq":
                primes.append(number)
            else:
                fields[keys[key]] = number
        if primes:
            fields["vs_primes"] = tuple(primes)
        return Budget(**fields)

    def describe(self) -> dict:
        return {"s": self.max_support, "D": self.max_denominator,
                "vsdim": self.vs_max_dim, "vsq": list(self.vs_primes)}


def _subspace_systems(n: int, budget: Budget) -> int:
    """The length of `models.enumerate_systems(n, ...)` at this budget:
    (subspaces of GF(q)^d)^n summed over the primes q and d <= vsdim, where
    GF(q)^d has sum_k [d choose k]_q subspaces (Gaussian binomials).  The
    sum stops once it passes MAX_SUBSPACE_SYSTEMS, whatever vsdim is."""
    total = 0
    for q in budget.vs_primes:
        for d in range(1, budget.vs_max_dim + 1):
            subspaces = 0
            for k in range(d + 1):
                num = den = 1
                for i in range(k):
                    num *= q ** (d - i) - 1
                    den *= q ** (i + 1) - 1
                subspaces += num // den
            total += subspaces ** n
            if total > MAX_SUBSPACE_SYSTEMS:
                return total
    return total


def check_budget(n: int, budget: Budget) -> None:
    """ValueError when the budget's pmf walk or subspace system stream for
    n variables is over its cap."""
    s, d = budget.max_support, budget.max_denominator
    if s ** n * d * (d + 1) // 2 > MAX_WALK_VISITS:
        raise ValueError(f"budget s={s},D={d} walks more than {MAX_WALK_VISITS} domain "
                         f"tuples for {n} variable{'s' if n > 1 else ''}")
    if _subspace_systems(n, budget) > MAX_SUBSPACE_SYSTEMS:
        raise ValueError(f"budget vsdim={budget.vs_max_dim},vsq="
                         f"{','.join(map(str, budget.vs_primes))} streams more than "
                         f"{MAX_SUBSPACE_SYSTEMS} subspace systems for {n} "
                         f"variable{'s' if n > 1 else ''}")


class Counterexample(Value):
    """A `Distribution` or `VectorSpaceSystem` that falsifies clause
    `clause_index`, with its evaluation trace; `source` names its kind."""

    __slots__ = ("witness", "clause_index", "trace")

    def __init__(self, witness: "Distribution | VectorSpaceSystem", clause_index: int,
                 trace: tuple[dict, ...]):
        self.witness, self.clause_index, self.trace = witness, clause_index, trace

    @property
    def source(self) -> str:
        return DISTRIBUTION if isinstance(self.witness, Distribution) else VECTOR_SPACE

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "witness": self.witness.to_file_text(),
            "clause_index": self.clause_index,
            "trace": list(self.trace),
        }


class RefutationResult(Value):
    """`candidates_scanned` counts every candidate up to the hit, skipped
    pmfs included, built or not; `distinct_profiles` counts the distinct
    pmf profiles among them and stays out of the JSON report."""

    __slots__ = ("counterexample", "budget", "candidates_scanned", "distinct_profiles")

    def __init__(self, counterexample: "Counterexample | None", budget: Budget,
                 candidates_scanned: int, distinct_profiles: int = 0):
        self.counterexample, self.budget = counterexample, budget
        self.candidates_scanned, self.distinct_profiles = candidates_scanned, distinct_profiles

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
# Evaluation
# ---------------------------------------------------------------------------

def _mentioned_masks(constraint: BooleanConstraint) -> tuple[int, ...]:
    """Every mask with a nonzero coefficient somewhere in the constraint,
    in increasing order."""
    return tuple(sorted({m for clause in constraint.clauses
                         for e in clause.antecedents + clause.consequents
                         for m, _ in e.items}))


def violation(constraint: BooleanConstraint, kind: str, obj,
              traced: bool = True) -> "Counterexample | None":
    """First clause the candidate falsifies, with its evaluation trace.

    The one reference evaluation of clauses on candidates, with exact
    signs: a clause is falsified when every antecedent is >= 0 and every
    consequent < 0.  Only the masks the constraint mentions are read, and
    only the falsified clause's values are written, term by term in mask
    and outcome order, by `core.log_sum_text`.  A candidate on another
    number of variables is a ValueError.

    A pmf, a `Distribution` or a walk item (D', domains, atoms), is
    decided over integers.  A walk item comes from a scan hit, so it is
    first made the `Distribution` that the hit reports.  Its masses are
    counts over its `total` N, and `Distribution.marginal_counts` sums
    them into the marginal counts C_x of each mask, not `ProfileScan`'s
    tables.  An expression with coefficients A_m / L then has

        N * L * (c . h) = sum_m A_m (N log N - sum_x C_x log C_x)

    (`core.add_entropy_weights`), whose sign `core.coprime_exponents`
    gives; the text of c_m * h(m) has one term c_m * p_x * log2(1/p_x) per
    marginal count (`core.entropy_terms`).  A subspace system over GF(q)
    has h(S) = rank(S) * log2(q) with log2(q) > 0, so c . h has the sign of
    the rational sum_m c_m * rank_m, read from `joint_rank`, and its text
    has one term (c_m * rank_m) * log2(q) per mask of nonzero rank.

    Untraced, the falsified clause comes with an empty trace: a value's
    text can run to far more digits than its sign needs.

    `check-dist --constraint` decides each clause with it, untraced;
    distribution scans use `ProfileScan` and call it only to re-check and
    report a hit; subspace systems are scanned with it directly."""
    if type(obj) is tuple:  # a walk item of a scan hit, as its witness
        obj = to_distribution(*obj)
    if obj.n != constraint.n:
        raise ValueError(f"dimension mismatch: constraint n={constraint.n}, candidate n={obj.n}")
    masks = _mentioned_masks(constraint)
    if kind == DISTRIBUTION:
        total = obj.total
        counts = {m: [count for _, count in obj.marginal_counts(m)] for m in masks}

        def sign(expr: LinExpr) -> int:
            scale = lcm(*(c.denominator for _, c in expr.items))
            weights: dict[int, int] = {}
            for m, c in expr.items:
                add_entropy_weights(weights, c.numerator * (scale // c.denominator),
                                    total, counts[m])
            return prime_sum_sign(coprime_exponents(weights))

        def text(expr: LinExpr) -> str:
            return log_sum_text([term for m, c in expr.items
                                 for term in entropy_terms(c, total, counts[m])])
    else:
        ranks = {m: obj.joint_rank(m) for m in masks}

        def sign(expr: LinExpr) -> int:
            value = sum(c * ranks[m] for m, c in expr.items)
            return (value > 0) - (value < 0)

        def text(expr: LinExpr) -> str:
            return log_sum_text((w.numerator, w.denominator, obj.q, 1)
                                for w in (c * ranks[m] for m, c in expr.items if ranks[m]))
    for idx, clause in enumerate(constraint.clauses):
        trace = []
        failed = True
        for i, a in enumerate(clause.antecedents):
            s = sign(a)
            trace.append(("antecedent", i, s, a))
            if s < 0:
                failed = False
                break
        if failed:
            for i, c in enumerate(clause.consequents):
                s = sign(c)
                trace.append(("consequent", i, s, c))
                if s >= 0:
                    failed = False
                    break
        if failed:
            trace = tuple({"role": role, "index": i, "sign": s, "value": text(e)}
                          for role, i, s, e in trace if traced)
            return Counterexample(obj, idx, trace)
    return None


@lru_cache(maxsize=None)
def _count_logs(counts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """sum_x C_x * log C_x as integer exponents per prime."""
    exps: dict[int, int] = {}
    for c in counts:
        for p, e in _factor_cached(c):
            exps[p] = exps.get(p, 0) + c * e
    return tuple(exps.items())


@lru_cache(maxsize=None)
def _projection(domains: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The marginal cell on the masked variables of every joint cell.  A
    constant variable (domain size 1) changes no cell number and no
    marginal, so the domain tuples that squeeze alike share one table:
    that of the squeezed tuple, with the mask renumbered to it."""
    if 1 in domains:
        live = [i for i, d in enumerate(domains) if d > 1]
        return _projection(tuple(domains[i] for i in live),
                           sum(1 << j for j, i in enumerate(live) if (mask >> i) & 1))
    idx = [i for i in range(len(domains)) if (mask >> i) & 1]
    ids: dict[tuple[int, ...], int] = {}
    return tuple(ids.setdefault(tuple(o[i] for i in idx), len(ids))
                 for o in cell_outcomes(domains))


class ProfileScan:
    """The distribution half of a scan: one constraint against integer
    pmfs, with exact signs and no `Fraction` or `LogLinValue` per pmf.

    A pmf's profile holds, for each mask the constraint mentions, its
    marginal counts sorted and scaled to the common denominator
    T = lcm(1..D), so that they sum to T.  Each such count tuple is held
    as its id in `ids`, numbered the first time the scan builds the tuple:
    equal profiles are equal tuples of small ints, cheap to hash, and
    `sign` reads the tuple's sum_x C_x log C_x from a list by its id.  Ids
    are per scan, so profiles of two scans do not compare.

    The profile fixes h at the mentioned masks: with marginal counts C_x,
    h = log T - (1/T) sum_x C_x log C_x.
    For an expression c with coefficients A_m / L over a common
    denominator L,

        T * L * (c . h) = sum_m A_m (T log T - sum_x C_x log C_x)
                        = sum_p E_p log p

    with integer E_p, so the sign is `core.prime_sum_sign` of E.

    A pmf whose profile was seen before is skipped: `violation` depends
    only on h at the mentioned masks, so the earlier pmf with that profile
    already gave the same answer, None.

    Antecedents in `valid` are not compiled: each has a verified proof, so
    it is >= 0 on every entropic vector, and `violation` still re-checks a
    hit against the whole constraint.
    """

    def __init__(self, constraint: BooleanConstraint, max_denominator: int,
                 valid: tuple[LinExpr, ...] = ()):
        self.constraint = constraint
        self.masks = _mentioned_masks(constraint)
        self.total = lcm(*range(1, max_denominator + 1))
        self.seen: set[tuple[int, ...]] = set()
        # sorted count tuple -> its id, and id -> its `_count_logs`
        self.ids: dict[tuple[int, ...], int] = {}
        self._logs: list[tuple[tuple[int, int], ...]] = []
        self._positions = {m: k for k, m in enumerate(self.masks)}
        self._total_logs = {p: self.total * e for p, e in _factor_cached(self.total)}
        self._clauses = tuple((tuple(self.compile(a) for a in clause.antecedents
                                     if a not in valid),
                               tuple(self.compile(c) for c in clause.consequents))
                              for clause in constraint.clauses)
        # domains -> `_table(domains)`
        self._projections: dict[tuple[int, ...], tuple] = {}

    def compile(self, expr: LinExpr) -> tuple[tuple[tuple[int, int], ...], int]:
        """The expression as integer weights A_m on profile positions, and
        their sum (the weight of T log T)."""
        scale = lcm(*(c.denominator for _, c in expr.items))
        terms = tuple((self._positions[m], c.numerator * (scale // c.denominator))
                      for m, c in expr.items)
        return terms, sum(a for _, a in terms)

    def _table(self, domains: tuple[int, ...]):
        """The distinct projections of the mentioned masks on a domain
        tuple, and each mask's position among them.  Masks that differ
        only in constant variables (domain size 1) project alike."""
        live = sum(1 << i for i, d in enumerate(domains) if d > 1)
        distinct: dict[int, int] = {}
        positions = tuple(distinct.setdefault(m & live, len(distinct)) for m in self.masks)
        return tuple(_projection(domains, m) for m in distinct), positions

    def profile(self, dprime: int, domains: tuple[int, ...], atoms) -> tuple[int, ...]:
        """Per mentioned mask, the id of its sorted marginal counts over T."""
        table = self._projections.get(domains)
        if table is None:
            table = self._projections[domains] = self._table(domains)
        projections, positions = table
        scale = self.total // dprime
        atoms = [(cell, count * scale) for cell, count in atoms]
        ids = self.ids
        marginals = []
        for proj in projections:
            acc: dict[int, int] = {}
            for cell, count in atoms:
                m = proj[cell]
                acc[m] = acc.get(m, 0) + count
            counts = tuple(sorted(acc.values()))
            i = ids.get(counts)
            if i is None:
                i = ids[counts] = len(ids)
                self._logs.append(_count_logs(counts))
            marginals.append(i)
        return tuple([marginals[j] for j in positions])

    def sign(self, expr, profile: tuple[int, ...]) -> int:
        """Exact sign of a compiled expression on a profile."""
        terms, weight = expr
        exps = {p: weight * e for p, e in self._total_logs.items()} if weight else {}
        logs = self._logs
        for k, a in terms:
            for p, e in logs[profile[k]]:
                exps[p] = exps.get(p, 0) - a * e
        return prime_sum_sign({p: f for p, f in exps.items() if f})

    def violated_clause(self, profile: tuple[int, ...]) -> "int | None":
        """Index of the first clause the profile falsifies, as `violation`
        decides it."""
        for idx, (antecedents, consequents) in enumerate(self._clauses):
            for a in antecedents:
                if self.sign(a, profile) < 0:
                    break
            else:
                for c in consequents:
                    if self.sign(c, profile) >= 0:
                        break
                else:
                    return idx
        return None

    def check(self, pmf) -> "Counterexample | None":
        """`violation` for one pmf of the walk; None without evaluation
        when its profile was seen before."""
        profile = self.profile(*pmf)
        if profile in self.seen:
            return None
        self.seen.add(profile)
        idx = self.violated_clause(profile)
        if idx is None:
            return None
        hit = violation(self.constraint, DISTRIBUTION, pmf)
        if hit is None or hit.clause_index != idx:
            raise RuntimeError(f"profile scan found clause {idx} violated, "
                               f"the reference evaluation disagrees on {pmf}")
        return hit


def refute(target, budget: Budget, valid: tuple[LinExpr, ...] = ()) -> RefutationResult:
    """First canonical counterexample within the budget, or not-found:
    the pmfs of the budget's `shared_walk` by `ProfileScan`, then its
    subspace systems by `violation`.  The pmf scan skips the antecedents
    in `valid`, which must have verified proofs.  ValueError when the
    budget is over a cap (`check_budget`)."""
    constraint = BooleanConstraint(target.n, (target,)) if isinstance(target, Clause) else target
    check_budget(constraint.n, budget)
    scan = ProfileScan(constraint, budget.max_denominator, valid)
    # the walk ends with one (size, None) item, so `index` ends at its size
    for index, pmf in shared_walk(constraint.n, budget.max_support, budget.max_denominator):
        if pmf is not None:
            hit = scan.check(pmf)
            if hit is not None:
                return RefutationResult(hit, budget, index + 1, len(scan.seen))
    if budget.vs_primes and budget.vs_max_dim >= 1:
        from .models import enumerate_systems  # only subspace budgets pay its import
        for system in enumerate_systems(constraint.n, budget.vs_primes, budget.vs_max_dim):
            index += 1
            hit = violation(constraint, VECTOR_SPACE, system)
            if hit is not None:
                return RefutationResult(hit, budget, index, len(scan.seen))
    return RefutationResult(None, budget, index, len(scan.seen))
