"""Finite probability spaces with rational probabilities, their exact
entropic vectors, and a budgeted canonical enumeration.

A `Distribution` holds integer counts over the least common denominator
of its probabilities, the form the walk's pmfs (counts over D') have.

Every entropy of such a space is exact: its marginal counts are integer
weights of logs (`core.add_entropy_weights`).  The
enumeration is the engine behind counterexample search; its order is the
contract that makes "minimal counterexample" well defined:

    by increasing reduced denominator D', then increasing support size k,
    then domain-size tuple (lexicographic), then the integer numerator
    tuple (lexicographic).

Each distribution appears exactly once per domain tuple: numerator tuples
with a common factor are skipped, so a pmf is emitted only at its reduced
denominator.

`enumerate_distributions` lists the whole stream by this definition;
only the benchmark harness reads it.  Every search depends only on
marginal counts (the refuter, the recognizer) and walks `pmf_walk`
instead, where one recursion, `_numerator_walk`, builds the numerator
tuples of each (D', k, domains) block over the block's layout.  It
builds only the pmfs that give mass to every value of every domain and
are not lexicographically reduced by swapping two adjacent values of one
variable.  Skipping the rest is exact, because each skipped pmf has an
earlier twin in the stream with the same marginal counts up to
relabelling:
* a pmf that leaves a value unused has the same counts as the pmf that
  drops that value; it has the same D' and support size and a
  lexicographically smaller domain tuple, so it comes earlier;
* a value swap keeps D', the support size and the domains, so a swap
  that makes the numerator tuple smaller gives an earlier pmf.
So the first pmf with any given marginal profile is always built.

The walk numbers each pmf by its position in the full stream: the
recursion yields its offset in its block, and `pmf_walk` adds the
block's start.  A subtree of the recursion is fixed by its next free
cell j, the sum r still to place, the nonzero cells t still to place and
the gcd g of the counts placed; it holds

    sum over d | gcd(g, r) of mu(d) * C(cells - j, t) * C(r/d - 1, t - 1)

tuples (Moebius inversion over the common factor, g = 0 before the first
nonzero count).  So an offset is the sum of the sizes of the sibling
subtrees before it at each level, and a cut subtree, or a whole block
with some domain larger than k, needs no count of its own.

A variable of domain size 1 is constant.  It changes neither the cell
numbering (a digit of radix 1 adds nothing to a cell's index) nor the
cuts (its one value is used by every pmf and has no swap).  So the block
of a domain tuple is the block of its squeezed tuple, the tuple with its
1s removed: the same numerator tuples at the same offsets.  The walk
visits each (D', k, squeezed domains) block once: it records the items
of a block whose squeezed tuple is shorter than n while it yields them,
so it stays lazy, and replays them to every later domain tuple of the
same (D', k) that squeezes alike.  The records are dropped after each k.

The walk depends on the budget (n, s, D) alone, and a process often
scans one budget many times: once per clause, per antecedent, per
generator file, per input of a batch.  `shared_walk` hands every scan
the same stream and builds it once.  A budget's first walk is the bare
`pmf_walk` and keeps nothing, so a process that walks each budget once
pays nothing for sharing.  The second walk keeps the items it builds,
and later walks replay them by position: each consumer holds its own
index into the kept list and extends it from the budget's one live walk
when it runs past the end.  Consumers may interleave, and one that is
dropped midway leaves the list and the live walk as they were.  Replay
is exact because the kept items are the walk's own items in its own
order.  At most `MAX_SHARED_PMFS` items are kept in all; a consumer that
reaches the end of a full list takes over the live walk, and one that
comes later walks the rest alone, so no scan builds more pmfs than a
walk of its own would.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from math import comb, gcd, lcm, prod
from typing import Iterator, Mapping

from .core import (MAX_DIGITS, LogLinValue, Value, _DIGITS_BOUND, _factor_cached, as_fraction,
                   check_var_count, read_fraction, read_int)

Outcome = tuple[int, ...]
# (D', domains, ((cell, count), ...)): a pmf with probabilities count / D'
IntegerPmf = tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]

# A kept walk item costs about 550 bytes (tracemalloc: 51.9 MB for the
# 94,837 pmfs of n=4, s=2, D=8), so this cap holds about 9 MB.  It covers
# whole streams at s=2, D=4 (85 pmfs at n=3, 528 at n=4, 3,781 at n=5)
# and the early part of deeper ones, where scans that stop early stop.
MAX_SHARED_PMFS = 1 << 14


class Distribution(Value):
    """A joint pmf on n finite variables with exact rational probabilities:
    `(outcome, count)` for each outcome of probability count / `total` > 0,
    in outcome order, over the least common denominator `total`."""

    __slots__ = ("domains", "total", "counts")

    def __init__(self, domains: tuple[int, ...], total: int,
                 counts: tuple[tuple[Outcome, int], ...]):
        self.domains, self.total, self.counts = domains, total, counts
        if not domains or any(d < 1 for d in domains):
            raise ValueError("domain sizes must be positive")
        for i, (outcome, count) in enumerate(counts):
            if len(outcome) != len(domains):
                raise ValueError("outcome arity mismatch")
            if any(not 0 <= x < d for x, d in zip(outcome, domains)):
                raise ValueError(f"outcome {outcome} outside domains {domains}")
            if i and outcome <= counts[i - 1][0]:
                raise ValueError(f"duplicate or unsorted outcome {outcome}")
            if count <= 0:
                raise ValueError("negative probability" if count else "zero probability")
        mass = sum(count for _, count in counts)
        if mass != total:
            raise ValueError(f"probabilities sum to {Fraction(mass, total)}, not 1")
        if gcd(total, *(count for _, count in counts)) != 1:
            raise ValueError(f"the counts share a factor with their total {total}")

    @staticmethod
    def make(domains, pmf: Mapping[Outcome, Fraction]) -> "Distribution":
        """The distribution of a map from outcomes to probabilities.  Every
        number of its entropies and marginals is at most its `total`, so a
        `total` of more than MAX_DIGITS digits is a ValueError."""
        items = sorted((tuple(o), as_fraction(p)) for o, p in pmf.items() if p != 0)
        total = lcm(*(p.denominator for _, p in items))
        if total >= _DIGITS_BOUND:
            raise ValueError(f"the probabilities have a common denominator of more "
                             f"than {MAX_DIGITS} digits")
        return Distribution(tuple(domains), total,
                            tuple((o, p.numerator * (total // p.denominator)) for o, p in items))

    @property
    def n(self) -> int:
        return len(self.domains)

    @property
    def pmf(self) -> tuple[tuple[Outcome, Fraction], ...]:
        """`(outcome, probability)` for the outcomes of `counts`."""
        return tuple((o, Fraction(count, self.total)) for o, count in self.counts)

    def support(self) -> list[Outcome]:
        return [o for o, _ in self.counts]

    def marginal_counts(self, mask: int) -> list[tuple[Outcome, int]]:
        """The marginal on the masked variables as `(outcome, count)` over
        `total`, for its outcomes of positive probability in order."""
        idx = [i for i in range(self.n) if mask >> i & 1]
        acc: dict[Outcome, int] = {}
        for outcome, count in self.counts:
            key = tuple([outcome[i] for i in idx])
            acc[key] = acc.get(key, 0) + count
        return sorted(acc.items())

    def marginal(self, mask: int) -> "Distribution":
        """Exact marginal on the masked variables, over its own least total."""
        if not mask & ((1 << self.n) - 1):
            return Distribution((1,), 1, (((0,), 1),))
        counts = self.marginal_counts(mask)
        # the counts sum to `total`, so their gcd divides it
        g = gcd(*(count for _, count in counts))
        return Distribution(tuple(d for i, d in enumerate(self.domains) if mask >> i & 1),
                            self.total // g, tuple((o, count // g) for o, count in counts))

    def entropic_vector(self) -> tuple[LogLinValue, ...]:
        """h(S) = sum_x p_S(x) * log2(1 / p_S(x)) at every mask, indexed by
        mask with h({}) = 0 first; kept only for the benchmark harness
        (see `core.LogLinValue`)."""
        n = self.total
        return (LogLinValue(()), *(LogLinValue(tuple(
            (Fraction(c, n), Fraction(n, c)) for _, c in self.marginal_counts(mask)))
            for mask in range(1, 1 << self.n)))

    def to_file_text(self) -> str:
        lines = ["vars " + " ".join(str(d) for d in self.domains)]
        for outcome, p in self.pmf:
            lines.append(" ".join(str(x) for x in outcome) + f" {p.numerator}/{p.denominator}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_file_text(text: str) -> "Distribution":
        lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        if not lines or lines[0].split()[0] != "vars":
            raise ValueError("distribution file must start with a 'vars d1 ... dn' header")
        domains = tuple(read_int(tok) for tok in lines[0].split()[1:])
        # the entropic vector has 2^n entries; `make` rejects an empty header
        if domains:
            check_var_count(len(domains))
        pmf: dict[Outcome, Fraction] = {}
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != len(domains) + 1:
                raise ValueError(f"bad outcome line: {ln!r}")
            outcome = tuple(read_int(t) for t in toks[:-1])
            if outcome in pmf:
                raise ValueError(f"repeated outcome line: {ln!r}")
            pmf[outcome] = read_fraction(toks[-1])
        return Distribution.make(domains, pmf)


# ---------------------------------------------------------------------------
# Canonical enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _mobius_divisors(g: int) -> tuple[tuple[int, int], ...]:
    """(d, mu(d)) for the squarefree divisors d of g >= 1."""
    out = [(1, 1)]
    for p, _ in _factor_cached(g):
        out += [(d * p, -mu) for d, mu in out]
    return tuple(out)


@lru_cache(maxsize=None)
def _completions(m: int, r: int, t: int, g: int) -> int:
    """Nonnegative integer tuples of length m summing to r with exactly t
    nonzero entries whose gcd with g is 1 (g = 0 for an all-zero prefix):

        sum over d | gcd(g, r) of mu(d) * C(m, t) * C(r/d - 1, t - 1).
    """
    if t == 0:
        return int(r == 0 and g == 1)
    if t > m or r < t:
        return 0
    return comb(m, t) * sum(mu * comb(r // d - 1, t - 1)
                            for d, mu in _mobius_divisors(gcd(g, r)))


@lru_cache(maxsize=None)
def _layout(domains: tuple[int, ...]):
    """What the walk needs to know of a domain tuple.

    The (variable, value) pairs get ids 0..sum(d)-1: `var_of` maps a pair
    to its variable, `last` to the last cell that carries it, and
    `pairs_at[cell]` lists the cell's pair of each variable.  `swaps`
    lists the value transpositions a <-> a+1 of each variable i as
    (i, a, stride): cell c with digit a pairs with cell c + stride."""
    outs = cell_outcomes(domains)
    var_of = tuple(i for i, d in enumerate(domains) for _ in range(d))
    first = [sum(domains[:i]) for i in range(len(domains))]
    pairs_at = tuple(tuple(first[i] + x for i, x in enumerate(o)) for o in outs)
    last = [0] * len(var_of)
    for cell, pairs in enumerate(pairs_at):
        for q in pairs:
            last[q] = cell
    swaps = tuple((i, a, prod(domains[i + 1:])) for i, d in enumerate(domains)
                  for a in range(d - 1))
    return outs, var_of, tuple(last), pairs_at, swaps


def _numerator_walk(dprime: int, k: int, domains: tuple[int, ...]) -> Iterator[tuple[int, tuple]]:
    """`(offset, atoms)` for the numerator tuples of one (D', k, domains)
    block in lexicographic order, one entry per cell, sum D', exactly k
    nonzero entries, gcd 1, that are full-use and minimal under adjacent
    value swaps.  `offset` is the tuple's position in the whole block.

    Each call of `level` places one nonzero cell and its count, then
    recurses for the next.  Later cells come first, since a longer run of
    zeros is lexicographically smaller, then smaller counts.  A child
    subtree starts at its parent's offset plus the `_completions` of every
    sibling before it: the tuples whose nonzero cell comes later, and those
    with a smaller count at the same cell.  Subtrees holding no tuple are
    never entered, and a cut subtree needs no count.  A subtree is cut
    * as soon as some (variable, value) pair can no longer get mass: the
      last cell carrying it is passed, or its variable has more unused
      values than nonzero cells left;
    * as soon as swapping two adjacent values a, a+1 of one variable is
      known to give a lexicographically smaller tuple.  The swap exchanges
      the pairs of cells (c, c + stride) with c at digit a; the first pair
      that differs decides, and the tuple is smaller iff its entry at c
      exceeds the one at c + stride.  `open_swaps` holds the swaps still
      undecided, and every pair of those ending before `start` is equal.
    `placed`, `cover`, `unused` and `x` are set before each descent and
    restored after it.
    """
    outs, var_of, last, pairs_at, swaps = _layout(domains)
    cells = len(outs)
    cover = [0] * len(var_of)
    unused = list(domains)
    x = [0] * cells
    placed: list[tuple[int, int]] = []  # (cell, count) of each nonzero cell
    # The checks of `limit_of` and `level` run at every node and candidate
    # cell, so they are plain loops: a generator expression there would
    # build and resume one generator object per check.

    def limit_of(start, open_swaps):
        """The latest cell the next nonzero cell may take: past it, some
        pair gets no mass or an open swap meets a nonzero c against a zero."""
        limit = cells
        for q, c in enumerate(cover):
            if not c and last[q] < limit:
                limit = last[q]
        for i, a, stride in open_swaps:
            for c, _ in placed:
                if outs[c][i] == a and c + stride >= start:
                    if c + stride < limit:
                        limit = c + stride
                    break
        return limit

    def level(start, r, t, g, open_swaps, base):
        """The tuples that place the sum r on t >= 1 nonzero cells from
        `start` on, given the gcd g of the counts placed (0 before the
        first), at offsets from `base` on."""
        limit = limit_of(start, open_swaps)
        for p in range(min(cells - t, limit), start - 1, -1):
            starved = False
            for q in pairs_at[p]:
                if unused[var_of[q]] - (not cover[q]) >= t:
                    starved = True
                    break
            if starved:
                continue
            # an open swap whose pair ends here needs at least its low entry
            floor = 0
            digits = outs[p]
            for i, a, stride in open_swaps:
                if digits[i] == a + 1 and x[p - stride] > floor:
                    floor = x[p - stride]
            offset = base + _completions(cells - p - 1, r, t, g)
            for v in range(r if t == 1 else 1, r - t + 2):
                size = _completions(cells - p - 1, r - v, t - 1, gcd(g, v))
                if size and v >= floor:
                    placed.append((p, v))
                    x[p] = v
                    for q in pairs_at[p]:
                        if not cover[q]:
                            unused[var_of[q]] -= 1
                        cover[q] += 1
                    child_swaps = []
                    for swap in open_swaps:
                        i, a, stride = swap
                        if digits[i] != a + 1 or v <= x[p - stride]:
                            child_swaps.append(swap)
                    if t > 1:
                        yield from level(p + 1, r - v, t - 1, gcd(g, v), child_swaps, offset)
                    # the last nonzero cell: every pair is covered, so only an open swap cuts
                    elif not child_swaps or limit_of(p + 1, child_swaps) == cells:
                        yield offset, tuple(placed)
                    x[p] = 0
                    for q in pairs_at[p]:
                        cover[q] -= 1
                        if not cover[q]:
                            unused[var_of[q]] += 1
                    placed.pop()
                offset += size

    return level(0, dprime, k, 0, swaps, 0)


def pmf_walk(n: int, max_support: int,
             max_denominator: int) -> Iterator[tuple[int, "IntegerPmf | None"]]:
    """The full-use, swap-minimal pmfs of the canonical stream as
    `(index, pmf)` pairs, by position in the whole stream, and last one
    `(size, None)` item that gives the stream's length.

    A pmf is `(D', domains, atoms)`: `atoms` lists `(cell, count)` for the
    nonzero counts in increasing cell order, a cell is the index of an
    outcome in `cell_outcomes(domains)`, and each count is a numerator
    over D'.  Covers all pmfs on per-variable domains of size <= max_support
    whose probabilities are multiples of 1/D' for some D' <= max_denominator,
    in the canonical order of the module docstring.  Budgets of zero give
    an empty stream; completeness holds in the limit of growing budgets.
    Each (D', k, squeezed domains) block is walked once and replayed to the
    later domain tuples that squeeze to the same tuple.
    """
    index = 0
    if max_support >= 1 and max_denominator >= 1:
        for dprime in range(1, max_denominator + 1):
            for k in range(1, dprime + 1):
                # squeezed domains -> the (offset, atoms) items of its block
                walked: dict[tuple[int, ...], list] = {}
                for domains in product(range(1, max_support + 1), repeat=n):
                    cells = prod(domains)
                    size = _completions(cells, dprime, k, 0)
                    # k nonzero cells cannot use more than k values of a variable
                    if size and max(domains) <= k:
                        squeezed = tuple(d for d in domains if d > 1)
                        items, record = walked.get(squeezed), None
                        if items is None:
                            items = _numerator_walk(dprime, k, domains)
                            if len(squeezed) < n:  # later domain tuples may squeeze alike
                                record = walked[squeezed] = []
                        for item in items:
                            if record is not None:
                                record.append(item)
                            yield index + item[0], (dprime, domains, item[1])
                    index += size
    yield index, None


class _SharedWalk:
    """One budget's kept walk items, and the live walk that extends them
    (None once the stream is whole or a consumer has taken it over)."""

    __slots__ = ("kept", "live")

    def __init__(self, live: Iterator):
        self.kept: list = []
        self.live = live


# budget -> its shared walk, or None after the budget's first walk
_walks: dict[tuple[int, int, int], "_SharedWalk | None"] = {}
_kept_total = 0  # items kept over all budgets, at most MAX_SHARED_PMFS


def shared_walk(n: int, max_support: int,
                max_denominator: int) -> Iterator[tuple[int, "IntegerPmf | None"]]:
    """The items of `pmf_walk(n, max_support, max_denominator)`, built
    once per process and replayed to the later walks of the budget (see
    the module docstring)."""
    budget = (n, max_support, max_denominator)
    walk = _walks.get(budget)
    if walk is None:
        if budget not in _walks:
            _walks[budget] = None
            return pmf_walk(*budget)
        walk = _walks[budget] = _SharedWalk(pmf_walk(*budget))
    return _replay(walk, budget)


def _replay(walk: _SharedWalk, budget: tuple[int, int, int]) -> Iterator:
    """One consumer of a shared walk: the kept items by position, then
    what it adds from the live walk."""
    global _kept_total
    kept = walk.kept
    i = 0
    while True:
        while i < len(kept):
            yield kept[i]
            i += 1
        live = walk.live
        if live is None:
            if kept and kept[-1][1] is None:
                return
            # another consumer owns the live walk now
            yield from islice(pmf_walk(*budget), i, None)
            return
        if _kept_total >= MAX_SHARED_PMFS:
            walk.live = None
            for item in live:
                yield item
            return
        try:
            item = next(live)
            kept.append(item)
            _kept_total += 1
        except BaseException:
            # an interrupted walk cannot resume; later consumers walk alone
            walk.live = None
            raise
        if item[1] is None:
            walk.live = None


@lru_cache(maxsize=None)
def cell_outcomes(domains: tuple[int, ...]) -> tuple[Outcome, ...]:
    """The outcomes of a domain tuple in lexicographic (cell) order."""
    return tuple(product(*(range(d) for d in domains)))


def to_distribution(dprime: int, domains: tuple[int, ...], atoms) -> Distribution:
    """The `Distribution` of one `pmf_walk` item."""
    outcomes = cell_outcomes(domains)
    # the atoms are nonzero and in cell order, which is outcome order, and
    # their counts have gcd 1, so D' is their least common denominator
    return Distribution(domains, dprime, tuple((outcomes[i], v) for i, v in atoms))


def _numerators(cells: int, r: int, t: int) -> Iterator[tuple[int, ...]]:
    """The tuples of `cells` nonnegative integers with exactly t nonzero
    entries summing to r, in lexicographic order."""
    if t > min(cells, r) or (r and not t):
        return
    if not cells:
        yield ()
        return
    for v in range(r + 1):
        for rest in _numerators(cells - 1, r - v, t - (v > 0)):
            yield (v, *rest)


def enumerate_distributions(n: int, max_support: int, max_denominator: int) -> Iterator[Distribution]:
    """Every pmf of the canonical stream as a `Distribution`, in order:
    the stream by its definition, nothing skipped.  Only the benchmark
    harness lists it; every search walks `pmf_walk`."""
    for dprime in range(1, max_denominator + 1):
        for k in range(1, dprime + 1):
            for domains in product(range(1, max_support + 1), repeat=n):
                outcomes = cell_outcomes(domains)
                for nums in _numerators(len(outcomes), dprime, k):
                    if gcd(*nums) == 1:
                        yield Distribution(domains, dprime, tuple(
                            (o, v) for o, v in zip(outcomes, nums) if v))
