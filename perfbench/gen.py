"""Seeded inputs for the `lp-large` and `refute-early` workloads.

Every input is built by the benchmark's own computation, so its answer is
known from the construction and never from running the program:

* `shannon_input`: a nonnegative combination of elemental inequalities,
  rewritten over joint entropies.  Provable on the generator cone.
* `chain_input`: a semigraphoid chain.  I(X;Y1|Z) = 0, I(X;Y2|Y1 Z) = 0, ...
  imply I(X;Y_S|Z) = 0 for any nonempty subset S of the Y's.  Provable.
* `kr_input`: the Kaced-Romashchenko implication on four of the n
  variables, optionally with extra antecedents whose first group lies in
  the other variables.  Not provable at the elemental set: a polymatroid
  on the four variables that satisfies the antecedents and violates the
  consequent extends to all n variables by keeping the others constant,
  and the extra antecedents then hold trivially.
* `planted_input`: a false inequality g - t*H(S) >= 0, where g is a
  combination of elemental inequalities, P is a pmf from the start of the
  canonical stream of the budget s=2, D=4, and t is chosen with exact
  arithmetic so that the inequality fails on P.  A counterexample
  therefore exists within the budget, at or before P's stream index.

Inputs come from a fixed pool per workload: pool member i is generated
from its index alone, and a run's seed picks which members it decides.
That lets every member's output be recorded once and compared on every
run, whatever the seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd

import mpmath

from entropy import approx, entropy_vector, evaluate, sign

NAMES = "ABCDEF"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def label(mask: int) -> str:
    return "".join(NAMES[i] for i in range(len(NAMES)) if (mask >> i) & 1)


def add(acc: dict, expr: dict, weight: Fraction = Fraction(1)) -> dict:
    for mask, c in expr.items():
        if mask:
            acc[mask] = acc.get(mask, Fraction(0)) + weight * c
    return {m: c for m, c in acc.items() if c != 0}


def cmi(y: int, z: int, x: int = 0) -> dict:
    """I(Y;Z|X) = h(XY) + h(XZ) - h(XYZ) - h(X)."""
    out: dict = {}
    for mask, c in ((x | y, 1), (x | z, 1), (x | y | z, -1), (x, -1)):
        out[mask] = out.get(mask, 0) + c
    return {m: Fraction(c) for m, c in out.items() if c and m}


def elemental_rows(n: int) -> list[dict]:
    """h(N) - h(N - i) >= 0 and I(i;j|K) >= 0 for i < j, K in N - {i, j}."""
    full = (1 << n) - 1
    rows = [{full: Fraction(1), full & ~(1 << i): Fraction(-1)} for i in range(n)]
    rows = [{m: c for m, c in r.items() if m} for r in rows]
    for i in range(n):
        for j in range(i + 1, n):
            rest = full & ~(1 << i) & ~(1 << j)
            k = rest
            while True:
                rows.append(cmi(1 << i, 1 << j, k))
                if k == 0:
                    break
                k = (k - 1) & rest
    return rows


def covers(expr: dict, n: int) -> bool:
    used = 0
    for mask in expr:
        used |= mask
    return used == (1 << n) - 1


def expr_text(expr: dict) -> str:
    parts = []
    for mask in sorted(expr):
        c = expr[mask]
        mag = abs(c)
        term = f"H({label(mask)})" if mag == 1 else f"{mag}*H({label(mask)})"
        parts.append(("- " if c < 0 else "+ ") + term)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def ci_text(y: int, z: int, x: int = 0) -> str:
    return f"{label(y)};{label(z)}|{label(x)}" if x else f"{label(y)};{label(z)}"


def elemental_combination(rng: random.Random, n: int, terms: int) -> dict:
    rows = elemental_rows(n)
    expr: dict = {}
    for row in rng.sample(rows, terms):
        expr = add(expr, row, Fraction(rng.randint(1, 6), rng.randint(1, 3)))
    return expr


# ---------------------------------------------------------------------------
# The canonical distribution stream, in the order the refuter documents:
# denominator D', support size, domain tuple, then numerator tuple, each
# increasing; numerator tuples with a common factor are left out.
# ---------------------------------------------------------------------------

def _numerators(cells: int, total: int, k: int):
    """Tuples of `cells` nonnegative ints summing to `total` with exactly k
    nonzero entries, in lexicographic order."""
    def rec(prefix, remaining, nonzero_left):
        left = cells - len(prefix)
        if left == 0:
            if remaining == 0 and nonzero_left == 0:
                yield tuple(prefix)
            return
        for v in range(0, remaining + 1):
            need = nonzero_left - (1 if v else 0)
            if need < 0 or need > left - 1 or (need == 0 and remaining - v):
                continue
            if need and remaining - v < need:
                continue
            prefix.append(v)
            yield from rec(prefix, remaining - v, need)
            prefix.pop()
    yield from rec([], total, k)


def canonical_stream(n: int, max_support: int, max_denominator: int):
    """(domains, pmf) pairs in canonical order."""
    for dprime in range(1, max_denominator + 1):
        for support in range(1, dprime + 1):
            for domains in product(range(1, max_support + 1), repeat=n):
                cells = 1
                for d in domains:
                    cells *= d
                if support > cells:
                    continue
                outcomes = list(product(*(range(d) for d in domains)))
                for nums in _numerators(cells, dprime, support):
                    g = 0
                    for v in nums:
                        g = gcd(g, v)
                    if g > 1:
                        continue
                    yield domains, {outcomes[i]: Fraction(v, dprime)
                                    for i, v in enumerate(nums) if v}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Input:
    """One decision: the CLI arguments, the files they name, and the answer
    the construction guarantees."""

    key: str
    argv: list[str]
    files: dict[str, str]
    expected_status: str
    expected_exit: int
    props: dict = field(default_factory=dict)
    expr: "dict | None" = None  # the inequality's expression, when plain


def shannon_input(key: str, rng: random.Random, n: int) -> Input:
    while True:
        expr = elemental_combination(rng, n, rng.randint(3, 6))
        if covers(expr, n):
            break
    fname = f"{key}.iic"
    return Input(key, ["prove", "--file", fname, "--workers", "1"],
                 {fname: f"# Shannon-type: a combination of elemental inequalities.\n"
                         f"{expr_text(expr)} >= 0\n"},
                 "proved", 0,
                 {"n": n, "feasible": True, "antecedents": 0, "kind": "shannon"}, expr)


def _ci_argv(n: int, antecedents: list[tuple], consequent: tuple) -> list[str]:
    argv = ["ci", "prove", "--vars", " ".join(NAMES[:n])]
    for st in antecedents:
        argv += ["--ante", ci_text(*st)]
    return argv + ["--cons", ci_text(*consequent)]


def chain_input(key: str, rng: random.Random, n: int) -> Input:
    order = list(range(n))
    rng.shuffle(order)
    x = 1 << order[0]
    k = rng.randint(2, n - 2)
    ys = [1 << v for v in order[1:1 + k]]
    z = 0
    for v in order[1 + k:]:
        if rng.random() < 0.5:
            z |= 1 << v
    antecedents = []
    seen = z
    for y in ys:
        antecedents.append((x, y, seen))
        seen |= y
    subset = [y for y in ys if rng.random() < 0.5] or [rng.choice(ys)]
    y_s = 0
    for y in subset:
        y_s |= y
    consequent = (x, y_s, z)
    return Input(key, _ci_argv(n, antecedents, consequent), {}, "proved", 0,
                 {"n": n, "feasible": True, "antecedents": len(antecedents),
                  "kind": "ci-chain", "statements": [antecedents, consequent]})


def kr_input(key: str, rng: random.Random, n: int) -> Input:
    roles = rng.sample(range(n), 4)
    a, b, c, d = (1 << v for v in roles)
    antecedents = [(c, d, a), (c, d, b), (a, b, 0), (b, c, d)]
    others = [v for v in range(n) if v not in roles]
    for _ in range(rng.randint(0, 2)):
        y = 1 << rng.choice(others)
        rest = [v for v in range(n) if (1 << v) != y]
        zv = rng.choice(rest)
        xs = 0
        for v in rest:
            if v != zv and rng.random() < 0.3:
                xs |= 1 << v
        antecedents.append((y, 1 << zv, xs))
    rng.shuffle(antecedents)
    consequent = (c, d, 0)
    return Input(key, _ci_argv(n, antecedents, consequent), {}, "inconclusive", 2,
                 {"n": n, "feasible": False, "antecedents": len(antecedents),
                  "kind": "ci-kr", "statements": [antecedents, consequent]})


REFUTE_BUDGET = "s=2,D=4"
PLANT_WINDOW = 160  # P is one of the first PLANT_WINDOW non-constant pmfs


def stream_head(n: int) -> list[tuple[int, dict, list]]:
    """(stream index, pmf, entropy vector) of the first PLANT_WINDOW pmfs of
    the budget's stream on which some variable is not constant."""
    head = []
    for index, (_, pmf) in enumerate(canonical_stream(n, 2, 4)):
        h = entropy_vector(pmf, n)
        if any(h[1 << i] for i in range(n)):
            head.append((index, pmf, h))
            if len(head) == PLANT_WINDOW:
                return head
    return head


def planted_input(key: str, rng: random.Random, n: int, head: list) -> Input:
    while True:
        index, _, h = rng.choice(head)
        live = sum(1 << i for i in range(n) if h[1 << i])
        g = elemental_combination(rng, n, rng.randint(1, 3))
        s = rng.randrange(1, 1 << n)
        if not s & live:
            continue
        # the least t on a 1/8 grid above g.h(P) / h_S(P), so the inequality
        # fails on P; the exact sign test below confirms it
        ratio = approx(evaluate(g, h)) / approx(h[s])
        t = Fraction(int(mpmath.floor(ratio * 8)) + 1, 8)
        expr = add(dict(g), {s: -t})
        if covers(expr, n) and sign(evaluate(expr, h)) < 0:
            break
    fname = f"{key}.iic"
    return Input(key, ["refute", "--file", fname, "--budget", REFUTE_BUDGET,
                       "--workers", "1"],
                 {fname: f"# False: fails on a planted pmf within {REFUTE_BUDGET}.\n"
                         f"{expr_text(expr)} >= 0\n"},
                 "refuted", 1,
                 {"n": n, "feasible": None, "antecedents": 0, "kind": "planted",
                  "planted_index": index}, expr)


# ---------------------------------------------------------------------------
# Pools and per-seed selection
# ---------------------------------------------------------------------------

def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


# lp-large: (stratum, builder, n, pool size, members per run).  The n=6
# members are fixed: one n=6 LP takes 4-15 s depending on its target, so
# drawing them per seed would make runs with different seeds incomparable.
LP_STRATA = [
    ("shannon6", shannon_input, 6, 1, 1),
    ("kr6", kr_input, 6, 1, 1),
    ("shannon5", shannon_input, 5, 16, 1),
    ("chain5", chain_input, 5, 12, 1),
    ("kr5", kr_input, 5, 12, 1),
]

# refute-early: (n, pool size, members per run)
REFUTE_STRATA = [(3, 200, 80), (4, 200, 80), (5, 200, 80)]


def lp_pool() -> list[Input]:
    return [build(f"{name}-{i}", _rng("lp-large", name, i), n)
            for name, build, n, size, _ in LP_STRATA for i in range(size)]


def refute_pool() -> list[Input]:
    out = []
    for n, size, _ in REFUTE_STRATA:
        head = stream_head(n)
        out += [planted_input(f"planted{n}-{i}", _rng("refute-early", n, i), n, head)
                for i in range(size)]
    return out


def _select(pool: list[Input], strata: list[tuple[str, int]], seed: int) -> list[Input]:
    rng = random.Random(seed)
    chosen = []
    for prefix, count in strata:
        members = [inp for inp in pool if inp.key.startswith(prefix + "-")]
        chosen += rng.sample(members, count)
    rng.shuffle(chosen)
    return chosen


def lp_inputs(seed: int) -> list[Input]:
    return _select(lp_pool(), [(name, k) for name, _, _, _, k in LP_STRATA], seed)


def refute_inputs(seed: int) -> list[Input]:
    return _select(refute_pool(), [(f"planted{n}", k) for n, _, k in REFUTE_STRATA], seed)
