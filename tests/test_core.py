"""Exact value arithmetic, the sign test, and clause semantics."""
from __future__ import annotations

import pickle
import time
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoineq import core
from infoineq.apps import fixture
from infoineq.cli import ClauseOutcome
from infoineq.core import (BooleanConstraint, Clause, LinExpr, LogLinValue, Value,
                           _factor_cached, cond_entropy, entropy_of, is_prime, mask_indices,
                           mask_label, mutual_info, prime_sum_sign)
from infoineq.distributions import Distribution
from infoineq.parser import parse_constraint
from infoineq.refuter import DISTRIBUTION, Budget, refute, violation
from infoineq.shannon import elemental, prove

from conftest import (as_rational, lin_exprs, log_lin_values, modular_candidate, small_rationals,
                      zero_candidate)


def high_precision(value: LogLinValue, dps: int = 64) -> mpmath.mpf:
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for q, r in value.terms:
            total += (mpmath.mpf(q.numerator) / q.denominator
                      * mpmath.log(mpmath.mpf(r.numerator) / r.denominator, 2))
        return total


class TestAsFraction:
    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="floats"):
            core.as_fraction(1.5)

    def test_returns_a_fraction_unchanged(self):
        f = Fraction(2, 3)
        assert core.as_fraction(f) is f

    @pytest.mark.parametrize("x,expected", [(3, Fraction(3)), ("-5/10", Fraction(-1, 2))])
    def test_coerces_ints_and_strings(self, x, expected):
        f = core.as_fraction(x)
        assert type(f) is Fraction and f == expected


class TestReadNumbers:
    """`read_int` and `read_fraction` read ASCII text as `int` and
    `Fraction` do, and reject other scripts' digits and underscores."""

    @pytest.mark.parametrize("text,value", [("3", 3), (" +3\t", 3), ("-0", 0), ("007", 7),
                                            pytest.param("9" * 4000, 10 ** 4000 - 1, id="9x4000")])
    def test_int(self, text, value):
        assert core.read_int(text) == value

    @pytest.mark.parametrize("text,value", [
        ("1/2", Fraction(1, 2)), (" -3/6 ", Fraction(-1, 2)), ("0.25", Fraction(1, 4)),
        (".25", Fraction(1, 4)), ("2.5e-1", Fraction(1, 4)), ("+1", Fraction(1)),
        pytest.param("-1/" + "9" * 4000, Fraction(-1, 10 ** 4000 - 1), id="-1/9x4000"),
        pytest.param("0." + "0" * 3998 + "1", Fraction(1, 10 ** 3999), id="0.0x3998+1")])
    def test_fraction(self, text, value):
        assert core.read_fraction(text) == value

    @pytest.mark.parametrize("read", [core.read_int, core.read_fraction])
    @pytest.mark.parametrize("text", ["\u0663", "1_0", "\u0662/\u0664", "\uff13", "\u00a03",
                                      "1/1_0"])
    def test_other_scripts_and_underscores_name_the_text(self, read, text):
        with pytest.raises(ValueError) as exc:
            read(text)
        assert str(exc.value) == f"{text!r} is not a number in ASCII digits"

    @pytest.mark.parametrize("text", ["1/0", " 0/0 "])
    def test_a_zero_denominator_names_the_text(self, text):
        with pytest.raises(ValueError) as exc:
            core.read_fraction(text)
        assert str(exc.value) == f"{text!r} has a zero denominator"

    @pytest.mark.parametrize("text", ["1e10000000", "1e-10000000", " 2.5E+12345 ", "1e010000"])
    def test_an_exponent_of_more_than_four_digits_names_the_text(self, text):
        with pytest.raises(ValueError) as exc:
            core.read_fraction(text)
        assert str(exc.value) == f"{text!r} has an exponent of more than 4 digits"

    @pytest.mark.parametrize("text,value", [("2.5e-1", Fraction(1, 4)), ("0.25", Fraction(1, 4)),
                                            ("1e3999", Fraction(10 ** 3999)),
                                            ("-1E-0003999", Fraction(-1, 10 ** 3999))])
    def test_an_exponent_of_up_to_four_digits_reads(self, text, value):
        assert core.read_fraction(text) == value

    # Python's own limit on int/text conversion is 4300 digits
    @pytest.mark.parametrize("read,text", [
        (core.read_fraction, "1e9999"), (core.read_fraction, "-1E-4000"),
        (core.read_fraction, "1/" + "7" * 4001), (core.read_fraction, "0." + "1" * 4000),
        (core.read_fraction, "7" * 5000), (core.read_fraction, "1/" + "7" * 5000),
        (core.read_fraction, "0." + "7" * 5000), (core.read_int, "7" * 4001),
        (core.read_int, " -" + "7" * 5000), (core.read_int, "0" * 5000)],
        ids=["1e9999", "-1E-4000", "1/7x4001", "0.1x4000", "7x5000", "1/7x5000", "0.7x5000",
             "int-7x4001", "int--7x5000", "int-0x5000"])
    def test_more_than_max_digits_names_the_text(self, read, text):
        with pytest.raises(ValueError) as exc:
            read(text)
        assert str(exc.value) == f"{text!r} is a number of more than 4000 digits"

    def test_ascii_non_numbers_keep_the_builtin_messages(self):
        with pytest.raises(ValueError, match=r"^invalid literal for int\(\) with base 10: 'x'$"):
            core.read_int("x")
        with pytest.raises(ValueError, match="^Invalid literal for Fraction: '1/2/3'$"):
            core.read_fraction("1/2/3")

    # short texts over the characters of both grammars: a long exponent
    # would make `Fraction` build a huge power of ten
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789+-/.eE x_", max_size=6))
    def test_ascii_text_reads_as_the_builtins_read_it(self, text):
        for read, builtin in ((core.read_int, int), (core.read_fraction, Fraction)):
            try:
                want = builtin(text)
            except (ValueError, ZeroDivisionError):
                with pytest.raises(ValueError):
                    read(text)
            else:
                if "_" in text:
                    with pytest.raises(ValueError, match="not a number in ASCII digits"):
                        read(text)
                elif max(abs(Fraction(want).numerator), Fraction(want).denominator) \
                        >= 10 ** core.MAX_DIGITS:
                    with pytest.raises(ValueError, match="more than 4000 digits"):
                        read(text)
                else:
                    assert read(text) == want


class TestMasks:
    def test_mask_indices(self):
        assert mask_indices(0) == []
        assert mask_indices(1) == [0]
        assert mask_indices(5) == [0, 2]
        assert mask_indices(1 << 15) == [15]
        assert mask_indices((1 << 16) - 1) == list(range(16))

    def test_mask_label(self):
        names = [chr(ord("A") + i) for i in range(16)]
        assert mask_label(0, names) == ""
        assert mask_label(4, names) == "C"
        assert mask_label(1 << 15, names) == "P"
        assert mask_label((1 << 16) - 1, names) == "ABCDEFGHIJKLMNOP"
        long_names = [f"X{i + 1:02d}" for i in range(16)]
        assert mask_label(1 << 15 | 2, long_names, " ") == "X02 X16"


class TestSign:
    def test_log_two_positive(self):
        assert LogLinValue.of((1, 2)).sign() == 1

    def test_exponents_cancel(self):
        # 3^2 * 8 == 2^3 * 9
        v = LogLinValue.of((2, 3), (-3, 2), (1, Fraction(8, 9)))
        assert v.sign() == 0

    def test_scaled_cancellation(self):
        # oracle: 64-digit evaluation confirms the aggregate vanishes
        v = LogLinValue.of((Fraction(1, 2), 2), (Fraction(1, 2), 2),
                           (Fraction(3, 4), 4), (Fraction(-5, 2), 2))
        assert abs(high_precision(v)) < mpmath.mpf(10) ** -50
        assert v.sign() == 0
        assert v.log_exponents() == {}

    def test_negative(self):
        assert LogLinValue.of((1, Fraction(1, 3))).sign() == -1

    def test_close_race_multi_prime(self):
        # log2(3) vs 19/12: 2^19 vs 3^12 differ, sign decided by the float rung
        v = LogLinValue.of((12, 3), (-19, 2))
        assert v.sign() == (1 if 3 ** 12 > 2 ** 19 else -1)

    def test_rejects_nonpositive_log_argument(self):
        with pytest.raises(ValueError):
            LogLinValue.of((1, 0))

    @pytest.mark.parametrize("r", [Fraction(0), Fraction(-1, 2)])
    def test_constructor_rejects_nonpositive_log_argument(self, r):
        with pytest.raises(ValueError, match="must be positive"):
            LogLinValue(((Fraction(1), r),))

    @pytest.mark.parametrize("term", [(1, Fraction(2)), (Fraction(1), 2),
                                      (Fraction(1), 2.0), (0.5, Fraction(2))])
    def test_constructor_rejects_terms_that_are_not_fractions(self, term):
        with pytest.raises(TypeError, match="must be Fractions"):
            LogLinValue((term,))

    @settings(max_examples=100, deadline=None)
    @given(log_lin_values)
    def test_text_writes_each_term_as_its_fractions(self, v):
        """`core.log_sum_text`, which also writes the re-check's trace
        values from integers, against `str` of the `Fraction`s."""
        assert str(v) == (" + ".join(f"{q}*log2({r})" for q, r in v.terms) or "0")

    @settings(max_examples=200, deadline=None)
    @given(log_lin_values)
    def test_sign_matches_high_precision(self, v):
        s = v.sign()
        approx = high_precision(v)
        if s == 0:
            assert abs(approx) < mpmath.mpf(10) ** -50
        else:
            assert approx > 0 if s == 1 else approx < 0

    @settings(max_examples=100, deadline=None)
    @given(log_lin_values, st.integers(min_value=1, max_value=7))
    def test_sign_invariant_under_positive_scaling(self, v, k):
        assert v.scale(Fraction(k, 3)).sign() == v.sign()

    @settings(max_examples=100, deadline=None)
    @given(log_lin_values)
    def test_value_minus_itself_vanishes(self, v):
        assert (v - v).sign() == 0


class TestEval:
    def test_independent_bits_additivity(self):
        # independent fair bits have this entropic vector
        h = modular_candidate([1, 1])
        expr = entropy_of(2, 3) - entropy_of(2, 1) - entropy_of(2, 2)
        assert expr.eval(h).sign() == 0

    def test_three_halves_entropy(self):
        # pmf (1/2, 1/4, 1/4): -sum p log p = 1/2 + 1/2 + 1/2, exactly 3/2
        oracle = (Fraction(1, 2) * 1 + Fraction(1, 4) * 2 + Fraction(1, 4) * 2)
        assert oracle == Fraction(3, 2)
        value = LogLinValue.of((Fraction(1, 2), 2), (Fraction(1, 4), 4), (Fraction(1, 4), 4))
        # a dict of the masks the expression mentions is enough
        got = entropy_of(1, 1).eval({1: value})
        assert as_rational(got) == oracle
        assert got.sign() == 1

    def test_zero_candidate(self):
        h = zero_candidate(3)
        expr = LinExpr.make(3, {7: Fraction(5), 1: Fraction(-2)})
        assert expr.eval(h).sign() == 0

    @settings(max_examples=60, deadline=None)
    @given(lin_exprs(3), lin_exprs(3), st.lists(small_rationals.filter(lambda q: q >= 0),
                                                min_size=3, max_size=3))
    def test_eval_is_linear(self, c1, c2, weights):
        h = modular_candidate(weights)
        lhs = (c1 + c2).eval(h)
        rhs = c1.eval(h) + c2.eval(h)
        assert (lhs - rhs).sign() == 0

    @settings(max_examples=60, deadline=None)
    @given(lin_exprs(3), st.integers(min_value=1, max_value=9),
           st.lists(small_rationals.filter(lambda q: q >= 0), min_size=3, max_size=3))
    def test_positive_scaling_preserves_sign(self, c, k, weights):
        h = modular_candidate(weights)
        q = Fraction(k, 4)
        assert c.scale(q).eval(h).sign() == c.eval(h).sign()

    @settings(max_examples=100, deadline=None)
    @given(lin_exprs(3), st.lists(log_lin_values, min_size=7, max_size=7))
    def test_one_pass_eval_equals_left_fold(self, expr, values):
        h = (LogLinValue.zero(), *values)
        fold = LogLinValue.zero()
        for mask, c in expr.items:
            fold = fold + h[mask].scale(c)
        got = expr.eval(h)
        assert got.terms == fold.terms
        assert str(got) == str(fold)


class TestLinExpr:
    def test_empty_set_coefficient_rejected(self):
        with pytest.raises(ValueError):
            LinExpr.make(2, {0: Fraction(1)})

    @pytest.mark.parametrize("n,mask", [(2, 4), (2, -1), (16, 1 << 16)])
    def test_mask_out_of_range_rejected(self, n, mask):
        with pytest.raises(ValueError, match=f"subset mask {mask} out of range for n={n}"):
            LinExpr.make(n, {mask: Fraction(1)})

    def test_normalization_drops_zeros(self):
        e = LinExpr.make(2, {1: Fraction(0), 3: Fraction(1)})
        assert e.coeffs() == {3: Fraction(1)}

    def test_mutual_info_desugar(self):
        # I(Y;Z|X) over X,Y,Z = indices 0,1,2
        e = mutual_info(3, 2, 4, 1)
        assert e.coeffs() == {3: Fraction(1), 5: Fraction(1),
                              7: Fraction(-1), 1: Fraction(-1)}

    def test_json_round_trip(self):
        e = cond_entropy(3, 2, 5)
        assert LinExpr.from_json(e.to_json()) == e


def holds(clause: Clause, dist: Distribution) -> bool:
    return violation(BooleanConstraint(clause.n, (clause,)), DISTRIBUTION, dist) is None


# Y a copy of a fair bit X: h(X) = h(Y) = h(XY) = 1
COPY = Distribution.make((2, 2), {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
# independent fair bits: the modular vector with weights (1, 1)
FAIR_PAIR = Distribution.make((2, 2), {(x, y): Fraction(1, 4) for x in (0, 1) for y in (0, 1)})
# a constant pair: the zero vector
CONSTANT = Distribution.make((1, 1), {(0, 0): Fraction(1)})


class TestHolds:
    """Clause semantics, as `refuter.violation` decides them."""

    def test_monotone_consequent_on_copy(self):
        # h(XY) - h(X) evaluates to zero, so >= 0 holds
        clause = Clause(2, (), (entropy_of(2, 3) - entropy_of(2, 1),))
        assert holds(clause, COPY)

    def test_failing_consequent(self):
        expr = entropy_of(2, 1) + entropy_of(2, 2) - entropy_of(2, 3).scale(3)
        clause = Clause(2, (), (expr,))
        assert expr.eval(FAIR_PAIR.entropic_vector()).sign() == -1
        assert not holds(clause, FAIR_PAIR)

    def test_zero_vector_satisfies_everything(self):
        clause = Clause(2, (-entropy_of(2, 1),), (-entropy_of(2, 3),))
        assert holds(clause, CONSTANT)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(lin_exprs(2), max_size=2), st.lists(lin_exprs(2), min_size=1, max_size=2))
    def test_zero_vector_property(self, antecedents, consequents):
        clause = Clause(2, tuple(antecedents), tuple(consequents))
        assert holds(clause, CONSTANT)

    def test_dimension_mismatch(self):
        # the candidate's n is checked here, once, not by `LinExpr.eval`
        clause = Clause(2, (), (entropy_of(2, 1),))
        with pytest.raises(ValueError, match="dimension mismatch"):
            violation(BooleanConstraint(2, (clause,)), DISTRIBUTION,
                      Distribution.make((2, 2, 2), {(0, 0, 0): Fraction(1)}))

    def test_empty_consequents_rejected(self):
        with pytest.raises(ValueError):
            Clause(2, (), ())

    def test_constraint_requires_clause(self):
        with pytest.raises(ValueError):
            BooleanConstraint(2, ())


def _clause() -> Clause:
    return Clause(2, (entropy_of(2, 1),), (mutual_info(2, 1, 2), -entropy_of(2, 3)))


# each builds a fresh instance, equal to but not the same as the last one
VALUES = {
    "LinExpr": lambda: LinExpr.make(3, {1: Fraction(1), 6: Fraction(-2, 3)}),
    "LogLinValue": lambda: LogLinValue.of((1, 3), (Fraction(-1, 2), Fraction(5, 7))),
    "Clause": _clause,
    "BooleanConstraint": lambda: BooleanConstraint(2, (_clause(), _clause())),
    "Distribution": lambda: Distribution.make((2, 2), {(0, 0): Fraction(1, 2),
                                                       (1, 1): Fraction(1, 2)}),
    "Budget": lambda: Budget.parse("s=3,D=5,vsdim=1,vsq=2"),
    "Counterexample": lambda: refute(fixture("false_mono_flip").constraint,
                                     Budget(2, 2)).counterexample,
    "ProofCertificate": lambda: prove(entropy_of(2, 3) - entropy_of(2, 1), elemental(2)),
}


class TestValueSemantics:
    """The value types compare, hash, print and pickle by their fields, as
    frozen dataclasses do."""

    @pytest.mark.parametrize("name", VALUES)
    def test_equal_fields_give_equal_values(self, name):
        a, b = VALUES[name](), VALUES[name]()
        assert a is not b and a == b and not a != b
        if name == "Counterexample":
            with pytest.raises(TypeError):  # its trace holds dicts
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    @pytest.mark.parametrize("name", VALUES)
    def test_another_class_with_the_same_fields_differs(self, name):
        a = VALUES[name]()
        twin = object.__new__(type("Twin", (Value,), {"__slots__": type(a).__slots__}))
        for field in type(a).__slots__:
            setattr(twin, field, getattr(a, field))
        assert twin._fields() == a._fields()
        assert a != twin and twin != a
        assert a != a._fields()

    @pytest.mark.parametrize("name", VALUES)
    def test_repr_names_the_fields(self, name):
        a = VALUES[name]()
        fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in type(a).__slots__)
        assert repr(a) == f"{name}({fields})"
        if name == "Budget":
            assert repr(a) == ("Budget(max_support=3, max_denominator=5, vs_primes=(2,), "
                               "vs_max_dim=1)")

    @pytest.mark.parametrize("name", VALUES)
    def test_pickle_round_trips(self, name):
        a = VALUES[name]()
        b = pickle.loads(pickle.dumps(a))
        assert type(b) is type(a) and b == a

    def test_equal_antecedent_tuples_share_a_key(self):
        # as in `cli.decide_constraint`, which prepares them once per key
        first, second = (parse_constraint("[I(X;Y) = 0] => I(X;Z) >= 0").clauses[0].antecedents
                         for _ in range(2))
        assert first is not second and first[0] is not second[0]
        assert len({first: 1, second: 2}) == 1

    def test_clause_outcome_has_no_hash(self):
        outcome = ClauseOutcome("proved", "generator-cone", {})
        assert outcome == ClauseOutcome("proved", "generator-cone", {}, ())
        with pytest.raises(TypeError):
            hash(outcome)


def reference_sign(exps) -> int:
    """The sign ladder without its float rung: mpmath intervals from 64
    bits, doubling."""
    if not exps:
        return 0
    if len(exps) == 1:
        return 1 if next(iter(exps.values())) > 0 else -1
    iv, saved = mpmath.iv, mpmath.iv.prec
    try:
        iv.prec = 64
        while True:
            total = iv.mpf(0)
            for p, f in sorted(exps.items()):
                f = Fraction(f)
                total += iv.mpf(f.numerator) / iv.mpf(f.denominator) * iv.log(iv.mpf(p))
            if total.a > 0:
                return 1
            if total.b < 0:
                return -1
            iv.prec *= 2
    finally:
        iv.prec = saved


# continued-fraction convergents p/q of log2 3, alternately below and above
LOG2_3_CONVERGENTS = [(1, 1), (2, 1), (3, 2), (8, 5), (19, 12), (65, 41), (84, 53),
                      (485, 306), (1054, 665), (24727, 15601), (50508, 31867),
                      (125743, 79335), (176251, 111202), (301994, 190537),
                      (16785921, 10590737)]

exponents = st.one_of(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6),
    # beyond the float range on both sides: the float rung must pass these up
    st.builds(lambda k, e: Fraction(k) * Fraction(10) ** e,
              st.integers(min_value=-99, max_value=99), st.integers(min_value=-400, max_value=400)),
).filter(bool)

exponent_maps = st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13, 31, 2147483647]),
                                exponents, min_size=2, max_size=6)


@pytest.fixture
def rungs(monkeypatch):
    """The precisions `prime_sum_sign` asks `core._interval_log_sum` for."""
    seen: list[int] = []
    refine = core._interval_log_sum

    def counted(items, prec):
        seen.append(prec)
        return refine(items, prec)

    monkeypatch.setattr(core, "_interval_log_sum", counted)
    return seen


class TestSignLadder:
    @settings(max_examples=300, deadline=None)
    @given(exponent_maps)
    def test_matches_interval_only_ladder(self, exps):
        assert prime_sum_sign(exps) == reference_sign(exps)

    @pytest.mark.parametrize("k", range(len(LOG2_3_CONVERGENTS)))
    def test_log2_3_near_ties(self, rungs, k):
        p, q = LOG2_3_CONVERGENTS[k]
        exps = {2: -p, 3: q}  # q log 3 - p log 2, of the sign of log2 3 - p/q
        expected = 1 if k % 2 == 0 else -1
        assert prime_sum_sign(exps) == reference_sign(exps) == expected
        assert rungs[0] == 53
        # |q log2 3 - p| < 1/q', so from q = 15601 the float margin covers zero
        assert (max(rungs) > 53) == (q >= 15601)

    def test_refuting_matus_k1_stays_on_the_float_rung(self, rungs):
        assert refute(fixture("matus_k1").constraint, Budget(2, 6)).found
        assert rungs and set(rungs) == {53}

    def test_float_rung_passes_up_what_it_cannot_bound(self):
        inf = float("inf")
        assert core._interval_log_sum([(2, 10 ** 400), (3, -1)], 53) == (-inf, inf)
        assert core._interval_log_sum([(2, Fraction(1, 10 ** 400)), (3, -1)], 53) == (-inf, inf)
        lo, hi = core._interval_log_sum([(2, 1), (3, -1)], 53)
        assert lo < hi < 0


def sieve(limit: int) -> list[bool]:
    flags = [False, False] + [True] * (limit - 2)
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = [False] * len(flags[i * i::i])
    return flags


def trial_division(k: int) -> dict[int, int]:
    factors, d = {}, 2
    while d * d <= k:
        while k % d == 0:
            k, factors[d] = k // d, factors.get(d, 0) + 1
        d += 1
    if k > 1:
        factors[k] = factors.get(k, 0) + 1
    return factors


class TestFactoring:
    def test_matches_trial_division(self):
        for k in range(1, 10001):
            assert _factor_cached(k) == tuple(sorted(trial_division(k).items())), k

    def test_is_prime_matches_sieve(self):
        flags = sieve(10 ** 5)
        assert all(is_prime(n) == flags[n] for n in range(10 ** 5))

    @pytest.mark.parametrize("n", [561, 41041, 3215031751, 3317044064679887385961981,
                                   (2 ** 61 - 1) * (2 ** 67 - 1)])
    def test_rejects_pseudoprimes_and_products(self, n):
        # Carmichael numbers, the least strong pseudoprime to bases 2..41,
        # and a product of two primes above the exact Miller-Rabin range;
        # from that least pseudoprime on, the test proves nothing
        if n < 3317044064679887385961981:
            assert not is_prime(n)
        else:
            with pytest.raises(ValueError, match="out of range"):
                is_prime(n)


def reference_exponents(value: LogLinValue) -> dict[int, Fraction]:
    """The value as sum_p f_p * log2(p) over primes, by trial division."""
    exps: dict[int, Fraction] = {}
    for q, r in value.terms:
        for k, w in ((r.numerator, q), (r.denominator, -q)):
            for p, e in trial_division(k).items():
                exps[p] = exps.get(p, Fraction(0)) + w * e
    return {p: f for p, f in exps.items() if f}


# numerators and denominators up to 10^6 that often share factors or are
# powers, such as 4 and 8 beside 2 and 6
naturals = st.one_of(
    st.integers(min_value=1, max_value=10 ** 6),
    st.builds(pow, st.sampled_from([2, 3, 4, 6, 8, 10, 12]), st.integers(min_value=0, max_value=5)),
    st.builds(lambda a, b: a * b, st.sampled_from([2, 4, 8, 9, 15, 997]),
              st.integers(min_value=1, max_value=1000)),
)
log_terms = st.lists(st.tuples(small_rationals, naturals, naturals), max_size=5)


@st.composite
def shared_factor_values(draw) -> LogLinValue:
    """A sum of q * log2(a/b) terms, plus terms that cancel exactly once
    split differently: q log2(a/b) - q log2(a) + q log2(b)."""
    terms = [(q, Fraction(a, b)) for q, a, b in draw(log_terms)]
    for q, a, b in draw(log_terms):
        terms += [(q, Fraction(a, b)), (-q, Fraction(a)), (q, Fraction(b))]
    return LogLinValue.of(*draw(st.permutations(terms)))


class TestCoprimeBasis:
    @settings(max_examples=300, deadline=None)
    @given(shared_factor_values())
    def test_agrees_with_prime_factorization(self, v):
        exps = reference_exponents(v)
        assert v.sign() == prime_sum_sign(exps)
        assert as_rational(v) == (exps.get(2, Fraction(0)) if set(exps) <= {2} else None)

    def test_basis_is_pairwise_coprime_and_generates_its_inputs(self):
        ks = [12, 18, 8, 35, 1, 147, 2 ** 40, 6 ** 7, 10 ** 6]
        basis = core._coprime_basis(ks)
        assert all(b > 1 for b in basis)
        assert all(gcd(a, b) == 1 for i, a in enumerate(basis) for b in basis[:i])
        for k in ks:
            for b in basis:
                while k % b == 0:
                    k //= b
            assert k == 1

    def test_thirty_digit_semiprimes_are_fast(self):
        # primes of 30 digits, far past splitting p * q by any factoring
        p, q = 100000000000000000000000000319, 200000000000000000000000000017
        cases = [
            (LogLinValue.of((1, p * q), (-1, p), (-1, q)), 0),
            # log2(q / (q + 2)), about -2^-96: past the float rung
            (LogLinValue.of((1, p * q), (-1, p), (-1, q + 2)), -1),
            (LogLinValue.of((1, Fraction(p * q, q + 2)), (-1, p)), -1),
            (LogLinValue.of((2, p * q), (-1, p * p), (-1, Fraction(q * q, 3))), 1),
        ]
        for value, expected in cases:
            start = time.perf_counter()
            assert value.sign() == expected
            assert time.perf_counter() - start < 1.0
