"""Grammar, desugaring, and pretty-printer round trips."""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infoineq import parser
from infoineq.apps import secret_sharing_constraint
from infoineq.core import MAX_DIGITS, LinExpr, cond_entropy, mutual_info
from infoineq.parser import (MAX_PAREN_DEPTH, ParseError, format_clause, format_constraint,
                             format_expr, parse_constraint)

import reference_parser
from conftest import lin_exprs, parse_expr

XYZ = ["X", "Y", "Z"]


class TestExpressions:
    def test_conditional_mutual_information(self):
        e = parse_expr("I(Y;Z|X)", XYZ)
        assert e.coeffs() == {3: Fraction(1), 5: Fraction(1),
                              7: Fraction(-1), 1: Fraction(-1)}

    def test_conditional_entropy(self):
        e = parse_expr("H(Y|X)", XYZ)
        assert e.coeffs() == {3: Fraction(1), 1: Fraction(-1)}

    def test_linear_combination(self):
        e = parse_expr("2*H(XY) - H(X) - H(XYZ)", XYZ)
        assert e.coeffs() == {3: Fraction(2), 1: Fraction(-1), 7: Fraction(-1)}

    def test_rational_coefficients_and_juxtaposition(self):
        assert parse_expr("2/3 * H(XYZ)", XYZ) == parse_expr("(2/3)H(XYZ)", XYZ)

    def test_unary_minus(self):
        assert parse_expr("-H(X)", XYZ) == -parse_expr("H(X)", XYZ)

    def test_multiletter_names_split_on_whitespace(self):
        e = parse_expr("H(Alice Bob)", ["Alice", "Bob"])
        assert e.coeffs() == {3: Fraction(1)}

    def test_uppercase_run_splits_into_letters(self):
        assert parse_expr("H(XYZ)", XYZ) == parse_expr("H(X Y Z)", XYZ)

    def test_zero_literal_allowed(self):
        assert parse_expr("0", XYZ).is_zero()
        assert parse_expr("0 - H(X)", XYZ) == -parse_expr("H(X)", XYZ)

    def test_desugaring_identity(self):
        # I(Y;Z|X) == H(Y|X) - H(Y|XZ), for every assignment of the roles
        for x, y, z in permutations(range(3)):
            lhs = mutual_info(3, 1 << y, 1 << z, 1 << x)
            rhs = cond_entropy(3, 1 << y, 1 << x) - cond_entropy(3, 1 << y, (1 << x) | (1 << z))
            assert lhs == rhs


class TestErrors:
    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_expr("H(W)", XYZ)

    def test_syntax_error_carries_span(self):
        with pytest.raises(ParseError) as err:
            parse_constraint("H(X) >= ^")
        assert err.value.span.line == 1
        assert err.value.span.column > 0

    def test_constant_term_rejected(self):
        with pytest.raises(ParseError, match="constant"):
            parse_expr("H(X) + 1", XYZ)

    def test_nonlinear_product_rejected(self):
        with pytest.raises(ParseError, match="not linear"):
            parse_expr("H(X) * H(Y)", XYZ)

    def test_float_literal_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("1.5 * H(X)", XYZ)

    def test_equality_in_max_consequent_rejected(self):
        with pytest.raises(ParseError, match="equality"):
            parse_constraint("max(H(X), H(Y)) = 0")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_constraint("   # nothing here")


    @pytest.mark.parametrize("text,names,message,line,column", [
        ("H(X) + 1 >= 0", None,
         "constant terms are not allowed in entropy expressions", 1, 10),
        ("H(X)\n  >= 2 * H(Y) - 1/2", None,
         "constant terms are not allowed in entropy expressions", 2, 20),
        ("H(X) * H(Y) >= 0", None, "product of two entropy expressions is not linear", 1, 13),
        ("  I(X;Y)\n + 3/4 H(Z) (H(X) - H(Y)) >= 0", None,
         "product of two entropy expressions is not linear", 2, 27),
        ("1/0 H(X) >= 0", None, "zero denominator", 1, 3),
        ("H(X) >= 0 &&\n  H(XW) >= 0", XYZ, "unknown variable 'W'", 2, 7),
        ("H(X) >= 0 &&", None, "expected an entropy term or rational, found 'end of input'", 1, 13),
        ("H(X) >= 0 &&\n", None,
         "expected an entropy term or rational, found 'end of input'", 2, 1),
        ("", None, "constraint mentions no variables", 1, 1),
        # numbers are ASCII digits, like names; an Arabic-Indic three is no 3
        ("\u0663*H(X) >= 0", None, "unexpected character '\u0663'", 1, 1),
        ("H(X) >=\n  H(Y) ^ 2", None, "unexpected character '^'", 2, 8),
        ("H(X) >=\n  2 * H(Y|)", None, "expected variable names", 2, 11),
        # the 65th nested "(" is the error, not a RecursionError at about 330
        pytest.param("(" * 330 + "H(X)" + ")" * 330 + " >= 0", None,
                     "parentheses nested deeper than 64", 1, 65, id="330-deep"),
        pytest.param("H(X) >= 0 &&\n  2 " + "(" * 65 + "H(X)" + ")" * 65 + " >= 0", None,
                     "parentheses nested deeper than 64", 2, 69, id="65-deep-on-line-2"),
        # numbers stay under Python's 4300-digit int/text limit, as written
        # and as collected: 1/a + 1/b has a denominator of about 8000 digits
        pytest.param("H(X) >= 0 &&\n  " + "7" * 5000 + "*H(X) >= 0", None,
                     "a number of more than 4000 digits", 2, 3, id="5000-digit-number"),
        pytest.param("H(X) >= 0 && H(X) >= 1/" + "1" * 3999 + "*H(Y) + 1/" + "1" * 3998
                     + "3*H(Y)", None, "a coefficient of more than 4000 digits", 1, 14,
                     id="8000-digit-sum"),
        pytest.param("max(H(X), H(Y)) >= 1/" + "1" * 3999 + "*H(Z) + 1/" + "1" * 3998
                     + "3*H(Z)", None, "a coefficient of more than 4000 digits", 1, 1,
                     id="8000-digit-sum-in-max"),
    ])
    def test_message_and_position(self, text, names, message, line, column):
        with pytest.raises(ParseError) as err:
            parse_constraint(text, names)
        assert (err.value.message, err.value.span.line, err.value.span.column) \
            == (message, line, column)

    def test_numbers_of_max_digits_parse(self):
        big = "9" * MAX_DIGITS
        constraint = parse_constraint(f"{big}*H(X) >= 1/{big}*H(Y)")
        assert sorted(constraint.clauses[0].consequents[0].coeffs().values()) \
            == [Fraction(-1, int(big)), int(big)]

    def test_nesting_up_to_the_cap_parses(self):
        depth = MAX_PAREN_DEPTH
        assert parse_constraint("(" * depth + "H(X)" + ")" * depth + " >= 0") \
            == parse_constraint("H(X) >= 0")

    @pytest.mark.parametrize("text,error", [
        ("H(V1) + 1 >= H({all})", "variable count 17 out of range 1..16"),
        ("H(V9) >= H({all})", "variable count 17 out of range 1..16"),
        ("0 >= H({all}", "variable count 17 out of range 1..16"),
        ("1/0 H(V1) >= H({all})", "zero denominator (line 1, column 3)"),
    ])
    def test_first_error_with_too_many_variables(self, text, error):
        # V9 sorts last of V1..V17, so it is variable 16
        text = text.format(all=" ".join(f"V{i}" for i in range(1, 18)))
        with pytest.raises(ValueError) as err:
            parse_constraint(text)
        assert str(err.value) == error


class TestConstraints:
    def test_ci_clause_expands_equalities(self):
        c = parse_constraint("[I(X;Y)=0, I(X;Z|Y)=0] => I(X;Z) <= 0")
        assert len(c.clauses) == 1
        clause = c.clauses[0]
        assert len(clause.antecedents) == 4  # two per equality
        assert len(clause.consequents) == 1
        assert clause.consequents[0] == -mutual_info(3, 1, 4)
        assert clause.antecedents[0] == -clause.antecedents[1]

    def test_max_clause(self):
        c = parse_constraint(
            "max(2*H(XY)-H(X)-H(XYZ), 2*H(YZ)-H(Y)-H(XYZ), 2*H(XZ)-H(Z)-H(XYZ)) >= 0")
        clause = c.clauses[0]
        assert (len(c.clauses), len(clause.antecedents), len(clause.consequents)) == (1, 0, 3)

    def test_simple_inequality(self):
        c = parse_constraint("H(X) >= 0")
        assert len(c.clauses) == 1
        assert len(c.clauses[0].consequents) == 1

    def test_consequent_equality_splits_clause(self):
        c = parse_constraint("[I(X;Y) = 0] => I(X;Z) = 0")
        assert len(c.clauses) == 2
        assert c.clauses[0].consequents[0] == -c.clauses[1].consequents[0]

    def test_clause_conjunction(self):
        c = parse_constraint("H(X) >= 0 && H(Y) >= 0")
        assert len(c.clauses) == 2

    def test_max_with_nonzero_rhs(self):
        c = parse_constraint("max(H(XY), H(YZ), H(XZ)) >= 2/3 * H(XYZ)")
        clause = c.clauses[0]
        assert clause.consequents[0] == parse_expr("H(XY) - 2/3*H(XYZ)", XYZ)

    def test_variables_inferred_alphabetically(self):
        text = "I(C;D|A) + I(A;B) >= 0"
        assert parse_constraint(text) == parse_constraint(text, ["A", "B", "C", "D"])
        assert parse_constraint(text) != parse_constraint(text, ["D", "C", "B", "A"])

    def test_max_is_a_variable_unless_a_parenthesis_follows(self):
        # as for H and I; "X" sorts before "max" as it does before "Y"
        assert parse_constraint("H(max) >= 0") == parse_constraint("H(X) >= 0")
        assert parse_constraint("H(max) + H(X) >= 0") == parse_constraint("H(Y) + H(X) >= 0")
        assert parse_constraint("max(H(max), H(X)) >= H(max)") \
            == parse_constraint("max(H(Y), H(X)) >= H(Y)")

    def test_comments_ignored(self):
        c = parse_constraint("# leading note\nH(X) >= 0  # trailing\n")
        assert len(c.clauses) == 1

    def test_constraint_is_tokenized_once(self, monkeypatch):
        texts = []
        tokenize = parser._tokenize

        def counting(text):
            texts.append(text)
            return tokenize(text)

        monkeypatch.setattr(parser, "_tokenize", counting)
        text = "[I(X;Y) = 0] => H(X|Z) >= H(Y) && H(H) >= 0"
        assert parse_constraint(text).n == 4
        assert texts == [text]


NAMES = "ABCDE"


@st.composite
def _varset(draw, n: int, empty_ok: bool = False):
    mask = draw(st.integers(0 if empty_ok else 1, (1 << n) - 1))
    sep = draw(st.sampled_from(["", " "]))
    return sep.join(NAMES[i] for i in range(n) if mask >> i & 1), mask


@st.composite
def _rational(draw):
    num, den = draw(st.integers(0, 12)), draw(st.integers(1, 6))
    if den == 1 and draw(st.booleans()):
        return str(num), Fraction(num)
    return f"{num}/{den}", Fraction(num, den)


@st.composite
def _constant(draw):
    """A rational, or a parenthesized sum of two."""
    if draw(st.booleans()):
        return draw(_rational())
    (t1, v1), (t2, v2) = draw(_rational()), draw(_rational())
    lead, op = draw(st.sampled_from(["", "-"])), draw(st.sampled_from(["+", "-"]))
    value = (-v1 if lead else v1) + (v2 if op == "+" else -v2)
    return f"({lead}{t1} {op} {t2})", value


@st.composite
def _entropy_atom(draw, n: int, depth: int):
    """H(Y|X), I(Y;Z|X) or a parenthesized sum, with its reference value."""
    kind = draw(st.sampled_from(["H", "I", "()"] if depth else ["H", "I"]))
    if kind == "()":
        text, value = draw(_linear_sum(n, depth - 1))
        return f"({text})", value
    x_text, x = draw(_varset(n, empty_ok=True))
    given = f"|{x_text}" if x else ""
    y_text, y = draw(_varset(n))
    if kind == "H":
        return f"H({y_text}{given})", cond_entropy(n, y, x)
    z_text, z = draw(_varset(n))
    return f"I({y_text};{z_text}{given})", mutual_info(n, y, z, x)


@st.composite
def _linear_term(draw, n: int, depth: int):
    """An entropy atom with constant factors on either side, each joined
    by '*' or juxtaposed."""
    text, value = draw(_entropy_atom(n, depth))
    for left in draw(st.lists(st.booleans(), max_size=3)):
        c_text, c = draw(_constant())
        op = draw(st.sampled_from([" ", " * "]))
        text = f"{c_text}{op}{text}" if left else f"{text}{op}{c_text}"
        value = value.scale(c)
    return text, value


@st.composite
def _linear_sum(draw, n: int, depth: int):
    """Entropy terms and literal zeros joined by '+' and '-', with an
    optional sign in front of the first."""
    terms = draw(st.lists(_linear_term(n, depth), min_size=1, max_size=3))
    for at in draw(st.lists(st.integers(0, len(terms)), max_size=2)):
        terms.insert(at, ("0", LinExpr.zero(n)))
    signs = [draw(st.sampled_from(["", "-", "+"]))]
    signs += [draw(st.sampled_from(["+", "-"])) for _ in terms[1:]]
    text = "".join(f"{sign}{t}" if i == 0 else f" {sign} {t}"
                   for i, (sign, (t, _)) in enumerate(zip(signs, terms)))
    value = LinExpr.zero(n)
    for sign, (_, v) in zip(signs, terms):
        value = value - v if sign == "-" else value + v
    return text, value


@st.composite
def _comparisons(draw):
    n = draw(st.integers(1, 5))
    lhs, left = draw(_linear_sum(n, 2))
    rhs, right = draw(st.one_of(_linear_sum(n, 1), st.just(("0", LinExpr.zero(n)))))
    op = draw(st.sampled_from([">=", "<="]))
    expected = left - right if op == ">=" else right - left
    return n, f"{lhs} {op} {rhs}", expected


class TestDifferential:
    """`parse_constraint` against a reference built from `cond_entropy`,
    `mutual_info` and `LinExpr` arithmetic."""

    @settings(max_examples=100, deadline=None)
    @given(_comparisons())
    def test_parse_matches_reference(self, case):
        n, text, expected = case
        constraint = parse_constraint(text, list(NAMES[:n]))
        assert constraint.n == n
        (clause,) = constraint.clauses
        assert clause.antecedents == ()
        assert clause.consequents == (expected,)


@st.composite
def _clause_text(draw, n: int):
    """A clause: optional antecedents, then a comparison or a max(...)."""
    def sum_text(depth):
        return "0" if draw(st.integers(0, 3)) == 0 else draw(_linear_sum(n, depth))[0]

    ops = st.sampled_from([">=", ">=", "<=", "="])
    head = ""
    if draw(st.booleans()):
        antecedents = [f"{sum_text(1)} {draw(ops)} {sum_text(0)}"
                       for _ in range(draw(st.integers(0, 2)))]
        head = "[" + ", ".join(antecedents) + "] => "
    if draw(st.booleans()):
        args = ", ".join(sum_text(1) for _ in range(draw(st.integers(1, 3))))
        return f"{head}max({args}) {draw(ops)} {sum_text(0)}"
    return f"{head}{sum_text(2)} {draw(ops)} {sum_text(1)}"


@st.composite
def _constraint_text(draw):
    """A constraint of one or two clauses over the first n of NAMES, with
    comments and line breaks in place of some spaces."""
    n = draw(st.integers(1, 5))
    text = " && ".join(draw(st.lists(_clause_text(n), min_size=1, max_size=2)))
    parts = text.split(" ")
    for at in draw(st.lists(st.integers(0, len(parts) - 1), max_size=3)):
        parts[at] += draw(st.sampled_from(["\n", " # note\n", "\t"]))
    return n, " ".join(parts)


# ASCII only: a non-ASCII digit is a number to the reference and a bad
# character to the package parser
_EDIT_CHARS = "()[]|;,+-*/=<>&#^. \n\t0123456789HIXYZABCmax_"


def _outcome(parse, text: str, names):
    try:
        return parse(text, names)
    except ParseError as err:
        return err.message, err.span.line, err.span.column
    except ValueError as err:
        return str(err)


def _has_max_variable(text: str) -> bool:
    """Whether a name `max` is not followed by "(": the reference read it
    as a function head even then."""
    try:
        kinds, texts = parser._tokenize(text)
    except ParseError:
        return False
    return any(t == "max" and kinds[i + 1] != "(" for i, t in enumerate(texts))


class TestAgainstReference:
    """The package parser against `reference_parser`, the token-object
    parser it replaced: the same constraint, or the same message at the
    same line and column, on generated constraints and on single-character
    edits of them."""

    @settings(max_examples=150, deadline=None)
    @given(_constraint_text(), st.data())
    def test_same_constraint_or_error(self, case, data):
        n, text = case
        edit = data.draw(st.sampled_from(["none", "delete", "insert", "replace"]))
        if edit != "none":
            at = data.draw(st.integers(0, len(text) - (edit != "insert")))
            char = data.draw(st.sampled_from(_EDIT_CHARS))
            text = text[:at] + (char if edit != "delete" else "") \
                + text[at + (edit != "insert"):]
        # inferred names, the first n, or 12 more than that (17 at n = 5)
        extra = [f"V{i:02d}" for i in range(12)]
        names = data.draw(st.sampled_from([None, list(NAMES[:n]), list(NAMES[:n]) + extra]))
        assume(not _has_max_variable(text))
        assert _outcome(parse_constraint, text, names) \
            == _outcome(reference_parser.parse_constraint, text, names)

    @pytest.mark.parametrize("text", [
        "H(X) >= 0 # trailing comment", "# only a comment", "H(X) >= 0 &", "H(X) > 0",
        "[H(X) >= 0] H(Y) >= 0", "max(H(X), H(Y)) <= 0", "max(H(X)) = H(Y)",
        "I(X;Y|) >= 0", "I(X Y) >= 0", "H(X)) >= 0", "H(HI) >= H(H) + H(I)",
        "(((H(X)) >= 0", "2/ >= H(X)", "H(X) >= 1/", "2 3 H(X) (4) >= 0",
        "H(X) H(Y) >= 0", "-+H(X) >= 0", "H(X)\r\n>= 0 ^", "H(X) >= 0\n\n  @",
        "H(X)\n  >= é",
    ])
    def test_same_outcome_on_hand_picked_inputs(self, text):
        assert _outcome(parse_constraint, text, None) \
            == _outcome(reference_parser.parse_constraint, text, None)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(lin_exprs(3))
    def test_expr_round_trip(self, expr):
        printed = format_expr(expr, ("X", "Y", "Z"))
        assert parse_expr(printed, XYZ) == expr

    def test_clause_round_trip(self):
        texts = [
            "H(X) >= 0",
            "[I(X;Y) = 0] => I(X;Y|Z) <= 0",
            "max(2*H(XY)-H(X)-H(XYZ), 2*H(YZ)-H(Y)-H(XYZ)) >= 0",
            "[H(XYZ) + H(X) - 2*H(XY) >= 0, H(XYZ) + H(Y) - 2*H(YZ) >= 0]"
            " => 2*H(XZ) - H(XYZ) - H(Z) >= 0",
            "H(X) >= 0 && max(H(XY), H(YZ)) >= 2/3 * H(XYZ)",
        ]
        for text in texts:
            first = parse_constraint(text)
            printed = format_constraint(first)
            assert parse_constraint(printed) == first

    @pytest.mark.parametrize("participants", range(2, 12))
    def test_secret_sharing_round_trip(self, participants):
        # n = participants + 1 variables: X1..X9 need spaces between the
        # names of a term, and X01..X12 zero-padding to sort alphabetically
        access = [[i + 1 for i in range(participants) if (bits >> i) & 1]
                  for bits in range(1, 1 << participants, 2)]
        constraint = secret_sharing_constraint(participants, access, 1)
        assert parse_constraint(format_constraint(constraint)) == constraint

    def test_single_letter_names_run_together(self):
        assert format_expr(parse_expr("H(XY) - H(Z)", XYZ)) == "H(XY) - H(Z)"
        assert format_expr(LinExpr.make(5, {0b10001: Fraction(1)})) == "H(X1 X5)"

    def test_format_zero_expr(self):
        zero = LinExpr.zero(3)
        assert parse_expr(format_expr(zero, ("X", "Y", "Z")), XYZ) == zero

    def test_format_clause_shows_antecedents(self):
        c = parse_constraint("[I(X;Y) = 0] => I(X;Y|Z) <= 0")
        assert format_clause(c.clauses[0]).startswith("[")
