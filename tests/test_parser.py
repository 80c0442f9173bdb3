"""Grammar, desugaring, and pretty-printer round trips."""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings

from infoineq import parser
from infoineq.core import LinExpr, cond_entropy, mutual_info
from infoineq.parser import (ParseError, format_clause, format_constraint, format_expr,
                             parse_constraint, parse_expr, scan_variables)

from conftest import lin_exprs

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
        assert scan_variables("I(C;D|A) + I(A;B) >= 0") == ["A", "B", "C", "D"]

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

    def test_format_zero_expr(self):
        zero = LinExpr.zero(3)
        assert parse_expr(format_expr(zero, ("X", "Y", "Z")), XYZ) == zero

    def test_format_clause_shows_antecedents(self):
        c = parse_constraint("[I(X;Y) = 0] => I(X;Y|Z) <= 0")
        assert format_clause(c.clauses[0]).startswith("[")
