"""The parser as it was before tokens became plain strings: a `Token`
per token with its line and column, and a descent that calls `peek`,
`next` and `expect` per token.  `tests/test_parser.py` checks the package
parser against it, constraint for constraint and error for error."""
from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from infoineq.core import MAX_VARS, BooleanConstraint, Clause, LinExpr
from infoineq.parser import MAX_PAREN_DEPTH, ParseError, SourceSpan


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>=>)
  | (?P<and>&&)
  | (?P<ge>>=)
  | (?P<le><=)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\],;|+\-*/=])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    """One token; `kind` is the token's own text for punctuation."""

    kind: str
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok_text = m.group()
        start = m.start()
        if kind == "ws" or kind == "comment":
            if "\n" in tok_text:
                line += tok_text.count("\n")
                line_start = start + tok_text.rfind("\n") + 1
            continue
        if kind == "bad":
            span = SourceSpan(line, start - line_start + 1)
            raise ParseError(f"unexpected character {tok_text!r}", span)
        if kind == "punct":
            kind = tok_text
        tokens.append(Token(kind, tok_text, line, start - line_start + 1))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


def _split_var_token(tok: str) -> list[str]:
    # XYZ -> X, Y, Z; names with lowercase or digits stay atomic
    if len(tok) >= 2 and tok.isalpha() and tok.isupper():
        return list(tok)
    return [tok]


def _scan_variables(tokens: list[Token]) -> list[str]:
    """Variable names used in a token list, in alphabetical order."""
    names = set()
    for i, tok in enumerate(tokens):
        if tok.kind == "name" and tok.text not in ("H", "I", "max"):
            names.update(_split_var_token(tok.text))
        # single-letter H/I used as a variable, e.g. "H(H)" -- follow the
        # function-head rule: H/I followed by "(" is a head, else a variable
        if tok.kind == "name" and tok.text in ("H", "I") and tokens[i + 1].kind != "(":
            names.add(tok.text)
    return sorted(names)


def _scaled(coeffs: dict, q) -> dict:
    for mask in coeffs:
        coeffs[mask] *= q
    return coeffs


def _add_into(total: dict, coeffs: dict, sign: int) -> None:
    for mask, c in coeffs.items():
        total[mask] = total.get(mask, 0) + sign * c


class _Parser:
    """Recursive descent over the token list.

    While a sum is parsed, its value is either a `Fraction` (a constant)
    or a plain {mask: coefficient} map that the parser owns and updates
    in place.  A map becomes a `LinExpr` once per expression, when its
    comparison or `max` argument is complete, so a k-term sum is
    normalized once rather than once per operator.
    """

    def __init__(self, tokens: list[Token], var_names: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses open around the current token
        self.n = len(var_names)
        if self.n < 1:
            span = SourceSpan(1, 1)
            raise ParseError("constraint mentions no variables", span)
        self.var_index = {name: i for i, name in enumerate(var_names)}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.span)
        return self.next()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().span)

    # -- expressions ---------------------------------------------------------

    def check_count(self) -> None:
        """Raise the error `LinExpr.make` gives for more than MAX_VARS
        variables, at the first variable list or zero expression, before
        the first mask or `LinExpr` of the constraint is built."""
        if self.n > MAX_VARS:
            LinExpr.zero(self.n)

    def entropies(self, *signed: tuple[int, int]) -> dict:
        """The map of sum(sign * h(mask)); h({}) = 0 is left out."""
        coeffs: dict[int, int] = {}
        for mask, sign in signed:
            if mask:
                coeffs[mask] = coeffs.get(mask, 0) + sign
        return coeffs

    def parse_varset(self, stop: tuple[str, ...]) -> int:
        self.check_count()
        mask = 0
        saw = False
        while self.peek().kind == "name":
            for name in _split_var_token(self.next().text):
                idx = self.var_index.get(name)
                if idx is None:
                    raise self.error(f"unknown variable {name!r}")
                mask |= 1 << idx
            saw = True
        if not saw:
            raise self.error("expected variable names")
        if self.peek().kind not in stop:
            raise self.error(f"unexpected token {self.peek().text!r} in variable list")
        return mask

    def parse_rational(self) -> Fraction:
        num = int(self.expect("num").text)
        den = 1
        if self.peek().kind == "/":
            self.next()
            tok = self.expect("num")
            den = int(tok.text)
            if den == 0:
                raise ParseError("zero denominator", tok.span)
        return Fraction(num, den)

    def parse_atom(self):
        """One multiplicative atom: a rational, an H/I term, or parens."""
        tok = self.peek()
        if tok.kind == "num":
            return self.parse_rational()
        if tok.kind == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise self.error(f"parentheses nested deeper than {MAX_PAREN_DEPTH}")
            self.next()
            self.depth += 1
            inner = self.parse_sum()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.kind == "name" and tok.text == "H" and self.tokens[self.pos + 1].kind == "(":
            # H(Y|X) = h(XY) - h(X)
            self.next()
            self.next()
            y = self.parse_varset(stop=("|", ")"))
            x = 0
            if self.peek().kind == "|":
                self.next()
                x = self.parse_varset(stop=(")",))
            self.expect(")")
            return self.entropies((x | y, 1), (x, -1))
        if tok.kind == "name" and tok.text == "I" and self.tokens[self.pos + 1].kind == "(":
            # I(Y;Z|X) = h(XY) + h(XZ) - h(XYZ) - h(X)
            self.next()
            self.next()
            y = self.parse_varset(stop=(";",))
            self.expect(";")
            z = self.parse_varset(stop=("|", ")"))
            x = 0
            if self.peek().kind == "|":
                self.next()
                x = self.parse_varset(stop=(")",))
            self.expect(")")
            return self.entropies((x | y, 1), (x | z, 1), (x | y | z, -1), (x, -1))
        raise self.error(f"expected an entropy term or rational, found {tok.text or 'end of input'!r}")

    def parse_term(self):
        """Product of atoms; at most one may be an expression."""
        value = self.parse_atom()
        while True:
            nxt = self.peek()
            explicit = nxt.kind == "*"
            juxtaposed = nxt.kind in ("num", "(") or (
                nxt.kind == "name" and nxt.text in ("H", "I")
                and self.tokens[self.pos + 1].kind == "("
            )
            if explicit:
                self.next()
            elif not juxtaposed:
                break
            rhs = self.parse_atom()
            if isinstance(value, Fraction) and isinstance(rhs, Fraction):
                value = value * rhs
            elif isinstance(value, Fraction):
                value = _scaled(rhs, value)
            elif isinstance(rhs, Fraction):
                value = _scaled(value, rhs)
            else:
                raise self.error("product of two entropy expressions is not linear")
        return value

    def parse_sum(self):
        negate = False
        if self.peek().kind in ("+", "-"):
            negate = self.next().kind == "-"
        total = self.parse_term()
        if negate:
            total = -total if isinstance(total, Fraction) else _scaled(total, -1)
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.next().kind == "+" else -1
            term = self.parse_term()
            if isinstance(total, Fraction) and isinstance(term, Fraction):
                total = total + sign * term
                continue
            # a literal zero may mix with entropy terms; other constants cannot
            if isinstance(total, Fraction):
                if total != 0:
                    raise self.error("constant terms are not allowed in entropy expressions")
                total = {}
            if isinstance(term, Fraction):
                if term != 0:
                    raise self.error("constant terms are not allowed in entropy expressions")
                continue
            _add_into(total, term, sign)
        return total

    def parse_coeffs(self) -> dict:
        """One entropy expression as its coefficient map."""
        tok = self.peek()
        value = self.parse_sum()
        if isinstance(value, Fraction):
            if value != 0:
                raise ParseError("constant terms are not allowed in entropy expressions",
                                 tok.span)
            self.check_count()
            return {}
        return value

    # -- clauses -------------------------------------------------------------

    def parse_comparison(self) -> tuple[LinExpr, str]:
        """`E op F` as (E - F, op) with op in {>=, <=, =}."""
        lhs = self.parse_coeffs()
        tok = self.peek()
        if tok.kind not in ("ge", "le", "="):
            raise self.error("expected '>=', '<=' or '='")
        self.next()
        _add_into(lhs, self.parse_coeffs(), -1)
        return LinExpr.make(self.n, lhs), tok.kind

    def parse_antecedents(self) -> tuple[LinExpr, ...]:
        self.expect("[")
        antecedents: list[LinExpr] = []
        if self.peek().kind != "]":
            while True:
                expr, op = self.parse_comparison()
                if op == "ge":
                    antecedents.append(expr)
                elif op == "le":
                    antecedents.append(-expr)
                else:
                    antecedents.append(expr)
                    antecedents.append(-expr)
                if self.peek().kind != ",":
                    break
                self.next()
        self.expect("]")
        return tuple(antecedents)

    def parse_clause(self) -> list[Clause]:
        antecedents: tuple[LinExpr, ...] = ()
        if self.peek().kind == "[":
            antecedents = self.parse_antecedents()
            self.expect("arrow")
        tok = self.peek()
        if tok.kind == "name" and tok.text == "max" and self.tokens[self.pos + 1].kind == "(":
            self.next()
            self.next()
            args = [self.parse_coeffs()]
            while self.peek().kind == ",":
                self.next()
                args.append(self.parse_coeffs())
            self.expect(")")
            op_tok = self.peek()
            if op_tok.kind == "=" and len(args) > 1:
                raise ParseError("equality is not allowed with a max(...) consequent", op_tok.span)
            if op_tok.kind not in ("ge",):
                raise self.error("expected '>=' after max(...)")
            self.next()
            rhs = self.parse_coeffs()
            for arg in args:
                _add_into(arg, rhs, -1)
            consequents = tuple(LinExpr.make(self.n, arg) for arg in args)
            return [Clause(self.n, antecedents, consequents)]
        expr, op = self.parse_comparison()
        if op == "ge":
            return [Clause(self.n, antecedents, (expr,))]
        if op == "le":
            return [Clause(self.n, antecedents, (-expr,))]
        # consequent equality: split into the two one-sided clauses
        return [Clause(self.n, antecedents, (expr,)),
                Clause(self.n, antecedents, (-expr,))]

    def parse_constraint(self) -> BooleanConstraint:
        clauses = self.parse_clause()
        while self.peek().kind == "and":
            self.next()
            clauses.extend(self.parse_clause())
        self.expect("eof")
        return BooleanConstraint(self.n, tuple(clauses))


def parse_constraint(text: str, var_names: "list[str] | None" = None) -> BooleanConstraint:
    """Parse a full constraint; variables inferred alphabetically by default."""
    tokens = _tokenize(text)
    if var_names is None:
        var_names = _scan_variables(tokens)
    return _Parser(tokens, var_names).parse_constraint()
