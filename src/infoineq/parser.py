"""Surface syntax for constraints over joint entropies.

The language covers rational linear combinations of entropy terms with
the usual sugar::

    H(XY)            joint entropy of {X, Y}
    H(Y|X)           conditional entropy, desugars to H(XY) - H(X)
    I(Y;Z|X)         conditional mutual information,
                     desugars to H(XY) + H(XZ) - H(XYZ) - H(X)

A constraint is one or more clauses joined by ``&&``.  A clause is either
unconditional::

    E >= F
    max(E1, ..., El) >= F

or conditional::

    [A1, ..., Ak] => E >= F

Antecedents use ``>=``, ``<=`` or ``=``; an equality in antecedent
position expands into the two opposite inequalities.  An equality in the
consequent of a single-consequent clause splits the clause in two; inside
``max(...)`` consequents, equalities are rejected.  Comments start with
``#`` and run to end of line.  Files use the ``.iic`` extension, one
constraint per file.

Variable names inside ``H(...)``/``I(...)`` are whitespace-separated
tokens; a token consisting purely of two or more uppercase letters is
read as juxtaposed single-letter variables (``XYZ`` means X, Y, Z).
Unless an explicit ordering is supplied, variables are numbered in
alphabetical order of their names.  A number, as written and as a
collected coefficient, has at most `core.MAX_DIGITS` digits.

The text is lexed by one `findall` into token texts, each token's kind is
read off its text, and the descent walks the kinds and texts by index.
No position is kept: a `ParseError` lexes the text again to find the line
and column of its token, so only an error pays for positions.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .core import (_DIGITS_BOUND, MAX_DIGITS, BooleanConstraint, Clause, LinExpr, Value,
                   check_var_count, mask_label)

# each level of parentheses is three frames of the recursive descent, so
# a deeper nesting is a parse error rather than a RecursionError
MAX_PAREN_DEPTH = 64


class SourceSpan(Value):
    """Position of an error in the original source text."""

    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int):
        self.line, self.column = line, column


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (line {span.line}, column {span.column})")
        self.message = message
        self.span = span


# every token and every comment; whitespace starts no match, so the
# search skips it.  Numbers and names are ASCII; any other character that
# is not whitespace is a token of its own, a bad one unless `_KINDS` has it
_TOKEN_RE = re.compile(r"=>|&&|>=|<=|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|#[^\n]*|\S")

# a token's kind, looked up by its text or else by its first character;
# punctuation is its own kind
_KINDS = {"=>": "arrow", "&&": "and", ">=": "ge", "<=": "le",
          **{c: c for c in "()[],;|+-*/="},
          **dict.fromkeys("0123456789", "num"),
          **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "name")}


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of the tokens, each list closed by the end
    marker ("eof", "").  A bad character is an error here, before parsing."""
    texts = _TOKEN_RE.findall(text)
    if "#" in text:
        texts = [t for t in texts if t[0] != "#"]
    kinds = [_KINDS.get(t) or _KINDS.get(t[0]) for t in texts]
    if None in kinds:
        i = kinds.index(None)
        raise ParseError(f"unexpected character {texts[i]!r}", _span(text, i))
    if len(text) > MAX_DIGITS:
        for i, t in enumerate(texts):
            if len(t) > MAX_DIGITS and kinds[i] == "num":
                raise ParseError(f"a number of more than {MAX_DIGITS} digits", _span(text, i))
    kinds.append("eof")
    texts.append("")
    return kinds, texts


def _span(text: str, i: int) -> SourceSpan:
    """Line and column of token i, or of the end of the text when there is
    no token i.  Only an error needs a position, so the text is lexed again."""
    starts = (m.start() for m in _TOKEN_RE.finditer(text) if text[m.start()] != "#")
    offset = next(islice(starts, i, None), len(text))
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _split_var_token(tok: str) -> list[str]:
    # XYZ -> X, Y, Z; names with lowercase or digits stay atomic
    if len(tok) >= 2 and tok.isalpha() and tok.isupper():
        return list(tok)
    return [tok]


def _scan_variables(kinds: list[str], texts: list[str]) -> list[str]:
    """Variable names used in a token list, in alphabetical order.  H, I
    and max followed by "(" are function heads; elsewhere they are names,
    as in "H(H)"."""
    tokens = {text for i, text in enumerate(texts) if kinds[i] == "name"
              and not (text in ("H", "I", "max") and kinds[i + 1] == "(")}
    return sorted({name for text in tokens for name in _split_var_token(text)})


def _add_into(total: dict, coeffs: dict, sign: int) -> None:
    # not 0 + sign * c: an int left of a Fraction takes Fraction's slow path
    for mask, c in coeffs.items():
        old = total.get(mask)
        if old is None:
            total[mask] = c if sign > 0 else -c
        else:
            total[mask] = old + c if sign > 0 else old - c


def _scaled(coeffs: dict, q) -> dict:
    # the Fraction goes left, as in `_add_into`
    if type(q) is int:
        for mask, c in coeffs.items():
            coeffs[mask] = c * q
    else:
        for mask, c in coeffs.items():
            coeffs[mask] = q * c
    return coeffs


class _Parser:
    """Recursive descent over the token kinds and texts, by index.

    While a sum is parsed, its value is either a constant, an int until a
    "/" makes it a `Fraction`, or a plain {mask: coefficient} map that the
    parser owns and updates in place.  A map becomes a `LinExpr` once per
    expression, when its comparison or `max` argument is complete, so a
    k-term sum is normalized once rather than once per operator, and an
    int coefficient becomes a `Fraction` there.
    """

    def __init__(self, text: str, kinds: list[str], texts: list[str], var_names: list[str]):
        self.text, self.kinds, self.texts = text, kinds, texts
        self.pos = 0
        self.depth = 0  # parentheses open around the current token
        self.n = len(var_names)
        if self.n < 1:
            raise ParseError("constraint mentions no variables", SourceSpan(1, 1))
        self.var_bits = {name: 1 << i for i, name in enumerate(var_names)}
        self.token_masks: dict[str, int] = {}

    def error(self, message: str, pos: "int | None" = None) -> ParseError:
        """The error at token `pos`, by default the current one."""
        return ParseError(message, _span(self.text, self.pos if pos is None else pos))

    def expect(self, kind: str) -> None:
        if self.kinds[self.pos] != kind:
            found = self.texts[self.pos] or "end of input"
            raise self.error(f"expected {kind!r}, found {found!r}")
        self.pos += 1

    # -- expressions ---------------------------------------------------------

    def check_count(self) -> None:
        """`check_var_count` at each variable list or zero expression, so
        the first one raises before any mask or `LinExpr` is built."""
        check_var_count(self.n)

    def parse_varset(self, stop: tuple[str, ...]) -> int:
        """The mask of a run of names; the token after it must be in `stop`."""
        self.check_count()
        kinds, texts, masks = self.kinds, self.texts, self.token_masks
        pos = self.pos
        if kinds[pos] != "name":
            raise self.error("expected variable names")
        mask = 0
        while kinds[pos] == "name":
            text = texts[pos]
            self.pos = pos = pos + 1
            bits = masks.get(text)
            if bits is None:
                bits = 0
                for name in _split_var_token(text):
                    if name not in self.var_bits:
                        # reported at the token after the name, as it always was
                        raise self.error(f"unknown variable {name!r}")
                    bits |= self.var_bits[name]
                masks[text] = bits
            mask |= bits
        if kinds[pos] not in stop:
            raise self.error(f"unexpected token {texts[pos]!r} in variable list")
        return mask

    def parse_atom(self):
        """One multiplicative atom: a rational, an H/I term, or parens."""
        kinds, texts = self.kinds, self.texts
        pos = self.pos
        kind = kinds[pos]
        if kind == "num":
            if kinds[pos + 1] != "/":
                self.pos = pos + 1
                return int(texts[pos])
            self.pos = pos + 2
            self.expect("num")
            den = int(texts[pos + 2])
            if den == 0:
                raise self.error("zero denominator", pos + 2)
            return Fraction(int(texts[pos]), den)
        if kind == "name" and kinds[pos + 1] == "(":
            head = texts[pos]
            if head == "H":
                # H(Y|X) = h(XY) - h(X)
                self.pos = pos + 2
                y = self.parse_varset(("|", ")"))
                x = 0
                if kinds[self.pos] == "|":
                    self.pos += 1
                    x = self.parse_varset((")",))
                self.pos += 1
                return _entropies((x | y, 1), (x, -1))
            if head == "I":
                # I(Y;Z|X) = h(XY) + h(XZ) - h(XYZ) - h(X)
                self.pos = pos + 2
                y = self.parse_varset((";",))
                self.pos += 1
                z = self.parse_varset(("|", ")"))
                x = 0
                if kinds[self.pos] == "|":
                    self.pos += 1
                    x = self.parse_varset((")",))
                self.pos += 1
                return _entropies((x | y, 1), (x | z, 1), (x | y | z, -1), (x, -1))
        if kind == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise self.error(f"parentheses nested deeper than {MAX_PAREN_DEPTH}")
            self.pos = pos + 1
            self.depth += 1
            inner = self.parse_sum()
            self.expect(")")
            self.depth -= 1
            return inner
        found = texts[pos] or "end of input"
        raise self.error(f"expected an entropy term or rational, found {found!r}")

    def parse_term(self):
        """Product of atoms; at most one may be an expression."""
        kinds = self.kinds
        value = self.parse_atom()
        while True:
            pos = self.pos
            kind = kinds[pos]
            if kind == "*":
                self.pos = pos + 1
            elif not (kind == "num" or kind == "(" or (
                    kind == "name" and kinds[pos + 1] == "(" and self.texts[pos] in ("H", "I"))):
                return value
            rhs = self.parse_atom()
            if type(value) is dict:
                if type(rhs) is dict:
                    raise self.error("product of two entropy expressions is not linear")
                value = _scaled(value, rhs)
            elif type(rhs) is dict:
                value = _scaled(rhs, value)
            else:
                value = value * rhs

    def parse_sum(self):
        kinds = self.kinds
        kind = kinds[self.pos]
        if kind == "+" or kind == "-":
            self.pos += 1
        total = self.parse_term()
        if kind == "-":
            total = _scaled(total, -1) if type(total) is dict else -total
        while True:
            kind = kinds[self.pos]
            if kind != "+" and kind != "-":
                return total
            self.pos += 1
            term = self.parse_term()
            # a literal zero may mix with entropy terms; other constants cannot
            if type(term) is dict:
                if type(total) is not dict:
                    if total != 0:
                        raise self.error("constant terms are not allowed in entropy expressions")
                    total = {}
                _add_into(total, term, 1 if kind == "+" else -1)
            elif type(total) is dict:
                if term != 0:
                    raise self.error("constant terms are not allowed in entropy expressions")
            else:
                total = total + term if kind == "+" else total - term

    def parse_coeffs(self) -> dict:
        """One entropy expression as its coefficient map."""
        start = self.pos
        value = self.parse_sum()
        if type(value) is not dict:
            if value != 0:
                raise self.error("constant terms are not allowed in entropy expressions", start)
            self.check_count()
            return {}
        return value

    def expression(self, coeffs: dict, start: int) -> LinExpr:
        """The `LinExpr` of a collected map, whose comparison starts at
        token `start`.  A coefficient whose numerator or denominator has
        more than MAX_DIGITS digits is an error there.  Each value has at
        most about 1.3 digits per character of the text it comes from (the
        digits of its literals, and less than one more per sum), so only a
        text of more than MAX_DIGITS // 2 characters is checked."""
        if len(self.text) > MAX_DIGITS // 2:
            for c in coeffs.values():
                if abs(c.numerator) >= _DIGITS_BOUND or c.denominator >= _DIGITS_BOUND:
                    raise self.error(f"a coefficient of more than {MAX_DIGITS} digits", start)
        return LinExpr.make(self.n, coeffs)

    # -- clauses -------------------------------------------------------------

    def parse_comparison(self) -> list[LinExpr]:
        """`E op F` as the expressions it states >= 0: E - F for >=, F - E
        for <=, and both, in this order, for =."""
        start = self.pos
        lhs = self.parse_coeffs()
        op = self.kinds[self.pos]
        if op != "ge" and op != "le" and op != "=":
            raise self.error("expected '>=', '<=' or '='")
        self.pos += 1
        _add_into(lhs, self.parse_coeffs(), -1)
        expr = self.expression(lhs, start)
        return [expr] if op == "ge" else [-expr] if op == "le" else [expr, -expr]

    def parse_antecedents(self) -> tuple[LinExpr, ...]:
        self.expect("[")
        antecedents: list[LinExpr] = []
        if self.kinds[self.pos] != "]":
            while True:
                antecedents += self.parse_comparison()
                if self.kinds[self.pos] != ",":
                    break
                self.pos += 1
        self.expect("]")
        return tuple(antecedents)

    def parse_clause(self) -> list[Clause]:
        kinds = self.kinds
        antecedents: tuple[LinExpr, ...] = ()
        if kinds[self.pos] == "[":
            antecedents = self.parse_antecedents()
            self.expect("arrow")
        if self.texts[self.pos] == "max" and kinds[self.pos + 1] == "(":
            start = self.pos
            self.pos += 2
            args = [self.parse_coeffs()]
            while kinds[self.pos] == ",":
                self.pos += 1
                args.append(self.parse_coeffs())
            self.expect(")")
            op = kinds[self.pos]
            if op == "=" and len(args) > 1:
                raise self.error("equality is not allowed with a max(...) consequent")
            if op != "ge":
                raise self.error("expected '>=' after max(...)")
            self.pos += 1
            rhs = self.parse_coeffs()
            for arg in args:
                _add_into(arg, rhs, -1)
            consequents = tuple(self.expression(arg, start) for arg in args)
            return [Clause(self.n, antecedents, consequents)]
        # a consequent equality splits into the two one-sided clauses
        return [Clause(self.n, antecedents, (e,)) for e in self.parse_comparison()]

    def parse_constraint(self) -> BooleanConstraint:
        clauses = self.parse_clause()
        while self.kinds[self.pos] == "and":
            self.pos += 1
            clauses.extend(self.parse_clause())
        self.expect("eof")
        return BooleanConstraint(self.n, tuple(clauses))


def _entropies(*signed: tuple[int, int]) -> dict:
    """The map of sum(sign * h(mask)); h({}) = 0 is left out."""
    coeffs: dict[int, int] = {}
    for mask, sign in signed:
        if mask:
            coeffs[mask] = coeffs.get(mask, 0) + sign
    return coeffs


def parse_constraint(text: str, var_names: "list[str] | None" = None) -> BooleanConstraint:
    """Parse a full constraint; variables inferred alphabetically by default."""
    kinds, texts = _tokenize(text)
    if var_names is None:
        var_names = _scan_variables(kinds, texts)
    return _Parser(text, kinds, texts, var_names).parse_constraint()


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def default_names(n: int) -> tuple[str, ...]:
    """Names in alphabetical order, so that inference round-trips: single
    letters for small n, then X1..Xn, zero-padded from n = 10 on so that
    X02 sorts before X10."""
    if n <= 3:
        return tuple("XYZ"[:n])
    if n == 4:
        return ("A", "B", "C", "D")
    width = len(str(n))
    return tuple(f"X{i + 1:0{width}d}" for i in range(n))


@lru_cache(maxsize=None)
def _term_text(names: tuple[str, ...], sep: str, mask: int) -> str:
    """H(...) of the named variables of a mask, kept for the process."""
    return "H(" + mask_label(mask, names, sep) + ")"


def format_expr(expr: LinExpr, names: "tuple[str, ...] | None" = None) -> str:
    """Canonical text for a LinExpr: plain H-terms, masks in canonical order.
    The names of one term are run together when every name is one letter
    (H(XY)) and separated by spaces otherwise (H(X1 X5)), since the parser
    reads a run of longer names as one name."""
    if names is None:
        names = default_names(expr.n)
    sep = " " if any(len(name) > 1 for name in names) else ""
    if expr.is_zero():
        return "0*" + _term_text(names, sep, (1 << expr.n) - 1)
    parts = []
    for mask, coeff in expr.items:
        term = _term_text(names, sep, mask)
        if coeff == 1:
            text = term
        elif coeff == -1:
            text = f"-{term}"
        else:
            text = f"{coeff}*{term}"
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append(f"- {text[1:]}")
        else:
            parts.append(f"+ {text}")
    return " ".join(parts)


def format_clause(clause: Clause) -> str:
    head = ""
    if clause.antecedents:
        head = "[" + ", ".join(f"{format_expr(a)} >= 0" for a in clause.antecedents) + "] => "
    if len(clause.consequents) == 1:
        return head + f"{format_expr(clause.consequents[0])} >= 0"
    return head + "max(" + ", ".join(format_expr(c) for c in clause.consequents) + ") >= 0"


def format_constraint(constraint: BooleanConstraint) -> str:
    return " && ".join(format_clause(c) for c in constraint.clauses)
