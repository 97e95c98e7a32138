"""Recursive-descent parser for polynomial and rational-function text.

Grammar (whitespace insignificant, multiplication explicit):

    rational := expr ("/" expr)?
    list   := expr (sep expr)*
    expr   := term (("+" | "-") term)*
    term   := unary ("*" unary)*
    unary  := "-" unary | power
    power  := atom ("^" integer)?
    atom   := integer | name | "(" expr ")"

parse_rational reads a rational, parse_list a list and parse_poly an expr,
each in one pass over the whole text, so an error position indexes the
whole input.  `/` is a token only in a fraction, and a list's separator
(`,` or `;`) only in that list, outside every parenthesis.  Integers are
decimal digits; past int()'s digit limit a literal is an error, and so is
nesting parentheses deeper than MAX_NESTING.

Names are the variables (x, y, z for up to three variables, x1..xn beyond)
plus `u`, the extension-field generator, which parses as a constant
coefficient when the context has m > 1.

A power is expanded only when the term products it may take fit a budget,
bounded before expanding; past it the exponent is a syntax error.  A
product of two factors with a and b terms takes a * b term products and is
held to the same budget; past it the `*` is a syntax error.  The budget is
one for the whole parse, a list's items included, so a sum of pieces that
each fit cannot add up past it either: the piece that would overrun it is
the error.
"""

from __future__ import annotations

from math import comb

from .errors import PolySyntaxError
from .ffield import FieldContext
from .poly import EXPONENT_LIMIT, MultiPoly, RationalFn, var_names

# Parentheses one parse may nest: the descent takes five Python frames per
# parenthesis, well inside the default recursion limit.
MAX_NESTING = 100

# Term products one parse may take, over all its powers and products:
# about a second of parsing at p = 1048573 on a 2-core x86 machine.
POWER_BUDGET = 200_000


def _terms(t: int, k: int, p: int) -> int:
    """At most this many terms in f^k, f with t terms, in characteristic p.

    With k = sum d_i p^i, f^k = prod_i F^i(f^(d_i)).  Frobenius keeps the
    term count, and f^d has at most C(d + t - 1, d) terms, one per monomial
    of degree d in the t terms.
    """
    bound = 1
    while k:
        k, d = divmod(k, p)
        bound *= comb(d + t - 1, d)
    return bound


def _power_products(t: int, k: int, p: int) -> int:
    """At most this many term products in MultiPoly.__pow__'s binary
    powering of f^k (result f^done, base f^step), counted until past
    POWER_BUDGET.  Bounding the result's term count alone would let
    (x+y)^k through with k^2/3 products."""
    products, done, step = 0, 0, 1
    while k and products <= POWER_BUDGET:
        if k & 1:
            products += _terms(t, done, p) * _terms(t, step, p)
            done += step
        if k > 1:
            products += _terms(t, step, p) ** 2
            step *= 2
        k >>= 1
    return products


def _integer(text: str, pos: int, too_long: str) -> int:
    """The literal at `pos`; past int()'s digit limit, `too_long` there."""
    try:
        return int(text)
    except ValueError:
        raise PolySyntaxError(too_long, pos) from None


class _Tokenizer:
    def __init__(self, text: str, separator):
        self.text = text
        self.tokens = []
        self._scan(separator)
        self.index = 0

    def _scan(self, separator):
        """Tokens of the text; `separator`, if given, is one at depth 0, and
        a fraction's `/` is one at most once."""
        text = self.text
        depth = 0
        slash = False
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdecimal():
                j = i
                while j < len(text) and text[j].isdecimal():
                    j += 1
                self.tokens.append(("num", text[i:j], i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            if ch in "+-*^()":
                depth += (ch == "(") - (ch == ")")
                if depth > MAX_NESTING:
                    raise PolySyntaxError(
                        f"parentheses nest deeper than {MAX_NESTING}", i)
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch == separator and depth == 0:
                if slash:
                    raise PolySyntaxError("more than one top-level '/'", i)
                slash = ch == "/"  # a fraction has one; a list, any number
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise PolySyntaxError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", len(text)))

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str, ctx: FieldContext, nvars: int,
                 separator=None):
        self.separator = separator
        self.toks = _Tokenizer(text, separator)
        self.ctx = ctx
        self.nvars = nvars
        self.names = {name: i for i, name in enumerate(var_names(nvars))}
        # term products this parse may still take
        self.budget = POWER_BUDGET

    def _charge(self, products: int, pos: int, too_big: str):
        """Take `products` from the budget for the piece at `pos`; a piece
        over the whole budget on its own is refused as `too_big`."""
        if products > POWER_BUDGET:
            raise PolySyntaxError(too_big, pos)
        if products > self.budget:
            raise PolySyntaxError(
                f"parse takes more than {POWER_BUDGET} term products in all",
                pos)
        self.budget -= products

    def parse(self) -> MultiPoly:
        """An expr, up to the end of the text or a separator."""
        result = self._expr()
        kind, _, pos = self.toks.peek()
        if kind not in ("end", self.separator):
            raise PolySyntaxError("unexpected trailing input", pos)
        return result

    def parse_fraction(self) -> RationalFn:
        num = self.parse()
        kind, _, slash = self.toks.advance()
        if kind == "end":
            return RationalFn.from_poly(num)
        den = self.parse()
        if den.is_zero:
            raise PolySyntaxError("zero denominator", slash + 1)
        return RationalFn(num, den)

    def parse_list(self) -> list:
        items = [self.parse()]
        while self.toks.advance()[0] != "end":
            items.append(self.parse())
        return items

    def _expr(self) -> MultiPoly:
        result = self._term()
        while True:
            kind, _, _ = self.toks.peek()
            if kind == "+":
                self.toks.advance()
                result = result + self._term()
            elif kind == "-":
                self.toks.advance()
                result = result - self._term()
            else:
                return result

    def _term(self) -> MultiPoly:
        result = self._unary()
        while self.toks.peek()[0] == "*":
            pos = self.toks.advance()[2]
            factor = self._unary()
            self._charge(len(result.terms) * len(factor.terms), pos,
                         f"product takes more than {POWER_BUDGET} term "
                         "products")
            result = result * factor
        return result

    def _unary(self) -> MultiPoly:
        negate = False
        while self.toks.peek()[0] == "-":
            self.toks.advance()
            negate = not negate
        result = self._power()
        return -result if negate else result

    def _power(self) -> MultiPoly:
        base = self._atom()
        if self.toks.peek()[0] == "^":
            self.toks.advance()
            kind, text, pos = self.toks.advance()
            if kind != "num":
                raise PolySyntaxError("exponent must be an integer", pos)
            k = _integer(text, pos, "exponent exceeds 32-bit bound")
            if k > EXPONENT_LIMIT:
                raise PolySyntaxError("exponent exceeds 32-bit bound", pos)
            self._charge(_power_products(max(len(base.terms), 1), k,
                                         self.ctx.p), pos,
                         f"power may take more than {POWER_BUDGET} term "
                         "products to expand")
            return base ** k
        return base

    def _atom(self) -> MultiPoly:
        kind, text, pos = self.toks.advance()
        if kind == "num":
            return MultiPoly.const(self.ctx, self.nvars,
                                   _integer(text, pos, "integer literal too "
                                            "long"))
        if kind == "name":
            if text == "u" and self.ctx.m > 1:
                return MultiPoly.const(self.ctx, self.nvars,
                                       self.ctx.generator())
            idx = self.names.get(text)
            if idx is None:
                raise PolySyntaxError(f"unknown variable {text!r}", pos)
            return MultiPoly.variable(self.ctx, self.nvars, idx)
        if kind == "(":
            inner = self._expr()
            kind, _, pos = self.toks.advance()
            if kind != ")":
                raise PolySyntaxError("expected ')'", pos)
            return inner
        raise PolySyntaxError("expected a number, variable, or '('", pos)


def parse_poly(text: str, ctx: FieldContext, nvars: int) -> MultiPoly:
    """Parse polynomial text into canonical sparse form."""
    return _Parser(text, ctx, nvars).parse()


def parse_rational(text: str, ctx: FieldContext, nvars: int) -> RationalFn:
    """Parse `num/den` or a bare polynomial in one pass; numerator and
    denominator share one budget, and error positions index the whole
    text."""
    return _Parser(text, ctx, nvars, "/").parse_fraction()


def parse_list(text: str, ctx: FieldContext, nvars: int,
               separator: str) -> list:
    """Parse polynomials separated by `separator` (`,` or `;`) in one pass;
    the items share one budget, and error positions index the whole
    text."""
    return _Parser(text, ctx, nvars, separator).parse_list()
