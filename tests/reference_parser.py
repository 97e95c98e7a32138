"""Reference fraction reader, kept only as a test oracle.

This is the form parse_rational had before it read a fraction in one
pass: a depth scan over the characters finds the single top-level '/',
and the text on each side of it is parsed on its own, the denominator
spending what the numerator left of the budget.  A denominator error is
reported at its position in the whole text, so the differential tests can
compare positions with charp.parser.parse_rational.
"""

from __future__ import annotations

from charp.errors import PolySyntaxError
from charp.parser import _Parser
from charp.poly import RationalFn


def parse_rational(text, ctx, nvars) -> RationalFn:
    depth = 0
    split = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if split is not None:
                raise PolySyntaxError("more than one top-level '/'", i)
            split = i
    if split is None:
        return RationalFn.from_poly(_Parser(text, ctx, nvars).parse())
    numerator = _Parser(text[:split], ctx, nvars)
    num = numerator.parse()
    try:
        denominator = _Parser(text[split + 1:], ctx, nvars)
        denominator.budget = numerator.budget
        den = denominator.parse()
    except PolySyntaxError as exc:
        message = str(exc).rsplit(" (at position ", 1)[0]
        raise PolySyntaxError(message, exc.position + split + 1) from None
    if den.is_zero:
        raise PolySyntaxError("zero denominator", split + 1)
    return RationalFn(num, den)
