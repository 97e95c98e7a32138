"""Sparse exact multivariate polynomials over F_{p^m}.

A polynomial is a map from exponent tuples (one nonnegative int per
variable) to nonzero field elements; the zero polynomial is the empty map.
Term iteration is deterministic: graded order with the leading term first.
Rational functions are stored unreduced with a monic denominator and
compared by cross-multiplication; monomial ideals keep a minimal generating
set and decide membership by componentwise divisibility.
"""

from __future__ import annotations

from .errors import ContextMismatch, ExponentOverflow
from .ffield import FieldContext, FieldElement

Exponent = tuple

EXPONENT_LIMIT = 2 ** 31 - 1


def var_names(nvars: int) -> list:
    """Variable names: x, y, z for up to three variables, else x1..xn."""
    if nvars <= 3:
        return ["x", "y", "z"][:nvars]
    return [f"x{i}" for i in range(1, nvars + 1)]


def display_key(exp: Exponent):
    """Sort key whose ascending order is grevlex-descending display order."""
    return (-sum(exp), tuple(reversed(exp)))


def graded_key(exp: Exponent):
    """Degree-ascending key used to enumerate monomial bases (x before y)."""
    return (sum(exp), tuple(reversed(exp)))


class MultiPoly:
    """Immutable sparse polynomial; `terms` maps exponent tuples to elements."""

    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx: FieldContext, nvars: int, terms: dict):
        self.ctx = ctx
        self.nvars = nvars
        self.terms = terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_terms(cls, ctx, nvars, terms) -> "MultiPoly":
        clean = {}
        for exp, coeff in terms.items():
            coeff = ctx.elem(coeff)
            if coeff:
                if len(exp) != nvars:
                    raise ValueError("exponent tuple has wrong length")
                clean[tuple(exp)] = coeff
        return cls(ctx, nvars, clean)

    @classmethod
    def zero(cls, ctx, nvars) -> "MultiPoly":
        return cls(ctx, nvars, {})

    @classmethod
    def const(cls, ctx, nvars, value) -> "MultiPoly":
        coeff = ctx.elem(value)
        if not coeff:
            return cls.zero(ctx, nvars)
        return cls(ctx, nvars, {(0,) * nvars: coeff})

    @classmethod
    def variable(cls, ctx, nvars, idx) -> "MultiPoly":
        if not 0 <= idx < nvars:
            raise ValueError(f"variable index {idx} out of range")
        exp = [0] * nvars
        exp[idx] = 1
        return cls(ctx, nvars, {tuple(exp): ctx.one})

    @classmethod
    def monomial(cls, ctx, nvars, exp, coeff=1) -> "MultiPoly":
        coeff = ctx.elem(coeff)
        if not coeff:
            return cls.zero(ctx, nvars)
        if len(exp) != nvars:
            raise ValueError("exponent tuple has wrong length")
        return cls(ctx, nvars, {tuple(exp): coeff})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def sorted_terms(self) -> list:
        """Terms as (exponent, coefficient) pairs, leading term first."""
        return [(exp, self.terms[exp])
                for exp in sorted(self.terms, key=display_key)]

    def leading_coefficient(self) -> FieldElement:
        if not self.terms:
            return self.ctx.zero
        exp = min(self.terms, key=display_key)
        return self.terms[exp]

    def constant_term(self) -> FieldElement:
        return self.terms.get((0,) * self.nvars, self.ctx.zero)

    def _compat(self, other: "MultiPoly"):
        if self.ctx is not other.ctx or self.nvars != other.nvars:
            raise ContextMismatch(
                "polynomials from different contexts or variable counts")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = MultiPoly.const(self.ctx, self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._compat(other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = terms.get(exp)
            total = coeff if acc is None else acc + coeff
            if total:
                terms[exp] = total
            elif acc is not None:
                del terms[exp]
        return MultiPoly(self.ctx, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ctx, self.nvars,
                         {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = MultiPoly.const(self.ctx, self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            coeff = self.ctx.elem(other)
            if not coeff:
                return MultiPoly.zero(self.ctx, self.nvars)
            return MultiPoly(self.ctx, self.nvars,
                             {exp: c * coeff for exp, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._compat(other)
        terms: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(a + b for a, b in zip(ea, eb))
                for e in exp:
                    if e > EXPONENT_LIMIT:
                        raise ExponentOverflow(
                            f"exponent {e} exceeds 32-bit bound")
                acc = terms.get(exp)
                total = ca * cb if acc is None else acc + ca * cb
                if total:
                    terms[exp] = total
                elif acc is not None:
                    del terms[exp]
        return MultiPoly(self.ctx, self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = MultiPoly.const(self.ctx, self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k > 1
            if base_needed:
                base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.ctx is other.ctx and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.ctx), self.nvars,
                     frozenset((e, c.coeffs) for e, c in self.terms.items())))

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({format_poly(self)})"


def format_monomial(exp: Exponent, nvars: int) -> str:
    names = var_names(nvars)
    pieces = []
    for name, e in zip(names, exp):
        if e == 0:
            continue
        pieces.append(name if e == 1 else f"{name}^{e}")
    return "*".join(pieces) if pieces else "1"


def format_poly(f: MultiPoly) -> str:
    """Canonical compact text form; reparses to an equal polynomial."""
    if f.is_zero:
        return "0"
    pieces = []
    for exp, coeff in f.sorted_terms():
        varpart = format_monomial(exp, f.nvars)
        cstr = str(coeff)
        if varpart == "1":
            pieces.append(f"({cstr})" if "+" in cstr else cstr)
        elif coeff == f.ctx.one:
            pieces.append(varpart)
        elif "+" in cstr:
            pieces.append(f"({cstr})*{varpart}")
        else:
            pieces.append(f"{cstr}*{varpart}")
    return "+".join(pieces)


class RationalFn:
    """Fraction of polynomials, unreduced; denominator normalized monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        num._compat(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        lc = den.leading_coefficient()
        if lc != den.ctx.one:
            inv = lc.inverse()
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, f: MultiPoly) -> "RationalFn":
        return cls(f, MultiPoly.const(f.ctx, f.nvars, 1))

    @property
    def ctx(self):
        return self.num.ctx

    @property
    def nvars(self):
        return self.num.nvars

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            other = RationalFn.from_poly(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("rational functions are not hashable (unreduced form)")

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            other = RationalFn.from_poly(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return RationalFn(self.num * other.num, self.den * other.den)

    def __str__(self):
        return format_rational(self)

    def __repr__(self):
        return f"RationalFn({format_rational(self)})"


def format_rational(r: RationalFn) -> str:
    num = format_poly(r.num)
    if r.den == MultiPoly.const(r.ctx, r.nvars, 1):
        return num
    den = format_poly(r.den)
    if len(r.num.terms) > 1:
        num = f"({num})"
    if len(r.den.terms) > 1 or "*" in den or "^" in den:
        den = f"({den})"
    return f"{num}/{den}"


class MonomialIdeal:
    """Monomial ideal with a minimal generating set of exponent vectors."""

    __slots__ = ("nvars", "generators")

    def __init__(self, nvars: int, exponents):
        exps = {tuple(e) for e in exponents}
        for e in exps:
            if len(e) != nvars:
                raise ValueError("generator exponent has wrong length")
        minimal = []
        for e in sorted(exps, key=graded_key):
            if not any(_divides(g, e) for g in minimal):
                minimal.append(e)
        self.nvars = nvars
        self.generators = tuple(minimal)

    @classmethod
    def from_polys(cls, polys) -> "MonomialIdeal":
        exps = []
        nvars = None
        for f in polys:
            if len(f.terms) != 1:
                raise ValueError(
                    f"ideal generator {format_poly(f)} is not a monomial")
            nvars = f.nvars
            exps.append(next(iter(f.terms)))
        if nvars is None:
            raise ValueError("empty generator list")
        return cls(nvars, exps)

    def member(self, f: MultiPoly) -> bool:
        """True iff every term of f is divisible by some generator."""
        if f.nvars != self.nvars:
            raise ContextMismatch("polynomial and ideal variable counts differ")
        return all(self.contains(exp) for exp in f.terms)

    def contains(self, exp: Exponent) -> bool:
        """True iff the monomial with this exponent lies in the ideal."""
        return any(_divides(g, exp) for g in self.generators)

    def __str__(self):
        return "(" + ", ".join(
            format_monomial(g, self.nvars) for g in self.generators) + ")"

    def __repr__(self):
        return f"MonomialIdeal{self}"


def _divides(g: Exponent, e: Exponent) -> bool:
    return all(a <= b for a, b in zip(g, e))


def random_poly(ctx, nvars, rng, max_terms=6, max_degree=8) -> MultiPoly:
    """Random sparse polynomial with per-variable degrees up to max_degree."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        terms[exp] = ctx.random_element(rng)
    return MultiPoly.from_terms(ctx, nvars, terms)


def random_nonzero_poly(ctx, nvars, rng, max_terms=6, max_degree=8) -> MultiPoly:
    while True:
        f = random_poly(ctx, nvars, rng, max_terms, max_degree)
        if f:
            return f
