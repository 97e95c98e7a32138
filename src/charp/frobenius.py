"""Frobenius images and pushforward decomposition on polynomial rings.

Viewing the polynomial ring through the e-th Frobenius makes it a free
module on the reduced monomials, the monomials whose exponents all lie in
[0, p^e).  Every f then has a unique expression

    f = sum over reduced monomials rho of (f_rho)^(p^e) * rho,

and because the coefficient field is finite (hence perfect) each component
f_rho is computed directly: split each exponent vector as p^e*beta + rho
and take the p^e-th root of the coefficient.  No linear algebra is needed.
"""

from __future__ import annotations

from itertools import chain, product

from .errors import ExponentOverflow, SizeBound
from .ffield import frobenius_pow, pth_root
from .poly import EXPONENT_LIMIT, MultiPoly, format_monomial, graded_key

DEFAULT_BASIS_BOUND = 1 << 16

# From this level on p^e >= 2^e is above EXPONENT_LIMIT; it is never formed.
HUGE_LEVEL = EXPONENT_LIMIT.bit_length()


def _largest_exponent(exps) -> int:
    return max(chain.from_iterable(exps), default=0)


def _capped_level(p: int, e: int, cap: int) -> int:
    """min(p^e, cap) for cap >= 1, without forming p^e when it is larger.

    Exponents below the cap divide by either value in the same way, so the
    cap stands in for a p^e too large to write down.
    """
    if e >= cap.bit_length():  # p^e >= 2^e > cap
        return cap
    return min(p ** e, cap)


def frobenius_image(f: MultiPoly, e: int) -> MultiPoly:
    """f^(p^e): exponents scale by p^e, coefficients run through Frobenius."""
    if e < 0:
        raise ValueError("e must be nonnegative")
    if e == 0:
        return f
    if e >= HUGE_LEVEL and any(map(any, f.terms)):
        raise ExponentOverflow(
            f"a nonzero exponent times {f.ctx.p}^{e} exceeds 32-bit bound")
    # exponent 0 stays 0 under any p^e, so a huge one is not formed
    pe = f.ctx.p ** min(e, HUGE_LEVEL)
    terms = {}
    for exp, coeff in f.terms.items():
        scaled = tuple(a * pe for a in exp)
        for a in scaled:
            if a > EXPONENT_LIMIT:
                raise ExponentOverflow(f"exponent {a} exceeds 32-bit bound")
        terms[scaled] = frobenius_pow(coeff, e)
    return MultiPoly(f.ctx, f.nvars, terms)


class FrobDecomposition:
    """Components of f over the level-e reduced-monomial basis."""

    __slots__ = ("ctx", "nvars", "e", "components")

    def __init__(self, ctx, nvars, e, components):
        self.ctx = ctx
        self.nvars = nvars
        self.e = e
        self.components = components  # reduced exponent tuple -> MultiPoly

    def component(self, rho) -> MultiPoly:
        return self.components.get(
            tuple(rho), MultiPoly.zero(self.ctx, self.nvars))

    def sorted_components(self) -> list:
        return [(rho, self.components[rho])
                for rho in sorted(self.components, key=graded_key)]

    def recompose(self) -> MultiPoly:
        """sum over rho of (f_rho)^(p^e) * rho, term by term.

        A term c*x^beta of f_rho lands at p^e*beta + rho with coefficient
        c^(p^e); terms that land together add.  From level HUGE_LEVEL on
        p^e is above EXPONENT_LIMIT, so p^HUGE_LEVEL overflows on the same
        nonzero beta and stands in for it.
        """
        e = self.e
        q = self.ctx.p ** min(e, HUGE_LEVEL)
        terms: dict = {}
        for rho, part in self.components.items():
            for beta, c in part.terms.items():
                exp = tuple(q * b + r for b, r in zip(beta, rho))
                for a in exp:
                    if a > EXPONENT_LIMIT:
                        raise ExponentOverflow(
                            f"exponent {a} exceeds 32-bit bound")
                c = frobenius_pow(c, e)
                acc = terms.get(exp)
                total = c if acc is None else acc + c
                if total:
                    terms[exp] = total
                elif acc is not None:
                    del terms[exp]
        return MultiPoly(self.ctx, self.nvars, terms)

    def __repr__(self):
        body = ", ".join(
            f"{format_monomial(rho, self.nvars)}: {part}"
            for rho, part in self.sorted_components())
        return f"FrobDecomposition(e={self.e}, {{{body}}})"


def decompose(f: MultiPoly, e: int) -> FrobDecomposition:
    """Unique pushforward decomposition of f at level e >= 1."""
    if e < 1:
        raise ValueError("decomposition level must be >= 1")
    # a modulus above every exponent splits them as p^e does, so a huge
    # level is capped rather than formed
    q = f.ctx.p ** e if e < HUGE_LEVEL else _capped_level(
        f.ctx.p, e, _largest_exponent(f.terms) + 1)
    buckets: dict = {}
    for exp, coeff in f.terms.items():
        beta = tuple(a // q for a in exp)
        rho = tuple(a % q for a in exp)
        buckets.setdefault(rho, {})[beta] = pth_root(coeff, e)
    components = {
        rho: MultiPoly(f.ctx, f.nvars, terms)
        for rho, terms in buckets.items()
    }
    return FrobDecomposition(f.ctx, f.nvars, e, components)


def recompose(d: FrobDecomposition) -> MultiPoly:
    return d.recompose()


def is_pe_power(f: MultiPoly, e: int) -> bool:
    """True iff f lies in the subring of p^e-th powers."""
    if e < 1:
        raise ValueError("level must be >= 1")
    zero_exp = (0,) * f.nvars
    return all(rho == zero_exp for rho in decompose(f, e).components)


def free_basis(nvars: int, p: int, e: int, bound: int = DEFAULT_BASIS_BOUND):
    """All level-e reduced monomials, degree-ascending; rank p^(e*nvars)."""
    if e < 1:
        raise ValueError("level must be >= 1")
    rank = e * nvars
    if rank >= bound.bit_length() or p ** rank > bound:  # p^rank >= 2^rank
        raise SizeBound(
            f"free basis has {p}^{rank} elements, above the bound {bound}")
    # p^e itself whenever nvars >= 1; with no variables range(pe) is unused
    pe = _capped_level(p, e, bound)
    exps = [tuple(reversed(t)) for t in product(range(pe), repeat=nvars)]
    exps.sort(key=graded_key)
    return exps
