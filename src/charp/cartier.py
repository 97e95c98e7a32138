"""Maps inverse to Frobenius on polynomial rings.

A level-e map is represented by a multiplier polynomial g and acts as
f -> top-component of g*f, where the top component is the pushforward
coefficient at the reduced monomial (p^e - 1, ..., p^e - 1).  For a
polynomial ring this representation is complete: the pushforward is free,
its Hom into the ring is generated by the top projection, and distinct
multipliers give distinct maps.

Both the map and its compatibility with monomial ideals are computed from
exponent residues modulo p^e: a product term reaches the top component
only when its factors' residues add up to p^e - 1 in every variable, so
neither ever forms the full product g*f or enumerates the reduced
monomials.

Composition follows the convention compose(outer, inner)(f) =
outer(inner(f)); the composite has level e_outer + e_inner and multiplier
frobenius_image(g_outer, e_inner) * g_inner.  That formula is not taken on
faith: the test suite checks it against directly chained applications.
"""

from __future__ import annotations

from operator import add

from .errors import ContextMismatch, ExponentOverflow
from .ffield import pth_root
from .frobenius import (HUGE_LEVEL, _capped_level, _largest_exponent,
                        frobenius_image)
from .poly import (EXPONENT_LIMIT, MonomialIdeal, MultiPoly, format_poly,
                   random_poly)


class CartierMap:
    """Additive map with apply(r^(p^e) * s) = r * apply(s), via a multiplier."""

    __slots__ = ("e", "g")

    def __init__(self, e: int, g: MultiPoly):
        if e < 1:
            raise ValueError("map level must be >= 1")
        self.e = e
        self.g = g

    @property
    def ctx(self):
        return self.g.ctx

    @property
    def nvars(self):
        return self.g.nvars

    def apply(self, f: MultiPoly) -> MultiPoly:
        """trace_project(g*f, e), forming only the products that reach it.

        Write each exponent as q*quotient + residue with q = p^e.  Residues
        in [0, q) add up to q - 1 in every variable exactly when their
        product lands on the top component, and the product then
        contributes at the sum of the quotients.  So g's terms are bucketed
        by residue and each term of f meets only the bucket at its
        complementary residue.  When q - 1 is above every exponent sum no
        product reaches the top, and the same holds with q capped at the
        largest sum plus 2, so a huge level never forms p^e.
        """
        if f.ctx is not self.ctx or f.nvars != self.nvars:
            raise ContextMismatch("polynomial does not match the map's ring")
        p, e = self.ctx.p, self.e
        q = p ** e if e < HUGE_LEVEL else _capped_level(
            p, e,
            _largest_exponent(self.g.terms) + _largest_exponent(f.terms) + 2)
        top = q - 1
        buckets: dict = {}
        for gamma, c in self.g.terms.items():
            buckets.setdefault(tuple([a % q for a in gamma]), []).append(
                ([a // q for a in gamma], c))
        sums: dict = {}
        for beta, d in f.terms.items():
            hits = buckets.get(tuple([top - b % q for b in beta]))
            if hits:
                shift = [b // q for b in beta]
                for quot, c in hits:
                    exp = tuple(map(add, quot, shift))
                    acc = sums.get(exp)
                    sums[exp] = c * d if acc is None else acc + c * d
        return MultiPoly(self.ctx, self.nvars,
                         {exp: pth_root(s, self.e)
                          for exp, s in sums.items() if s})

    def is_splitting(self) -> bool:
        one = MultiPoly.const(self.ctx, self.nvars, 1)
        return self.apply(one) == one

    def __eq__(self, other):
        if not isinstance(other, CartierMap):
            return NotImplemented
        return self.e == other.e and self.g == other.g

    def __hash__(self):
        return hash((self.e, self.g))

    def __repr__(self):
        return f"CartierMap(e={self.e}, g={format_poly(self.g)})"


def trace_project(f: MultiPoly, e: int) -> MultiPoly:
    """Pushforward component of f at the top reduced monomial.

    That is the level-e map with multiplier 1: a term contributes exactly
    when every exponent is congruent to p^e - 1 modulo p^e, and a huge
    level never forms p^e.
    """
    if e < 1:
        raise ValueError("level must be >= 1")
    return CartierMap(e, MultiPoly.const(f.ctx, f.nvars, 1)).apply(f)


def canonical_splitting(ctx, nvars: int, e: int) -> CartierMap:
    """The splitting with multiplier (x_1 ... x_n)^(p^e - 1); sends 1 to 1."""
    top = _capped_level(ctx.p, e, EXPONENT_LIMIT + 2) - 1
    if nvars and top > EXPONENT_LIMIT:
        raise ExponentOverflow(
            f"exponent {ctx.p}^{e} - 1 exceeds 32-bit bound")
    g = MultiPoly.monomial(ctx, nvars, (top,) * nvars)
    return CartierMap(e, g)


def is_splitting(phi: CartierMap) -> bool:
    return phi.is_splitting()


def compose(outer: CartierMap, inner: CartierMap) -> CartierMap:
    """The map f -> outer(inner(f)), of level outer.e + inner.e."""
    if outer.ctx is not inner.ctx or outer.nvars != inner.nvars:
        raise ContextMismatch("maps live on different rings")
    g = frobenius_image(outer.g, inner.e) * inner.g
    return CartierMap(outer.e + inner.e, g)


def check_linearity(phi: CartierMap, trials: int, rng) -> bool:
    """Sample the defining law apply(r^(p^e) * s) = r * apply(s)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ctx, n = phi.ctx, phi.nvars
    for _ in range(trials):
        r = random_poly(ctx, n, rng, max_terms=3, max_degree=3)
        s = random_poly(ctx, n, rng, max_terms=4, max_degree=5)
        lhs = phi.apply(frobenius_image(r, phi.e) * s)
        rhs = r * phi.apply(s)
        if lhs != rhs:
            return False
    return True


def check_compatible(phi: CartierMap, ideal: MonomialIdeal) -> bool:
    """Whether phi maps the pushforward of the ideal back into the ideal.

    The pushforward of a monomial ideal I is generated over the ring by the
    products u*b, u a generator and b a reduced monomial (exponents in
    [0, q), q = p^e).  A term gamma of the multiplier reaches the top
    residue q - 1 on u*b for exactly one b, b = (q - 1 - gamma - u) mod q,
    and there gives the monomial x^((gamma + u + b - (q - 1))/q), which is
    x^floor((gamma + u)/q).  Distinct terms of g give distinct monomials,
    so nothing cancels, and phi is compatible with I exactly when every
    floor((gamma + u)/q) lies in I.  That is |generators| * |terms of g|
    membership tests, whatever the rank p^(e*n) of the pushforward.  A q
    above every sum gamma + u makes each quotient 0, as does q capped at
    the largest sum plus 1, so a huge level never forms p^e.
    """
    n = phi.nvars
    if ideal.nvars != n:
        raise ContextMismatch("ideal and map variable counts differ")
    gens = ideal.generators
    p, e = phi.ctx.p, phi.e
    q = p ** e if e < HUGE_LEVEL else _capped_level(
        p, e, _largest_exponent(phi.g.terms) + _largest_exponent(gens) + 1)
    return all(ideal.contains(tuple((a + b) // q for a, b in zip(gamma, u)))
               for u in gens for gamma in phi.g.terms)
