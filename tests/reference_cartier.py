"""Reference maps inverse to Frobenius, kept only as test oracles.

These are the straightforward forms the library used before it worked
from exponent residues: a map is applied by forming the whole product g*f
and projecting it onto the top component, which tests each exponent
against p^e - 1 modulo p^e, and compatibility with a
monomial ideal is decided by applying the map to u*b for every generator u
and every one of the p^(e*n) reduced monomials b.  The differential tests
check that charp.cartier agrees with them exactly.
"""

from __future__ import annotations

from charp.cartier import CartierMap
from charp.errors import ContextMismatch
from charp.ffield import pth_root
from charp.frobenius import free_basis
from charp.poly import MonomialIdeal, MultiPoly


def trace_project(f: MultiPoly, e: int) -> MultiPoly:
    """Pushforward component of f at the top reduced monomial.

    Only the one component is materialized: a term contributes exactly when
    every exponent is congruent to p^e - 1 modulo p^e.
    """
    if e < 1:
        raise ValueError("level must be >= 1")
    pe = f.ctx.p ** e
    top = pe - 1
    terms = {}
    for exp, coeff in f.terms.items():
        if all(a % pe == top for a in exp):
            beta = tuple((a - top) // pe for a in exp)
            terms[beta] = pth_root(coeff, e)
    return MultiPoly(f.ctx, f.nvars, terms)


def apply(phi: CartierMap, f: MultiPoly) -> MultiPoly:
    if f.ctx is not phi.ctx or f.nvars != phi.nvars:
        raise ContextMismatch("polynomial does not match the map's ring")
    return trace_project(phi.g * f, phi.e)


def check_compatible(phi: CartierMap, ideal: MonomialIdeal,
                     basis_bound=None) -> bool:
    """Whether phi maps the pushforward of the ideal back into the ideal.

    The pushforward of a monomial ideal is generated over the base ring by
    the products u*b with u a minimal generator and b a reduced basis
    monomial, so checking those finitely many images suffices.
    """
    ctx, n = phi.ctx, phi.nvars
    if ideal.nvars != n:
        raise ContextMismatch("ideal and map variable counts differ")
    kwargs = {} if basis_bound is None else {"bound": basis_bound}
    basis = free_basis(n, ctx.p, phi.e, **kwargs)
    for gen in ideal.generators:
        u = MultiPoly.monomial(ctx, n, gen)
        for b in basis:
            image = apply(phi, u * MultiPoly.monomial(ctx, n, b))
            if not ideal.member(image):
                return False
    return True
