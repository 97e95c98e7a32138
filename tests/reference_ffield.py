"""Reference Frobenius iterates and inverses, kept only as test oracles.

These are the forms the library used before Frobenius became a cached
F_p-linear map: a^(p^k) by raising to the p-th power k mod m times, and
a^-1 as a^(q-2) (Lagrange), both by square-and-multiply.  The
differential tests check that charp.ffield agrees with them exactly.
"""

from __future__ import annotations

from charp.ffield import FieldElement


def frobenius_pow(a: FieldElement, k: int) -> FieldElement:
    """a^(p^k), an iterate of the Frobenius automorphism."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    j = k % a.ctx.m
    out = a
    for _ in range(j):
        out = out ** a.ctx.p
    return out


def pth_root(a: FieldElement, k: int) -> FieldElement:
    """The unique b with b^(p^k) = a."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return frobenius_pow(a, (-k) % a.ctx.m)


def inverse(a: FieldElement) -> FieldElement:
    if not a:
        raise ZeroDivisionError("inverse of zero field element")
    # Lagrange: a^(q-2) inverts a in F_q
    return a ** (a.ctx.order - 2)
