"""Reference recomposition, kept only as a test oracle.

This is the form the library used before recompose built its terms
directly: each component's Frobenius image times its reduced monomial,
summed as polynomials.  The differential tests check that
FrobDecomposition.recompose agrees with it exactly, exceptions included.
"""

from __future__ import annotations

from charp.frobenius import FrobDecomposition, frobenius_image
from charp.poly import MultiPoly


def recompose(d: FrobDecomposition) -> MultiPoly:
    total = MultiPoly.zero(d.ctx, d.nvars)
    for rho, part in d.components.items():
        total = total + frobenius_image(part, d.e) * MultiPoly.monomial(
            d.ctx, d.nvars, rho)
    return total
