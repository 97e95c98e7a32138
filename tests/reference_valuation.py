"""Reference precision ladder, kept only as a test oracle.

This is the certification loop EmbeddingValuation used before it started
above the term-order lower bound: substitute at the start precision and
at every doubling up to the cap.  The differential tests check that
EmbeddingValuation agrees with it exactly, certificates and errors alike.
"""

from __future__ import annotations

from charp.errors import NotInRing, PrecisionExhausted
from charp.poly import MultiPoly
from charp.series import substitute_series
from charp.valuation import EmbeddingValuation


def certify(V: EmbeddingValuation, f: MultiPoly):
    """(order, certified precision, image) with order < precision."""
    n = V.start_precision
    while True:
        image = substitute_series(f, V.images(n), n)
        v = image.order()
        if v is not None:
            return v, n, image
        if n >= V.precision_cap:
            raise PrecisionExhausted(
                f"image of {f} vanishes modulo t^{n}; the series images "
                "may satisfy an algebraic relation", n)
        n = min(2 * n, V.precision_cap)


def residue(V: EmbeddingValuation, r):
    """EmbeddingValuation.residue with every order taken from certify."""
    r = V._as_rational(r)
    if r.num.is_zero:
        return V.ctx.zero
    v_num, _, img_num = certify(V, r.num)
    v_den, _, img_den = certify(V, r.den)
    value = v_num - v_den
    if value < 0:
        raise NotInRing(f"value {value} < 0, not in the valuation ring")
    if value > 0:
        return V.ctx.zero
    return img_num.element_at(v_num) / img_den.element_at(v_den)
