"""Reference precision ladder and stream loops, kept only as test oracles.

`certify` is the certification loop EmbeddingValuation used before it
started above the term-order lower bound: substitute at the start
precision and at every doubling up to the cap.  It substitutes on copies
of the images without their power memos, so every substitution computes
its own powers.  The differential tests check that EmbeddingValuation
agrees with it exactly, certificates and errors alike, below the cap, and
on values and leading coefficients past it, where the reference is run at
a larger cap.

`realize` and `first_difference` ask a stream's oracle at every index, as
the engine did before streams knew their support.
"""

from __future__ import annotations

import numpy as np

from charp.errors import NotInRing, PrecisionExhausted, StreamsAgree
from charp.poly import MultiPoly
from charp.series import TruncatedSeries, substitute_series
from charp.valuation import EmbeddingValuation


def certify(V: EmbeddingValuation, f: MultiPoly):
    """(order, certified precision, image) with order < precision."""
    n = V.start_precision
    while True:
        image = substitute_series(f, images(V, n), n)
        v = image.order()
        if v is not None:
            return v, n, image
        if n >= V.precision_cap:
            raise PrecisionExhausted(
                f"image of {f} vanishes modulo t^{n}; the series images "
                "may satisfy an algebraic relation", n)
        n = min(2 * n, V.precision_cap)


def images(V: EmbeddingValuation, n: int):
    """V.images(n) without their power memos."""
    return [TruncatedSeries(s.ctx, s.coeffs) for s in V.images(n)]


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


def realize(stream, n: int) -> np.ndarray:
    """The first n coefficients of a stream, one oracle call per index."""
    out = np.zeros((n, stream.ctx.m), dtype=np.int64)
    for idx in range(n):
        out[idx, :] = stream.coefficient(idx).coeffs
    return out


def first_difference(stream_a, stream_b, cap: int) -> int:
    """The first index below the cap where the streams differ, comparing
    every index."""
    for n in range(cap):
        if stream_a.coefficient(n) != stream_b.coefficient(n):
            return n
    raise StreamsAgree(
        f"streams {stream_a.label!r} and {stream_b.label!r} agree below "
        f"index {cap}")
