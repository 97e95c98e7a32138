"""Reference substitution engine, kept only as a test oracle.

This is the straightforward engine the library used before substitution
exploited characteristic p: every variable power is a memoized binary
power of its image, every monomial a chain of dense products, with no
shift for x -> t and no Frobenius stretch.  The differential tests check
that charp.series.substitute_series agrees with it exactly.
"""

from __future__ import annotations

import numpy as np

from charp._kernels import series_mul
from charp.errors import ContextMismatch, PrecisionMismatch
from charp.poly import MultiPoly
from charp.series import TruncatedSeries


def _power_cached(base_arr, k, cache, table, p, nout):
    """base^k as a raw array, by binary powering with memoization."""
    hit = cache.get(k)
    if hit is not None:
        return hit
    if k == 1:
        cache[1] = base_arr
        return base_arr
    half = _power_cached(base_arr, k // 2, cache, table, p, nout)
    out = series_mul(half, half, table, p, nout)
    if k & 1:
        out = series_mul(out, base_arr, table, p, nout)
    cache[k] = out
    return out


def substitute_series(f: MultiPoly, images, precision: int) -> TruncatedSeries:
    """Image of f under x_i -> images[i], exact modulo t^precision.

    Every image must carry at least the requested precision; the result is
    a ring-homomorphic image truncated at t^precision.
    """
    if len(images) != f.nvars:
        raise ValueError(
            f"need {f.nvars} series images, got {len(images)}")
    ctx = f.ctx
    for s in images:
        if s.ctx is not ctx:
            raise ContextMismatch("series image over a different field")
        if s.precision < precision:
            raise PrecisionMismatch(
                f"image precision {s.precision} below requested {precision}")
    p = ctx.p
    table = ctx.scaling_array
    image_arrs = [np.ascontiguousarray(s.coeffs[:precision]) for s in images]
    caches: list = [{} for _ in range(f.nvars)]
    acc = np.zeros((precision, ctx.m), dtype=np.int64)
    const_row = np.zeros((1, ctx.m), dtype=np.int64)
    for exp, coeff in f.terms.items():
        cur = None
        for j, e in enumerate(exp):
            if e == 0:
                continue
            pw = _power_cached(image_arrs[j], e, caches[j], table, p,
                               precision)
            cur = pw if cur is None else series_mul(cur, pw, table, p,
                                                    precision)
        if cur is None:
            acc[0] = (acc[0] + np.asarray(coeff.coeffs)) % p
        else:
            const_row[0, :] = coeff.coeffs
            term = series_mul(cur, const_row, table, p, precision)
            acc = (acc + term) % p
    return TruncatedSeries(ctx, acc)
