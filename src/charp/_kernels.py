"""Dense truncated-series kernels over F_{p^m}.

A truncated series is an int64 array of shape (N, m): row i is the residue
vector of the t^i coefficient.  The product here is the only dense work of
substitution, which calls it once per nonzero base-p digit of an image
power and once per further variable of a monomial group, each modulo the
precision the group's smallest shift leaves (see charp.series).  It is
plain numpy.  Many factors are sparse: gap-stream images, their powers and
Frobenius stretches, and scalars.  When one factor has few nonzero rows
against the other's length, the product adds c * (the other factor),
shifted i rows down, for each nonzero residue c of each nonzero row i;
otherwise it takes one np.convolve per pair of residue columns.

Either way the product accumulates exact integers before one reduction
pass: entries are < p <= 2^20, so each accumulator cell collects at most
N*m products below 2^40 and stays far under 2^63 for every supported
precision; series_mul enforces that bound.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeBound


def series_mul(a, b, red, p, nout):
    """Truncated product of two coefficient arrays, exact mod p and mu:
    exact integer products per residue column pair, then one u-reduction."""
    m = a.shape[1]
    if nout * p * p * max(m, 1) >= 2 ** 62:
        raise SizeBound(
            "precision too large for overflow-free int64 accumulation")
    a, b = a[:nout], b[:nout]
    rows_a = np.flatnonzero(a.any(axis=1))
    rows_b = np.flatnonzero(b.any(axis=1))
    if rows_a.size > rows_b.size:
        a, b, rows_a = b, a, rows_b
    wide = np.zeros((nout, 2 * m - 1), dtype=np.int64)
    # a now has the fewer nonzero rows; a row costs a few numpy calls on
    # b's length, which beats convolving once they are few against it
    if 8 * rows_a.size < b.shape[0]:
        for i in rows_a.tolist():
            rest = b[:nout - i]
            for ju, c in enumerate(a[i].tolist()):
                if c:
                    wide[i:i + rest.shape[0], ju:ju + m] += c * rest
    else:
        for ju in range(m):
            col_a = a[:, ju]
            if not col_a.any():
                continue
            for jv in range(m):
                col_b = b[:, jv]
                if not col_b.any():
                    continue
                conv = np.convolve(col_a, col_b)[:nout]
                wide[: conv.shape[0], ju + jv] += conv
    wide %= p
    out = wide[:, :m]
    for ext in range(m - 1):
        c = wide[:, m + ext]
        if c.any():
            out = out + np.outer(c, red[ext])
    return np.ascontiguousarray(out % p)
