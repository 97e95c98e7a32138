"""Dense truncated-series kernels over F_{p^m}.

A truncated series is an int64 array of shape (N, m): row i is the residue
vector of the t^i coefficient.  The product here is the only dense work of
substitution, which calls it once per nonzero base-p digit of an image
power and once per further variable of a monomial group, each modulo the
precision the group's smallest shift leaves (see charp.series).  It is
plain numpy: one np.convolve per pair of residue columns.

The product accumulates a full integer convolution before one reduction
pass: entries are < p <= 2^20, so each accumulator cell collects at most
N*m products below 2^40 and stays far under 2^63 for every supported
precision; series_mul enforces that bound.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeBound


def series_mul(a, b, red, p, nout):
    """Truncated product of two coefficient arrays, exact mod p and mu:
    per-column exact convolutions, then one u-reduction."""
    na, m = a.shape
    if nout * p * p * max(m, 1) >= 2 ** 62:
        raise SizeBound(
            "precision too large for overflow-free int64 accumulation")
    na = min(na, nout)
    nb = min(b.shape[0], nout)
    wide = np.zeros((nout, 2 * m - 1), dtype=np.int64)
    for ju in range(m):
        col_a = a[:na, ju]
        if not col_a.any():
            continue
        for jv in range(m):
            col_b = b[:nb, jv]
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
