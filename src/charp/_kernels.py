"""Dense truncated-series kernels over F_{p^m}.

A truncated series is an int64 array of shape (N, m): row i is the residue
vector of the t^i coefficient.  The product here is the only dense work of
substitution, which calls it once per nonzero base-p digit of an image
power and once per further variable of a monomial group (see
charp.series); it is JIT-compiled with numba when numba is installed; set
CHARP_PURE_NUMPY=1 to force the plain numpy path.  Backend selection is
lazy so that importing the package stays cheap.

Both paths accumulate a full integer convolution before one reduction pass:
entries are < p <= 2^20, so each accumulator cell collects at most N*m
products below 2^40 and stays far under 2^63 for every supported precision;
the dispatcher enforces that bound.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import SizeBound

_BACKEND = None  # resolved on first use: "numba" or "numpy"
_MUL_JIT = None


def _resolve_backend():
    global _BACKEND, _MUL_JIT
    if _BACKEND is not None:
        return _BACKEND
    if os.environ.get("CHARP_PURE_NUMPY", "") not in ("", "0"):
        _BACKEND = "numpy"
        return _BACKEND
    try:
        from numba import njit
    except ImportError:
        _BACKEND = "numpy"
        return _BACKEND
    _MUL_JIT = njit(cache=True)(_series_mul_loops)
    _BACKEND = "numba"
    return _BACKEND


def backend() -> str:
    """Active kernel backend, resolving it if necessary."""
    return _resolve_backend()


def _series_mul_loops(a, b, red, p, nout):
    # Also compiled by numba; keep to nopython-friendly constructs.
    na, m = a.shape
    nb = b.shape[0]
    wide = np.zeros((nout, 2 * m - 1), dtype=np.int64)
    imax = min(na, nout)
    for i in range(imax):
        jmax = min(nb, nout - i)
        for ju in range(m):
            av = a[i, ju]
            if av == 0:
                continue
            for j in range(jmax):
                for jv in range(m):
                    bv = b[j, jv]
                    if bv != 0:
                        wide[i + j, ju + jv] += av * bv
    out = np.zeros((nout, m), dtype=np.int64)
    for k in range(nout):
        for ju in range(m):
            out[k, ju] = wide[k, ju] % p
        for ext in range(m - 1):
            c = wide[k, m + ext] % p
            if c != 0:
                for jv in range(m):
                    out[k, jv] = (out[k, jv] + c * red[ext, jv]) % p
    return out


def series_mul_numpy(a, b, red, p, nout):
    """Pure-numpy product: per-column exact convolutions, then u-reduction."""
    na, m = a.shape
    nb = b.shape[0]
    na = min(na, nout)
    nb = min(nb, nout)
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


def series_mul(a, b, red, p, nout):
    """Truncated product of two coefficient arrays, exact mod p and mu."""
    m = a.shape[1]
    if nout * p * p * max(m, 1) >= 2 ** 62:
        raise SizeBound(
            "precision too large for overflow-free int64 accumulation")
    if _resolve_backend() == "numba":
        return _MUL_JIT(a, b, red, p, nout)
    return series_mul_numpy(a, b, red, p, nout)


def warmup(ctx) -> None:
    """Trigger JIT compilation so later timings measure only arithmetic."""
    one = np.zeros((2, ctx.m), dtype=np.int64)
    one[0, 0] = 1
    series_mul(one, one, ctx.reduction_array, ctx.p, 2)
