"""Row kernels for truncated series over F_{p^m}.

A truncated series is an int64 array of shape (N, m): row i is the residue
vector of the t^i coefficient.  Multiplying rows by a field element c goes
through one (m, m) F_p matrix, the sum of c_j * table[j] with table the
field's scaling_array (scalings), applied by one product per block of rows
(scale).  The Frobenius stretch of a series maps each row a to a^p
(frobenius_rows).  The series product here is the only dense work of
substitution, which calls it once per nonzero base-p digit of an image
power and once per further variable of a monomial group, each modulo the
precision the group's smallest shift leaves (see charp.series).  Many
factors are sparse: gap-stream images, their powers and Frobenius
stretches, and scalars.

series_mul has three branches, all exact.  A small product (below
CONVOLVE_PRODUCTS coefficient products) takes one np.convolve per pair of
residue columns (convolve_columns), or, when one factor has under 1/8
nonzero rows against the other's length, scales the other factor by each
nonzero row i, shifted i rows down (walk_rows).  A larger one walks rows
where a cost model says that is cheaper, and otherwise takes one packed
real FFT product (fft_columns): row i of a factor fills slots
i*(2m-1) .. i*(2m-1)+m-1 of one float64 vector, so one 1-D convolution
holds every (t, u^k) column, and residues are split into the fewest
limbs of w bits whose products keep Percival's bound on the FFT's rounding
error (C. Percival, Math. Comp. 72 (2003), Thm 5.1; fft_error) under
ERROR_BUDGET = 1/16 (fft_plan): one limb for small p, two 10-bit limbs at
p = 1048573 and n = 4096.  Rounding each output then gives the exact
integer; as a second check, a product with an output more than 1/4 from
an integer is recomputed through np.convolve.  Both dense branches end in
(N, 2m-1) columns, and the columns past u^(m-1) are reduced through the
table.

Every branch accumulates exact integers before one reduction pass:
entries are < p <= 2^20, so each accumulator cell collects at most N*m
products below 2^40 and stays far under 2^63 for every supported
precision; series_mul enforces that bound, which also lets the FFT
branch add its limb products back, shifted, in int64.

Realizing a from-seed stream reads residue rows from a block of sha256
digests at once (low_digits).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeBound

# Below this many coefficient products (m^2 times the rows of each factor)
# np.convolve beats the FFT product's fixed cost.  Above it, series_mul
# weighs the row walk against the FFT by a cost in nanoseconds: per walked
# row, WALK_ROW_NS plus WALK_ENTRY_NS per residue product (b's rows * m^2);
# per FFT product, FFT_CALL_NS plus FFT_POINT_NS per point of each of its
# 4k - 1 transforms.  All are read from the sweep of
# benchmarks/bench_kernels.py (2-vCPU x86 VM, CPython 3.11, numpy 2.4).
CONVOLVE_PRODUCTS = 1 << 17
WALK_ROW_NS = 3000
WALK_ENTRY_NS = 1
FFT_CALL_NS = 30000
FFT_POINT_NS = 12
# The share of the 1/2 that rounding to an integer tolerates which
# Percival's bound may use; the rest is margin for numpy's pocketfft not
# being the radix-2 transform the bound is proved for.
ERROR_BUDGET = 2.0 ** -4
_EPS = 2.0 ** -53  # unit roundoff of float64


def scalings(table, p, coeffs) -> np.ndarray:
    """One (m, m) F_p matrix of a -> c * a on residue vectors for each
    residue vector c among coeffs; table is the field's scaling_array."""
    m = table.shape[0]
    c = np.asarray(coeffs, dtype=np.int64).reshape(-1, m)
    return (c @ table.reshape(m, m * m) % p).reshape(-1, m, m)


def scale(rows, matrix) -> np.ndarray:
    """Residue rows times the field element whose matrix (see scalings)
    is given, unreduced: for reduced rows every entry is below m*(p-1)^2."""
    return rows * matrix[0] if matrix.shape[0] == 1 else rows @ matrix


def frobenius_rows(ctx, rows) -> np.ndarray:
    """Each residue row a replaced by a^p, reduced."""
    if ctx.m == 1:
        return rows
    return rows @ np.array(ctx.frobenius_matrix(1), dtype=np.int64) % ctx.p


def low_digits(digests: bytes, p: int, m: int) -> np.ndarray:
    """The m lowest base-p digits, lowest first, of each 32-byte big-endian
    integer in `digests`, as (k, m) rows: per digit, one long division by
    p over 32-bit limbs, each limb a column of the block.  A remainder is
    below p <= 2^20, so remainder * 2^32 + limb stays below 2^52."""
    limbs = np.ascontiguousarray(
        np.frombuffer(digests, dtype=">u4").reshape(-1, 8).T, dtype=np.int64)
    rows = np.empty((limbs.shape[1], m), dtype=np.int64)
    for j in range(m):
        r = 0
        for limb in limbs:
            limb[:], r = np.divmod((r << 32) | limb, p)
        rows[:, j] = r
    return rows


def fft_error(size: int) -> float:
    """Percival's bound (Math. Comp. 72 (2003), Thm 5.1) on the error of a
    float64 FFT product of length size = 2^n, per unit of |x| * |y|
    (Euclidean norms): (1+e)^3n (1+e*sqrt(5))^(3n+1) (1+b)^3n - 1, with e
    the unit roundoff and b, the error of a twiddle factor, taken as e."""
    n = size.bit_length() - 1
    return math.expm1((6 * n) * math.log1p(_EPS)
                      + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5)))


def fft_plan(na: int, nb: int, m: int, p: int):
    """(size, k, w) of the FFT product of na by nb residue rows: the power
    of two that holds the whole packed convolution, and the fewest limbs k
    of w bits each (k * w covers the residues below p) whose products keep
    Percival's bound under ERROR_BUDGET.  A packed operand of n rows has
    at most n * m nonzero entries, each limb below 2^w, and one output sums
    at most k limb products."""
    size = 1 << ((na + nb - 1) * (2 * m - 1) - 1).bit_length()
    bits, error = (p - 1).bit_length(), fft_error(size)
    for k in range(1, bits + 1):
        w = -(-bits // k)
        norms = math.sqrt(na * m * nb * m) * ((1 << w) - 1) ** 2
        if k * norms * error < ERROR_BUDGET:
            return size, k, w
    raise SizeBound("series product too large for an exact float64 FFT")


def walk_rows(a, rows_a, b, table, p, nout):
    """The reduced product as a sum of b scaled by each nonzero row i of a
    (rows_a), shifted i rows down."""
    out = np.zeros((nout, b.shape[1]), dtype=np.int64)
    for i, matrix in zip(rows_a.tolist(), scalings(table, p, a[rows_a])):
        rest = b[:nout - i]
        out[i:i + rest.shape[0]] += scale(rest, matrix)
    out %= p
    return out


def convolve_columns(a, b, p, nout):
    """The (nout, 2m-1) product columns, reduced: column j sums the
    products of residue columns ju + jv = j, one np.convolve per pair."""
    m = a.shape[1]
    wide = np.zeros((nout, 2 * m - 1), dtype=np.int64)
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
    return wide


def fft_columns(a, b, p, nout):
    """The columns of convolve_columns from one packed real FFT product,
    or None where some output lies more than 1/4 from an integer.

    Row i of an operand fills slots i*(2m-1) .. i*(2m-1)+m-1 of one vector,
    so slot r*(2m-1) + j of the vectors' convolution is column j of row r.
    Residues are split into the k limbs of fft_plan; the limb products of
    equal weight 2^(w*s) are summed as spectra and come back through one
    irfft each.  A squaring (b is a) transforms its operand once."""
    (na, m), nb = a.shape, b.shape[0]
    stride = 2 * m - 1
    size, k, w = fft_plan(na, nb, m, p)

    def spectra(x):
        packed = np.zeros((k, x.shape[0], stride))
        for i in range(k):
            packed[i, :, :m] = (x >> (w * i)) & ((1 << w) - 1)
        return np.fft.rfft(packed.reshape(k, -1), size)

    fa = spectra(a)
    fb = fa if b is a else spectra(b)
    need = min(nout, na + nb - 1) * stride
    wide = np.zeros(nout * stride, dtype=np.int64)
    for s in range(2 * k - 1):
        spectrum = sum(fa[i] * fb[s - i]
                       for i in range(max(0, s - k + 1), min(s, k - 1) + 1))
        x = np.fft.irfft(spectrum, size)[:need]
        exact = np.rint(x)
        if np.abs(x - exact).max() > 0.25:
            return None
        wide[:need] += exact.astype(np.int64) << (w * s)
    wide %= p
    return wide.reshape(nout, stride)


def series_mul(a, b, table, p, nout):
    """Truncated product of two coefficient arrays, exact mod p and mu;
    table is the field's scaling_array."""
    m = a.shape[1]
    if nout * p * p * max(m, 1) >= 2 ** 62:
        raise SizeBound(
            "precision too large for overflow-free int64 accumulation")
    square = a is b
    a, b = a[:nout], b[:nout]
    rows_a = np.flatnonzero(a.any(axis=1))
    rows_b = np.flatnonzero(b.any(axis=1))
    if rows_a.size > rows_b.size:
        a, b, rows_a, rows_b = b, a, rows_b, rows_a
    if not rows_a.size:
        return np.zeros((nout, m), dtype=np.int64)
    # trailing zero rows add nothing; a now has the fewer nonzero rows
    a, b = a[:rows_a[-1] + 1], b[:rows_b[-1] + 1]
    if square:
        b = a
    na, nb = a.shape[0], b.shape[0]
    if m * m * na * nb < CONVOLVE_PRODUCTS:
        # a row costs a few numpy calls on b's length, which beats
        # convolving once they are few against it
        if 8 * rows_a.size < nb:
            return walk_rows(a, rows_a, b, table, p, nout)
        wide = convolve_columns(a, b, p, nout)
    else:
        size, k, _ = fft_plan(na, nb, m, p)
        walk_ns = rows_a.size * (WALK_ROW_NS + nb * m * m * WALK_ENTRY_NS)
        if walk_ns < FFT_CALL_NS + (4 * k - 1) * size * FFT_POINT_NS:
            return walk_rows(a, rows_a, b, table, p, nout)
        wide = fft_columns(a, b, p, nout)
        if wide is None:
            wide = convolve_columns(a, b, p, nout)
    # rows 1.. of table[m-1] are the residue vectors of u^m .. u^(2m-2)
    out = wide[:, :m] + wide[:, m:] @ table[m - 1, 1:]
    out %= p
    return out
