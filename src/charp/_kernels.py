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
stretches, and scalars.  When one factor has few nonzero rows against the
other's length, the product scales the other factor by each nonzero row
i, shifted i rows down; otherwise it takes one np.convolve per pair of
residue columns and reduces the columns past u^(m-1) through the table.

Either way the product accumulates exact integers before one reduction
pass: entries are < p <= 2^20, so each accumulator cell collects at most
N*m products below 2^40 and stays far under 2^63 for every supported
precision; series_mul enforces that bound.

Realizing a from-seed stream reads residue rows from a block of sha256
digests at once (low_digits).
"""

from __future__ import annotations

import numpy as np

from .errors import SizeBound


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


def series_mul(a, b, table, p, nout):
    """Truncated product of two coefficient arrays, exact mod p and mu;
    table is the field's scaling_array."""
    m = a.shape[1]
    if nout * p * p * max(m, 1) >= 2 ** 62:
        raise SizeBound(
            "precision too large for overflow-free int64 accumulation")
    a, b = a[:nout], b[:nout]
    rows_a = np.flatnonzero(a.any(axis=1))
    rows_b = np.flatnonzero(b.any(axis=1))
    if rows_a.size > rows_b.size:
        a, b, rows_a = b, a, rows_b
    # a now has the fewer nonzero rows; a row costs a few numpy calls on
    # b's length, which beats convolving once they are few against it
    if 8 * rows_a.size < b.shape[0]:
        out = np.zeros((nout, m), dtype=np.int64)
        for i, matrix in zip(rows_a.tolist(), scalings(table, p, a[rows_a])):
            rest = b[:nout - i]
            out[i:i + rest.shape[0]] += scale(rest, matrix)
    else:
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
        # rows 1.. of table[m-1] are the residue vectors of u^m .. u^(2m-2)
        out = wide[:, :m] + wide[:, m:] @ table[m - 1, 1:]
    out %= p
    return out
