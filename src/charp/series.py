"""Truncated power series over F_{p^m} and polynomial-to-series substitution.

A TruncatedSeries knows its coefficients a_0..a_{N-1} exactly; nothing is
assumed about coefficients at or beyond the precision N.  Arithmetic between
series of different precision truncates to the shorter one.

Substitution and powers use characteristic p.  A variable sent to t only
shifts coefficients.  The p-th power of a series is its Frobenius stretch
sum a_i^p t^(ip), which needs no product, so a power Y^k costs one dense
product per nonzero base-p digit of k (plus binary powering of the digits).
"""

from __future__ import annotations

import numpy as np

from ._kernels import series_mul
from .errors import ContextMismatch, PrecisionMismatch
from .ffield import FieldContext, FieldElement
from .poly import MultiPoly


class TruncatedSeries:
    """Dense exact series prefix; coefficients are an immutable (N, m) array."""

    __slots__ = ("ctx", "precision", "coeffs")

    def __init__(self, ctx: FieldContext, coeffs: np.ndarray):
        self.ctx = ctx
        arr = np.ascontiguousarray(coeffs, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != ctx.m:
            raise ValueError("coefficient array must have shape (N, m)")
        arr.setflags(write=False)
        self.coeffs = arr
        self.precision = arr.shape[0]

    @classmethod
    def from_elements(cls, ctx, elements) -> "TruncatedSeries":
        arr = np.zeros((len(elements), ctx.m), dtype=np.int64)
        for i, el in enumerate(elements):
            arr[i, :] = ctx.elem(el).coeffs
        return cls(ctx, arr)

    @classmethod
    def zeros(cls, ctx, precision) -> "TruncatedSeries":
        return cls(ctx, np.zeros((precision, ctx.m), dtype=np.int64))

    @classmethod
    def one(cls, ctx, precision) -> "TruncatedSeries":
        arr = np.zeros((precision, ctx.m), dtype=np.int64)
        if precision:
            arr[0, 0] = 1
        return cls(ctx, arr)

    def element_at(self, i: int) -> FieldElement:
        if not 0 <= i < self.precision:
            raise IndexError("coefficient index beyond known precision")
        return FieldElement(self.ctx, tuple(int(v) for v in self.coeffs[i]))

    def order(self):
        """Index of the first nonzero coefficient, or None if all N vanish."""
        nz = np.nonzero(self.coeffs.any(axis=1))[0]
        if nz.size == 0:
            return None
        return int(nz[0])

    def truncate(self, precision: int) -> "TruncatedSeries":
        if precision > self.precision:
            raise PrecisionMismatch(
                f"cannot extend precision {self.precision} to {precision}")
        if precision == self.precision:
            return self
        return TruncatedSeries(self.ctx, self.coeffs[:precision])

    def _compat(self, other: "TruncatedSeries"):
        if self.ctx is not other.ctx:
            raise ContextMismatch("series over different field contexts")

    def __add__(self, other):
        self._compat(other)
        n = min(self.precision, other.precision)
        return TruncatedSeries(
            self.ctx, (self.coeffs[:n] + other.coeffs[:n]) % self.ctx.p)

    def __sub__(self, other):
        self._compat(other)
        n = min(self.precision, other.precision)
        return TruncatedSeries(
            self.ctx, (self.coeffs[:n] - other.coeffs[:n]) % self.ctx.p)

    def __neg__(self):
        return TruncatedSeries(self.ctx, (-self.coeffs) % self.ctx.p)

    def __mul__(self, other):
        self._compat(other)
        n = min(self.precision, other.precision)
        out = series_mul(self.coeffs, other.coeffs,
                         self.ctx.reduction_array, self.ctx.p, n)
        return TruncatedSeries(self.ctx, out)

    def scale(self, coeff: FieldElement) -> "TruncatedSeries":
        coeff = self.ctx.elem(coeff)
        b = np.array([coeff.coeffs], dtype=np.int64)
        out = series_mul(self.coeffs, b, self.ctx.reduction_array,
                         self.ctx.p, self.precision)
        return TruncatedSeries(self.ctx, out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative series power")
        if k == 0:
            return TruncatedSeries.one(self.ctx, self.precision)
        out = _Powers(self.ctx, self.coeffs).power(k, self.precision)
        if out is None:
            return TruncatedSeries.zeros(self.ctx, self.precision)
        return TruncatedSeries(self.ctx, out)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.ctx is other.ctx
                and self.precision == other.precision
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((id(self.ctx), self.precision, self.coeffs.tobytes()))

    def __repr__(self):
        pieces = []
        shown = 0
        for i in range(self.precision):
            if not self.coeffs[i].any():
                continue
            el = self.element_at(i)
            cstr = str(el)
            if i == 0:
                pieces.append(cstr)
            else:
                tpart = "t" if i == 1 else f"t^{i}"
                if cstr == "1":
                    pieces.append(tpart)
                elif "+" in cstr:
                    pieces.append(f"({cstr})*{tpart}")
                else:
                    pieces.append(f"{cstr}*{tpart}")
            shown += 1
            if shown >= 8:
                pieces.append("...")
                break
        body = " + ".join(pieces) if pieces else "0"
        return f"<series {body} + O(t^{self.precision})>"


def _is_t(arr) -> bool:
    """Whether a coefficient array is exactly the series t at its length."""
    if arr.shape[0] < 2:
        return not arr.any()
    return arr[1, 0] == 1 and np.count_nonzero(arr) == 1


def _rows(first: FieldElement, ratio: FieldElement) -> np.ndarray:
    """F_p matrix whose row k is the residue vector of first * ratio^k.

    With (c, u) it is the matrix of a -> c*a on residue vectors.
    """
    rows, cur = [], first
    for _ in range(first.ctx.m):
        rows.append(cur.coeffs)
        cur = cur * ratio
    return np.array(rows, dtype=np.int64)


class _Powers:
    """Powers of one series, exact modulo t^n, memoized for one call; a
    power already known to a higher precision is truncated, not recomputed.

    In characteristic p, (sum a_i t^i)^p = sum a_i^p t^(ip): the p-th power
    of a series is a Frobenius stretch, which costs no product.  Hence
    Y^k = Y^(k mod p) * stretch(Y^(k div p)), where the stretched factor is
    needed only modulo t^ceil(n/p).  Y^k takes one dense product per nonzero
    base-p digit of k, plus the binary powering of the digits, and each
    digit after the lowest is handled at a p-fold lower precision.
    """

    def __init__(self, ctx: FieldContext, base: np.ndarray):
        self.ctx = ctx
        self.base = base
        nonzero = np.flatnonzero(base.any(axis=1))
        self.order = int(nonzero[0]) if nonzero.size else None
        self.cache: dict = {}

    def power(self, k: int, n: int):
        """base^k modulo t^n for k >= 1, or None where it vanishes."""
        if self.order is None or k * self.order >= n:
            return None
        out = self.cache.get(k)
        if out is not None and out.shape[0] >= n:
            return out[:n]
        p, red = self.ctx.p, self.ctx.reduction_array
        if k == 1:
            out = self.base[:n]
        elif k < p:
            half = self.power(k // 2, n)
            out = series_mul(half, half, red, p, n)
            if k & 1:
                out = series_mul(out, self.base[:n], red, p, n)
        else:
            q, d = divmod(k, p)
            out = self._stretch(self.power(q, -(-n // p)), n)
            if d:
                out = series_mul(self.power(d, n), out, red, p, n)
        self.cache[k] = out
        return out

    def _stretch(self, s: np.ndarray, n: int) -> np.ndarray:
        """sum a_i t^i -> sum a_i^p t^(ip) modulo t^n, from the first
        ceil(n/p) coefficients."""
        ctx = self.ctx
        out = np.zeros((n, ctx.m), dtype=np.int64)
        if ctx.m == 1:
            out[::ctx.p] = s
        else:
            frobenius = np.array(ctx.frobenius_matrix(1), dtype=np.int64)
            out[::ctx.p] = s @ frobenius % ctx.p
        return out


def substitute_series(f: MultiPoly, images, precision: int) -> TruncatedSeries:
    """Image of f under x_i -> images[i], exact modulo t^precision.

    Every image must carry at least the requested precision; the result is
    a ring-homomorphic image truncated at t^precision.

    An image that is exactly t turns its variable's exponent into a shift.
    Terms are grouped by their other exponents; each group costs one dense
    product D of image powers (see _Powers), and each of its terms
    c * t^a * D adds the rows of D, multiplied by c, a places down.  Terms
    with a >= precision drop out.  A term uses only D modulo
    t^(precision - a), so D and its powers are computed only modulo
    t^(precision - min a) over the group's terms; if D vanishes there, the
    whole group vanishes.
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
    n, p = precision, ctx.p
    arrs = [s.coeffs[:n] for s in images]
    shifts = [_is_t(arr) for arr in arrs]
    groups: dict = {}
    for exp, coeff in f.terms.items():
        a = sum(e for e, is_t in zip(exp, shifts) if is_t)
        if a < n:
            rest = tuple(0 if is_t else e for e, is_t in zip(exp, shifts))
            groups.setdefault(rest, []).append((a, coeff))
    powers = [None if is_t else _Powers(ctx, arr)
              for arr, is_t in zip(arrs, shifts)]
    scalings: dict = {}
    acc = np.zeros((n, ctx.m), dtype=np.int64)
    for rest, terms in groups.items():
        need = n - min(a for a, _ in terms)
        prod = None  # the empty product, 1
        for j, e in enumerate(rest):
            if e:
                pw = powers[j].power(e, need)
                if pw is None:
                    break  # the whole group vanishes modulo t^n
                prod = pw if prod is None else series_mul(
                    prod, pw, ctx.reduction_array, p, need)
        else:
            for a, c in terms:
                if prod is None:
                    acc[a] = (acc[a] + c.coeffs) % p
                    continue
                rows = prod[:n - a]
                if ctx.m == 1:
                    acc[a:] += rows * c.coeffs[0]
                else:
                    if c.coeffs not in scalings:
                        scalings[c.coeffs] = _rows(c, ctx.generator())
                    acc[a:] += rows @ scalings[c.coeffs]
                acc[a:] %= p
    return TruncatedSeries(ctx, acc)
