"""Truncated power series over F_{p^m} and polynomial-to-series substitution.

A TruncatedSeries knows its coefficients a_0..a_{N-1} exactly; nothing is
assumed about coefficients at or beyond the precision N.  Arithmetic between
series of different precision truncates to the shorter one.

Substitution and powers use characteristic p.  A variable sent to t only
shifts coefficients.  The p-th power of a series is its Frobenius stretch
sum a_i^p t^(ip), which needs no product, so a power Y^k costs one dense
product per nonzero base-p digit of k (plus binary powering of the digits).
Powers are kept in a _Powers memo; a series handed out by
EmbeddingValuation.images carries the memo of its image, which lives as
long as the valuation, so a power is computed once per valuation, not once
per substitution.  Rows are multiplied by a field element and stretched
by the row kernels of charp._kernels, which the series product uses too,
and a substitution reduces its sum once.
"""

from __future__ import annotations

import threading

import numpy as np

from ._kernels import frobenius_rows, scale, scalings, series_mul
from .errors import ContextMismatch, PrecisionMismatch
from .ffield import FieldContext, FieldElement
from .poly import MultiPoly

# Rows a _Powers memo may keep between substitutions (see _Powers.trim).
# With sparse powers stored as their nonzero rows, the 96 warm images of the
# perfbench valuate workload (cap 4096, exponents up to 6) held at most 4886
# rows each, 1.8 MB in all, after 10000 ops (one 30-second run on a 2-vCPU
# x86 VM).  The bound is over three times that, 0.4 MB at m = 3, so such a
# memo is never emptied, while an image asked for many distinct exponents,
# such as those of (y-x^3)^500, does not keep hundreds of powers alive.
MEMO_ROWS = 1 << 14


def _unreduced_terms(ctx: FieldContext) -> int:
    """How many scaled rows (see _kernels.scale) a sum of reduced rows can take
    before it must be reduced to stay below 2^63."""
    return max(1, (2 ** 63 - ctx.p) // (ctx.m * (ctx.p - 1) ** 2))


class TruncatedSeries:
    """Dense exact series prefix; coefficients are an immutable (N, m) array.

    `powers` is the _Powers memo of the series this one is a prefix of, or
    None; EmbeddingValuation.images sets it, and it takes no part in
    equality or hashing.
    """

    __slots__ = ("ctx", "precision", "coeffs", "powers")

    def __init__(self, ctx: FieldContext, coeffs: np.ndarray):
        self.ctx = ctx
        arr = np.ascontiguousarray(coeffs, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != ctx.m:
            raise ValueError("coefficient array must have shape (N, m)")
        arr.setflags(write=False)
        self.coeffs = arr
        self.precision = arr.shape[0]
        self.powers = None

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
                         self.ctx.scaling_array, self.ctx.p, n)
        return TruncatedSeries(self.ctx, out)

    def scale(self, coeff: FieldElement) -> "TruncatedSeries":
        ctx = self.ctx
        matrix = scalings(ctx.scaling_array, ctx.p, ctx.elem(coeff).coeffs)[0]
        return TruncatedSeries(ctx, scale(self.coeffs, matrix) % ctx.p)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative series power")
        if k == 0:
            return TruncatedSeries.one(self.ctx, self.precision)
        out = _Powers(self.ctx, self.order()).power(
            self.coeffs, k, self.precision)
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


class _Powers:
    """Powers Y^k of one series Y, each exact modulo t^(its length).

    A power already known to a higher precision is truncated; one known
    only to a lower precision is recomputed and replaces it.  A power with
    fewer than 1/8 nonzero rows, the share below which series_mul walks
    rows instead of convolving a small product, is stored as those rows.
    Every power a substitution computes is stored while it runs; when it
    is done, trim() empties the memo if it holds more than MEMO_ROWS
    rows.
    Entries are replaced whole under a lock, so concurrent callers only
    ever find exact entries, perhaps too short ones.

    In characteristic p, (sum a_i t^i)^p = sum a_i^p t^(ip): the p-th power
    of a series is a Frobenius stretch, which costs no product.  Hence
    Y^k = Y^(k mod p) * stretch(Y^(k div p)), where the stretched factor is
    needed only modulo t^ceil(n/p).  Y^k takes one dense product per nonzero
    base-p digit of k, plus the binary powering of the digits, and each
    digit after the lowest is handled at a p-fold lower precision.
    """

    def __init__(self, ctx: FieldContext, order):
        self.ctx = ctx
        self.order = order  # the exact t-adic order of Y, None for Y = 0
        self.entries: dict = {}  # k -> (length, nonzero rows or None, rows)
        self.rows = 0  # rows stored over all entries
        self._lock = threading.Lock()

    def power(self, base: np.ndarray, k: int, n: int):
        """Y^k modulo t^n for k >= 1, or None where it vanishes; base holds
        at least the first n coefficients of Y."""
        if self.order is None or k * self.order >= n:
            return None
        if k == 1:
            return base[:n]
        entry = self.entries.get(k)
        if entry is not None and entry[0] >= n:
            return _unpack(entry, n, self.ctx.m)
        p, table = self.ctx.p, self.ctx.scaling_array
        if k < p:
            half = self.power(base, k // 2, n)
            out = series_mul(half, half, table, p, n)
            if k & 1:
                out = series_mul(out, base[:n], table, p, n)
        else:
            q, d = divmod(k, p)
            out = self._stretch(self.power(base, q, -(-n // p)), n)
            if d:
                out = series_mul(self.power(base, d, n), out, table, p, n)
        out.setflags(write=False)
        self._store(k, out)
        return out

    def _store(self, k: int, out: np.ndarray):
        n = out.shape[0]
        nonzero = np.flatnonzero(out.any(axis=1))
        if 8 * nonzero.size < n:
            entry = (n, nonzero, out[nonzero])
        else:
            entry = (n, None, out)
        with self._lock:
            old = self.entries.get(k)
            if old is not None:
                if old[0] >= n:
                    return
                self.rows -= old[2].shape[0]
            self.entries[k] = entry
            self.rows += entry[2].shape[0]

    def trim(self):
        """Empty the memo if it holds more than MEMO_ROWS rows."""
        with self._lock:
            if self.rows > MEMO_ROWS:
                self.entries.clear()
                self.rows = 0

    def _stretch(self, s: np.ndarray, n: int) -> np.ndarray:
        """sum a_i t^i -> sum a_i^p t^(ip) modulo t^n, from the first
        ceil(n/p) coefficients."""
        out = np.zeros((n, self.ctx.m), dtype=np.int64)
        out[::self.ctx.p] = frobenius_rows(self.ctx, s)
        return out


def _unpack(entry, n: int, m: int) -> np.ndarray:
    """A stored power (see _Powers) modulo t^n, as a dense array."""
    _, nonzero, rows = entry
    if nonzero is None:
        return rows[:n]
    out = np.zeros((n, m), dtype=np.int64)
    cut = np.searchsorted(nonzero, n)
    out[nonzero[:cut]] = rows[:cut]
    return out


def substitute_series(f: MultiPoly, images, precision: int) -> TruncatedSeries:
    """Image of f under x_i -> images[i], exact modulo t^precision.

    Every image must carry at least the requested precision; the result is
    a ring-homomorphic image truncated at t^precision.

    An image that is exactly t turns its variable's exponent into a shift.
    Terms are grouped by their other exponents; each group costs one dense
    product D of image powers, and each of its terms c * t^a * D adds the
    rows of D, multiplied by c, a places down.  Terms with a >= precision
    drop out.  A term uses only D modulo t^(precision - a), so D and its
    powers are needed only modulo t^(precision - min a) over the group's
    terms; if D vanishes there, the whole group vanishes.  Powers come from
    the image's memo where it carries one (see _Powers), else from a memo
    for this call; each memo is trimmed once the call is done.  The sum is
    reduced once at the end, and earlier only where _unreduced_terms more
    terms could overflow it.
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
    coeffs = []
    for exp, coeff in f.terms.items():
        a = sum(e for e, is_t in zip(exp, shifts) if is_t)
        if a < n:
            rest = tuple(0 if is_t else e for e, is_t in zip(exp, shifts))
            groups.setdefault(rest, []).append((a, len(coeffs)))
            coeffs.append(coeff.coeffs)
    powers = [None if is_t else s.powers if s.powers is not None
              else _Powers(ctx, s.order())
              for s, is_t in zip(images, shifts)]
    table = ctx.scaling_array
    matrices = scalings(table, p, coeffs)
    limit, pending = _unreduced_terms(ctx), 0
    acc = np.zeros((n, ctx.m), dtype=np.int64)
    for rest, terms in groups.items():
        need = n - min(a for a, _ in terms)
        prod = None  # the empty product, 1
        for j, e in enumerate(rest):
            if e:
                pw = powers[j].power(arrs[j], e, need)
                if pw is None:
                    break  # the whole group vanishes modulo t^n
                prod = pw if prod is None else series_mul(
                    prod, pw, table, p, need)
        else:
            for a, i in terms:
                if pending == limit:
                    acc %= p
                    pending = 0
                if prod is None:
                    acc[a] += coeffs[i]
                else:
                    acc[a:] += scale(prod[:n - a], matrices[i])
                pending += 1
    for memo in powers:
        if memo is not None:
            memo.trim()
    acc %= p
    return TruncatedSeries(ctx, acc)
