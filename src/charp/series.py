"""Truncated power series over F_{p^m} and polynomial-to-series substitution.

A TruncatedSeries knows its coefficients a_0..a_{N-1} exactly; nothing is
assumed about coefficients at or beyond the precision N.  It is dense, the
(N, m) array of every coefficient's residue row, or sparse: its support,
the sorted indices of its nonzero coefficients, and their rows.

Substitution and powers use characteristic p.  A variable sent to t only
shifts coefficients.  The p-th power of a series is its Frobenius stretch
sum a_i^p t^(ip), which needs no product, so a power Y^k costs one product
per nonzero base-p digit of k (plus binary powering of the digits).
Products take the form of their factors: dense factors go through
series_mul, sparse ones sum the products of their pairs of rows, each
charged, where a Budget is given, as one term product.  The dense form is
the valuation's precision ladder, the sparse one its support walk past the
cap (see valuation).  Powers are kept in a _Powers memo; a series handed
out by EmbeddingValuation.images carries the memo of its image, which
lives as long as the valuation, so a power is computed once per valuation,
not once per substitution.  Rows are multiplied by a field element and
stretched by the row kernels of charp._kernels, which the series product
uses too, and a dense substitution reduces its sum once.
"""

from __future__ import annotations

import threading

import numpy as np

from ._kernels import frobenius_rows, scale, scalings, series_mul
from .errors import ContextMismatch, PrecisionMismatch, SizeBound
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


class Budget:
    """Term products that sparse series arithmetic may still take.

    A sparse product is charged its pairs of rows below the precision, a
    sparse Frobenius stretch its rows, and each monomial group of a sparse
    substitution its product's rows once per term.  The charge that runs
    past the budget raises SizeBound.
    """

    def __init__(self, products: int):
        self.left = products

    def charge(self, products: int):
        self.left -= products
        if self.left < 0:
            raise SizeBound("sparse series arithmetic ran past its budget")


class TruncatedSeries:
    """Exact series prefix modulo t^precision; coefficients are immutable.

    Dense, `support` is None and `coeffs` the (precision, m) array of every
    coefficient; sparse, `support` holds the indices of the nonzero
    coefficients, increasing and below the precision, and `coeffs` their
    rows.  `powers` is the _Powers memo of the dense series this one is a
    prefix of, or None; EmbeddingValuation.images sets it.
    """

    __slots__ = ("ctx", "precision", "support", "coeffs", "powers")

    def __init__(self, ctx: FieldContext, coeffs: np.ndarray, support=None,
                 precision: int = None):
        self.ctx = ctx
        arr = np.ascontiguousarray(coeffs, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != ctx.m:
            raise ValueError("coefficient array must have shape (N, m)")
        arr.setflags(write=False)
        if support is None:
            precision = arr.shape[0]
        else:
            support = np.asarray(support, dtype=np.int64)
            if (precision is None or support.shape != arr.shape[:1]
                    or (support.size
                        and not 0 <= support[0] <= support[-1] < precision)
                    or (support[1:] <= support[:-1]).any()
                    or not arr.any(axis=1).all()):
                raise ValueError(
                    "a sparse series needs a precision and, for each of its "
                    "nonzero rows, an index below it, increasing")
        self.coeffs, self.support, self.precision = arr, support, precision
        self.powers = None

    def element_at(self, i: int) -> FieldElement:
        if not 0 <= i < self.precision:
            raise IndexError("coefficient index beyond known precision")
        if self.support is not None:
            j = int(self.support.searchsorted(i))
            if j == self.support.size or self.support[j] != i:
                return self.ctx.zero
            i = j
        return FieldElement(self.ctx, tuple(int(v) for v in self.coeffs[i]))

    def order(self):
        """Index of the first nonzero coefficient, or None if all N vanish."""
        if self.support is not None:
            return int(self.support[0]) if self.support.size else None
        nz = np.nonzero(self.coeffs.any(axis=1))[0]
        if nz.size == 0:
            return None
        return int(nz[0])


def _cut(x, n: int):
    """x modulo t^n, in its form: dense rows or a sparse pair."""
    if isinstance(x, tuple):
        k = x[0].searchsorted(n)
        return x[0][:k], x[1][:k]
    return x[:n]


def _dense(x, n: int, m: int) -> np.ndarray:
    """A sparse pair modulo t^n, as dense rows."""
    support, rows = _cut(x, n)
    out = np.zeros((n, m), dtype=np.int64)
    out[support] = rows
    return out


def _is_t(x, n: int) -> bool:
    """Whether x, in either form, is exactly the series t modulo t^n."""
    rows = x[1] if isinstance(x, tuple) else x
    if n < 2:
        return not rows.any()
    head = _dense(x, 2, rows.shape[1]) if isinstance(x, tuple) else x
    return head[1, 0] == 1 and np.count_nonzero(rows) == 1


def _collect(ctx: FieldContext, pieces):
    """The sparse pair summing (support, rows) pieces, without zero rows."""
    if not pieces:
        return (np.zeros(0, dtype=np.int64),
                np.zeros((0, ctx.m), dtype=np.int64))
    support, at = np.unique(np.concatenate([s for s, _ in pieces]),
                            return_inverse=True)
    out = np.zeros((support.size, ctx.m), dtype=np.int64)
    np.add.at(out, at, np.concatenate([rows for _, rows in pieces]))
    out %= ctx.p
    keep = out.any(axis=1)
    return support[keep], out[keep]


def _mul(ctx: FieldContext, a, b, n: int, budget):
    """a * b modulo t^n in the form of a and b: series_mul for dense rows,
    and for sparse pairs the sum over their pairs of rows below t^n."""
    if not isinstance(a, tuple):
        return series_mul(a, b, ctx.scaling_array, ctx.p, n)
    if a[0].size > b[0].size:
        a, b = b, a
    (ae, ar), (be, br) = a, b
    lims = be.searchsorted(n - ae).tolist()
    if budget is not None:
        budget.charge(sum(lims))
    matrices = scalings(ctx.scaling_array, ctx.p, ar)
    return _collect(ctx, [(be[:lim] + i, scale(br[:lim], matrix) % ctx.p)
                          for i, matrix, lim in zip(ae.tolist(), matrices,
                                                    lims) if lim])


def _stretch(ctx: FieldContext, x, n: int, budget):
    """sum a_i t^i -> sum a_i^p t^(ip) modulo t^n, from x modulo
    t^ceil(n/p), in the form of x."""
    if isinstance(x, tuple):
        if budget is not None:
            budget.charge(x[0].size)
        return x[0] * ctx.p, frobenius_rows(ctx, x[1])
    out = np.zeros((n, ctx.m), dtype=np.int64)
    out[::ctx.p] = frobenius_rows(ctx, x)
    return out


class _Powers:
    """Powers Y^k of one series Y, each exact modulo t^(its length).

    A power takes the form of the Y it is asked of.  One already known to
    a higher precision is truncated; one known only to a lower precision
    is recomputed and replaces it.  A dense power with fewer than 1/8
    nonzero rows, the share below which series_mul walks rows instead of
    convolving a small product, is stored as a sparse pair.  Every power a
    substitution computes is stored while it runs; when it is done, trim()
    empties the memo if it holds more than MEMO_ROWS rows.
    Entries are replaced whole under a lock, so concurrent callers only
    ever find exact entries, perhaps too short ones.

    In characteristic p, (sum a_i t^i)^p = sum a_i^p t^(ip): the p-th power
    of a series is a Frobenius stretch, which costs no product.  Hence
    Y^k = Y^(k mod p) * stretch(Y^(k div p)), where the stretched factor is
    needed only modulo t^ceil(n/p).  Y^k takes one product per nonzero
    base-p digit of k, plus the binary powering of the digits, and each
    digit after the lowest is handled at a p-fold lower precision.
    """

    def __init__(self, ctx: FieldContext, order):
        self.ctx = ctx
        self.order = order  # the exact t-adic order of Y, None for Y = 0
        self.entries: dict = {}  # k -> (length, dense rows or sparse pair)
        self.rows = 0  # rows stored over all entries
        self._lock = threading.Lock()

    def power(self, base, k: int, n: int, budget: Budget = None):
        """Y^k modulo t^n for k >= 1, or None where it vanishes; base holds
        at least the first n coefficients of Y, as dense rows or a sparse
        pair, and the power takes its form.  Sparse products and stretches
        are charged to budget, if given."""
        if self.order is None or k * self.order >= n:
            return None
        if k == 1:
            return _cut(base, n)
        entry = self.entries.get(k)
        if entry is not None and entry[0] >= n:
            known = entry[1]
            if isinstance(known, tuple) and not isinstance(base, tuple):
                return _dense(known, n, self.ctx.m)
            return _cut(known, n)
        ctx, p = self.ctx, self.ctx.p
        if k < p:
            half = self.power(base, k // 2, n, budget)
            out = _mul(ctx, half, half, n, budget)
            if k & 1:
                out = _mul(ctx, out, _cut(base, n), n, budget)
        else:
            q, d = divmod(k, p)
            out = _stretch(ctx, self.power(base, q, -(-n // p), budget), n,
                           budget)
            if d:
                out = _mul(ctx, self.power(base, d, n, budget), out, n,
                           budget)
        self._store(k, n, out)
        return out

    def _store(self, k: int, n: int, out):
        if not isinstance(out, tuple):
            out.setflags(write=False)
            nonzero = np.flatnonzero(out.any(axis=1))
            if 8 * nonzero.size < n:
                out = nonzero, out[nonzero]
        rows = len(out[1]) if isinstance(out, tuple) else len(out)
        with self._lock:
            old = self.entries.get(k)
            if old is not None:
                if old[0] >= n:
                    return
                self.rows -= old[2]
            self.entries[k] = (n, out, rows)
            self.rows += rows

    def trim(self):
        """Empty the memo if it holds more than MEMO_ROWS rows."""
        with self._lock:
            if self.rows > MEMO_ROWS:
                self.entries.clear()
                self.rows = 0


def substitute_series(f: MultiPoly, images, precision: int, *,
                      budget: Budget = None) -> TruncatedSeries:
    """Image of f under x_i -> images[i], exact modulo t^precision.

    Every image must carry at least the requested precision; the result is
    a ring-homomorphic image truncated at t^precision, sparse where every
    image is sparse, and dense otherwise.

    An image that is exactly t turns its variable's exponent into a shift.
    Terms are grouped by their other exponents; each group costs one
    product D of image powers, and each of its terms c * t^a * D adds the
    rows of D, multiplied by c, a places down.  Terms with a >= precision
    drop out.  A term uses only D modulo t^(precision - a), so D and its
    powers are needed only modulo t^(precision - min a) over the group's
    terms; if D vanishes there, the whole group vanishes.  Powers come from
    the image's memo where it carries one (see _Powers), else from a memo
    for this call; each memo is trimmed once the call is done.  A dense
    sum is reduced once at the end, and earlier only where _unreduced_terms
    more terms could overflow it; a sparse one is collected once.  Sparse
    work is charged to budget, if given (see Budget).
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
    n, p, m = precision, ctx.p, ctx.m
    sparse = all(s.support is not None for s in images)
    bases = [s.coeffs[:n] if s.support is None
             else _cut((s.support, s.coeffs), n) if sparse
             else _dense((s.support, s.coeffs), n, m) for s in images]
    shifts = [_is_t(x, n) for x in bases]
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
    matrices = scalings(ctx.scaling_array, p, coeffs)
    limit, pending = _unreduced_terms(ctx), 0
    if sparse:
        one = np.zeros(1, dtype=np.int64), np.eye(1, m, dtype=np.int64)
        pieces = []
    else:
        acc = np.zeros((n, m), dtype=np.int64)
    for rest, terms in groups.items():
        need = n - min(a for a, _ in terms)
        prod = one if sparse else None  # the empty product, 1
        for j, e in enumerate(rest):
            if e:
                pw = powers[j].power(bases[j], e, need, budget)
                if pw is None:
                    break  # the whole group vanishes modulo t^n
                prod = pw if prod is None else _mul(ctx, prod, pw, need,
                                                    budget)
                if sparse and not prod[0].size:
                    break
        else:
            if sparse:
                if budget is not None:
                    budget.charge(prod[0].size * len(terms))
                for a, i in terms:
                    cut = prod[0].searchsorted(n - a)
                    pieces.append((prod[0][:cut] + a,
                                   scale(prod[1][:cut], matrices[i]) % p))
                continue
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
    if sparse:
        support, rows = _collect(ctx, pieces)
        return TruncatedSeries(ctx, rows, support, n)
    acc %= p
    return TruncatedSeries(ctx, acc)
