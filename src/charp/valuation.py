"""Discrete valuations on rational function fields via power-series embeddings.

Sending the first variable to t and the remaining variables to chosen
non-unit series embeds the polynomial ring into the formal power series
ring; the t-adic order then restricts to a discrete valuation on the
function field.  Computed orders are always certified: a reported value v
was observed at a truncation strictly beyond v, with precision escalating
by doubling up to a cap.  The doubling starts above a lower bound that
needs no substitution: a term c * x^e has image order sum e_i * ord(x_i),
exactly, because a field has no zero divisors, so no truncation at or
below the least of these can certify anything.

Past the cap, images that know their support (see streams) are walked
instead.  Write each non-t image as s = P_d + R_d, with P_d its support
terms below d, and let r be the least support index at or above d over all
images.  Every term of f(t, s) - f(t, P_d) holds a factor R_d, so it has
order at least r: if the exact polynomial f(t, P_d) is nonzero modulo t^r,
its order is v(f), its lowest coefficient is exact, and r is the certified
precision.  The walk starts at the first r above both the cap and the
term-order bound, computes f(t, P_d) modulo t^r with sparse products, and
raises d one support index at a time.  Below the cap only the dense ladder
certifies, so every certificate it gives is unchanged.

Exhausting the cap raises instead of guessing when an image has no support
(a from-seed or t image), when the walk's next support index would pass
EXPONENT_LIMIT, which a nonzero image of an algebraic stream such as
geometric-gap(p^k) cannot always outrun and a kernel element never does,
or when the walk's term products run past WALK_BUDGET.  The error carries
the highest precision at which the image was seen to vanish.

Two embeddings are told apart constructively: if the image series first
differ at coefficient index i, the fraction x^i / (y - (a_0 + a_1 x + ...
+ a_i x^i)) built from the first stream's coefficients has nonnegative
value in the second ring and negative value in the first, so it lies in
exactly one of them.
"""

from __future__ import annotations

import threading
from operator import mul

import numpy as np

from .errors import (ContextMismatch, NotInRing, PrecisionExhausted,
                     StreamsAgree)
from .ffield import FieldContext, FieldElement
from .poly import EXPONENT_LIMIT, MultiPoly, RationalFn
from .series import (TruncatedSeries, _Powers, _scale, _scalings,
                     substitute_series)
from .streams import DEFAULT_PRECISION_CAP, SeriesStream, t_stream

INFINITY = float("inf")

START_PRECISION = 16

# Term products one certification may take past the cap.  The walk's cost
# is linear in them: on a 2-vCPU x86 VM, a walk refused at this budget took
# 0.04 s of CPU at p = 1048573, m = 3, and one refused at ten times it 0.55 s.
WALK_BUDGET = 200_000


def order(s: TruncatedSeries):
    """t-adic order of a truncated series: first nonzero index, or None
    (inconclusive) when all known coefficients vanish."""
    return s.order()


class EmbeddingValuation:
    """Valuation of k(x_1..x_n) induced by x_1 -> t, x_i -> stream_i.

    Realized stream prefixes are cached, except that of t, which costs
    nothing to build; the cache only ever grows, and extensions are
    serialized by a lock so concurrent readers always see a consistent
    prefix.  Each image other than t also keeps a _Powers memo of its
    powers for the valuation's life, bounded by series.MEMO_ROWS; the
    series images() hands out carry it, so every certification on this
    valuation shares it.
    """

    def __init__(self, ctx: FieldContext, streams,
                 precision_cap: int = DEFAULT_PRECISION_CAP):
        if precision_cap < 1:
            raise ValueError("precision cap must be positive")
        self.ctx = ctx
        self.streams = (t_stream(ctx),) + tuple(streams)
        self.nvars = len(self.streams)
        self.precision_cap = precision_cap
        self.start_precision = min(START_PRECISION, precision_cap)
        for s in self.streams:
            if not isinstance(s, SeriesStream):
                raise TypeError("images must be SeriesStream instances")
            if s.ctx is not ctx:
                raise ContextMismatch("stream over a different field")
            if s.coefficient(0):
                raise ValueError(
                    f"stream {s.label!r} is a unit (a_0 != 0)")
        self._lock = threading.Lock()
        # realized prefixes of the images of x_2, ..., x_n; t is never stored
        self._realized = [np.zeros((0, ctx.m), dtype=np.int64)
                          for _ in self.streams[1:]]
        orders = []
        for i, s in enumerate(self.streams):
            orders.append(self._first_nonzero(i))
            if orders[-1] is None:
                raise ValueError(
                    f"stream {s.label!r} has no nonzero coefficient below "
                    f"the cap {precision_cap}; refusing a zero image")
        self._orders = tuple(orders)  # exact t-adic orders of the images
        self._powers = [_Powers(ctx, k) for k in orders[1:]]

    # -- stream realization --------------------------------------------------

    def _prefix(self, i: int, n: int) -> np.ndarray:
        """At least n realized coefficients of stream i >= 1; the oracle is
        asked only at the indices where the coefficient may be nonzero."""
        arr = self._realized[i - 1]
        if arr.shape[0] >= n:
            return arr
        with self._lock:
            arr = self._realized[i - 1]
            start = arr.shape[0]
            if start >= n:
                return arr
            stream = self.streams[i]
            oracle = stream.oracle
            at = list(stream.indices(start, n))
            grown = np.zeros((n, self.ctx.m), dtype=np.int64)
            grown[:start] = arr
            if at:
                grown[at] = [oracle(k).coeffs for k in at]
            grown.setflags(write=False)
            self._realized[i - 1] = grown
            return grown

    def _first_nonzero(self, i: int):
        """Index of the first nonzero coefficient of image i below the cap,
        or None."""
        if i == 0:
            return 1 if self.precision_cap > 1 else None  # the image t
        stream = self.streams[i]
        oracle = stream.oracle
        return next((k for k in stream.indices(0, self.precision_cap)
                     if oracle(k)), None)

    def images(self, precision: int) -> list:
        """Stream images at the given precision: t, built on demand, then
        the realized prefixes of the other streams, each carrying its
        image's power memo."""
        t = np.zeros((precision, self.ctx.m), dtype=np.int64)
        if precision > 1:
            t[1, 0] = 1
        out = [TruncatedSeries(self.ctx, t)]
        for i, powers in enumerate(self._powers, 1):
            s = TruncatedSeries(self.ctx,
                                self._prefix(i, precision)[:precision])
            s.powers = powers
            out.append(s)
        return out

    # -- valuation -----------------------------------------------------------

    def _certify(self, f: MultiPoly):
        """(order, certified precision, leading coefficient) with order <
        precision.

        The image of f has order at least the least term order, so it
        vanishes modulo t^n for every rung n at or below that bound; those
        rungs are passed without substituting.  Past the cap, the support
        walk takes over (see the module docstring).
        """
        bound = min((sum(map(mul, exp, self._orders)) for exp in f.terms),
                    default=0)
        n = self.start_precision
        while True:
            if n > bound:
                image = substitute_series(f, self.images(n), n)
                v = image.order()
                if v is not None:
                    return v, n, image.element_at(v)
            if n >= self.precision_cap:
                return self._walk(f, bound)
            n = min(2 * n, self.precision_cap)

    def _walk(self, f: MultiPoly, bound: int):
        """_certify past the cap, from f(t, P_d) modulo t^r."""
        last, streams = self.precision_cap, self.streams[1:]
        if any(s.support is None for s in streams):
            raise PrecisionExhausted(
                f"image of {f} vanishes modulo t^{last}; the series images "
                "may satisfy an algebraic relation", last)
        d = max(last, bound) + 1
        supports = [s.support(0) for s in streams]
        heads, terms = [], []  # per image: next support index >= d, P_d
        for s, support in zip(streams, supports):
            k, P = next(support, INFINITY), {}
            while k < d:
                c = s.oracle(k)
                if c:
                    P[k] = c
                k = next(support, INFINITY)
            heads.append(k)
            terms.append(P)
        sparse = _Sparse(self.ctx, WALK_BUDGET)
        while True:
            r = min(heads, default=INFINITY)
            if r > EXPONENT_LIMIT:
                reason = "the series images may satisfy an algebraic relation"
                break
            try:
                image = sparse.substitute(f, terms, r)
            except _OutOfBudget:
                reason = (f"certifying further takes more than {WALK_BUDGET} "
                          "term products")
                break
            exps, rows = image
            if exps.size:
                lead = FieldElement(self.ctx, tuple(map(int, rows[0])))
                return int(exps[0]), r, lead
            last = r
            for j, s in enumerate(streams):
                if heads[j] == r:
                    c = s.oracle(r)
                    if c:
                        terms[j][r] = c
                    heads[j] = next(supports[j], INFINITY)
        raise PrecisionExhausted(
            f"image of {f} vanishes modulo t^{last}; {reason}", last)

    def valuate_with_certificate(self, f: MultiPoly):
        """(value, certified precision); the zero polynomial has value
        infinity by structural inspection, never by precision loss."""
        self._check_poly(f)
        if f.is_zero:
            return INFINITY, 0
        v, n, _ = self._certify(f)
        return v, n

    def valuate(self, f: MultiPoly):
        return self.valuate_with_certificate(f)[0]

    def valuate_rational(self, r) -> object:
        r = self._as_rational(r)
        if r.num.is_zero:
            return INFINITY
        return self.valuate(r.num) - self.valuate(r.den)

    def in_ring(self, r) -> bool:
        return self.valuate_rational(r) >= 0

    def residue(self, r) -> FieldElement:
        """Image in the residue field; requires value >= 0.

        Elements of positive value reduce to 0; a value-0 element reduces to
        the ratio of the leading series coefficients, an element of the
        coefficient field (which is the whole residue field here).
        """
        r = self._as_rational(r)
        if r.num.is_zero:
            return self.ctx.zero
        v_num, _, lead_num = self._certify(r.num)
        v_den, _, lead_den = self._certify(r.den)
        value = v_num - v_den
        if value < 0:
            raise NotInRing(f"value {value} < 0, not in the valuation ring")
        if value > 0:
            return self.ctx.zero
        return lead_num / lead_den

    # -- helpers -------------------------------------------------------------

    def _check_poly(self, f: MultiPoly):
        if f.ctx is not self.ctx:
            raise ContextMismatch("polynomial over a different field")
        if f.nvars != self.nvars:
            raise ContextMismatch(
                f"valuation is on {self.nvars} variables, "
                f"polynomial has {f.nvars}")

    def _as_rational(self, r) -> RationalFn:
        if isinstance(r, MultiPoly):
            r = RationalFn.from_poly(r)
        self._check_poly(r.num)
        return r

    def __repr__(self):
        labels = ", ".join(s.label for s in self.streams)
        return f"EmbeddingValuation([{labels}], cap={self.precision_cap})"


def _truncate(s, n: int):
    """A sparse series (exponents, rows) modulo t^n."""
    cut = np.searchsorted(s[0], n)
    return s[0][:cut], s[1][:cut]


class _OutOfBudget(Exception):
    """The sparse products of one walk ran past their budget."""


class _Sparse:
    """Sparse series modulo t^n, each a pair of a sorted exponent array and
    its (k, m) array of residue rows: products, powers and substitution,
    each charged the term products it takes against a budget."""

    def __init__(self, ctx: FieldContext, budget: int):
        self.ctx = ctx
        self.left = budget

    def _charge(self, products: int):
        self.left -= products
        if self.left < 0:
            raise _OutOfBudget

    def series(self, terms: dict):
        """The pair for {exponent: FieldElement}."""
        exps = sorted(terms)
        rows = [terms[e].coeffs for e in exps]
        return (np.array(exps, dtype=np.int64),
                np.array(rows, dtype=np.int64).reshape(-1, self.ctx.m))

    def _scale(self, rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
        """Each row times the field element with that matrix (see
        series._scalings), reduced."""
        return _scale(rows, matrix) % self.ctx.p

    def _collect(self, exps: list, rows: list):
        """The sum of the given terms, without zero rows."""
        if not exps:
            return self.series({})
        exps, at = np.unique(np.concatenate(exps), return_inverse=True)
        out = np.zeros((exps.size, self.ctx.m), dtype=np.int64)
        np.add.at(out, at, np.concatenate(rows))
        out %= self.ctx.p
        keep = out.any(axis=1)
        return exps[keep], out[keep]

    def mul(self, a, b, n: int):
        """a * b modulo t^n, charged the term products below t^n."""
        if a[0].size > b[0].size:
            a, b = b, a
        (ae, ar), (be, br) = a, b
        lims = np.searchsorted(be, n - ae).tolist()
        self._charge(sum(lims))
        exps, rows = [], []
        for i, matrix, lim in zip(ae.tolist(), _scalings(self.ctx, ar), lims):
            if lim:
                exps.append(be[:lim] + i)
                rows.append(self._scale(br[:lim], matrix))
        return self._collect(exps, rows)

    def power(self, y, k: int, n: int, memo: dict):
        """y^k modulo t^n for k >= 1, memoized in memo as k -> (n, y^k).

        As for dense series, Y^k = Y^(k mod p) * F(Y^(k div p)) with F the
        Frobenius stretch, which needs Y^(k div p) only modulo t^ceil(n/p).
        """
        if not y[0].size or int(y[0][0]) * k >= n:
            return self.series({})
        known = memo.get(k)
        if known is not None and known[0] >= n:
            return _truncate(known[1], n)
        ctx = self.ctx
        if k == 1:
            out = _truncate(y, n)
        elif k < ctx.p:
            half = self.power(y, k // 2, n, memo)
            out = self.mul(half, half, n)
            if k & 1:
                out = self.mul(out, self.power(y, 1, n, memo), n)
        else:
            q, d = divmod(k, ctx.p)
            exps, rows = self.power(y, q, -(-n // ctx.p), memo)
            self._charge(exps.size)
            if ctx.m > 1:
                frobenius = np.array(ctx.frobenius_matrix(1), dtype=np.int64)
                rows = rows @ frobenius % ctx.p
            out = exps * ctx.p, rows
            if d:
                out = self.mul(self.power(y, d, n, memo), out, n)
        memo[k] = (n, out)
        return out

    def substitute(self, f: MultiPoly, images, n: int):
        """f(t, images) modulo t^n; terms are grouped by their exponents
        past x's, as in substitute_series."""
        groups: dict = {}
        for exp, c in f.terms.items():
            if exp[0] < n:
                groups.setdefault(exp[1:], []).append((exp[0], c))
        images = [self.series(y) for y in images]
        memos = [{} for _ in images]
        exps, rows = [], []
        for rest, group in groups.items():
            need = n - min(a for a, _ in group)
            prod = self.series({0: self.ctx.one})
            for y, e, memo in zip(images, rest, memos):
                if e and prod[0].size:
                    prod = self.mul(prod, self.power(y, e, need, memo), need)
            self._charge(prod[0].size * len(group))
            matrices = _scalings(self.ctx, [c.coeffs for _, c in group])
            for (a, _), matrix in zip(group, matrices):
                cut = np.searchsorted(prod[0], n - a)
                exps.append(prod[0][:cut] + a)
                rows.append(self._scale(prod[1][:cut], matrix))
        return self._collect(exps, rows)


def first_difference(stream_a: SeriesStream, stream_b: SeriesStream,
                     cap: int = DEFAULT_PRECISION_CAP) -> int:
    """Smallest index where the two streams disagree; StreamsAgree if none
    exists below the cap.  Where both streams have a support, only indices
    in one of them are compared: elsewhere both coefficients are 0."""
    if stream_a.ctx is not stream_b.ctx:
        raise ContextMismatch("streams over different fields")
    indices = range(cap)
    if stream_a.support is not None and stream_b.support is not None:
        indices = sorted({*stream_a.indices(0, cap),
                          *stream_b.indices(0, cap)})
    for n in indices:
        if stream_a.coefficient(n) != stream_b.coefficient(n):
            return n
    raise StreamsAgree(
        f"streams {stream_a.label!r} and {stream_b.label!r} agree below "
        f"index {cap}")


def distinguishing_fraction(stream_a: SeriesStream, stream_b: SeriesStream,
                            cap: int = DEFAULT_PRECISION_CAP):
    """(i, fraction) separating the two embedding valuations.

    i is the first index where the streams differ and the fraction is
    x^i / (y - (a_0 + a_1 x + ... + a_i x^i)) with a_n taken from stream_a;
    it lies in the valuation ring of stream_b but not in that of stream_a.
    """
    ctx = stream_a.ctx
    i = first_difference(stream_a, stream_b, cap)
    num = MultiPoly.monomial(ctx, 2, (i, 0))
    den = MultiPoly.variable(ctx, 2, 1)
    for n in stream_a.indices(0, i + 1):
        a_n = stream_a.coefficient(n)
        if a_n:
            den = den - MultiPoly.monomial(ctx, 2, (n, 0), a_n)
    return i, RationalFn(num, den)


def fraction_construction_string(stream_a: SeriesStream, i: int) -> str:
    """Human-oriented rendering x^i/(y-a_0-a_1*x-...) of the separating
    fraction, written as constructed rather than in canonical term order."""
    pieces = ["y"]
    for n in stream_a.indices(0, i + 1):
        a_n = stream_a.coefficient(n)
        if not a_n:
            continue
        cstr = str(a_n)
        if n == 0:
            mono = cstr
        else:
            xpart = "x" if n == 1 else f"x^{n}"
            if cstr == "1":
                mono = xpart
            elif "+" in cstr:
                mono = f"({cstr})*{xpart}"
            else:
                mono = f"{cstr}*{xpart}"
        pieces.append(mono)
    den = "-".join(pieces)
    numstr = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
    return f"{numstr}/({den})" if len(pieces) > 1 else f"{numstr}/{den}"
