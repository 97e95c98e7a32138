"""Discrete valuations on rational function fields via power-series embeddings.

Sending the first variable to t and the remaining variables to chosen
non-unit series embeds the polynomial ring into the formal power series
ring; the t-adic order then restricts to a discrete valuation on the
function field.  Computed orders are always certified: a reported value v
was observed at a truncation strictly beyond v, with precision escalating
by doubling up to a cap.  The doubling starts above a lower bound that
needs no substitution: a term c * x^e has image order sum e_i * ord(x_i),
exactly, because a field has no zero divisors, so no truncation at or
below the least of these can certify anything.  Exhausting the cap raises
instead of guessing, since an everywhere-zero prefix may mean the chosen
series satisfy an algebraic relation.

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
from .poly import MultiPoly, RationalFn
from .series import TruncatedSeries, substitute_series
from .streams import DEFAULT_PRECISION_CAP, SeriesStream, t_stream

INFINITY = float("inf")

START_PRECISION = 16


def order(s: TruncatedSeries):
    """t-adic order of a truncated series: first nonzero index, or None
    (inconclusive) when all known coefficients vanish."""
    return s.order()


class EmbeddingValuation:
    """Valuation of k(x_1..x_n) induced by x_1 -> t, x_i -> stream_i.

    Realized stream prefixes are cached, except that of t, which costs
    nothing to build; the cache only ever grows, and extensions are
    serialized by a lock so concurrent readers always see a consistent
    prefix.
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

    # -- stream realization --------------------------------------------------

    def _prefix(self, i: int, n: int) -> np.ndarray:
        """At least n realized coefficients of stream i >= 1."""
        arr = self._realized[i - 1]
        if arr.shape[0] >= n:
            return arr
        with self._lock:
            arr = self._realized[i - 1]
            if arr.shape[0] >= n:
                return arr
            extra = np.zeros((n - arr.shape[0], self.ctx.m), dtype=np.int64)
            oracle = self.streams[i].oracle
            for idx in range(arr.shape[0], n):
                extra[idx - arr.shape[0], :] = oracle(idx).coeffs
            grown = np.concatenate([arr, extra], axis=0)
            grown.setflags(write=False)
            self._realized[i - 1] = grown
            return grown

    def _first_nonzero(self, i: int):
        if i == 0:
            return 1 if self.precision_cap > 1 else None  # the image t
        n = self.start_precision
        while True:
            arr = self._prefix(i, n)
            nz = np.nonzero(arr.any(axis=1))[0]
            if nz.size:
                return int(nz[0])
            if n >= self.precision_cap:
                return None
            n = min(2 * n, self.precision_cap)

    def images(self, precision: int) -> list:
        """Stream images at the given precision: t, built on demand, then
        the realized prefixes of the other streams."""
        t = np.zeros((precision, self.ctx.m), dtype=np.int64)
        if precision > 1:
            t[1, 0] = 1
        return [TruncatedSeries(self.ctx, t)] + [
            TruncatedSeries(self.ctx, self._prefix(i, precision)[:precision])
            for i in range(1, self.nvars)]

    # -- valuation -----------------------------------------------------------

    def _certify(self, f: MultiPoly):
        """(order, certified precision, image) with order < precision.

        The image of f has order at least the least term order, so it
        vanishes modulo t^n for every rung n at or below that bound; those
        rungs are passed without substituting.
        """
        bound = min((sum(map(mul, exp, self._orders)) for exp in f.terms),
                    default=0)
        n = self.start_precision
        while True:
            if n > bound:
                image = substitute_series(f, self.images(n), n)
                v = image.order()
                if v is not None:
                    return v, n, image
            if n >= self.precision_cap:
                raise PrecisionExhausted(
                    f"image of {f} vanishes modulo t^{n}; the series images "
                    "may satisfy an algebraic relation", n)
            n = min(2 * n, self.precision_cap)

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
        v_num, _, img_num = self._certify(r.num)
        v_den, _, img_den = self._certify(r.den)
        value = v_num - v_den
        if value < 0:
            raise NotInRing(f"value {value} < 0, not in the valuation ring")
        if value > 0:
            return self.ctx.zero
        return img_num.element_at(v_num) / img_den.element_at(v_den)

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


def first_difference(stream_a: SeriesStream, stream_b: SeriesStream,
                     cap: int = DEFAULT_PRECISION_CAP) -> int:
    """Smallest index where the two streams disagree; StreamsAgree if none
    exists below the cap."""
    if stream_a.ctx is not stream_b.ctx:
        raise ContextMismatch("streams over different fields")
    for n in range(cap):
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
    for n in range(i + 1):
        a_n = stream_a.coefficient(n)
        if a_n:
            den = den - MultiPoly.monomial(ctx, 2, (n, 0), a_n)
    return i, RationalFn(num, den)


def fraction_construction_string(stream_a: SeriesStream, i: int) -> str:
    """Human-oriented rendering x^i/(y-a_0-a_1*x-...) of the separating
    fraction, written as constructed rather than in canonical term order."""
    pieces = ["y"]
    for n in range(i + 1):
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
