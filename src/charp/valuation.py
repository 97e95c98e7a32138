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
term-order bound, computes f(t, P_d) modulo t^r, and raises d one support
index at a time.  That is the ladder's substitute_series at precision r,
over the sparse images of t and P_d, with every term product charged
against WALK_BUDGET (see series.Budget).  Below the cap only the dense ladder
certifies, so every certificate it gives is unchanged.  An image's own
order is read from the first cap indices where it may be nonzero: those
below the cap for an image without a support, and its support for a gap
stream, whose order may then lie at or past the cap.

Exhausting the cap raises instead of guessing when an image has no support
(a from-seed or t image), when the walk's next support index would pass
EXPONENT_LIMIT, which a nonzero image of an algebraic stream such as
geometric-gap(p^k) cannot always outrun and a kernel element never does,
or when the walk runs past WALK_BUDGET.  The error carries the highest
precision at which the image was seen to vanish.

Two embeddings are told apart constructively: if the image series first
differ at coefficient index i, the fraction x^i / (y - (a_0 + a_1 x + ...
+ a_i x^i)) built from the first stream's coefficients has nonnegative
value in the second ring and negative value in the first, so it lies in
exactly one of them.  Finding i and building that fraction reads only
stream coefficients, so it lives in streams (first_difference,
distinguishing_fraction), and this module re-exports it; only checking
which ring holds the fraction needs a valuation.
"""

from __future__ import annotations

import threading
from itertools import islice
from operator import mul

import numpy as np

from .errors import ContextMismatch, NotInRing, PrecisionExhausted, SizeBound
from .ffield import FieldContext, FieldElement
from .poly import EXPONENT_LIMIT, MultiPoly, RationalFn
from .series import Budget, TruncatedSeries, _Powers, substitute_series
from .streams import DEFAULT_PRECISION_CAP, SeriesStream, t_stream
# stream comparison needs no series; it lives in streams, and is also
# importable from here
from .streams import (distinguishing_fraction, first_difference,
                      fraction_construction_string)

INFINITY = float("inf")

START_PRECISION = 16

# Term products one certification may take past the cap.  The walk's cost
# is linear in them: on a 2-vCPU x86 VM, a walk refused at this budget took
# 0.04 s of CPU at p = 1048573, m = 3, and one refused at ten times it 0.55 s.
WALK_BUDGET = 200_000


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
        self._lock = threading.Lock()
        # realized prefixes of the images of x_2, ..., x_n; t is never stored
        self._realized = [np.zeros((0, ctx.m), dtype=np.int64)
                          for _ in self.streams[1:]]
        orders = []
        for i, s in enumerate(self.streams):
            orders.append(self._first_nonzero(i))
            if orders[-1] is None:
                raise ValueError(
                    f"stream {s.label!r} is zero at the first "
                    f"{precision_cap} indices where it may be nonzero; "
                    "refusing a zero image")
        self._orders = tuple(orders)  # exact t-adic orders of the images
        self._powers = [_Powers(ctx, k) for k in orders[1:]]

    # -- stream realization --------------------------------------------------

    def _prefix(self, i: int, n: int) -> np.ndarray:
        """At least n realized coefficients of stream i >= 1, grown by one
        realization call (see streams)."""
        arr = self._realized[i - 1]
        if arr.shape[0] >= n:
            return arr
        with self._lock:
            arr = self._realized[i - 1]
            start = arr.shape[0]
            if start >= n:
                return arr
            grown = np.concatenate([arr, self.streams[i].realize(start, n)])
            grown.setflags(write=False)
            self._realized[i - 1] = grown
            return grown

    def _first_nonzero(self, i: int):
        """Index of the first nonzero coefficient of image i among the first
        precision_cap indices where it may be nonzero, or None.  Without a
        support those are the indices below the cap; a gap stream's support
        gives an order at or past the cap exactly."""
        if i == 0:
            return 1 if self.precision_cap > 1 else None  # the image t
        stream = self.streams[i]
        oracle = stream.oracle
        at = islice(stream.indices(0, EXPONENT_LIMIT + 1), self.precision_cap)
        return next((k for k in at if oracle(k)), None)

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
        # per image: P_d, and its support from d on, headed by its next index
        terms = [{k: c for k in s.indices(0, d) if (c := s.oracle(k))}
                 for s in streams]
        supports = [s.support(d) for s in streams]
        heads = [next(support, INFINITY) for support in supports]
        budget = Budget(WALK_BUDGET)
        while True:
            r = min(heads, default=INFINITY)
            if r > EXPONENT_LIMIT:
                reason = "the series images may satisfy an algebraic relation"
                break
            images = [_sparse(self.ctx, y, r) for y in [{1: self.ctx.one}]
                      + terms]
            try:
                image = substitute_series(f, images, r, budget=budget)
            except SizeBound:
                reason = (f"certifying further takes more than {WALK_BUDGET} "
                          "term products")
                break
            v = image.order()
            if v is not None:
                return v, r, image.element_at(v)
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


def _sparse(ctx: FieldContext, terms: dict, n: int) -> TruncatedSeries:
    """The sparse series sum c t^k over {k: c} with every k below n, as
    known modulo t^n."""
    support = sorted(terms)
    rows = np.array([terms[k].coeffs for k in support], dtype=np.int64)
    return TruncatedSeries(ctx, rows.reshape(-1, ctx.m), support, n)
