"""Discrete valuations on rational function fields via power-series embeddings.

Sending the first variable to t and the remaining variables to chosen
non-unit series embeds the polynomial ring into the formal power series
ring; the t-adic order then restricts to a discrete valuation on the
function field.  Computed orders are always certified: a reported value v
was observed at a truncation t^n with n > v, the first of one sequence of
rungs n at which the image of f does not vanish.

The rungs double up to a cap, over dense images.  No rung at or below a
lower bound is substituted: a term c * x^e has image order sum e_i *
ord(x_i), exactly, because a field has no zero divisors, so no truncation
at or below the least of these can certify anything.  Past the cap, if
every image other than t knows its support (see streams), the rungs are
the indices r of the merged supports past the cap and the bound.  Modulo
t^r an image equals P_r, its support terms below r, which changes only at
those indices; so such a rung is the ladder's substitute_series at
precision r over the sparse images of t and P_r, each term product charged
against one WALK_BUDGET (see series.Budget).  Below the cap every rung is
the dense ladder's, so every certificate it gives is unchanged.  An
image's own order is read from the first cap indices where it may be
nonzero: those below the cap for an image without a support, and its
support for a gap stream, whose order may then lie at or past the cap.

Running out of rungs raises instead of guessing: an image without a
support (a from-seed or t image) leaves none past the cap, and none lies
past EXPONENT_LIMIT, which a nonzero image of an algebraic stream such as
geometric-gap(p^k) cannot always outrun and a kernel element never does.
So does a rung past WALK_BUDGET.  The error carries the highest precision
at which the image was seen to vanish.

Every query reads one record, certify(r) = Certificate(value, precision,
lead), for a polynomial or a fraction.  Zero is decided once, by
structure: a zero numerator is (INFINITY, 0, None) and certifies nothing,
whatever its denominator.  A polynomial, or a fraction over 1, certifies
one part.  Any other fraction certifies its numerator, then its
denominator, and reads (v_num - v_den, the larger precision, lead_num /
lead_den).  valuate, valuate_rational, in_ring and residue read its fields.

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
from typing import NamedTuple

import numpy as np

from .errors import ContextMismatch, NotInRing, PrecisionExhausted, SizeBound
from .ffield import FieldContext, FieldElement
from .poly import EXPONENT_LIMIT, MultiPoly
from .series import Budget, TruncatedSeries, _Powers, substitute_series
from .streams import DEFAULT_PRECISION_CAP, SeriesStream, _union, t_stream
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


class Certificate(NamedTuple):
    """A certified value: value < precision, and lead is the leading
    coefficient of the image (the ratio of the parts' for a fraction); zero
    is (INFINITY, 0, None)."""
    value: object
    precision: int
    lead: FieldElement | None


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

    def _rungs(self, bound: int):
        """(precision, images, budget) of each rung above bound (see the
        module docstring): dense images without a budget up to the cap, and
        past it sparse ones, all charged to one Budget(WALK_BUDGET)."""
        n, cap = self.start_precision, self.precision_cap
        while True:
            if n > bound:
                yield n, self.images(n), None
            if n >= cap:
                break
            n = min(2 * n, cap)
        streams = self.streams[1:]
        if any(s.support is None for s in streams):
            return
        ctx, start, budget = self.ctx, max(cap, bound) + 1, Budget(WALK_BUDGET)
        # P_r of t and of each other image: its support indices below r
        # with a nonzero coefficient, and their rows, grown as r rises
        known = [([1], [ctx.one.coeffs])] + [([], []) for _ in streams]
        for r in _union(*(s.indices(0, EXPONENT_LIMIT + 1)
                          for s in streams)):
            if r >= start:
                yield r, [TruncatedSeries(
                    ctx, np.array(rows, dtype=np.int64).reshape(-1, ctx.m),
                    support, r) for support, rows in known], budget
            for s, (support, rows) in zip(streams, known[1:]):
                if c := s.oracle(r):
                    support.append(r)
                    rows.append(c.coeffs)

    def _certify(self, f: MultiPoly) -> Certificate:
        """The certificate of a nonzero polynomial, from the first rung where
        its image does not vanish; the bound is the least term order (see
        the module docstring)."""
        bound = min((sum(map(mul, exp, self._orders)) for exp in f.terms),
                    default=0)
        last = self.precision_cap
        reason = "the series images may satisfy an algebraic relation"
        for n, images, budget in self._rungs(bound):
            try:
                image = substitute_series(f, images, n, budget=budget)
            except SizeBound:
                if budget is None:
                    raise
                reason = (f"certifying further takes more than {WALK_BUDGET} "
                          "term products")
                break
            v = image.order()
            if v is not None:
                return Certificate(v, n, image.element_at(v))
            last = n
        raise PrecisionExhausted(
            f"image of {f} vanishes modulo t^{last}; {reason}", last)

    def certify(self, r) -> Certificate:
        """The certificate of a polynomial or a fraction (see the module
        docstring): zero certifies nothing, a polynomial or a fraction over
        1 certifies one part, any other fraction its numerator and then its
        denominator."""
        num, den = (r, None) if isinstance(r, MultiPoly) else (r.num, r.den)
        self._check_poly(num)
        if num.is_zero:
            return Certificate(INFINITY, 0, None)
        top = self._certify(num)
        if den is None or den.total_degree() == 0:  # a monic constant is 1
            return top
        bottom = self._certify(den)
        return Certificate(top.value - bottom.value,
                           max(top.precision, bottom.precision),
                           top.lead / bottom.lead)

    def valuate_with_certificate(self, f):
        """(value, certified precision) of certify(f)."""
        return self.certify(f)[:2]

    def valuate(self, f):
        return self.certify(f).value

    def valuate_rational(self, r):
        return self.certify(r).value

    def in_ring(self, r) -> bool:
        return self.certify(r).value >= 0

    def residue(self, r) -> FieldElement:
        """Image in the residue field; requires value >= 0.

        Elements of positive value reduce to 0; a value-0 element reduces to
        the ratio of the leading series coefficients, an element of the
        coefficient field (which is the whole residue field here).
        """
        value, _, lead = self.certify(r)
        if value < 0:
            raise NotInRing(f"value {value} < 0, not in the valuation ring")
        return self.ctx.zero if value else lead

    # -- helpers -------------------------------------------------------------

    def _check_poly(self, f: MultiPoly):
        if f.ctx is not self.ctx:
            raise ContextMismatch("polynomial over a different field")
        if f.nvars != self.nvars:
            raise ContextMismatch(
                f"valuation is on {self.nvars} variables, "
                f"polynomial has {f.nvars}")

    def __repr__(self):
        labels = ", ".join(s.label for s in self.streams)
        return f"EmbeddingValuation([{labels}], cap={self.precision_cap})"
