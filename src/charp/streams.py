"""Coefficient streams: total, deterministic oracles for series coefficients.

A stream answers "what is the t^n coefficient" for any n, which lets the
valuation engine realize arbitrary prefixes on demand.  The builtin streams
have rapidly growing gap exponents (factorials, shifted factorials, powers)
or seeded pseudorandom coefficients; all are non-units (zero constant term)
and are flagged transcendental-by-assumption over the rational function
field in t.  Nothing here proves transcendence; the valuation engine's
precision-exhaustion error is the runtime signal that a relation might
exist.

A stream may also know its support.  The contract: `support(n)` yields,
in increasing order, every index at or above n whose coefficient is
nonzero, and it may yield indices whose coefficient is zero as well (a
perturbation that cancels a coefficient leaves its index in the support).
Every index it does not yield has coefficient 0.  The gap streams list
their exponents directly, `perturb` merges its index into its base's
support, and `from-seed` and `t` have none (`support` is None).  The
valuation engine walks the support to certify values past the precision
cap.

A stream realizes a block of its prefix in one call: `realize(start,
stop)` returns the residue rows of the coefficients at [start, stop), a
new (stop - start, m) int64 array, each row equal to the oracle's
coefficient there.  By default it asks the oracle only at the indices where
the coefficient may be nonzero, so a gap stream is realized at its support.
A from-seed stream hashes every index of the block as its oracle does and
reads the residues of all the digests at once, and a perturbation adds its
delta to its base's rows.

Two streams are compared here too, from their coefficients alone:
`first_difference` finds the first index where they disagree, and
`distinguishing_fraction` builds the fraction that separates their
embedding valuations (see valuation).  Only realizing a block needs numpy,
which it imports when called, so `dvr distinguish` on agreeing streams
never loads it.
"""

from __future__ import annotations

from heapq import merge
from itertools import islice, takewhile

from .errors import ContextMismatch, PolySyntaxError, StreamsAgree
from .ffield import FieldContext, FieldElement
from .poly import (EXPONENT_LIMIT, MultiPoly, RationalFn, format_monomial,
                   format_poly)

# Longest stream prefix a valuation realizes unless told otherwise.
DEFAULT_PRECISION_CAP = 4096


class SeriesStream:
    """Deterministic coefficient oracle with a descriptive label, and
    perhaps a support (see the module docstring).  Every stream is a
    non-unit: one with a_0 != 0 is refused."""

    __slots__ = ("ctx", "label", "oracle", "support",
                 "transcendental_assumed")

    def __init__(self, ctx: FieldContext, label: str, oracle,
                 transcendental_assumed: bool = False, support=None):
        self.ctx = ctx
        self.label = label
        self.oracle = oracle
        self.support = support
        self.transcendental_assumed = transcendental_assumed
        if self.coefficient(0):
            raise ValueError(f"stream {label!r} is a unit (a_0 != 0)")

    def coefficient(self, n: int) -> FieldElement:
        if n < 0:
            raise ValueError("coefficient index must be nonnegative")
        return self.oracle(n)

    def indices(self, start: int, stop: int):
        """The indices in [start, stop) whose coefficient may be nonzero,
        in increasing order: the support there, or all of them."""
        if self.support is None:
            return range(start, stop)
        return takewhile(lambda n: n < stop, self.support(start))

    def realize(self, start: int, stop: int):
        """The residue rows of the coefficients at [start, stop), asking
        the oracle only at indices(start, stop)."""
        import numpy as np  # only realizing needs arrays
        rows = np.zeros((stop - start, self.ctx.m), dtype=np.int64)
        at = list(self.indices(start, stop))
        if at:
            oracle = self.oracle
            rows[[k - start for k in at]] = [oracle(k).coeffs for k in at]
        return rows

    def __repr__(self):
        return f"SeriesStream({self.label!r})"


def t_stream(ctx: FieldContext) -> SeriesStream:
    """The identity image: the series t itself."""
    one, zero = ctx.one, ctx.zero

    def oracle(n):
        return one if n == 1 else zero

    return SeriesStream(ctx, "t", oracle)


def _exponent_set_stream(ctx, label, exponents):
    """Coefficient 1 exactly at the members of a set of positive integers;
    exponents(n) lists the members at or above n upward, and is both the
    support and the oracle's membership test."""
    one, zero = ctx.one, ctx.zero

    def oracle(n):
        return one if n >= 1 and next(exponents(n)) == n else zero

    return SeriesStream(ctx, label, oracle, transcendental_assumed=True,
                        support=exponents)


def _factorials(n: int):
    """The factorials 1, 2, 6, 24, ... at or above n, upward."""
    f, j = 1, 1
    while f < n:
        j += 1
        f *= j
    while True:
        yield f
        j += 1
        f *= j


def lacunary(ctx: FieldContext) -> SeriesStream:
    """Coefficient 1 exactly at the factorial exponents 1, 2, 6, 24, ..."""
    return _exponent_set_stream(ctx, "lacunary", _factorials)


def lacunary_shift(ctx: FieldContext, d: int) -> SeriesStream:
    """Coefficient 1 at the shifted factorial exponents j! + d."""
    if d < 0:
        raise ValueError("shift must be nonnegative")
    return _exponent_set_stream(
        ctx, f"lacunary-shift({d})",
        lambda n: (f + d for f in _factorials(n - d)))


def geometric_gap(ctx: FieldContext, b: int) -> SeriesStream:
    """Coefficient 1 at the exponents b, b^2, b^3, ..."""
    if b < 2:
        raise ValueError("gap base must be >= 2")

    def powers(n):
        v = b
        while v < n:
            v *= b
        while True:
            yield v
            v *= b

    return _exponent_set_stream(ctx, f"geometric-gap({b})", powers)


class _SeededStream(SeriesStream):
    """A from-seed stream, whose oracle hashes the index after `prefix`."""

    __slots__ = ("prefix",)

    def __init__(self, ctx, label, oracle, prefix):
        self.prefix = prefix
        super().__init__(ctx, label, oracle, transcendental_assumed=True)

    def realize(self, start: int, stop: int):
        """The block's rows from one digest per index, as the oracle takes
        them, read into residues all at once."""
        from ._kernels import low_digits
        prefix = self.prefix

        def digest(n):
            h = prefix.copy()
            h.update(b"%d" % n)
            return h.digest()

        rows = low_digits(b"".join(map(digest, range(start, stop))),
                          self.ctx.p, self.ctx.m)
        if start == 0:
            rows[:1] = 0
        return rows


def from_seed(ctx: FieldContext, seed: int) -> SeriesStream:
    """Pseudorandom coefficients derived per-index from a recorded seed.

    Each coefficient hashes (seed, n), so access is random-access and
    reproducible across processes; the constant coefficient is forced to 0.
    The hash of the text before n is taken once and copied per index.  The
    stream realizes a block from its digests in one vectorised pass.
    """
    import hashlib  # only seeded streams hash, so only they load it
    p, m = ctx.p, ctx.m
    prefix = hashlib.sha256(f"charp-stream:{seed}:".encode())

    def oracle(n):
        if n == 0:
            return ctx.zero
        digest = prefix.copy()
        digest.update(str(n).encode())
        value = int.from_bytes(digest.digest(), "big")
        residues = []
        for _ in range(m):
            residues.append(value % p)
            value //= p
        return FieldElement(ctx, tuple(residues))

    return _SeededStream(ctx, f"from-seed({seed})", oracle, prefix)


class _PerturbedStream(SeriesStream):
    """A stream with `delta` added to its `base`'s t^k coefficient."""

    __slots__ = ("base", "k", "delta")

    def __init__(self, base, k, delta, label, oracle, support):
        self.base, self.k, self.delta = base, k, delta
        super().__init__(base.ctx, label, oracle,
                         base.transcendental_assumed, support)

    def realize(self, start: int, stop: int):
        """The base's rows, with delta added at k."""
        rows = self.base.realize(start, stop)
        if start <= self.k < stop:
            row = rows[self.k - start]
            row[:] = (row + self.delta.coeffs) % self.ctx.p
        return rows


def _union(*supports):
    """The merged, increasing indices of increasing iterables, each once."""
    last = None
    for i in merge(*supports):
        if i != last:
            yield i
            last = i


def perturb(stream: SeriesStream, k: int, delta: FieldElement) -> SeriesStream:
    """Stream with delta added to the t^k coefficient; its support, if the
    base has one, is the base's with k merged in, and its realization the
    base's with delta added at k."""
    if k < 1:
        raise ValueError("perturbation index must be >= 1 (non-unit streams)")
    delta = stream.ctx.elem(delta)
    base, base_support = stream.oracle, stream.support

    def oracle(n):
        c = base(n)
        return c + delta if n == k else c

    def support(n):
        return _union(base_support(n), (k,) if k >= n else ())

    sign = "+" if str(delta) == "1" else f"+{delta}*"
    label = f"{stream.label}{sign}t^{k}" if k != 1 else \
        f"{stream.label}{sign}t"
    return _PerturbedStream(stream, k, delta, label, oracle,
                            None if base_support is None else support)


def builtin_streams(ctx: FieldContext) -> dict:
    """The named default catalog used by tests and documentation."""
    return {
        "lacunary": lacunary(ctx),
        "lacunary-shift(1)": lacunary_shift(ctx, 1),
        "geometric-gap(2)": geometric_gap(ctx, 2),
        "from-seed(7)": from_seed(ctx, 7),
        "from-seed(11)": from_seed(ctx, 11),
    }


_FACTORIES = {
    "lacunary": (lacunary, 0),
    "lacunary-shift": (lacunary_shift, 1),
    "geometric-gap": (geometric_gap, 1),
    "from-seed": (from_seed, 1),
    "t": (t_stream, 0),
}


def parse_stream_spec(text: str, ctx: FieldContext) -> SeriesStream:
    """Build a stream from a spec like `lacunary`, `from-seed(7)`,
    or `lacunary+t^3` (monomial perturbations, optional coefficient)."""
    spec = text.strip()
    # split off +t^k / -t^k / +c*t^k perturbation suffixes
    perturbations = []
    while True:
        cut = max(spec.rfind("+"), spec.rfind("-"))
        if cut <= 0:
            break
        tail = spec[cut + 1:].strip()
        sign = spec[cut]
        core = tail.replace(" ", "")
        if "t" not in core:
            break
        coeff_str, _, tpart = core.rpartition("t")
        coeff_str = coeff_str.rstrip("*")
        if tpart == "":
            k = 1
        elif tpart.startswith("^"):
            try:
                k = int(tpart[1:])
            except ValueError:
                raise PolySyntaxError(
                    f"bad perturbation exponent in {text!r}", cut)
        else:
            break
        coeff = 1 if coeff_str == "" else int(coeff_str)
        perturbations.append((k, coeff if sign == "+" else -coeff))
        spec = spec[:cut].strip()
    name, args = spec, []
    if "(" in spec:
        if not spec.endswith(")"):
            raise PolySyntaxError(f"unbalanced '(' in stream spec {text!r}", 0)
        name, argtext = spec[:-1].split("(", 1)
        args = [int(a) for a in argtext.split(",")] if argtext else []
    factory = _FACTORIES.get(name.strip())
    if factory is None:
        known = ", ".join(sorted(_FACTORIES))
        raise PolySyntaxError(
            f"unknown stream {name.strip()!r} (known: {known})", 0)
    fn, arity = factory
    if len(args) != arity:
        raise PolySyntaxError(
            f"stream {name.strip()!r} takes {arity} argument(s)", 0)
    stream = fn(ctx, *args) if args else fn(ctx)
    for k, coeff in reversed(perturbations):
        stream = perturb(stream, k, ctx.elem(coeff))
    return stream


def first_difference(stream_a: SeriesStream, stream_b: SeriesStream,
                     cap: int = DEFAULT_PRECISION_CAP) -> int:
    """Smallest index where the two streams disagree among the first cap
    indices where either may be nonzero; StreamsAgree if there is none.
    Those are the indices below the cap unless both streams have a
    support; then they are the first cap indices of the merged supports up
    to EXPONENT_LIMIT, since elsewhere both coefficients are 0."""
    if stream_a.ctx is not stream_b.ctx:
        raise ContextMismatch("streams over different fields")
    indices, below = range(cap), cap
    if stream_a.support is not None and stream_b.support is not None:
        below = EXPONENT_LIMIT + 1
        indices = list(islice(_union(stream_a.indices(0, below),
                                     stream_b.indices(0, below)), cap))
        if len(indices) == cap:
            below = max(indices, default=-1) + 1
    for n in indices:
        if stream_a.coefficient(n) != stream_b.coefficient(n):
            return n
    raise StreamsAgree(
        f"streams {stream_a.label!r} and {stream_b.label!r} agree below "
        f"index {below}")


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
    """Human-oriented rendering x^i/(y-a_1*x-...-a_i*x^i) of the separating
    fraction, written as constructed rather than in canonical term order."""
    ctx = stream_a.ctx
    pieces = ["y"] + [format_poly(MultiPoly.monomial(ctx, 1, (n,), a_n))
                      for n in stream_a.indices(0, i + 1)
                      if (a_n := stream_a.coefficient(n))]
    den = "-".join(pieces)
    num = format_monomial((i,), 1)
    return f"{num}/({den})" if len(pieces) > 1 else f"{num}/{den}"
