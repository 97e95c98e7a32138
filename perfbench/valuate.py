"""`valuate`: warm embedding valuations, few terms, high precision.

Long-lived EmbeddingValuations are built in set-up, one per (p, m,
streams), and their streams are realized there.  Each timed op certifies
a distinct seeded polynomial or fraction whose value is known by
construction:

* the gap approximant A_j = y - sum_{i<j} x^(E_i) of a stream with
  coefficient 1 exactly at the exponents E_0 < E_1 < ... has value E_j and
  leading coefficient 1, so U * x^s * A_j^r has value s + r * E_j for any
  unit U (nonzero constant term), with leading coefficient U(0);
* with a third variable z sent to a dense from-seed series of order o,
  adding d * x^a * z^k gives value min(s + r * E_j, a + k * o) when the
  two differ;
* fractions of such elements go through valuate_rational (difference of
  values) and residue (ratio of leading coefficients at value 0, zero above
  it, NotInRing below it).

Fields are p in {2, 3, 5, 1048573} and m in {1, 2, 3}.  Each slot of the
op stream has a target cost drawn from a fixed, seed-independent sequence
that covers a geometric ladder evenly (see _slots), so op costs spread
smoothly with no gap around the median or the tail; the top of the ladder
certifies at precision 2048 or 4096, and each such op takes about 2% of a
30-second run on a 2-core x86 machine.  The (field, shape, stream) of each
slot cycles through every combination in a fixed order, so every seed runs
the same mix and a seed only changes the polynomials.  A slot takes the
unseen candidate whose modelled work (see `work`) is closest to its
target.
"""

from __future__ import annotations

import math
import random

from harness import Op

PRIMES = (2, 3, 5, 1048573)
DEGREES = (1, 2, 3)
GAP_STREAMS = (("lacunary",), ("geometric-gap", 2), ("geometric-gap", 3),
               ("geometric-gap", 5))
# 3-variable valuations: a gap stream for y and a dense from-seed z
THREE_VAR = ((("geometric-gap", 2), 7), (("lacunary",), 11))
SHAPES = ("approx", "approx3", "rational", "residue")
CAP = 4096
PRECISIONS = (64, 128, 256, 512, 1024, 2048, 4096)
# One round has LADDER_STEPS slots, one per step of a geometric ladder
# from LOW_UNITS to HIGH_UNITS, in units of one coefficient product (about
# a nanosecond each on a 2-core x86 machine), visited in a fixed shuffled
# order.  Each slot's target lies at a golden-ratio offset within its
# step, so targets cover the ladder evenly with no gaps.  A candidate
# certifying at precision P is drawn only where the target buys between
# MIN_PRODUCTS and MAX_PRODUCTS dense products at P.  A slot stops drawing
# at a candidate within TOLERANCE (a ratio) of its target, or after TRIES
# candidates.
LADDER_STEPS = 16
LOW_UNITS = 2e6
HIGH_UNITS = 6e8
MIN_PRODUCTS, MAX_PRODUCTS = 20, 300
CALL_UNITS = 160 * 160  # fixed cost of one product call
MAX_TERMS = 48
TOLERANCE = 1.1
TRIES = 40
GOLDEN = (math.sqrt(5) - 1) / 2


def gap_exponents(spec, limit):
    """The exponents below `limit` where the gap stream has coefficient 1."""
    if spec[0] == "lacunary":
        out, f, j = [], 1, 1
        while f < limit:
            out.append(f)
            j += 1
            f *= j
        return out
    b = spec[1]
    out, e = [], b
    while e < limit:
        out.append(e)
        e *= b
    return out


def stream_label(spec):
    return spec[0] if len(spec) == 1 else f"{spec[0]}({spec[1]})"


def work(exponents, nvars, value, dense_var, m):
    """Modelled cost of certifying a polynomial with these term exponents,
    in units of one coefficient product.

    Certification substitutes f at every precision n = 16, 32, ... up to
    the certified one.  Each substitution does memoized binary powers per
    variable, k - 1 products for a term in k variables and one scalar
    product per term; a dense product costs n^2 times the coefficient
    columns of its operands (m for the dense from-seed image, 1 for t and
    the gap streams), and every call CALL_UNITS more.  Only used to pick
    inputs of similar cost; the benchmark never checks it.
    """
    cached = [set() for _ in range(nvars)]
    dense = []  # column products of each dense series product

    def cols(var):
        return m if var == dense_var else 1

    def power(var, k):
        if k == 1 or k in cached[var]:
            return
        power(var, k // 2)
        dense.extend([cols(var) ** 2] * (1 + (k & 1)))
        cached[var].add(k)

    for exp in exponents:
        width = 0
        for var, e in enumerate(exp):
            if e:
                power(var, e)
                if width:
                    dense.append(width * cols(var))
                width = max(width, cols(var))
    calls = len(dense) + len(exponents)
    units, n = 0, 16
    while True:
        units += sum(dense) * n * n + calls * CALL_UNITS
        if n > value:
            return units
        n *= 2


def _unit(rng, ctx, nvars, MultiPoly):
    """A unit: nonzero constant plus up to two terms of positive value."""
    c0 = ctx.random_nonzero(rng)
    u = MultiPoly.const(ctx, nvars, c0)
    for _ in range(rng.randint(0, 2)):
        exp = [rng.randint(0, 2) for _ in range(nvars)]
        if not any(exp):
            exp[0] = 1
        u = u + MultiPoly.monomial(ctx, nvars, tuple(exp),
                                   ctx.random_nonzero(rng))
    return u, c0


class State:
    """Field contexts and warm valuations, keyed by (p, m, streams)."""

    def __init__(self, charp):
        self.charp = charp
        self.vals = {}
        self.seed_order = {}
        for p in PRIMES:
            for m in DEGREES:
                ctx = charp.make_context(p, m)
                gaps = {spec: charp.parse_stream_spec(stream_label(spec), ctx)
                        for spec in GAP_STREAMS}
                for spec, gap in gaps.items():
                    self._warm((p, m, spec), ctx, [gap])
                for spec, s in THREE_VAR:
                    dense = charp.from_seed(ctx, s)
                    self._warm((p, m, spec, s), ctx, [gaps[spec], dense])
                    self.seed_order[(p, m, s)] = next(
                        n for n in range(1, CAP) if dense.coefficient(n))

    def _warm(self, key, ctx, streams):
        V = self.charp.EmbeddingValuation(ctx, streams, precision_cap=CAP)
        V.images(CAP)
        # x^3 is never a timed input: timed polynomials all involve y
        V.valuate(self.charp.MultiPoly.monomial(ctx, V.nvars,
                                                (3,) + (0,) * len(streams)))
        self.vals[key] = V


def levels(target):
    """Certified precisions at which `target` buys between MIN_PRODUCTS and
    MAX_PRODUCTS dense products; never empty for targets on the ladder,
    since precisions a factor 2 apart differ by 4x in product cost."""
    return [n for n in PRECISIONS
            if MIN_PRODUCTS <= target / (4 * n * n / 3) <= MAX_PRODUCTS]


def _slots():
    """The fixed, seed-independent sequence of (p, m, shape, spec,
    target)."""
    combos = [(p, m, shape, spec) for p in PRIMES for m in DEGREES
              for shape in SHAPES
              for spec in (THREE_VAR if shape == "approx3" else GAP_STREAMS)]
    random.Random(0).shuffle(combos)
    steps = list(range(LADDER_STEPS))
    random.Random(0).shuffle(steps)
    span = math.log(HIGH_UNITS / LOW_UNITS) / LADDER_STEPS
    k = 0
    while True:
        for step in steps:
            jitter = (k * GOLDEN) % 1.0
            yield combos[k % len(combos)] + (
                LOW_UNITS * math.exp(span * (step + jitter)),)
            k += 1


class Generator:
    """Seeded op stream; the same seed always gives the same ops.

    Each shape method draws one candidate input and returns (key, cost,
    build), where build() makes the Op; only the accepted candidate is
    built.
    """

    def __init__(self, state: State, seed, stream="timed", seen=None):
        self.state = state
        self.charp = state.charp
        self.rng = random.Random(f"valuate:{seed}:{stream}")
        self.seen = set() if seen is None else seen
        self._powers = {}

    def __iter__(self):
        rng = self.rng
        for p, m, shape, spec, target in _slots():
            ctx = self.charp.make_context(p, m)
            make = getattr(self, "_" + shape)
            tops = levels(target)
            best, miss, tries = None, None, 0
            while tries < TRIES or best is None:
                tries += 1
                key, cost, build = make(ctx, spec, rng.choice(tops))
                if key is None or key in self.seen:
                    continue
                off = max(cost / target, target / cost)
                if best is None or off < miss:
                    best, miss = (key, build), off
                if off <= TOLERANCE:
                    break
            self.seen.add(best[0])
            yield best[1]()

    def _approximant_power(self, ctx, spec, nvars, j, r):
        """A_j^r, memoized: many candidates share it."""
        key = (ctx.p, ctx.m, spec, nvars, j, r)
        if key not in self._powers:
            MultiPoly = self.charp.MultiPoly
            a = MultiPoly.variable(ctx, nvars, 1)
            for e in gap_exponents(spec, CAP)[:j]:
                a = a - MultiPoly.monomial(ctx, nvars,
                                           (e,) + (0,) * (nvars - 1))
            self._powers[key] = a ** r
        return self._powers[key]

    def _element(self, ctx, spec, nvars, low, high):
        """A candidate U * x^s * A_j^r with value in [low, high): (value,
        U(0), term exponents, build) where build() makes the polynomial,
        or None when it has more than MAX_TERMS terms.  The exponents are
        those of the product before any cancellation, enough for `work`."""
        rng, MultiPoly = self.rng, self.charp.MultiPoly
        exps = gap_exponents(spec, high)
        j, r = rng.choice([(j, r) for j, e in enumerate(exps)
                           for r in (1, 2, 3, 4) if r * e < high])
        s = rng.randrange(max(0, low - r * exps[j]), high - r * exps[j])
        u, c0 = _unit(rng, ctx, nvars, MultiPoly)
        power = self._approximant_power(ctx, spec, nvars, j, r)
        terms = {(a[0] + b[0] + s,)
                 + tuple(x + y for x, y in zip(a[1:], b[1:]))
                 for a in u.terms for b in power.terms}
        if len(terms) > MAX_TERMS:
            return None

        def build():
            shift = MultiPoly.monomial(ctx, nvars, (s,) + (0,) * (nvars - 1))
            return u * shift * power
        return s + r * exps[j], c0, terms, build

    def _valuation(self, ctx, *key):
        return self.state.vals[(ctx.p, ctx.m) + key]

    def _approx(self, ctx, spec, top):
        got = self._element(ctx, spec, 2, top // 2, top)
        if got is None:
            return None, 0, None
        value, _, terms, poly = got
        V = self._valuation(ctx, spec)

        def build():
            f = poly()
            return Op("valuate.approx", (ctx.p, ctx.m, spec, f),
                      lambda: V.valuate_with_certificate(f),
                      _certificate_check(value, CAP))
        return ((ctx.p, ctx.m, spec, frozenset(terms), value),
                work(terms, 2, value, None, ctx.m), build)

    def _approx3(self, ctx, spec_seed, top):
        rng, MultiPoly = self.rng, self.charp.MultiPoly
        spec, s = spec_seed
        got = self._element(ctx, spec, 3, top // 2, top)
        order = self.state.seed_order[(ctx.p, ctx.m, s)]
        v_dense = rng.randrange(top // 2, top)
        k = rng.randint(1, min(6, v_dense // order))
        if got is None or v_dense == got[0]:
            return None, 0, None
        v_gap, _, terms, poly = got
        dense_exp = (v_dense - k * order, 0, k)
        d = ctx.random_nonzero(rng)
        value = min(v_gap, v_dense)
        V = self._valuation(ctx, spec, s)

        def build():
            f = poly() + MultiPoly.monomial(ctx, 3, dense_exp, d)
            return Op("valuate.approx3", (ctx.p, ctx.m, spec, s, f),
                      lambda: V.valuate_with_certificate(f),
                      _certificate_check(value, CAP))
        terms = terms | {dense_exp}
        return ((ctx.p, ctx.m, spec, s, frozenset(terms), value),
                work(terms, 3, value, 2, ctx.m), build)

    def _fraction(self, ctx, spec, low, high, den_range):
        """Numerator and denominator candidates, their key and joint cost."""
        num = self._element(ctx, spec, 2, low, high)
        if num is None:
            return None
        den = self._element(ctx, spec, 2, *den_range(num[0]))
        if den is None:
            return None
        key = (ctx.p, ctx.m, spec, frozenset(num[2]), num[0],
               frozenset(den[2]), den[0])
        cost = work(num[2], 2, num[0], None, ctx.m) + \
            work(den[2], 2, den[0], None, ctx.m)
        return num, den, key, cost

    def _rational(self, ctx, spec, top):
        got = self._fraction(ctx, spec, top // 2, top, lambda v: (1, top))
        if got is None:
            return None, 0, None
        (vf, _, _, num), (vg, _, _, den), key, cost = got
        V = self._valuation(ctx, spec)

        def build():
            f, g = num(), den()
            r = self.charp.RationalFn(f, g)
            want = vf - vg
            return Op("valuate.rational", (ctx.p, ctx.m, spec, f, g),
                      lambda: V.valuate_rational(r),
                      lambda got: None if got == want
                      else f"value {got}, expected {want}")
        return key, cost, build

    def _residue(self, ctx, spec, top):
        value = self.rng.choice((-1, 0, 0, 1))
        got = self._fraction(ctx, spec, top // 2, top,
                             lambda v: (v - value, v - value + 1))
        if got is None:
            return None, 0, None
        (_, cf, _, num), (_, cg, _, den), key, cost = got
        V = self._valuation(ctx, spec)

        def build():
            f, g = num(), den()
            r = self.charp.RationalFn(f, g)
            op_key = (ctx.p, ctx.m, spec, f, g)
            if value < 0:
                return Op("valuate.residue", op_key, lambda: V.residue(r),
                          expect=self.charp.NotInRing)
            want = cf / cg if value == 0 else ctx.zero
            return Op("valuate.residue", op_key, lambda: V.residue(r),
                      lambda got: None if got == want
                      else f"residue {got}, expected {want}")
        return key, cost, build


def _certificate_check(value, cap):
    def check(answer):
        got, cert = answer
        if got != value:
            return f"value {got}, expected {value}"
        if not got < cert <= cap:
            return f"certificate {cert} does not exceed value {got}"
        return None
    return check


class Workload:
    """The `valuate` workload for run.py."""

    limit_s = 10.0
    trace_ops = 3 * LADDER_STEPS
    children = False
    excluded = []

    def __init__(self, charp, root):
        self.charp = charp
        self.seen = set()

    def setup(self, seed):
        self.seen = set()
        return State(self.charp)

    def warmup(self, state, seed, in_process=False):
        """One round of ops disjoint from the timed ones (via `seen`)."""
        gen = iter(Generator(state, seed, "warmup", self.seen))
        return [next(gen) for _ in range(LADDER_STEPS)]

    def ops(self, state, seed, stream, in_process=True):
        return iter(Generator(state, seed, stream, self.seen))
