"""Certification against the reference ladder, which substitutes at every
rung: starting above the term-order lower bound changes no certificate,
no residue and no error.  Past the cap, where the reference raises, the
support walk must agree with the reference run at the precision the walk
saw: the same value and leading coefficient where the walk certifies, the
same exhaustion where it raises.  The reference substitutes without the
valuation's power memos, so one valuation answering a sequence of
polynomials checks that its memos never go stale.  Every query answers
what one certify record says, and certifies each part at most once."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charp.series
import charp.valuation
from charp.errors import CharpError, NotInRing, PrecisionExhausted
from charp.ffield import make_context
from charp.parser import parse_poly, parse_rational
from charp.poly import MultiPoly, RationalFn
from charp.series import Budget
from charp.streams import (from_seed, geometric_gap, lacunary,
                           lacunary_shift, parse_stream_spec, perturb)
from charp.valuation import INFINITY, WALK_BUDGET, EmbeddingValuation
from reference_valuation import certify, residue

FIELDS = [(p, m) for p in (2, 3, 5, 1048573) for m in (1, 2, 3)]
# Largest cap at which the tests run the dense reference ladder.
REFERENCE_CAP = 1 << 15


def outcome(fn, *args):
    """A call's result, or its error's type, message and precision."""
    try:
        return fn(*args)
    except PrecisionExhausted as exc:
        return type(exc), str(exc), exc.last_precision
    except CharpError as exc:
        return type(exc), str(exc)


@st.composite
def element(draw, ctx, nonzero=False):
    low = 1 if nonzero else 0
    coeffs = [draw(st.integers(low, ctx.p - 1))] + [
        draw(st.integers(0, ctx.p - 1)) for _ in range(ctx.m - 1)]
    return ctx.elem(coeffs)


@st.composite
def stream(draw, ctx, kinds=("lacunary", "shift", "gap", "seed")):
    """A gap or from-seed stream, perhaps perturbed."""
    kind = draw(st.sampled_from(kinds))
    if kind == "lacunary":
        s = lacunary(ctx)
    elif kind == "shift":
        s = lacunary_shift(ctx, draw(st.integers(0, 3)))
    elif kind == "gap":
        s = geometric_gap(ctx, draw(st.sampled_from([2, 3, 5])))
    else:
        s = from_seed(ctx, draw(st.integers(0, 99)))
    for _ in range(draw(st.integers(0, 2))):
        s = perturb(s, draw(st.integers(1, 40)),
                    draw(element(ctx, nonzero=True)))
    return s


@st.composite
def polynomial(draw, V):
    """Sparse terms, plus perhaps x^s * A^r for an approximant
    A = y - sum_{i<j} a_i x^i of y's image, whose value lies deep."""
    ctx, nvars = V.ctx, V.nvars
    exponent = st.one_of(st.integers(0, 6), st.integers(0, 300))
    terms = {tuple(draw(exponent) for _ in range(nvars)): draw(element(ctx))
             for _ in range(draw(st.integers(0, 3)))}
    f = MultiPoly.from_terms(ctx, nvars, terms)
    if draw(st.booleans()):
        x = MultiPoly.variable(ctx, nvars, 0)
        approx = MultiPoly.variable(ctx, nvars, 1)
        for i in range(draw(st.integers(0, 24))):
            approx = approx - MultiPoly.monomial(
                ctx, nvars, (i,) + (0,) * (nvars - 1),
                V.streams[1].coefficient(i))
        f = f + x ** draw(st.integers(0, 20)) * approx ** draw(
            st.integers(1, 2))
    return f


@st.composite
def valuations(draw, caps=st.integers(1, 256), **kinds):
    """(cap, streams) over a drawn field with 2 or 3 variables."""
    ctx = make_context(*draw(st.sampled_from(FIELDS)))
    streams = [draw(stream(ctx, **kinds))
               for _ in range(draw(st.integers(1, 2)))]
    return ctx, draw(caps), streams


def walks(V):
    """Whether certification goes on past the cap: every image after x's
    has a support."""
    return all(s.support is not None for s in V.streams[1:])


def failed(got):
    return isinstance(got, tuple) and isinstance(got[0], type)


def reach(got):
    """The precision a _certify outcome saw: its certificate, or the last
    precision at which the image was seen to vanish."""
    return got[2] if failed(got) else got[1]


def seen(got):
    """An outcome without a certificate: a value and leading coefficient, a
    residue, or an error.  A PrecisionExhausted keeps its type and precision
    but not its message, whose reason may differ between the walk and the
    reference; every other error keeps its message."""
    if failed(got):
        return got[:1] + got[2:] if got[0] is PrecisionExhausted else got
    return (got[0], got[2]) if isinstance(got, tuple) else got


def at_cap(V, cap):
    return EmbeddingValuation(V.ctx, V.streams[1:], precision_cap=cap)


def check_certify(V, f):
    """V._certify against the reference ladder, or past the cap against
    the reference at the precision the walk saw."""
    want = outcome(certify, V, f)
    if want[0] is PrecisionExhausted and walks(V):
        check_walk(V, f)
    elif failed(want):
        assert outcome(V._certify, f) == want
    else:
        assert outcome(V._certify, f) == \
            (want[0], want[1], want[2].element_at(want[0]))


def check_walk(V, f):
    """V._certify against the reference at the precision the walk saw."""
    got = outcome(V._certify, f)
    if not failed(got):
        assert got[0] < got[1]
    if reach(got) > REFERENCE_CAP:
        return
    want = outcome(certify, at_cap(V, reach(got)), f)
    if not failed(want):
        want = (want[0], want[1], want[2].element_at(want[0]))
    assert seen(got) == seen(want)


def check_residue(V, r):
    """V.residue against the reference, which, where it raises at V's cap,
    is run at the precision where the walk raised, or else at the larger
    of the two certificates."""
    got, want = outcome(V.residue, r), outcome(residue, V, r)
    if not (failed(want) and want[0] is PrecisionExhausted and walks(V)):
        assert got == want
        return
    if failed(got) and got[0] is PrecisionExhausted:
        cap = reach(got)
    else:
        cap = max(reach(outcome(V._certify, h)) for h in (r.num, r.den))
    if cap > REFERENCE_CAP:
        return
    assert seen(got) == seen(outcome(residue, at_cap(V, cap), r))


@settings(max_examples=200, deadline=None)
@given(valuations(), st.data())
def test_certify_matches_reference(case, data):
    ctx, cap, streams = case
    try:
        V = EmbeddingValuation(ctx, streams, precision_cap=cap)
    except ValueError:
        assert cap == 1 or any(
            not any(s.coefficient(i) for i in range(cap)) for s in streams)
        return
    f = data.draw(polynomial(V))
    check_certify(V, f)
    g = data.draw(polynomial(V))
    if g:
        check_residue(V, RationalFn(f, g))


@st.composite
def deep_polynomial(draw, V):
    """x^s * A^r, with A an approximant of y's image to a drawn support
    index, times a unit and plus sparse terms of degree 12 or more, so
    that the value often lies past a small cap."""
    ctx, nvars = V.ctx, V.nvars
    x = MultiPoly.variable(ctx, nvars, 0)
    approx = MultiPoly.variable(ctx, nvars, 1)
    stream = V.streams[1]
    for i in stream.indices(0, draw(st.integers(1, 800))):
        approx = approx - MultiPoly.monomial(
            ctx, nvars, (i,) + (0,) * (nvars - 1), stream.coefficient(i))
    unit = MultiPoly.const(ctx, nvars, draw(element(ctx, nonzero=True)))
    f = unit * x ** draw(st.integers(0, 40)) * approx ** draw(
        st.integers(1, 3))
    for _ in range(draw(st.integers(0, 2))):
        exp = tuple(draw(st.integers(0, 40)) for _ in range(nvars))
        if sum(exp) >= 12:
            f = f + MultiPoly.monomial(ctx, nvars, exp, draw(element(ctx)))
    return f


@settings(max_examples=150, deadline=None)
@given(valuations(caps=st.integers(2, 64),
                  kinds=("lacunary", "shift", "gap")), st.data())
def test_walk_matches_reference_past_the_cap(case, data):
    """One or two gap images and values deep past a small cap: the walk
    agrees with the reference ladder run at the walk's certificate, on
    polynomials and on residues of fractions."""
    ctx, cap, streams = case
    try:
        V = EmbeddingValuation(ctx, streams, precision_cap=cap)
    except ValueError:
        return
    f = data.draw(deep_polynomial(V))
    if f:
        check_walk(V, f)
    g = data.draw(deep_polynomial(V))
    if f and g:
        check_residue(V, RationalFn(f, g))


@st.composite
def ranged_polynomial(draw, V, high):
    """x^s * A^r plus terms of x-degree at least s, with A an approximant
    of y's image to at most 12 indices, so the value is at least s: s is
    at most 6 for a low value and in the hundreds for a high one."""
    ctx, nvars = V.ctx, V.nvars
    s = draw(st.integers(100, 700) if high else st.integers(0, 6))
    x = MultiPoly.variable(ctx, nvars, 0)
    approx = MultiPoly.variable(ctx, nvars, 1)
    for i in range(draw(st.integers(0, 12))):
        approx = approx - MultiPoly.monomial(
            ctx, nvars, (i,) + (0,) * (nvars - 1),
            V.streams[1].coefficient(i))
    f = MultiPoly.const(ctx, nvars, draw(element(ctx, nonzero=True))) * \
        x ** s * approx ** draw(st.integers(1, 2))
    for _ in range(draw(st.integers(0, 3))):
        exp = (s + draw(st.integers(0, 6)),) + tuple(
            draw(st.integers(0, 6)) for _ in range(nvars - 1))
        f = f + MultiPoly.monomial(ctx, nvars, exp, draw(element(ctx)))
    return f


@st.composite
def memo_cases(draw):
    """A valuation with a gap, perturbed or from-seed image and an image of
    order 17, in either order, and 3 to 6 polynomials or fractions whose
    values go low, high, then low again, so precisions rise and fall.  A
    drawn term can cancel the leading one, so denominators are drawn
    nonzero."""
    ctx = make_context(draw(st.sampled_from((2, 3, 5, 1048573))),
                       draw(st.integers(1, 3)))
    images = [draw(stream(ctx)), geometric_gap(ctx, 17)]
    V = EmbeddingValuation(ctx, draw(st.permutations(images)),
                           precision_cap=1024)
    highs = [False, True, False] + draw(st.lists(st.booleans(), max_size=3))
    items = []
    for high in highs:
        f = draw(ranged_polynomial(V, high))
        if draw(st.booleans()):
            f = RationalFn(f, draw(ranged_polynomial(
                V, draw(st.booleans())).filter(bool)))
        items.append(f)
    return V, items


def answers(V, items):
    """The _certify outcome of each polynomial, the residue outcome of
    each fraction."""
    return [outcome(V.residue, f) if isinstance(f, RationalFn)
            else outcome(V._certify, f) for f in items]


@settings(max_examples=40, deadline=None)
@given(memo_cases())
def test_one_valuation_matches_reference_on_a_sequence(case):
    """One valuation keeps its power memos across the whole sequence; each
    answer equals the reference's, which substitutes without them."""
    V, items = case
    for f in items:
        if isinstance(f, RationalFn):
            check_residue(V, f)
        else:
            check_certify(V, f)


@settings(max_examples=20, deadline=None)
@given(memo_cases())
def test_reducing_after_every_term_changes_no_answer(case):
    """A substitution that reduces its sum after every term answers as one
    that reduces it once."""
    V, items = case
    fresh = EmbeddingValuation(V.ctx, V.streams[1:], V.precision_cap)
    with mock.patch.object(charp.series, "_unreduced_terms",
                           lambda ctx: 1):
        got = answers(V, items)
    assert got == answers(fresh, items)


def test_memo_stays_bounded():
    """Many distinct exponents at cap 4096 pass MEMO_ROWS within one
    substitution; once it is done, the memo is emptied back under the
    bound, and the answers are the reference's."""
    ctx = make_context(1048573)
    V = EmbeddingValuation(ctx, [geometric_gap(ctx, 3)], precision_cap=4096)
    memo = V._powers[0]
    before_trim = []
    trim = charp.series._Powers.trim

    def recording(self):
        before_trim.append(self.rows)
        trim(self)

    with mock.patch.object(charp.series._Powers, "trim", recording):
        for k in range(56, 65):
            f = parse_poly(f"(y-x^3)^{k}", ctx, 2)
            got = V._certify(f)
            assert memo.rows <= charp.series.MEMO_ROWS
            want = certify(V, f)
            assert got == (9 * k, want[1], want[2].element_at(9 * k))
    assert max(before_trim) > charp.series.MEMO_ROWS


def counted_substitutions(monkeypatch):
    """The precisions of every substitution made from now on."""
    seen = []
    substitute = charp.valuation.substitute_series

    def counting(f, images, precision, **kwargs):
        seen.append(precision)
        return substitute(f, images, precision, **kwargs)

    monkeypatch.setattr(charp.valuation, "substitute_series", counting)
    return seen


@pytest.mark.parametrize("text, cap, precisions, want", [
    ("x^100*y", 4096, [128], 101),
    ("x^5000*y", 4096, [5040], 5001),
    ("y - x - x^2 - x^6", 4096, [16, 32], 24),
])
def test_ladder_starts_above_the_lower_bound(text, cap, precisions, want,
                                              monkeypatch):
    """Under lacunary (order 1), x^100*y has every term order at 101, so
    the one substitution is at 128; a bound at the cap needs none below
    it, and the support walk's one substitution certifies x^5000*y at the
    next factorial, 5040."""
    ctx = make_context(2)
    V = EmbeddingValuation(ctx, [lacunary(ctx)], precision_cap=cap)
    seen = counted_substitutions(monkeypatch)
    assert V.valuate(parse_poly(text, ctx, 2)) == want
    assert seen == precisions


def test_bound_at_the_cap_without_a_support_exhausts(monkeypatch):
    """A from-seed image has no support to walk: x^5000*y exhausts the
    cap with no substitution."""
    ctx = make_context(2)
    V = EmbeddingValuation(ctx, [from_seed(ctx, 7)], precision_cap=4096)
    seen = counted_substitutions(monkeypatch)
    with pytest.raises(PrecisionExhausted) as exc:
        V.valuate(parse_poly("x^5000*y", ctx, 2))
    assert exc.value.last_precision == 4096
    assert seen == []


@pytest.mark.parametrize("text, streams, last", [
    # value 123 from y^38*z^47, but with two lacunary-type images their
    # 38th and 47th powers take more than the walk's budget of term
    # products modulo t^720, the support index after 121
    ("y-x^2-x^3-x^7-x^25-x^121+y^38*z^47",
     ("lacunary-shift(1)", "lacunary+t"), 121),
    # s = geometric-gap(2) satisfies s^2 + s + t^2 = 0 at p = 2
    ("y^2+y+x^2", ("geometric-gap(2)",), 1 << 30),
])
def test_walk_exhaustion_matches_reference(text, streams, last):
    """Where the walk gives up, its image vanishes modulo the precision it
    reports, as the reference ladder run there confirms."""
    ctx = make_context(2 if len(streams) == 1 else 1048573)
    images = [parse_stream_spec(s, ctx) for s in streams]
    V = EmbeddingValuation(ctx, images, precision_cap=17)
    f = parse_poly(text, ctx, V.nvars)
    with pytest.raises(PrecisionExhausted) as exc:
        V.valuate(f)
    assert exc.value.last_precision == last
    if last <= REFERENCE_CAP:
        with pytest.raises(PrecisionExhausted) as exc:
            certify(at_cap(V, last), f)
        assert exc.value.last_precision == last


@pytest.mark.parametrize("pm, streams, cap, text, want, charged", [
    ((2, 1), ("lacunary",), 4096,
     "(y-x-x^2-x^6-x^24-x^120-x^720)^8", (40320, 362880), 112),
    ((2, 1), ("lacunary",), 4096,
     "(y-x-x^2-x^6-x^24-x^120-x^720)^256", (1290240, 3628800), 230),
    ((3, 1), ("geometric-gap(2)",), 64,
     "y-x^2-x^4-x^8-x^16-x^32", (64, 128), 17),
    ((5, 2), ("lacunary", "geometric-gap(3)"), 16,
     "(y-x-x^2-x^6-x^24)^3*(z-x^3-x^9-x^27)^2+x^40*y*z", (44, 81), 3645),
    ((3, 3), ("lacunary-shift(2)",), 8,
     "(y-x^3-x^4-x^8-x^26)^7+x^100", (100, 122), 504),
    ((1048573, 1), ("lacunary-shift(1)", "lacunary+t"), 17,
     "y-x^2-x^3-x^7-x^25-x^121+y^38*z^47", 121, 205826),
    ((1048573, 1), ("geometric-gap(3)",), 16, "(y+x^2)^400", 16, 217475),
    # x2^50 * x3^40 vanishes modulo t^118 and t^119, so x4^3 is never
    # computed there
    ((3, 1), ("lacunary", "geometric-gap(2)", "lacunary-shift(1)"), 16,
     "x2-x1-x1^2-x1^6-x1^24+x1^2*x2^50*x3^40*x4^3", (120, 121), 765),
])
def test_walk_charges_pinned(pm, streams, cap, text, want, charged,
                             monkeypatch):
    """The term products the support walk charges against WALK_BUDGET, in
    all, up to its certificate or, for a refusal, up to the charge that
    runs past the budget (want is then the refused precision).  Each total
    is the one the walk took when it had its own sparse arithmetic, so a
    budget refusal lands where it did."""
    ctx = make_context(*pm)
    images = [parse_stream_spec(s, ctx) for s in streams]
    V = EmbeddingValuation(ctx, images, precision_cap=cap)
    f = parse_poly(text, ctx, V.nvars)
    charges, charge = [], Budget.charge

    def counting(self, products):
        charges.append(products)
        return charge(self, products)

    monkeypatch.setattr(Budget, "charge", counting)
    try:
        got = V.valuate_with_certificate(f)
    except PrecisionExhausted as exc:
        assert str(exc).endswith(f"more than {WALK_BUDGET} term products")
        got = exc.last_precision
    assert got == want
    assert sum(charges) == charged


@pytest.mark.parametrize("pm, streams, cap, text, rungs, want", [
    ((5, 2), ("lacunary", "geometric-gap(3)"), 16,
     "(y-x-x^2-x^6-x^24)^3*(z-x^3-x^9-x^27)^2+x^40*y*z",
     ["L16", "W24", "W27", "W81"], (44, 81)),
    ((3, 1), ("lacunary", "geometric-gap(2)", "lacunary-shift(1)"), 16,
     "x2-x1-x1^2-x1^6-x1^24+x1^2*x2^50*x3^40*x4^3",
     ["L16", "W24", "W25", "W32", "W64", "W120", "W121"], (120, 121)),
    ((2, 1), ("lacunary+t^5000",), 4096,
     "y-x-x^2-x^6-x^24-x^120-x^720",
     [f"L{1 << k}" for k in range(4, 13)] + ["W5000", "W5040"],
     (5000, 5040)),
])
def test_rungs_pinned(pm, streams, cap, text, rungs, want, monkeypatch):
    """Each precision _certify substitutes at, marked L for a ladder rung
    (no budget) and W for a walk rung (with one): the ladder doubles up to
    the cap, and the walk takes each index of the merged supports past it."""
    ctx = make_context(*pm)
    images = [parse_stream_spec(s, ctx) for s in streams]
    V = EmbeddingValuation(ctx, images, precision_cap=cap)
    seen, substitute = [], charp.valuation.substitute_series

    def recording(f, images, precision, **kwargs):
        walked = kwargs.get("budget") is not None
        seen.append(f"{'W' if walked else 'L'}{precision}")
        return substitute(f, images, precision, **kwargs)

    monkeypatch.setattr(charp.valuation, "substitute_series", recording)
    assert V.valuate_with_certificate(parse_poly(text, ctx, V.nvars)) == want
    assert seen == rungs


# -- one certificate record ------------------------------------------------

QUERIES = ("valuate", "valuate_with_certificate", "valuate_rational",
           "in_ring", "residue")


@st.composite
def query(draw, V):
    """A polynomial, or a fraction of two; numerators may be zero, and
    denominators 1 or another constant."""
    ctx, nvars = V.ctx, V.nvars
    f = draw(st.one_of(st.just(MultiPoly.zero(ctx, nvars)), polynomial(V)))
    den = draw(st.sampled_from(("none", "one", "constant", "polynomial")))
    if den == "none":
        return f
    if den == "polynomial":
        return RationalFn(f, draw(polynomial(V).filter(bool)))
    c = draw(element(ctx, nonzero=True)) if den == "constant" else 1
    return RationalFn(f, MultiPoly.const(ctx, nvars, c))


@settings(max_examples=150, deadline=None)
@given(valuations(), st.data())
def test_every_query_reads_one_certificate(case, data):
    """Each query answers what certify's record says, and where certify
    raises PrecisionExhausted every query raises it with the same message
    and precision; a zero numerator is (INFINITY, 0, None)."""
    ctx, cap, streams = case
    try:
        V = EmbeddingValuation(ctx, streams, precision_cap=cap)
    except ValueError:
        return
    r = data.draw(query(V))
    cert = outcome(V.certify, r)
    got = {name: outcome(getattr(V, name), r) for name in QUERIES}
    if failed(cert):
        assert cert[0] is PrecisionExhausted
        assert got == dict.fromkeys(QUERIES, cert)
        return
    value, precision, lead = cert
    if not (r if isinstance(r, MultiPoly) else r.num):
        assert cert == (INFINITY, 0, None)
    else:
        assert value < precision
    assert got == {
        "valuate": value,
        "valuate_with_certificate": (value, precision),
        "valuate_rational": value,
        "in_ring": value >= 0,
        "residue": (NotInRing, f"value {value} < 0, not in the valuation "
                    "ring") if value < 0 else ctx.zero if value else lead,
    }


@pytest.mark.parametrize("text, as_fraction, calls", [
    ("y-x-x^2", False, 1),
    ("y-x-x^2", True, 1),          # over 1
    ("(y-x-x^2)/2", True, 1),      # a monic constant denominator is 1
    ("x^3/(y-x-x^2)", True, 2),
    ("0", False, 0),
    ("0", True, 0),
    ("0/(y-x-x^2)", True, 0),
])
@pytest.mark.parametrize("name", ("certify",) + QUERIES)
def test_certifications_per_query(text, as_fraction, calls, name,
                                  monkeypatch):
    """A polynomial, or a fraction over 1, is certified once and builds no
    fraction; any other fraction twice, numerator first; a zero numerator
    never."""
    ctx = make_context(3)
    V = EmbeddingValuation(ctx, [lacunary(ctx)])
    r = parse_rational(text, ctx, 2)
    if not as_fraction:
        r = r.num
    certified, certify_part = [], EmbeddingValuation._certify
    built, build = [], RationalFn.__init__

    def counting(self, f):
        certified.append(f)
        return certify_part(self, f)

    def building(self, *args):
        built.append(args)
        build(self, *args)

    monkeypatch.setattr(EmbeddingValuation, "_certify", counting)
    monkeypatch.setattr(RationalFn, "__init__", building)
    outcome(getattr(V, name), r)
    assert len(certified) == calls
    if calls == 2:
        assert certified == [r.num, r.den]
    if not as_fraction:
        assert built == []
