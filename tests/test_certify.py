"""Certification against the reference ladder, which substitutes at every
rung: starting above the term-order lower bound changes no certificate,
no residue and no error."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charp.valuation
from charp.errors import CharpError, PrecisionExhausted
from charp.ffield import make_context
from charp.parser import parse_poly
from charp.poly import MultiPoly, RationalFn
from charp.streams import (from_seed, geometric_gap, lacunary,
                           lacunary_shift, perturb)
from charp.valuation import EmbeddingValuation
from reference_valuation import certify, residue

FIELDS = [(p, m) for p in (2, 3, 5, 1048573) for m in (1, 2, 3)]


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
def stream(draw, ctx):
    """A gap or from-seed stream, perhaps perturbed."""
    kind = draw(st.sampled_from(["lacunary", "shift", "gap", "seed"]))
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
def valuations(draw):
    """(cap, streams) over a drawn field with 2 or 3 variables."""
    ctx = make_context(*draw(st.sampled_from(FIELDS)))
    streams = [draw(stream(ctx)) for _ in range(draw(st.integers(1, 2)))]
    return ctx, draw(st.integers(1, 256)), streams


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
    want, got = outcome(certify, V, f), outcome(V._certify, f)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert got[:2] == want[:2] and got[2] == want[2]
    g = data.draw(polynomial(V))
    if g:
        r = RationalFn(f, g)
        assert outcome(V.residue, r) == outcome(residue, V, r)


@pytest.mark.parametrize("text, cap, precisions, want", [
    ("x^100*y", 4096, [128], 101),
    ("x^5000*y", 4096, [], PrecisionExhausted),
    ("y - x - x^2 - x^6", 4096, [16, 32], 24),
])
def test_ladder_starts_above_the_lower_bound(text, cap, precisions, want,
                                              monkeypatch):
    """Under lacunary (order 1), x^100*y has every term order at 101, so
    the one substitution is at 128; a bound at the cap needs none."""
    ctx = make_context(2)
    V = EmbeddingValuation(ctx, [lacunary(ctx)], precision_cap=cap)
    seen = []

    def counting(f, images, precision):
        seen.append(precision)
        return substitute(f, images, precision)

    substitute = charp.valuation.substitute_series
    monkeypatch.setattr(charp.valuation, "substitute_series", counting)
    f = parse_poly(text, ctx, 2)
    if want is PrecisionExhausted:
        with pytest.raises(PrecisionExhausted) as exc:
            V.valuate(f)
        assert exc.value.last_precision == cap
    else:
        assert V.valuate(f) == want
    assert seen == precisions
