"""The substitution engine against the reference engine, and series powers
against repeated multiplication."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charp.series
from charp._kernels import series_mul
from charp.ffield import make_context
from charp.poly import EXPONENT_LIMIT, MultiPoly
from charp.series import Budget, TruncatedSeries, _Powers, substitute_series
from charp.streams import parse_stream_spec
from reference_substitution import substitute_series as reference

FIELDS = [(p, m) for p in (2, 3, 5, 1048573) for m in (1, 2, 3)]


def t_series(ctx, n):
    arr = np.zeros((n, ctx.m), dtype=np.int64)
    if n > 1:
        arr[1, 0] = 1
    return TruncatedSeries(ctx, arr)


def random_series(ctx, n, order, density, seed):
    """Dense random coefficients from index `order` on; order 0 is a unit."""
    gen = np.random.default_rng(seed)
    arr = gen.integers(0, ctx.p, size=(n, ctx.m))
    arr[gen.random(n) > density] = 0
    arr[:order] = 0
    if order < n and not arr[order].any():
        arr[order, 0] = 1
    return TruncatedSeries(ctx, arr)


@st.composite
def substitutions(draw):
    """(f, images, precision) over a drawn field, 1-3 variables, each image
    t (possibly known beyond the precision) or a random series."""
    p, m = draw(st.sampled_from(FIELDS))
    ctx = make_context(p, m)
    nvars = draw(st.integers(1, 3))
    n = draw(st.integers(1, 48))
    images = []
    for _ in range(nvars):
        known = n + draw(st.integers(0, 3))
        if draw(st.booleans()):
            images.append(t_series(ctx, known))
        else:
            images.append(random_series(
                ctx, known, draw(st.integers(0, 4)),
                draw(st.sampled_from([0.2, 0.6, 1.0])),
                draw(st.integers(0, 2 ** 32))))
    digits = [k for k in (p, p + 1, p * p, 2 * p * p + 3)
              if k <= EXPONENT_LIMIT]
    exponent = st.one_of(st.integers(0, 6), st.sampled_from(digits),
                         st.integers(max(0, n - 8), n - 1),  # near the end
                         st.integers(n, 2 * n + 3))  # shifts >= precision
    constant_only = draw(st.booleans())
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exp = (0,) * nvars if constant_only else tuple(
            draw(exponent) for _ in range(nvars))
        terms[exp] = ctx.elem(
            [draw(st.integers(0, p - 1)) for _ in range(m)])
    return MultiPoly.from_terms(ctx, nvars, terms), images, n


@settings(max_examples=300, deadline=None)
@given(substitutions())
def test_substitution_matches_reference(case):
    f, images, n = case
    got = substitute_series(f, images, n)
    assert np.array_equal(got.coeffs, reference(f, images, n).coeffs)


GAP_STREAMS = ["lacunary", "lacunary-shift(1)", "geometric-gap(2)",
               "geometric-gap(3)", "lacunary+t", "geometric-gap(5)+2*t^3"]


@st.composite
def sparse_substitutions(draw):
    """(f, images, precision): x -> t and one or two gap images realized to
    n <= 512, each dense, and f with up to 12 terms, some exponents at or
    past p."""
    p = draw(st.sampled_from([2, 3, 5, 1048573]))
    ctx = make_context(p, draw(st.integers(1, 3)))
    n = draw(st.integers(2, 512))
    specs = draw(st.lists(st.sampled_from(GAP_STREAMS), min_size=1,
                          max_size=2))
    images = [t_series(ctx, n)] + [
        TruncatedSeries(ctx, parse_stream_spec(spec, ctx).realize(0, n))
        for spec in specs]
    exponent = st.one_of(
        st.integers(0, 6), st.integers(0, 40),
        st.sampled_from([k for k in (p, p + 1, 2 * p + 1, p * p)
                         if k <= EXPONENT_LIMIT]))
    terms = {
        tuple(draw(exponent) for _ in images):
        ctx.elem([draw(st.integers(0, p - 1)) for _ in range(ctx.m)])
        for _ in range(draw(st.integers(0, 12)))}
    return MultiPoly.from_terms(ctx, len(images), terms), images, n


def sparse(s):
    """A dense series in the sparse form."""
    support = np.flatnonzero(s.coeffs.any(axis=1))
    return TruncatedSeries(s.ctx, s.coeffs[support], support, s.precision)


@settings(max_examples=150, deadline=None)
@given(sparse_substitutions(), st.booleans())
def test_sparse_images_substitute_as_dense_ones(case, charged):
    """Over sparse images the substitution is sparse, keeps no zero row,
    and has the order and rows it has over the same images dense, with or
    without a budget; one dense image among sparse ones makes it dense."""
    f, images, n = case
    want = substitute_series(f, images, n)
    budget = {"budget": Budget(1 << 40)} if charged else {}
    got = substitute_series(f, [sparse(s) for s in images], n, **budget)
    assert got.precision == n and got.order() == want.order()
    assert got.coeffs.any(axis=1).all()
    assert np.array_equal(got.support, np.flatnonzero(want.coeffs.any(1)))
    assert np.array_equal(got.coeffs, want.coeffs[got.support])
    mixed = substitute_series(f, images[:1] + [sparse(s) for s in images[1:]],
                              n)
    assert mixed.support is None and np.array_equal(mixed.coeffs, want.coeffs)


def test_t_image_detected_below_the_precision():
    """An image that agrees with t modulo t^n substitutes as t."""
    ctx = make_context(3)
    f = MultiPoly.from_terms(ctx, 1, {(2,): 1, (9,): 2})
    image = TruncatedSeries(ctx, np.array([[0], [1], [0], [0], [0], [0], [1]]))
    got = substitute_series(f, [image], 6).coeffs
    assert got.ravel().tolist() == [0, 0, 1, 0, 0, 0]
    assert np.array_equal(got, reference(f, [image], 6).coeffs)


@pytest.mark.parametrize("pm", [(2, 1), (3, 2), (1048573, 3)])
@pytest.mark.parametrize("k", [1, 5, 19])
def test_group_product_stops_where_its_shift_leaves_off(pm, k, monkeypatch):
    """x^(n-k) * z^5 with x -> t needs z^5 only modulo t^k."""
    ctx = make_context(*pm)
    n = 64
    nouts = []

    def counting(a, b, table, p, nout):
        nouts.append(nout)
        return series_mul(a, b, table, p, nout)

    monkeypatch.setattr(charp.series, "series_mul", counting)
    f = MultiPoly.from_terms(ctx, 2, {(n - k, 5): ctx.one})
    images = [t_series(ctx, n), random_series(ctx, n, 0, 1.0, seed=k)]
    got = substitute_series(f, images, n)
    assert nouts and max(nouts) <= k
    assert np.array_equal(got.coeffs, reference(f, images, n).coeffs)


@pytest.mark.parametrize("pm", [(p, m) for p in (2, 3, 5) for m in (1, 2, 3)])
@pytest.mark.parametrize("order", [0, 1])
def test_pow_by_digits_matches_repeated_mul(pm, order):
    """Powers by base-p digits, dense and sparse, against repeated
    products."""
    p, _ = pm
    ctx = make_context(*pm)
    s = random_series(ctx, 4 * p * p + 1, order, 0.6, seed=p * 10 + order)
    n, base = s.precision, s.coeffs
    support = np.flatnonzero(base.any(axis=1))
    dense_powers = _Powers(ctx, s.order())
    sparse_powers = _Powers(ctx, s.order())
    wanted = {1, p, p + 1, p * p, 2 * p * p + 3}
    acc = base
    for k in range(1, max(wanted) + 1):
        if k in wanted:
            assert np.array_equal(dense_powers.power(base, k, n), acc), k
            got = sparse_powers.power((support, base[support]), k, n)
            assert np.array_equal(got[0], np.flatnonzero(acc.any(axis=1)))
            assert np.array_equal(got[1], acc[got[0]]), k
        acc = series_mul(acc, base, ctx.scaling_array, p, n)
