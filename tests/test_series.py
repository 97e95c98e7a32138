import os
import subprocess
import sys
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charp import _kernels
from charp.cli import MAX_PRECISION
from charp.errors import PrecisionMismatch
from charp.ffield import make_context
from charp.parser import parse_poly
from charp.poly import random_poly
from charp.series import TruncatedSeries, _Powers, substitute_series


def naive_mul(ctx, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Independent oracle: schoolbook product over field elements."""
    out = [ctx.zero] * n
    for i in range(min(a.shape[0], n)):
        ai = ctx.elem(a[i].tolist())
        if not ai:
            continue
        for j in range(min(b.shape[0], n - i)):
            out[i + j] = out[i + j] + ai * ctx.elem(b[j].tolist())
    return as_rows(ctx, out)


def as_rows(ctx, elements) -> np.ndarray:
    """The (N, m) coefficient array of a list of field elements."""
    return np.array([ctx.elem(el).coeffs for el in elements],
                    dtype=np.int64).reshape(-1, ctx.m)


def mul(ctx, a, b, n):
    return _kernels.series_mul(a, b, ctx.scaling_array, ctx.p, n)


def convolve_product(a, b, ctx, nout):
    """Oracle for series_mul on arrays: one int64 np.convolve per pair of
    residue columns, columns past u^(m-1) reduced through the table."""
    m, p = ctx.m, ctx.p
    wide = np.zeros((nout, 2 * m - 1), dtype=np.int64)
    a, b = a[:nout], b[:nout]
    if a.size and b.size:
        for ju in range(m):
            for jv in range(m):
                conv = np.convolve(a[:, ju], b[:, jv])[:nout]
                wide[:conv.shape[0], ju + jv] += conv
    wide %= p
    return (wide[:, :m] + wide[:, m:] @ ctx.scaling_array[m - 1, 1:]) % p


def random_series(ctx, n, rng, density=0.5):
    return as_rows(ctx, [ctx.random_element(rng) if rng.random() < density
                      else ctx.zero for _ in range(n)])


class TestKernels:
    @pytest.mark.parametrize("pm", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
    def test_mul_matches_naive_oracle(self, pm, rng):
        ctx = make_context(*pm)
        for _ in range(12):
            a = random_series(ctx, 24, rng)
            b = random_series(ctx, 24, rng)
            assert np.array_equal(mul(ctx, a, b, 24),
                                  naive_mul(ctx, a, b, 24))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_product_of_sparse_operands_matches_naive_oracle(self, data):
        """Operands with no, one, a few or many nonzero rows, rows at or
        past nout, either side the sparser, and lengths on both sides of
        the rule that picks shifted rows over convolution."""
        draw = data.draw
        ctx = make_context(*draw(st.sampled_from(
            [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 3), (1048573, 3)])))
        nout = draw(st.integers(0, 72))

        def operand():
            n = draw(st.integers(0, 80))
            rows = draw(st.one_of(
                st.lists(st.integers(0, max(n - 1, 0)), max_size=12),
                st.just(list(range(n)))))
            arr = np.zeros((n, ctx.m), dtype=np.int64)
            for i in rows[:n]:
                arr[i] = [draw(st.integers(0, ctx.p - 1))
                          for _ in range(ctx.m)]
            return arr

        a, b = operand(), operand()
        expected = naive_mul(ctx, a, b, nout)
        assert np.array_equal(mul(ctx, a, b, nout), expected)
        assert np.array_equal(convolve_product(a, b, ctx, nout), expected)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_large_products_match_convolution(self, data):
        """Up to 4096 rows, where series_mul takes the FFT product or
        walks rows by its cost rule: dense, sparse and all-(p-1) operands
        of unequal lengths, squarings included, truncated anywhere up to
        the whole product, equal the int64 np.convolve product."""
        draw = data.draw
        ctx = make_context(*draw(st.sampled_from(
            [(2, 1), (5, 3), (1048573, 3)])))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

        def operand():
            e = draw(st.integers(8, 12))  # n log-uniform in 129..4096
            n = draw(st.integers((1 << e) // 2 + 1, 1 << e))
            kind = draw(st.sampled_from(["dense", "sparse", "top"]))
            if kind == "top":
                return np.full((n, ctx.m), ctx.p - 1, dtype=np.int64)
            arr = rng.integers(0, ctx.p, size=(n, ctx.m), dtype=np.int64)
            if kind == "sparse":
                arr[rng.random(n) >= draw(st.sampled_from(
                    [0.002, 0.02, 0.1, 0.3]))] = 0
            return arr

        a = operand()
        b = a if draw(st.booleans()) else operand()
        longest, full = max(a.shape[0], b.shape[0]), a.shape[0] + b.shape[0]
        nout = draw(st.one_of(st.just(longest), st.just(full),
                              st.integers(1, longest)))
        got = _kernels.series_mul(a, b, ctx.scaling_array, ctx.p, nout)
        assert np.array_equal(got, convolve_product(a, b, ctx, nout))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_limb_width_keeps_percival_bound_under_budget(self, m):
        """For every p < 2^20 (the plan depends on p only through the bit
        length of p - 1, so p = 2^bits stands for the worst residues of
        each length) and every n up to the largest precision the CLI
        accepts, Percival's bound, recomputed here in 60-digit decimals,
        stays under ERROR_BUDGET, and every exact output fits a float64
        mantissa."""
        getcontext().prec = 60
        eps = Decimal(2) ** -53
        for bits in range(1, 21):
            p = 2 ** bits
            n = 1
            while n <= MAX_PRECISION:
                size, k, w = _kernels.fft_plan(n, n, m, p)
                assert size >= (2 * n - 1) * (2 * m - 1) and k * w >= bits
                lg = size.bit_length() - 1
                assert size == 2 ** lg
                error = ((1 + eps) ** (6 * lg)
                         * (1 + eps * Decimal(5).sqrt()) ** (3 * lg + 1) - 1)
                norms = n * m * (2 ** w - 1) ** 2
                assert k * norms * error < Decimal(_kernels.ERROR_BUDGET)
                assert k * norms < 2 ** 53
                n *= 2

    def test_guard_recomputes_a_rounded_product(self, monkeypatch):
        """With one 20-bit limb the FFT's rounding errors pass 1/4, and the
        product comes exactly from np.convolve instead."""
        ctx = make_context(1048573)
        rng = np.random.default_rng(3)
        a = rng.integers(0, ctx.p, size=(4096, 1), dtype=np.int64)
        b = rng.integers(0, ctx.p, size=(4096, 1), dtype=np.int64)
        plan = _kernels.fft_plan
        monkeypatch.setattr(_kernels, "fft_plan",
                            lambda *args: plan(*args)[:1] + (1, 20))
        assert _kernels.fft_columns(a, b, ctx.p, 4096) is None
        fallbacks = []
        convolve = _kernels.convolve_columns

        def counting(*args):
            fallbacks.append(args[-1])
            return convolve(*args)

        monkeypatch.setattr(_kernels, "convolve_columns", counting)
        got = _kernels.series_mul(a, b, ctx.scaling_array, ctx.p, 4096)
        assert fallbacks == [4096]
        assert np.array_equal(got, convolve_product(a, b, ctx, 4096))

    def test_truncation_consistency(self, rng):
        ctx = make_context(3)
        a = random_series(ctx, 32, rng)
        b = random_series(ctx, 32, rng)
        assert np.array_equal(mul(ctx, a, b, 32)[:16],
                              mul(ctx, a[:16], b[:16], 16))

    def test_overflow_guard(self):
        from charp.errors import SizeBound
        ctx = make_context(1048573)  # largest prime below the 2^20 bound
        row = np.zeros((2, 1), dtype=np.int64)
        row[1, 0] = 1
        with pytest.raises(SizeBound):
            _kernels.series_mul(row, row, ctx.scaling_array, ctx.p,
                                2 ** 23)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_scaling_table_is_field_multiplication(self, data):
        """scaling_array[j][k] is the residue vector of u^(j+k), and rows
        scaled through their scalings are FieldElement products."""
        draw = data.draw
        ctx = make_context(*draw(st.sampled_from(
            [(p, m) for p in (2, 3, 5, 1048573) for m in (1, 2, 3)]
            + [(2, 12)])))
        table = ctx.scaling_array
        assert table.shape == (ctx.m, ctx.m, ctx.m)
        for j in range(ctx.m):
            for k in range(ctx.m):
                power = ctx.generator() ** (j + k) if ctx.m > 1 else ctx.one
                assert tuple(table[j, k].tolist()) == power.coeffs
        element = st.lists(st.integers(0, ctx.p - 1), min_size=ctx.m,
                           max_size=ctx.m).map(ctx.elem)
        factors = draw(st.lists(element, min_size=1, max_size=4))
        rows = draw(st.lists(element, max_size=6))
        arr = np.array([r.coeffs for r in rows],
                       dtype=np.int64).reshape(-1, ctx.m)
        matrices = _kernels.scalings(table, ctx.p, [c.coeffs for c in factors])
        for c, matrix in zip(factors, matrices):
            got = _kernels.scale(arr, matrix) % ctx.p
            assert [tuple(r) for r in got.tolist()] == [
                (r * c).coeffs for r in rows]

    def test_bench_kernels_script_runs(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "bench_kernels.py"),
             "--repeats", "1"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert "valuation workload" in proc.stdout


class TestSeriesOps:
    def test_order_examples(self, f2):
        s = TruncatedSeries(f2, as_rows(f2, [0, 1, 1, 0, 0, 0, 0, 0]))
        assert s.order() == 1  # t + t^2 at precision 8
        assert TruncatedSeries(f2, np.zeros((8, 1))).order() is None
        sparse = TruncatedSeries(f2, as_rows(f2, [1, 1]), [3, 5], 8)
        assert sparse.order() == 3
        assert [sparse.element_at(i) for i in (2, 3, 5)] == [
            f2.zero, f2.one, f2.one]
        assert TruncatedSeries(f2, np.zeros((0, 1)), [], 8).order() is None

    def test_pow_matches_repeated_mul(self, rng):
        """Powers from _Powers, dense and sparse, against repeated
        products."""
        ctx = make_context(2)
        a = random_series(ctx, 16, rng)
        support = np.flatnonzero(a.any(axis=1))
        dense = _Powers(ctx, int(support[0]))
        sparse = _Powers(ctx, int(support[0]))
        acc = a
        for k in range(1, 5):
            assert np.array_equal(dense.power(a, k, 16), acc)
            got_support, got_rows = sparse.power((support, a[support]), k, 16)
            assert np.array_equal(got_support,
                                  np.flatnonzero(acc.any(axis=1)))
            assert np.array_equal(got_rows, acc[got_support])
            acc = mul(ctx, acc, a, 16)

    def test_precision_zero_powers(self, f2):
        empty = np.zeros((0, 1), dtype=np.int64)
        assert _Powers(f2, None).power(empty, 3, 0) is None
        assert _Powers(f2, 1).power(empty, 3, 0) is None
        img = substitute_series(parse_poly("1 + x^3", f2, 1),
                                [TruncatedSeries(f2, empty)], 0)
        assert img.precision == 0 and img.order() is None

    @pytest.mark.parametrize("elements, support, precision", [
        ([1, 1], [0, 2], None), ([1, 1], [0], 4), ([1, 1], [2, 0], 4),
        ([1, 1], [0, 0], 4), ([1, 1], [-1, 2], 4), ([1, 1], [0, 4], 4),
        ([1, 0], [0, 2], 4)])
    def test_sparse_form_is_checked(self, f2, elements, support, precision):
        """A sparse series has a precision and one index per row, each row
        nonzero and the indices increasing from 0 up to below it."""
        assert TruncatedSeries(f2, as_rows(f2, [1, 1]), [0, 2], 4).order() == 0
        with pytest.raises(ValueError):
            TruncatedSeries(f2, as_rows(f2, elements), support, precision)

    def test_immutable_coefficients(self, f2):
        s = TruncatedSeries(f2, as_rows(f2, [1, 0, 0, 0]))
        with pytest.raises(ValueError):
            s.coeffs[0, 0] = 0
        s = TruncatedSeries(f2, as_rows(f2, [1]), [0], 4)
        with pytest.raises(ValueError):
            s.coeffs[0, 0] = 0


class TestSubstitution:
    def test_variable_maps_to_t(self, f2):
        t = TruncatedSeries(f2, as_rows(f2, [0, 1] + [0] * 6))
        img = substitute_series(parse_poly("x", f2, 1), [t], 8)
        assert img.order() == 1

    def test_constant_has_order_zero(self, f3):
        t = TruncatedSeries(f3, as_rows(f3, [0, 1] + [0] * 6))
        img = substitute_series(parse_poly("2", f3, 1), [t], 8)
        assert img.order() == 0
        assert img.element_at(0) == f3.elem(2)

    def test_difference_example(self, f2):
        t = TruncatedSeries(f2, as_rows(f2, [0, 1] + [0] * 6))
        y_img = TruncatedSeries(f2, as_rows(f2, [0, 1, 1] + [0] * 5))
        img = substitute_series(parse_poly("y - x", f2, 2), [t, y_img], 8)
        assert np.array_equal(img.coeffs, as_rows(f2, [0, 0, 1] + [0] * 5))

    def test_is_ring_homomorphism(self, rng):
        ctx = make_context(3)
        t = TruncatedSeries(ctx, random_series(ctx, 24, rng))
        s = TruncatedSeries(ctx, random_series(ctx, 24, rng))
        for _ in range(15):
            f = random_poly(ctx, 2, rng, max_terms=4, max_degree=4)
            g = random_poly(ctx, 2, rng, max_terms=4, max_degree=4)
            img_f = substitute_series(f, [t, s], 24).coeffs
            img_g = substitute_series(g, [t, s], 24).coeffs
            assert np.array_equal(substitute_series(f * g, [t, s], 24).coeffs,
                                  mul(ctx, img_f, img_g, 24))
            assert np.array_equal(substitute_series(f + g, [t, s], 24).coeffs,
                                  (img_f + img_g) % ctx.p)

    def test_precision_mismatch(self, f2):
        t = TruncatedSeries(f2, as_rows(f2, [0, 1, 0, 0]))
        with pytest.raises(PrecisionMismatch):
            substitute_series(parse_poly("x", f2, 1), [t], 8)

    def test_wrong_image_count(self, f2):
        t = TruncatedSeries(f2, as_rows(f2, [0, 1, 0, 0]))
        with pytest.raises(ValueError):
            substitute_series(parse_poly("x", f2, 2), [t], 4)
