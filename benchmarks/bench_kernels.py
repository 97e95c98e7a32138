#!/usr/bin/env python3
"""Benchmark the truncated-series product.

Times the raw series product at several precisions and extension degrees,
then a sweep over n of each branch series_mul can take on dense factors
(np.convolve, the packed FFT, and the row walk per nonzero row), with the
cost series_mul's rule predicts for the last two; the branch constants of
charp._kernels are read from that sweep.  Then a realistic valuation
workload (deep lacunary gap, forcing precision escalation to 1024), and
last six support walks past the precision cap, each a sparse
substitution per rung charged against WALK_BUDGET.
"""

import argparse
import time

import numpy as np

from charp import _kernels
from charp._kernels import series_mul
from charp.errors import PrecisionExhausted
from charp.ffield import make_context
from charp.parser import parse_poly
from charp.streams import lacunary, parse_stream_spec
from charp.valuation import EmbeddingValuation

SWEEP_FIELDS = [(2, 1), (1048573, 1), (5, 3), (1048573, 3)]
SWEEP_N = (32, 64, 128, 256, 512, 1024, 2048, 4096)
WALK_ROWS = 16  # nonzero rows of the walked factor in the sweep
# support walks: (p, m, image streams, cap, polynomial)
WALKS = [
    (1048573, 3, ("geometric-gap(3)",), 16, "(y+x^2)^400"),
    (2, 1, ("lacunary",), 4096, "(y-x-x^2-x^6-x^24-x^120-x^720)^256"),
    (1048573, 1, ("lacunary-shift(1)", "lacunary+t"), 17,
     "y-x^2-x^3-x^7-x^25-x^121+y^38*z^47"),
    # algebraic kernels: s^2 + s + t^2 = 0 and s^3 - s + t^3 = 0, walked
    # to EXPONENT_LIMIT and refused
    (2, 1, ("geometric-gap(2)",), 4096, "y^2+y+x^2"),
    (3, 1, ("geometric-gap(3)",), 4096, "y^3-y+x^3"),
    (2, 1, ("lacunary+t^5000",), 4096, "y-x-x^2-x^6-x^24-x^120-x^720"),
]


def _random_series(rng, n, m, p, density=1.0):
    arr = rng.integers(0, p, size=(n, m), dtype=np.int64)
    if density < 1.0:
        mask = rng.random(size=n) < density
        arr *= mask[:, None]
    return arr


def time_call(fn, *args, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_mul(repeats):
    # dense rows show the dense branches; the sparse rows are the shape
    # valuation workloads often have (gap series keep a handful of nonzero
    # coefficients)
    rng = np.random.default_rng(42)
    print(f"{'case':<36}{'time':>12}")
    cases = []
    for p, m in [(2, 1), (5, 1), (2, 2), (1048573, 1), (1048573, 3)]:
        for n in (256, 1024, 4096):
            cases.append((p, m, n, 1.0))
    for n in (1024, 4096):
        cases.append((2, 1, n, 0.01))
    for p, m, n, density in cases:
        ctx = make_context(p, m)
        table = ctx.scaling_array
        a = _random_series(rng, n, m, p, density)
        b = _random_series(rng, n, m, p, density)
        elapsed = time_call(series_mul, a, b, table, p, n, repeats=repeats)
        kind = "dense" if density == 1.0 else "sparse"
        label = f"mul p={p} m={m} N={n} {kind}"
        print(f"{label:<36}{elapsed * 1e3:>10.3f}ms")


def bench_sweep(repeats):
    """Each branch on two dense factors of n rows: convolve and FFT in ms
    (the FFT with its limb count k), the walk in us per nonzero row of a
    factor with WALK_ROWS of them, each next to the cost series_mul's rule
    predicts, and the branch series_mul takes on the two dense factors."""
    rng = np.random.default_rng(7)
    print(f"\n{'sweep':<22}{'convolve':>10}{'fft':>10}{'(model)':>9}"
          f"{'k':>3}{'walk/row':>11}{'(model)':>9}  branch")
    for p, m in SWEEP_FIELDS:
        ctx = make_context(p, m)
        table = ctx.scaling_array
        for n in SWEEP_N:
            a = _random_series(rng, n, m, p)
            b = _random_series(rng, n, m, p)
            conv = time_call(_kernels.convolve_columns, a, b, p, n,
                             repeats=repeats)
            fft = time_call(_kernels.fft_columns, a, b, p, n,
                            repeats=repeats)
            size, k, _ = _kernels.fft_plan(n, n, m, p)
            fft_model = (_kernels.FFT_CALL_NS
                         + (4 * k - 1) * size * _kernels.FFT_POINT_NS)
            rows = np.sort(rng.choice(n, min(WALK_ROWS, n), replace=False))
            walk = time_call(_kernels.walk_rows, a, rows, b, table, p, n,
                             repeats=repeats) / rows.size
            walk_model = (_kernels.WALK_ROW_NS
                          + n * m * m * _kernels.WALK_ENTRY_NS)
            branch = ("convolve" if m * m * n * n < _kernels.CONVOLVE_PRODUCTS
                      else "fft")
            label = f"p={p} m={m} n={n}"
            print(f"{label:<22}{conv * 1e3:>8.3f}ms{fft * 1e3:>8.3f}ms"
                  f"{fft_model * 1e-6:>7.3f}ms{k:>3}{walk * 1e6:>9.2f}us"
                  f"{walk_model * 1e-3:>7.2f}us  {branch}")


def bench_valuation(repeats):
    ctx = make_context(2)
    f = parse_poly("y - x - x^2 - x^6 - x^24 - x^120", ctx, 2)

    def run():
        V = EmbeddingValuation(ctx, [lacunary(ctx)])
        value, cert = V.valuate_with_certificate(f)
        assert value == 720 and cert == 1024

    run()  # warm caches
    best = time_call(run, repeats=repeats)
    print(f"\nvaluation workload (order 720, escalates to N=1024): "
          f"{best * 1e3:.1f}ms")


def bench_walks(repeats):
    """CPU of one certification past the cap on a warm valuation; two
    refusals run past the walk's budget, and two past EXPONENT_LIMIT."""
    print()
    for p, m, streams, cap, text in WALKS:
        ctx = make_context(p, m)
        V = EmbeddingValuation(
            ctx, [parse_stream_spec(s, ctx) for s in streams], cap)
        f = parse_poly(text, ctx, V.nvars)

        def run():
            try:
                return V.valuate_with_certificate(f)
            except PrecisionExhausted as exc:
                return f"refused at t^{exc.last_precision}"

        outcome = run()  # warm the ladder's power memos
        best = min(time_cpu(run) for _ in range(repeats))
        label = f"walk p={p} m={m} cap={cap} {text}"
        print(f"{label:<64}{best * 1e3:>8.2f}ms  {outcome}")


def time_cpu(fn):
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    bench_mul(args.repeats)
    bench_sweep(args.repeats)
    bench_valuation(args.repeats)
    bench_walks(args.repeats)


if __name__ == "__main__":
    main()
