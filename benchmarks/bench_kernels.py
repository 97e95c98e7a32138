#!/usr/bin/env python3
"""Benchmark the truncated-series product.

Times the raw series product at several precisions and extension degrees,
then a realistic valuation workload (deep lacunary gap, forcing precision
escalation to 1024).
"""

import argparse
import time

import numpy as np

from charp._kernels import series_mul
from charp.ffield import make_context
from charp.parser import parse_poly
from charp.streams import lacunary
from charp.valuation import EmbeddingValuation


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
    # dense rows show numpy's convolve at its best; the sparse rows are the
    # shape valuation workloads actually have (gap series keep a handful of
    # nonzero coefficients)
    rng = np.random.default_rng(42)
    print(f"{'case':<32}{'time':>12}")
    cases = []
    for p, m in [(2, 1), (5, 1), (2, 2)]:
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
        print(f"{label:<32}{elapsed * 1e3:>10.2f}ms")


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


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    bench_mul(args.repeats)
    bench_valuation(args.repeats)


if __name__ == "__main__":
    main()
