#!/usr/bin/env python3
"""Time the GEMV kernels over a sweep of matrix shapes.

Prints one row per ``MxN`` shape and code width with the best-of-N wall
time of the reference kernel, the optimized kernel on the float matrix, the
ordered codes-domain oracle (sketch) and the optimized kernel on the
quantized matrix, which is what the ``gemv`` intrinsic runs on it (codes),
the optimized kernel's effective GFLOP/s, and each kernel's speed-up over
the reference.  The float kernels do not depend on the width and are timed
once per shape.  The default shapes are the toy model's GEMVs plus
1024x1024.

    python3 scripts/bench_gemv.py --sizes 64x64,4096x1024 --bits 2,3,4,8
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from quantloop.kernels import (
    GemvParams,
    Layout,
    Trans,
    gemv_naive,
    gemv_opt,
    gemv_sketch,
)
from quantloop.quantizer import QuantConfig, quantize_matrix


def best_of(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def parse_shape(text: str) -> tuple[int, int]:
    """``"MxN"`` -> (M, N)."""
    m, n = text.split("x")
    return int(m), int(n)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="64x64,172x64,64x172,256x64,1024x1024",
                        help="comma-separated MxN matrix shapes")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--bits", default="3",
                        help="comma-separated code widths; each shape is timed at every one")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    shapes = [parse_shape(s) for s in args.sizes.split(",")]
    widths = [int(b) for b in args.bits.split(",")]

    print(f"{'shape':>10} {'bits':>4} {'naive ms':>10} {'opt ms':>10} {'sketch ms':>10} "
          f"{'codes ms':>10} {'opt GFLOP/s':>12} {'opt/naive':>10} {'sketch/naive':>13} "
          f"{'codes/naive':>12}")
    for m, n in shapes:
        a = rng.standard_normal((m, n)).astype(np.float32)
        x = rng.standard_normal(n).astype(np.float32)
        y = np.zeros(m, dtype=np.float32)
        flat = a.reshape(-1)
        p = GemvParams(layout=Layout.ROW_MAJOR, trans=Trans.NO_TRANS, m=m, n=n,
                       alpha=1.0, beta=0.0, lda=n, incx=1, incy=1)

        gemv_opt(flat, x, y, p)  # warm up
        t_naive = best_of(lambda: gemv_naive(flat, x, y, p), max(args.reps // 2, 1))
        t_opt = best_of(lambda: gemv_opt(flat, x, y, p), args.reps)
        flops = 2.0 * m * n
        for bits in widths:
            q = quantize_matrix(a, QuantConfig(bit_width=bits))
            t_sketch = best_of(lambda: gemv_sketch(q, x, y, p), max(args.reps // 2, 1))
            t_codes = best_of(lambda: gemv_opt(q, x, y, p), max(args.reps // 2, 1))
            print(f"{f'{m}x{n}':>10} {bits:>4} {t_naive * 1e3:>10.3f} {t_opt * 1e3:>10.3f} "
                  f"{t_sketch * 1e3:>10.3f} {t_codes * 1e3:>10.3f} "
                  f"{flops / t_opt / 1e9:>12.2f} {t_naive / t_opt:>9.1f}x "
                  f"{t_naive / t_sketch:>12.1f}x {t_naive / t_codes:>11.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
