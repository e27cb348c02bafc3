#!/usr/bin/env python3
"""Time the GEMV kernels over a sweep of matrix shapes.

Prints one row per ``MxN`` shape and code width with the best-of-N wall
time, in microseconds, of the reference kernel, the ordered codes-domain
oracle (sketch), the optimized kernel on the float matrix (opt), the packed
kernel on the quantized matrix (codes) and the compiled dense kernel on the
float matrix (dense).  The optimized kernel is split as the ``gemv`` intrinsic uses it:
``bind`` checks the operands once, when a program is prepared, and the
bound call's ``run`` is what every decode step pays, so the two have their
own columns.  The packed and dense kernels run only inside a compiled step,
so the codes columns time building a program of one ``gemv`` over the
quantized matrix with its step (bind) and running that step (run), and the
dense run column times the same program over the float matrix.  Each run
column times a batch of calls per rep, about 2^20 weights' worth, and
divides by its length: one call per rep would time the Python and ctypes
overhead of the call at the toy's shapes, not the kernel.  The run
columns carry three decimals, so a toy shape's packed cell (about 1 µs)
rounds by under 0.1%.  Then come the bound float run's effective GFLOP/s
and each run's speed-up over the reference.  The float kernels do not depend on the width and are timed once
per shape.  The default shapes are the toy model's GEMVs plus 1024x1024.
numpy's BLAS is pinned to one thread, like the compiled kernels.

Without a compiled step (no compiler, or a failed build or load) the codes
and dense run columns time the program's closures, which run on numpy; the
first line printed names the backend a one-gemv program over a quantized
matrix runs on and, for numpy, the reason it has no step.  A compiled
step's second line names the kernel the native runtime chose at load,
``avx2`` or ``portable``, one choice for the packed gemv, the dense one and
attention.  The next line names the backend of a one-gemv program over a
float matrix.  With a compiled step, one more line gives the per-call time
of a step with no records, timed as the run columns are (batches of the
smallest shape's length): the Python and ctypes cost that every codes and
dense run cell includes.

    python3 scripts/bench_gemv.py --sizes 64x64,4096x1024 --bits 2,3,4,8
"""

import argparse
import os
import sys
import time

# numpy's BLAS runs on one thread, as the compiled kernels do (and as
# perfbench/run.py pins it), so the "opt run" column times one core too.  It
# reads these when numpy is imported.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from quantloop import native
from quantloop.kernels import (
    GemvParams,
    Layout,
    Trans,
    bind,
    gemv_naive,
    gemv_sketch,
)
from quantloop.loopir import BufferDecl, Function, IntrinsicCall, LoopProgram, Prepared
from quantloop.quantizer import QuantConfig, quantize_matrix
from quantloop.step import NoStep, build


#: Weights a run column's batch of calls covers per rep.
BATCH_WEIGHTS = 1 << 20


def best_of(fn, reps, calls=1):
    """The best, over `reps`, of the mean time of `calls` calls to `fn`."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return min(times)


def prepared_run(program, env):
    """`program` prepared over `env`: a call that runs it once, on its compiled
    step when it has one, and why it has none (or None)."""
    prepared = Prepared(program, env)
    try:
        step = build(prepared)
    except NoStep as exc:
        return prepared.run, str(exc)
    return lambda: step(()), None


def gemv_program(a, x, y):
    """``y = a @ x`` as a program of one ``gemv``, prepared as :func:`prepared_run` does.

    `a` is a quantized matrix, which the step runs as a packed record, or a
    2-D float32 array, which it runs as a dense one.
    """
    rows, cols = a.shape if isinstance(a, np.ndarray) else (a.rows, a.cols)
    call = IntrinsicCall("gemv", ("RM", "NT", rows, cols, 1.0, "A", cols, "x", 1, 0.0, "y", 1))
    program = LoopProgram(
        buffers=(BufferDecl("A", (rows, cols)), BufferDecl("x", (x.size,)),
                 BufferDecl("y", (y.size,))),
        functions=(Function("f", (call,)),),
    )
    return prepared_run(program, {"A": a, "x": x, "y": y})


def backend(reason) -> str:
    return "native" if reason is None else f"numpy ({reason})"


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

    ones, zeros = np.ones(8, np.float32), np.zeros(2, np.float32)
    _, reason = gemv_program(quantize_matrix(rng.standard_normal((2, 8)).astype(np.float32),
                                             QuantConfig(bit_width=widths[0])), ones, zeros)
    _, dense_reason = gemv_program(np.ones((2, 8), np.float32), ones, zeros)
    print("packed gemv backend: " + backend(reason))
    if reason is None:
        print(f"packed gemv kernel: {native.load().packed_kernel}")
    print("dense gemv backend: " + backend(dense_reason))
    empty, empty_reason = prepared_run(LoopProgram(buffers=(), functions=(Function("f", ()),)),
                                       {})
    if empty_reason is None:
        empty()  # warm up
        calls = max(1, BATCH_WEIGHTS // min(m * n for m, n in shapes))
        print(f"empty step call: {best_of(empty, args.reps, calls) * 1e6:.3f} us "
              f"(a compiled step with no records; every codes and dense run cell includes it)")
    print(f"{'shape':>10} {'bits':>4} {'naive us':>12} {'sketch us':>12} {'opt bind us':>12} "
          f"{'opt run us':>12} {'codes bind us':>14} {'codes run us':>13} {'dense run us':>13} "
          f"{'opt GFLOP/s':>12} {'opt/naive':>10} {'sketch/naive':>13} {'codes/naive':>12} "
          f"{'dense/naive':>12}")
    for m, n in shapes:
        a = rng.standard_normal((m, n)).astype(np.float32)
        x = rng.standard_normal(n).astype(np.float32)
        y = np.zeros(m, dtype=np.float32)
        flat = a.reshape(-1)
        p = GemvParams(layout=Layout.ROW_MAJOR, trans=Trans.NO_TRANS, m=m, n=n,
                       alpha=1.0, beta=0.0, lda=n, incx=1, incy=1)
        calls = max(1, BATCH_WEIGHTS // (m * n))

        bind(flat, x, y, p).run()  # warm up
        t_naive = best_of(lambda: gemv_naive(flat, x, y, p), max(args.reps // 2, 1))
        t_bind = best_of(lambda: bind(flat, x, y, p), args.reps)
        t_opt = best_of(bind(flat, x, y, p).run, args.reps, calls)
        dense, _ = gemv_program(a, x, y)
        dense()  # warm up
        t_dense = best_of(dense, args.reps, calls)
        flops = 2.0 * m * n
        for bits in widths:
            q = quantize_matrix(a, QuantConfig(bit_width=bits))
            t_sketch = best_of(lambda: gemv_sketch(q, x, y, p), max(args.reps // 2, 1))
            t_codes_bind = best_of(lambda: gemv_program(q, x, y), args.reps)
            run, _ = gemv_program(q, x, y)
            run()  # warm up
            t_codes = best_of(run, args.reps, calls)
            print(f"{f'{m}x{n}':>10} {bits:>4} {t_naive * 1e6:>12.1f} {t_sketch * 1e6:>12.1f} "
                  f"{t_bind * 1e6:>12.2f} {t_opt * 1e6:>12.3f} {t_codes_bind * 1e6:>14.2f} "
                  f"{t_codes * 1e6:>13.3f} {t_dense * 1e6:>13.3f} {flops / t_opt / 1e9:>12.2f} "
                  f"{t_naive / t_opt:>9.1f}x {t_naive / t_sketch:>12.1f}x "
                  f"{t_naive / t_codes:>11.1f}x {t_naive / t_dense:>11.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
