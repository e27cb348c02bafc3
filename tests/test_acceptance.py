"""End-to-end acceptance suite.

Nine numbered claims about the toolkit, each verified at its stated
tolerance and time budget.  Every test prints exactly one

    [criterion N] <title>: PASS|FAIL (<seconds>s)

line directly to the terminal (bypassing pytest capture) so a full run
reads as a checklist.
"""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np

from quantloop.bitcodec import pack_bits, unpack_bits
from quantloop.cli import main
from quantloop.gemvpass import run_gemv_pass
from quantloop.kernels import (
    GemvParams,
    Layout,
    Trans,
    gemv_naive,
    gemv_opt,
    gemv_sketch,
)
from quantloop.loopir import (
    Function,
    Load,
    Loop,
    LoopProgram,
    NonAffineExpr,
    parse_program,
    print_program,
)
from quantloop.quantizer import (
    QuantConfig,
    bits_required,
    dequantize,
    init_equal_population,
    quantize_matrix,
    refine,
)
from quantloop.runtime import (
    TOY_CONFIG,
    Engine,
    make_toy_checkpoint,
    serialize_record,
)

from conftest import gemv_scale


@contextmanager
def criterion(capsys, number, title, budget_s=None):
    t0 = time.perf_counter()
    failed = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
            )
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - t0
        verdict = "FAIL" if failed else "PASS"
        with capsys.disabled():
            print(f"[criterion {number}] {title}: {verdict} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. Quantizer worked example
# ---------------------------------------------------------------------------


def test_criterion_1_quantizer_worked_example(capsys):
    with criterion(capsys, 1, "quantizer worked example", budget_s=1.0):
        weights = np.array(
            [0.91, 0.92, 0.89, -0.05, -0.06, -0.04, 1.20, 1.21, 1.19],
            dtype=np.float32,
        )
        assignments, centroids = init_equal_population(weights, 3)
        result = refine(weights, assignments, centroids)
        assert list(result.assignments) == [1, 1, 1, 0, 0, 0, 2, 2, 2]
        assert bits_required(3) == 2
        expected = [-0.05, (0.91 + 0.92 + 0.89) / 3.0, 1.20]
        for got, want in zip(result.centroids, expected):
            assert abs(float(got) - want) <= 1e-6, (got, want)


# ---------------------------------------------------------------------------
# 2. Bit-codec round trip and payload size
# ---------------------------------------------------------------------------


def test_criterion_2_bitcodec_roundtrip(capsys):
    with criterion(capsys, 2, "bit-codec round trip, widths 1..8", budget_s=30.0):
        rng = np.random.default_rng(2)
        for bit_width in range(1, 9):
            for _ in range(1000):
                n = int(rng.integers(0, 10_001))
                codes = rng.integers(0, 1 << bit_width, size=n, dtype=np.uint8)
                buf = pack_bits(codes, bit_width)
                assert len(buf.data) - 1 == math.ceil(n * bit_width / 8)
                out = unpack_bits(buf)
                assert np.array_equal(out, codes)


# ---------------------------------------------------------------------------
# 3. Output-error bound soundness
# ---------------------------------------------------------------------------


def test_criterion_3_error_bound_soundness(capsys):
    with criterion(capsys, 3, "error bound sound on 100 random GEMVs", budget_s=60.0):
        rng = np.random.default_rng(3)
        violations = 0
        for _ in range(100):
            w = rng.standard_normal((256, 512)).astype(np.float32)
            x = rng.standard_normal(512).astype(np.float32)
            q = quantize_matrix(w, QuantConfig(bit_width=3))
            recon = dequantize(q).reshape(256, 512)

            err = recon.astype(np.float64) @ x.astype(np.float64) - w.astype(
                np.float64
            ) @ x.astype(np.float64)
            inf_bound = q.epsilon * float(np.sum(np.abs(x.astype(np.float64))))
            if np.max(np.abs(err)) > inf_bound:
                violations += 1
            if float(np.linalg.norm(err)) > math.sqrt(256) * inf_bound:
                violations += 1
        assert violations == 0


# ---------------------------------------------------------------------------
# 4. Kernel equivalence sweeps
# ---------------------------------------------------------------------------


def test_criterion_4_kernel_equivalence(capsys):
    with criterion(capsys, 4, "gemv_opt/gemv_sketch match reference", budget_s=60.0):
        rng = np.random.default_rng(4)
        for case in range(200):
            m = int(rng.integers(1, 513))
            n = int(rng.integers(1, 513))
            layout = rng.choice(["RM", "CM"])
            alpha = float(rng.choice([1.0, 2.0, -0.5, 0.75]))
            beta = float(rng.choice([0.0, 1.0, 0.5]))
            lda = n if layout == "RM" else m

            dense = rng.standard_normal((m, n)).astype(np.float32)
            flat = np.ascontiguousarray(dense.reshape(-1))
            x = rng.standard_normal(n).astype(np.float32)
            y0 = rng.standard_normal(m).astype(np.float32)
            p = GemvParams(
                layout=Layout(layout), trans=Trans.NO_TRANS, m=m, n=n,
                alpha=alpha, beta=beta, lda=lda, incx=1, incy=1,
            )

            y_ref = y0.copy()
            gemv_naive(flat, x, y_ref, p)
            y_opt = y0.copy()
            gemv_opt(flat, x, y_opt, p)
            scale = gemv_scale(flat, x, y0, layout, "NT", m, n, alpha, beta, lda)
            opt_err = np.abs(
                y_opt.astype(np.float64) - y_ref.astype(np.float64)
            )
            assert np.all(opt_err <= 1e-5 * np.maximum(scale, 1e-30)), f"case {case}"

            q = quantize_matrix(dense, QuantConfig(bit_width=3))
            deq = dequantize(q).reshape(-1)
            y_qref = y0.copy()
            gemv_naive(deq, x, y_qref, p)
            y_sk = y0.copy()
            gemv_sketch(q, x, y_sk, p)
            qscale = gemv_scale(deq, x, y0, layout, "NT", m, n, alpha, beta, lda)
            sk_err = np.abs(
                y_sk.astype(np.float64) - y_qref.astype(np.float64)
            )
            assert np.all(sk_err <= 1e-6 * np.maximum(qscale, 1e-30)), f"case {case}"


# ---------------------------------------------------------------------------
# 5. Pass completeness, soundness, and skip reasons
# ---------------------------------------------------------------------------

_NEGATIVE_EXTRA_STORE = """\
buffer A[4, 3]
buffer x[3]
buffer y[4]
buffer z[4]

func f {
  for i in 0..4 {
    acc s = 0.0
    for k in 0..3 {
      load a = A[i, k]
      load t = x[k]
      update s += a * t
    }
    store z[i] = s
    store y[i] = s
  }
}
"""

_NEGATIVE_UNUSED_LOAD = _NEGATIVE_EXTRA_STORE.replace(
    "store z[i] = s", "load u = z[i]"
)

_NEGATIVE_DEPTH_ONE = """\
buffer x[4]
buffer y[4]

func f {
  for i in 0..4 {
    load a = x[i]
    store y[i] = a
  }
}
"""

_NEGATIVE_ALIASED = """\
buffer A[4, 4]
buffer x[4]

func f {
  for i in 0..4 {
    acc s = 0.0
    for k in 0..4 {
      load a = A[i, k]
      load t = x[k]
      update s += a * t
    }
    store x[i] = s
  }
}
"""


def _negative_non_affine():
    base = parse_program(
        _NEGATIVE_EXTRA_STORE.replace("store z[i] = s\n    ", "")
    )
    fn = base.functions[0]
    nest = fn.body[0]
    inner = nest.body[1]
    bad = Load(dest="a", buffer="A", index=(NonAffineExpr(text="i * k"),))
    inner2 = Loop(iv=inner.iv, lower=inner.lower, upper=inner.upper,
                  body=(bad,) + inner.body[1:])
    nest2 = Loop(iv=nest.iv, lower=nest.lower, upper=nest.upper,
                 body=(nest.body[0], inner2) + nest.body[2:])
    return LoopProgram(
        buffers=base.buffers, params=base.params,
        functions=(Function(name="f", body=(nest2,)),),
    )


def test_criterion_5_pass_completeness_and_soundness(capsys, tmp_path):
    with criterion(
        capsys, 5, "GEMV pass: 15/15 matched, logits agree, skips reasoned",
        budget_s=120.0,
    ):
        # Completeness: every GEMV nest in the synthesized forward program.
        from quantloop.runtime import synthesize_forward_program

        program = synthesize_forward_program(TOY_CONFIG)
        result = run_gemv_pass(program)
        assert result.report()["matched"] == 15
        assert print_program(result.program).count("call gemv(") == 15

        # Soundness: naive vs optimized logits on 20 random checkpoints.
        tokens = [1, 7, 42]
        for seed in range(100, 120):
            path = str(tmp_path / f"ckpt_{seed}.ditf")
            make_toy_checkpoint(path, seed=seed)
            naive = Engine(path, mode="naive")
            fast = Engine(path, mode="optimized")
            for pos, tok in enumerate(tokens):
                ln = naive.forward(tok, pos).astype(np.float64)
                lf = fast.forward(tok, pos).astype(np.float64)
                denom = np.maximum(np.abs(ln), 1.0)
                assert np.all(np.abs(lf - ln) <= 1e-4 * denom), f"seed {seed}"

        # Negative corpus: skipped, correct reason, nest left untouched.
        cases = [
            (parse_program(_NEGATIVE_EXTRA_STORE), "extra-side-effect"),
            (parse_program(_NEGATIVE_UNUSED_LOAD), "extra-side-effect"),
            (_negative_non_affine(), "non-affine"),
            (parse_program(_NEGATIVE_DEPTH_ONE), "not-deep-enough"),
            (parse_program(_NEGATIVE_ALIASED), "extra-side-effect"),
        ]
        for prog, want_reason in cases:
            res = run_gemv_pass(prog)
            assert res.report()["matched"] == 0
            reasons = [r.reason for r in res.records]
            assert reasons == [want_reason], (reasons, want_reason)
            assert print_program(res.program) == print_program(prog)


# ---------------------------------------------------------------------------
# 6. End-to-end determinism
# ---------------------------------------------------------------------------


def test_criterion_6_end_to_end_determinism(capsys, toy_float_path):
    with criterion(
        capsys, 6, "64-token greedy decode is reproducible, naive == optimized",
        budget_s=120.0,
    ):
        run1 = Engine(toy_float_path, mode="optimized").generate([1], steps=64)
        run2 = Engine(toy_float_path, mode="optimized").generate([1], steps=64)
        assert run1.generated_tokens == run2.generated_tokens
        naive = Engine(toy_float_path, mode="naive").generate([1], steps=64)
        assert naive.generated_tokens == run1.generated_tokens


# ---------------------------------------------------------------------------
# 7. Performance
# ---------------------------------------------------------------------------


def test_criterion_7_performance(capsys, toy_quant_path):
    with criterion(
        capsys, 7, "gemv_opt >= 3x reference at 4096x4096; pass speeds decode",
        budget_s=300.0,
    ):
        rng = np.random.default_rng(7)
        n = 4096
        a = rng.standard_normal((n, n)).astype(np.float32).reshape(-1)
        x = rng.standard_normal(n).astype(np.float32)
        y = np.zeros(n, dtype=np.float32)
        p = GemvParams(
            layout=Layout.ROW_MAJOR, trans=Trans.NO_TRANS, m=n, n=n,
            alpha=1.0, beta=0.0, lda=n, incx=1, incy=1,
        )

        def best_of(fn, reps):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn(a, x, y, p)
                times.append(time.perf_counter() - t0)
            return min(times)

        gemv_opt(a, x, y, p)  # warm up the BLAS path
        t_naive = best_of(gemv_naive, 3)
        t_opt = best_of(gemv_opt, 7)
        assert t_naive >= 3.0 * t_opt, f"only {t_naive / t_opt:.2f}x"

        slow = Engine(toy_quant_path, mode="naive").generate([1], steps=6)
        fast = Engine(toy_quant_path, mode="optimized").generate([1], steps=48)
        assert fast.tokens_per_second > slow.tokens_per_second, (
            fast.tokens_per_second, slow.tokens_per_second,
        )


# ---------------------------------------------------------------------------
# 8. Storage footprint
# ---------------------------------------------------------------------------


def test_criterion_8_storage_footprint(capsys, toy_float_path, toy_quant_path):
    with criterion(
        capsys, 8, "3-bit storage <= 0.11x floats; toy file <= 0.13x",
        budget_s=120.0,
    ):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((1024, 4096)).astype(np.float32)
        q = quantize_matrix(w, QuantConfig(bit_width=3))
        blob = serialize_record(q)
        assert len(blob) <= 0.11 * (1024 * 4096 * 4)

        ratio = os.path.getsize(toy_quant_path) / os.path.getsize(toy_float_path)
        assert ratio <= 0.13, ratio


# ---------------------------------------------------------------------------
# 9. Bench report formulas
# ---------------------------------------------------------------------------


def test_criterion_9_bench_formulas(capsys, toy_float_path):
    with criterion(capsys, 9, "bench arithmetic from assumed rate", budget_s=60.0):
        code = main([
            "bench", toy_float_path,
            "--assume-tokens-per-second", "3.5",
            "--gflops-per-token", "12.95",
            "--watts", "18",
        ])
        stdout = capsys.readouterr().out
        assert code == 0
        report = json.loads(stdout)
        assert abs(report["effective_gflops"] - 45.3) <= 0.1
        assert abs(report["joules_per_token"] - 5.14) <= 0.05
