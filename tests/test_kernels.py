import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantloop import native
from quantloop.bitcodec import unpack_slice
from quantloop.intrinsics import bind_gemv, gemv_handler
from quantloop.kernels import (
    SKETCH_TILE_CODES,
    GemvParams,
    GemvShapeError,
    Layout,
    Trans,
    bind,
    gemv_naive,
    gemv_opt,
    gemv_sketch,
    runtime_bound_check,
)
from quantloop.quantizer import (
    Codebook,
    QuantConfig,
    QuantizedMatrix,
    dequantize,
    quantize_matrix,
)
from quantloop.gemvpass import run_gemv_pass
from quantloop.loopir import Prepared
from quantloop.runtime import Engine, read_quantized_checkpoint, synthesize_forward_program

from conftest import (
    assert_elementwise_close,
    gemv_program,
    gemv_scale,
    needs_cc,
    gemv_step,
    packed_kernel,
    packed_kernels,
    random_quantized,
)
from oracles import gemv_reference, native_order_sums

#: Codes the compiled kernel decodes per step (``CHUNK`` in ``_native/step.c``).
NATIVE_CHUNK = 512


def params(layout="RM", trans="NT", m=2, n=3, alpha=1.0, beta=0.0, lda=None,
           incx=1, incy=1):
    return GemvParams(
        layout=Layout(layout),
        trans=Trans(trans),
        m=m,
        n=n,
        alpha=alpha,
        beta=beta,
        lda=lda if lda is not None else (n if layout == "RM" else m),
        incx=incx,
        incy=incy,
    )


# -- pinned hand example -----------------------------------------------------


def test_hand_example_alpha_beta():
    # A = [[1,2,3],[4,5,6]], x = 1s, y0 = [10,20], alpha=2, beta=1
    # A.x = [6,15]  ->  y = 2*[6,15] + [10,20] = [22,50]
    a = np.array([1, 2, 3, 4, 5, 6], dtype=np.float32)
    x = np.ones(3, dtype=np.float32)
    p = params(alpha=2.0, beta=1.0)
    for kernel in (gemv_naive, gemv_opt):
        y = np.array([10, 20], dtype=np.float32)
        kernel(a, x, y, p)
        np.testing.assert_array_equal(y, [22.0, 50.0])


def test_naive_matches_scalar_reference():
    rng = np.random.default_rng(0)
    for layout in ("RM", "CM"):
        for trans in ("NT", "T"):
            m, n = 5, 4
            lda = n if layout == "RM" else m
            a = rng.normal(size=m * n).astype(np.float32)
            x_len = n if trans == "NT" else m
            y_len = m if trans == "NT" else n
            x = rng.normal(size=x_len).astype(np.float32)
            y0 = rng.normal(size=y_len).astype(np.float32)
            p = params(layout, trans, m, n, alpha=1.5, beta=-0.5, lda=lda)
            y = y0.copy()
            gemv_naive(a, x, y, p)
            ref = gemv_reference(a, x, y0, layout, trans, m, n, 1.5, -0.5, lda)
            np.testing.assert_array_equal(y, ref)


# -- optimized kernel sweeps -------------------------------------------------


def test_opt_matches_naive_sweep():
    rng = np.random.default_rng(42)
    for case in range(60):
        layout = rng.choice(["RM", "CM"])
        trans = rng.choice(["NT", "T"])
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        lda_min = n if layout == "RM" else m
        lda = lda_min + int(rng.integers(0, 3))
        rows = m if layout == "RM" else n
        a = rng.normal(size=rows * lda).astype(np.float32)
        alpha = float(rng.normal())
        beta = float(rng.normal())
        x_len = n if trans == "NT" else m
        y_len = m if trans == "NT" else n
        x = rng.normal(size=x_len).astype(np.float32)
        y0 = rng.normal(size=y_len).astype(np.float32)
        p = params(layout, trans, m, n, alpha, beta, lda)

        y_ref = y0.copy()
        gemv_naive(a, x, y_ref, p)
        y_opt = y0.copy()
        gemv_opt(a, x, y_opt, p)
        scale = gemv_scale(a, x, y0, layout, trans, m, n, alpha, beta, lda)
        assert_elementwise_close(
            y_opt, y_ref, scale, 1e-5, f"case {case} {layout}/{trans} {m}x{n}"
        )


def test_opt_overflows_to_inf_without_a_warning():
    # Finite weights whose row sums overflow float32.  gemv_opt stores the
    # infinities silently, as the same call inside a program does: both run
    # under np.errstate(all="ignore"), so numpy's warning is an error here.
    a = np.array([[3e38, 3e38, 1.0], [-3e38, -3e38, 1.0]], np.float32)
    x = np.ones(3, np.float32)
    expect = np.array([np.inf, -np.inf], np.float32)
    y, y_program = np.zeros(2, np.float32), np.zeros(2, np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gemv_opt(a.reshape(-1), x, y, params(m=2, n=3))
        gemv_program(a, x, y_program).run()
    np.testing.assert_array_equal(y.view(np.int32), expect.view(np.int32))
    np.testing.assert_array_equal(y_program.view(np.int32), expect.view(np.int32))


def test_strided_vectors():
    rng = np.random.default_rng(7)
    m, n = 6, 5
    a = rng.normal(size=m * n).astype(np.float32)
    x = rng.normal(size=n * 2).astype(np.float32)  # incx=2
    y0 = rng.normal(size=m * 3).astype(np.float32)  # incy=3
    p = params(m=m, n=n, alpha=1.0, beta=0.5, incx=2, incy=3)
    y_ref = y0.copy()
    gemv_naive(a, x, y_ref, p)
    y_opt = y0.copy()
    gemv_opt(a, x, y_opt, p)
    scale = gemv_scale(a, x, y0, "RM", "NT", m, n, 1.0, 0.5, n, incx=2, incy=3)
    # Untouched positions must be preserved exactly.
    mask = np.ones(y0.size, dtype=bool)
    mask[:: 3] = False
    np.testing.assert_array_equal(y_opt[mask], y0[mask])
    assert_elementwise_close(y_opt[::3], y_ref[::3], scale, 1e-5, "strided")


@pytest.mark.parametrize("layout", ["RM", "CM"])
@pytest.mark.parametrize("trans", ["NT", "T"])
@pytest.mark.parametrize("storage", ["stride2", "reversed"])
def test_strided_storage(layout, trans, storage):
    # The flat storage and both vectors are views with a non-unit (or
    # negative) element stride; each kernel must address them through that
    # stride, and leave the parts of y between its strided elements alone.
    rng = np.random.default_rng(17)
    m, n, incx, incy = 5, 7, 2, 3
    lda = (n if layout == "RM" else m) + 1
    rows = m if layout == "RM" else n
    x_len, y_len = (n, m) if trans == "NT" else (m, n)

    def view(size):
        if storage == "stride2":
            return rng.normal(size=2 * size).astype(np.float32)[::2]
        return rng.normal(size=size).astype(np.float32)[::-1]

    a = view(rows * lda)
    x = view((x_len - 1) * incx + 1)
    y0 = view((y_len - 1) * incy + 1)
    alpha, beta = 1.25, -0.5
    p = params(layout, trans, m, n, alpha, beta, lda, incx, incy)
    ref = gemv_reference(a, x, y0, layout, trans, m, n, alpha, beta, lda, incx, incy)
    scale = gemv_scale(a, x, y0, layout, trans, m, n, alpha, beta, lda, incx, incy)
    for kernel in (gemv_naive, gemv_opt):
        y = view(y0.size)
        y[...] = y0
        kernel(a, x, y, p)
        if kernel is gemv_naive:
            np.testing.assert_array_equal(y, ref)
        else:
            assert_elementwise_close(
                y[::incy], ref[::incy], scale, 1e-5, f"{layout}/{trans} {storage}"
            )
            gaps = np.s_[::incy]
            np.testing.assert_array_equal(np.delete(y, gaps), np.delete(y0, gaps))


# -- quantized (sketch) kernel ----------------------------------------------


def test_sketch_bit_identical_on_native_layout():
    rng = np.random.default_rng(1)
    for case in range(20):
        m = int(rng.integers(1, 40))
        n = int(rng.integers(1, 40))
        w = rng.normal(size=(m, n)).astype(np.float32)
        q = quantize_matrix(w, QuantConfig(bit_width=3))
        x = rng.normal(size=n).astype(np.float32)
        y0 = rng.normal(size=m).astype(np.float32)
        alpha = float(rng.normal())
        beta = float(rng.normal())
        p = params("RM", "NT", m, n, alpha, beta)

        y_sketch = y0.copy()
        gemv_sketch(q, x, y_sketch, p)
        y_naive = y0.copy()
        gemv_naive(dequantize(q).reshape(-1), x, y_naive, p)
        np.testing.assert_array_equal(y_sketch, y_naive)


@settings(max_examples=60, deadline=None)
@given(
    bit_width=st.integers(1, 8),
    rows=st.integers(1, 24),
    # Up to a little over two tiles per row, so both many-rows-per-tile and
    # a row wider than a tile are drawn.
    cols=st.integers(1, 2 * SKETCH_TILE_CODES + 5),
    incx=st.integers(1, 3),
    incy=st.integers(1, 3),
    alpha=st.floats(-4, 4, width=32),
    beta=st.floats(-4, 4, width=32),
    seed=st.integers(0, 2**32 - 1),
)
def test_sketch_tiles_bit_identical_property(
    bit_width, rows, cols, incx, incy, alpha, beta, seed
):
    rng = np.random.default_rng(seed)
    q = random_quantized(rng, rows, cols, bit_width)
    x = rng.normal(size=(cols - 1) * incx + 1).astype(np.float32)
    y0 = rng.normal(size=(rows - 1) * incy + 1).astype(np.float32)
    p = params("RM", "NT", rows, cols, alpha, beta, incx=incx, incy=incy)
    y_sketch = gemv_sketch(q, x, y0.copy(), p)
    y_naive = gemv_naive(dequantize(q).reshape(-1), x, y0.copy(), p)
    np.testing.assert_array_equal(y_sketch, y_naive)


def test_sketch_tile_boundaries_bit_identical():
    # Row counts around whole-tile multiples, and m=1, at every bit width.
    rng = np.random.default_rng(4)
    cols = 64
    tile_rows = SKETCH_TILE_CODES // cols
    for bit_width in range(1, 9):
        for rows in (1, tile_rows - 1, tile_rows, tile_rows + 1, 3 * tile_rows + 2):
            q = random_quantized(rng, rows, cols, bit_width)
            x = rng.normal(size=cols).astype(np.float32)
            y0 = rng.normal(size=rows).astype(np.float32)
            p = params("RM", "NT", rows, cols, 0.75, -1.5)
            y_sketch = gemv_sketch(q, x, y0.copy(), p)
            y_naive = gemv_naive(dequantize(q).reshape(-1), x, y0.copy(), p)
            np.testing.assert_array_equal(y_sketch, y_naive)


def _peak_bytes(kernel, quantized: bool, rows: int, cols: int, bit_width: int = 3) -> int:
    rng = np.random.default_rng(5)
    q = random_quantized(rng, rows, cols, bit_width)
    a = q if quantized else dequantize(q).reshape(-1)
    x = rng.normal(size=cols).astype(np.float32)
    y = np.zeros(rows, dtype=np.float32)
    p = params(m=rows, n=cols)
    kernel(a, x, y, p)  # warm up lazy numpy state outside the measurement
    tracemalloc.start()
    try:
        kernel(a, x, y, p)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sketch_extra_memory_is_per_tile():
    # The tiled kernels' transient memory must not grow with the matrix: a
    # kernel that caches, materializes or copies the whole matrix fails this.
    # The packed path decodes pairs of codes at 1..4 bits and single codes
    # above, so gemv_opt is held to the same bounds at 2, 4 and 8 bits too.
    for kernel, quantized, bit_width in (
        (gemv_sketch, True, 3), (gemv_opt, True, 3), (gemv_naive, False, 3),
        (gemv_opt, True, 2), (gemv_opt, True, 4), (gemv_opt, True, 8),
    ):
        small = _peak_bytes(kernel, quantized, 64, 256, bit_width)
        large = _peak_bytes(kernel, quantized, 4096, 256, bit_width)
        assert large <= 1.25 * small, (kernel.__name__, bit_width, small, large)
        assert large < 64 * 1024, (kernel.__name__, bit_width, large)


def test_sketch_other_layouts_match_reference():
    # Non-native layout/transpose combinations must agree bit for bit with
    # the reference kernel applied to the dequantized flat storage under the
    # same parameters.
    rng = np.random.default_rng(2)
    for layout, trans in (("RM", "T"), ("CM", "NT"), ("CM", "T")):
        m, n = 12, 9
        w = rng.normal(size=(m, n)).astype(np.float32)
        q = quantize_matrix(w, QuantConfig(bit_width=4))
        lda = n if layout == "RM" else m
        x_len = n if trans == "NT" else m
        y_len = m if trans == "NT" else n
        x = rng.normal(size=x_len).astype(np.float32)
        y0 = rng.normal(size=y_len).astype(np.float32)
        p = params(layout, trans, m, n, 1.0, 0.0, lda)
        y_sketch = y0.copy()
        gemv_sketch(q, x, y_sketch, p)
        y_ref = y0.copy()
        gemv_naive(dequantize(q).reshape(-1), x, y_ref, p)
        np.testing.assert_array_equal(y_sketch, y_ref)


def test_sketch_exact_reconstruction_matches_dense_naive():
    # With <= 2^b distinct values, reconstruction is exact, so the sketch
    # output must equal the dense kernel on the original weights bit for bit.
    rng = np.random.default_rng(3)
    values = np.array([-1.5, -0.25, 0.75, 2.0], dtype=np.float32)
    w = values[rng.integers(0, 4, size=(17, 23))]
    q = quantize_matrix(w, QuantConfig(bit_width=2))
    assert q.epsilon == 0.0
    x = rng.normal(size=23).astype(np.float32)
    y_sketch = np.zeros(17, dtype=np.float32)
    gemv_sketch(q, x, y_sketch, params(m=17, n=23))
    y_dense = np.zeros(17, dtype=np.float32)
    gemv_naive(w.reshape(-1), x, y_dense, params(m=17, n=23))
    np.testing.assert_array_equal(y_sketch, y_dense)


# -- shape validation --------------------------------------------------------


def test_params_validation():
    with pytest.raises(GemvShapeError):
        params(m=0)
    with pytest.raises(GemvShapeError):
        params(lda=2)  # lda < n for row-major
    with pytest.raises(GemvShapeError):
        GemvParams(
            layout=Layout.ROW_MAJOR, trans=Trans.NO_TRANS,
            m=2, n=2, alpha=1.0, beta=0.0, lda=2, incx=0,
        )


def test_kernel_rejects_short_buffers():
    a = np.zeros(6, dtype=np.float32)
    p = params(m=2, n=3)
    with pytest.raises(GemvShapeError):
        gemv_naive(a, np.zeros(2, dtype=np.float32), np.zeros(2, dtype=np.float32), p)
    with pytest.raises(GemvShapeError):
        gemv_naive(a, np.zeros(3, dtype=np.float32), np.zeros(1, dtype=np.float32), p)
    with pytest.raises(GemvShapeError):
        gemv_naive(a[:5], np.zeros(3, dtype=np.float32), np.zeros(2, dtype=np.float32), p)


def test_sketch_lda_must_be_dense():
    w = np.ones((2, 3), dtype=np.float32)
    q = quantize_matrix(w, QuantConfig(bit_width=1))
    with pytest.raises(GemvShapeError):
        gemv_sketch(
            q, np.zeros(3, dtype=np.float32), np.zeros(2, dtype=np.float32),
            params(m=2, n=3, lda=4),
        )


# -- error bounds ------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_bound_exceeds_every_threshold(bad):
    # A NaN bound compares false with everything, so "over the threshold"
    # must be "not within it" for the fallback to take the call.
    q = quantize_matrix(np.eye(4, 6, dtype=np.float32), QuantConfig(bit_width=2))
    x = np.ones(6, dtype=np.float32)
    x[2] = bad
    bound = runtime_bound_check(q, x)
    assert not bound <= 1e30


def test_bounds_hold_on_random_matrices():
    rng = np.random.default_rng(13)
    for trial in range(30):
        m = int(rng.integers(2, 32))
        n = int(rng.integers(2, 32))
        w = rng.normal(size=(m, n)).astype(np.float32)
        q = quantize_matrix(w, QuantConfig(bit_width=2))
        x = rng.normal(size=n).astype(np.float32)
        y_q = np.zeros(m, dtype=np.float32)
        gemv_sketch(q, x, y_q, params(m=m, n=n))
        y_f = np.zeros(m, dtype=np.float32)
        gemv_naive(w.reshape(-1), x, y_f, params(m=m, n=n))
        diff = y_q.astype(np.float64) - y_f.astype(np.float64)
        bound = runtime_bound_check(q, x)
        assert np.abs(diff).max() <= bound
        assert np.linalg.norm(diff) <= np.sqrt(m) * bound


# -- codes kernel --------------------------------------------------------------


def assert_codes_close_to_sketch(q, x, y0, p):
    y_codes = gemv_opt(q, x, y0.copy(), p)
    y_sketch = gemv_sketch(q, x, y0.copy(), p)
    # The two compute the same exact product, so their gap is rounding
    # alone: the float32 bound with epsilon set to 0.
    bound = runtime_bound_check(
        replace(q, epsilon=0.0), x[:: p.incx][: p.x_len],
        alpha=p.alpha, beta=p.beta, y=y0[:: p.incy][: p.y_len],
    )
    gap = np.abs(y_codes.astype(np.float64) - y_sketch).max()
    assert gap <= bound, (gap, bound)
    # Only the elements the call writes may change.
    untouched = np.ones(y0.size, dtype=bool)
    untouched[:: p.incy][: p.y_len] = False
    np.testing.assert_array_equal(y_codes[untouched], y0[untouched])
    return y_codes


@settings(max_examples=40, deadline=None)
@given(
    bit_width=st.integers(1, 8),
    rows=st.integers(1, 24),
    # Rows up to a little wider than a numpy tile.
    cols=st.integers(1, SKETCH_TILE_CODES + 13),
    incx=st.integers(1, 3),
    incy=st.integers(1, 3),
    alpha=st.floats(-4, 4, width=32),
    beta=st.floats(-4, 4, width=32),
    seed=st.integers(0, 2**32 - 1),
)
def test_codes_agrees_with_sketch_within_rounding_property(
    bit_width, rows, cols, incx, incy, alpha, beta, seed
):
    rng = np.random.default_rng(seed)
    q = random_quantized(rng, rows, cols, bit_width)
    x = rng.normal(size=(cols - 1) * incx + 1).astype(np.float32)
    y0 = rng.normal(size=(rows - 1) * incy + 1).astype(np.float32)
    p = params("RM", "NT", rows, cols, alpha, beta, incx=incx, incy=incy)
    assert_codes_close_to_sketch(q, x, y0, p)


def test_codes_tile_edges():
    # m = 1, rows that start mid-group (odd cols), rows around the decoder's
    # 8-code groups, and rows around a numpy tile, at every bit width.
    rng = np.random.default_rng(21)
    for bit_width in range(1, 9):
        for cols in (1, 7, 8, 9, 23, 64, 172, SKETCH_TILE_CODES + 37):
            tile_rows = max(1, SKETCH_TILE_CODES // cols)
            for rows in sorted({1, 2, 3, tile_rows, tile_rows + 1}):
                q = random_quantized(rng, rows, cols, bit_width)
                x = rng.normal(size=cols).astype(np.float32)
                y0 = rng.normal(size=rows).astype(np.float32)
                p = params(m=rows, n=cols, alpha=0.75, beta=-1.5)
                assert_codes_close_to_sketch(q, x, y0, p)


def test_kernels_never_load_the_native_runtime(monkeypatch, toy_quant_path):
    # Only the compiled step hands C a pointer.  With the loader refusing,
    # gemv_opt and a bound call's run still take packed codes, within the
    # float32 bound of the oracle, and the closures decode a .ditq to the
    # compiled engine's greedy tokens.
    expect = Engine(toy_quant_path).generate([1, 2, 3], steps=8).generated_tokens

    def refuse():
        raise AssertionError("the native runtime was loaded")

    monkeypatch.setattr(native, "load", refuse)
    rng = np.random.default_rng(35)
    q = random_quantized(rng, 40, 70, 3)
    x = rng.normal(size=70).astype(np.float32)
    y0 = rng.normal(size=40).astype(np.float32)
    p = params(m=40, n=70, alpha=1.5, beta=-0.5)
    y_codes = assert_codes_close_to_sketch(q, x, y0, p)
    np.testing.assert_array_equal(bind(q, x, y0.copy(), p).run(), y_codes)

    config, env = read_quantized_checkpoint(toy_quant_path)
    program = run_gemv_pass(synthesize_forward_program(config)).program
    for decl in program.buffers:
        env.setdefault(decl.name, np.zeros(decl.extents, np.float32))
    prepared = Prepared(program, env, function="step")

    def forward(token, pos):
        env.update(token=token, pos=pos)
        prepared.run()
        return int(np.argmax(env["logits"]))

    forward(1, 0)
    forward(2, 1)
    tokens = [forward(3, 2)]
    while len(tokens) < len(expect):
        tokens.append(forward(tokens[-1], 2 + len(tokens)))
    assert tokens == expect


def test_packed_decode_matches_unpack_slice():
    # A one-hot x = e_k with alpha = 1 and beta = 0 makes each y element the
    # weight itself, so the packed path's decode is checked against the
    # oracle's bit for bit, column by column, at every width.  Odd widths
    # and odd column counts make rows start mid-group, and the code counts
    # both fill their last group and stop short of it.
    rng = np.random.default_rng(26)
    for bit_width in range(1, 9):
        for cols in (1, 7, 23, 64, 172):
            for rows in (1, 2, 3, 5, 9):
                q = random_quantized(rng, rows, cols, bit_width)
                codes = unpack_slice(q.indices, 0, rows * cols).reshape(rows, cols)
                x = np.zeros(cols, np.float32)
                y = np.zeros(rows, np.float32)
                call = bind(q, x, y, params(m=rows, n=cols))
                for k in range(cols):
                    x[:] = 0.0
                    x[k] = 1.0
                    call.run()
                    np.testing.assert_array_equal(
                        y, q.codebook.centroids[codes[:, k]],
                        err_msg=f"b={bit_width} {rows}x{cols} column {k}",
                    )


@needs_cc
@settings(max_examples=60, deadline=None)
@given(
    bit_width=st.integers(1, 8),
    rows=st.integers(1, 20),
    # Up to a little over two of the compiled kernel's decode steps per row.
    cols=st.integers(1, 2 * NATIVE_CHUNK + 13),
    incx=st.integers(1, 3),
    incy=st.integers(1, 3),
    alpha=st.sampled_from([1.0, -0.5, 3.0]),
    beta=st.sampled_from([0.0, 1.0, 0.25]),
    seed=st.integers(0, 2**32 - 1),
)
@example(bit_width=3, rows=2, cols=NATIVE_CHUNK - 1, incx=1, incy=1, alpha=1.0, beta=0.0, seed=0)
@example(bit_width=5, rows=3, cols=NATIVE_CHUNK + 9, incx=2, incy=3, alpha=-0.5, beta=1.0,
         seed=1)
# The AVX2 kernel's cases: 4-row blocks, a leftover row and a tail; 1 and 4 bits.
@example(bit_width=4, rows=9, cols=NATIVE_CHUNK + 13, incx=1, incy=2, alpha=-0.5, beta=0.25,
         seed=3)
@example(bit_width=1, rows=5, cols=23, incx=1, incy=1, alpha=3.0, beta=1.0, seed=4)
# Its 8-row blocks at 1-4 bits: one block, two, and two plus a leftover row.
# 23 and 172 cols at 3 bits start rows at nonzero bit offsets (every one of
# 0-7, and 0 and 4); at 4 bits 23 cols make half the rows start mid-byte, so
# every window is read as a word.  At 1 bit the last block of 16x64 reads
# fast into the stream's guard byte and the padding after it.
@example(bit_width=1, rows=16, cols=64, incx=1, incy=2, alpha=3.0, beta=0.25, seed=15)
@example(bit_width=2, rows=8, cols=NATIVE_CHUNK + 13, incx=1, incy=1, alpha=1.0, beta=0.0,
         seed=16)
@example(bit_width=3, rows=17, cols=23, incx=1, incy=3, alpha=-0.5, beta=1.0, seed=17)
@example(bit_width=3, rows=16, cols=172, incx=1, incy=1, alpha=1.0, beta=0.25, seed=18)
@example(bit_width=4, rows=17, cols=172, incx=1, incy=1, alpha=3.0, beta=0.0, seed=19)
@example(bit_width=4, rows=8, cols=23, incx=1, incy=2, alpha=-0.5, beta=0.25, seed=20)
# Its gathered windows at 5-8 bits: 4-row blocks, leftover rows and tails.
# Odd cols at 5 and 7 bits start the 9 rows at every bit offset 0-7.  The
# last window's 8-byte read ends at the stream's guard byte at 7 and 8 bits,
# and 2 bytes into the padding at 6 bits, whose codes end just before the guard.
@example(bit_width=5, rows=9, cols=NATIVE_CHUNK + 13, incx=1, incy=1, alpha=1.0, beta=0.0,
         seed=11)
@example(bit_width=6, rows=6, cols=22, incx=1, incy=2, alpha=-0.5, beta=0.25, seed=12)
@example(bit_width=7, rows=9, cols=23, incx=1, incy=1, alpha=3.0, beta=1.0, seed=13)
@example(bit_width=8, rows=5, cols=71, incx=1, incy=3, alpha=1.0, beta=0.25, seed=14)
def test_native_kernel_sums_in_its_documented_order_property(
    bit_width, rows, cols, incx, incy, alpha, beta, seed
):
    # The compiled kernel, run as a one-gemv compiled step, against a numpy
    # emulation of the order step.c documents, bit for bit, on strided
    # vectors; the elements between y's strided ones stay as they were.
    # Every packed kernel the host runs is checked: the AVX2 one takes every
    # width with unit incx, the portable one every call.
    rng = np.random.default_rng(seed)
    q = random_quantized(rng, rows, cols, bit_width)
    x = rng.normal(size=(cols - 1) * incx + 1).astype(np.float32)
    y0 = rng.normal(size=(rows - 1) * incy + 1).astype(np.float32)
    s = native_order_sums(dequantize(q), x[::incx])
    expect = y0.copy()
    expect[::incy] = np.float32(alpha) * s + np.float32(beta) * y0[::incy]
    for kernel in packed_kernels():
        with packed_kernel(kernel):
            y = y0.copy()
            assert gemv_step(q, x, y, alpha, beta, incx, incy)(()) == 0
            np.testing.assert_array_equal(y.view(np.int32), expect.view(np.int32))


@needs_cc
@settings(max_examples=40, deadline=None)
@given(
    bit_width=st.integers(1, 8),
    rows=st.integers(1, 20),
    cols=st.integers(1, 2 * NATIVE_CHUNK + 13),
    incx=st.integers(1, 3),
    incy=st.integers(1, 3),
    alpha=st.sampled_from([1.0, -0.5, 3.0]),
    beta=st.sampled_from([0.0, 1.0, 0.25]),
    seed=st.integers(0, 2**32 - 1),
)
@example(bit_width=3, rows=3, cols=NATIVE_CHUNK + 13, incx=3, incy=2, alpha=-0.5, beta=0.25,
         seed=2)
@example(bit_width=4, rows=9, cols=172, incx=1, incy=1, alpha=1.0, beta=0.0, seed=5)
# The AVX2 dense kernel's cases: one and two 8-row blocks, a leftover row with
# a tail (the toy's w1 and w3 are 172 rows), a strided y; incx = 2 takes the
# portable dense kernel.
@example(bit_width=3, rows=8, cols=64, incx=1, incy=1, alpha=1.0, beta=0.0, seed=6)
@example(bit_width=2, rows=16, cols=NATIVE_CHUNK + 5, incx=1, incy=1, alpha=3.0, beta=1.0,
         seed=7)
@example(bit_width=5, rows=17, cols=172, incx=1, incy=1, alpha=-0.5, beta=0.25, seed=8)
@example(bit_width=4, rows=16, cols=23, incx=1, incy=2, alpha=1.0, beta=1.0, seed=9)
@example(bit_width=3, rows=16, cols=64, incx=2, incy=1, alpha=1.0, beta=0.0, seed=10)
def test_dense_gemv_record_sums_in_the_packed_kernels_order_property(
    bit_width, rows, cols, incx, incy, alpha, beta, seed
):
    # The dense record sums as the packed one does, bit for bit, so a
    # quantized matrix and its dequantized copy give the same y through the
    # compiled step, on every packed kernel the host runs.
    rng = np.random.default_rng(seed)
    q = random_quantized(rng, rows, cols, bit_width)
    dense = dequantize(q)
    x = rng.normal(size=(cols - 1) * incx + 1).astype(np.float32)
    y0 = rng.normal(size=(rows - 1) * incy + 1).astype(np.float32)
    expect = y0.copy()
    s = native_order_sums(dense, x[::incx])
    expect[::incy] = np.float32(alpha) * s + np.float32(beta) * y0[::incy]
    for kernel in packed_kernels():
        with packed_kernel(kernel):
            for a in (dense, q):
                y = y0.copy()
                assert gemv_step(a, x, y, alpha, beta, incx, incy)(()) == 0
                np.testing.assert_array_equal(y.view(np.int32), expect.view(np.int32),
                                              err_msg=type(a).__name__)


def test_codes_other_layouts_share_the_sketch_fallback():
    # Layouts the codes are not packed in run the dense product on one
    # read-only reconstruction, so they equal gemv_opt on the dequantized
    # storage bit for bit and the ordered sketch within the float32 bound.
    # The packed layout (three tiles, strided vectors) rides along: through
    # the gemv intrinsic every layout gives what gemv_opt gives.
    rng = np.random.default_rng(22)
    for layout, trans, m, n, incx, incy in (
        ("RM", "T", 12, 9, 1, 1), ("CM", "NT", 12, 9, 1, 1), ("CM", "T", 12, 9, 1, 1),
        ("RM", "NT", 70, 40, 2, 3),
    ):
        q = random_quantized(rng, m, n, 4)
        lda = n if layout == "RM" else m
        p = params(layout, trans, m, n, 1.5, 0.5, lda, incx, incy)
        x = rng.normal(size=(p.x_len - 1) * incx + 1).astype(np.float32)
        y0 = rng.normal(size=(p.y_len - 1) * incy + 1).astype(np.float32)
        y_codes = assert_codes_close_to_sketch(q, x, y0, p)
        y = y0.copy()
        call = bind_gemv(layout, trans, m, n, 1.5, q, lda, x, incx, 0.5, y, incy)
        gemv_handler(call)
        np.testing.assert_array_equal(y, y_codes)
        if (layout, trans) == ("RM", "NT"):
            assert call.view is None
            continue
        assert not call.view.flags.writeable
        np.testing.assert_array_equal(
            y_codes, gemv_opt(dequantize(q).reshape(-1), x, y0.copy(), p)
        )


def test_codes_checks_like_the_sketch():
    q = random_quantized(np.random.default_rng(23), 2, 3, 1)
    x, y = np.zeros(3, dtype=np.float32), np.zeros(2, dtype=np.float32)
    for p in (params(m=2, n=3, lda=4), params(m=3, n=2)):
        with pytest.raises(GemvShapeError):
            gemv_opt(q, x, y, p)
    with pytest.raises(GemvShapeError):
        gemv_opt(q, x[:2], y, params(m=2, n=3))


def test_handler_runs_packed_calls_as_gemv_codes():
    # The packed layout runs straight on the codes: no reconstruction is bound.
    rng = np.random.default_rng(24)
    q = random_quantized(rng, 70, 40, 3)
    x = rng.normal(size=2 * 40 - 1).astype(np.float32)
    y0 = rng.normal(size=3 * 70 - 2).astype(np.float32)
    y = y0.copy()
    call = bind_gemv("RM", "NT", 70, 40, -0.5, q, 40, x, 2, 1.0, y, 3)
    assert call.view is None
    gemv_handler(call)
    expect = gemv_opt(q, x, y0.copy(), params(m=70, n=40, alpha=-0.5, beta=1.0, incx=2, incy=3))
    np.testing.assert_array_equal(y, expect)


def test_handler_runs_other_layouts_over_one_reconstruction():
    rng = np.random.default_rng(25)
    q = random_quantized(rng, 12, 9, 2)
    x = rng.normal(size=12).astype(np.float32)
    y = np.zeros(9, dtype=np.float32)
    call = bind_gemv("RM", "T", 12, 9, 1.0, q, 9, x, 1, 0.0, y, 1)
    assert call.view is not None and not call.view.flags.writeable
    gemv_handler(call)
    expect = gemv_opt(dequantize(q).reshape(-1), x, np.zeros(9, dtype=np.float32), params("RM", "T", 12, 9))
    np.testing.assert_array_equal(y, expect)


# -- float32 bound -------------------------------------------------------------


def test_runtime_bound_covers_float32_rounding_when_epsilon_is_zero():
    # 8 distinct values at 3 bits reconstruct exactly, so the exact bound is
    # 0, yet the ordered and reassociating sums differ in float32.
    rng = np.random.default_rng(26)
    values = np.linspace(-1.0, 1.0, 8, dtype=np.float32)
    w = values[rng.integers(0, 8, size=(172, 256))]
    q = quantize_matrix(w, QuantConfig(bit_width=3))
    assert q.epsilon == 0.0
    x = rng.normal(size=256).astype(np.float32)
    p = params(m=172, n=256)
    y_f = gemv_opt(w.reshape(-1), x, np.zeros(172, dtype=np.float32), p)
    bound = runtime_bound_check(q, x)
    assert bound > 0.0
    for kernel in (gemv_sketch, gemv_opt):
        y_q = kernel(q, x, np.zeros(172, dtype=np.float32), p)
        assert np.abs(y_q.astype(np.float64) - y_f).max() <= bound


def test_runtime_bound_terms():
    # eps 0, c = 2, x = [1, -2, 3]: g_3 * 2c * 6, inflated by (3+16) ulps.
    q = random_quantized(np.random.default_rng(27), 2, 3, 1)
    q = replace(q, codebook=Codebook(np.array([-2.0, 1.0], dtype=np.float32), 1))
    x = np.array([1, -2, 3], dtype=np.float32)
    u = 2.0**-24
    g3 = 3 * u / (1 - 3 * u)
    bound = runtime_bound_check(q, x)
    assert type(bound) is float
    assert g3 * 4 * 6 < bound <= g3 * 4 * 6 * (1 + 2**-40)
    # alpha = -1, beta = 0 stores exactly; any other alpha or beta adds the
    # store's rounding, and beta != 0 needs the old y.
    assert runtime_bound_check(q, x, alpha=-1.0) == bound
    assert runtime_bound_check(q, x, alpha=1.0, beta=0.5, y=np.ones(2, np.float32)) > bound
    assert runtime_bound_check(q, x, alpha=2.0) > 2 * bound
    with pytest.raises(ValueError, match="old y"):
        runtime_bound_check(q, x, beta=0.5)


@settings(max_examples=60, deadline=None)
@given(
    bit_width=st.integers(1, 8),
    # Up to 80 rows of up to two tiles and a bit: taller than a tile for
    # any row wider than 12 codes, and rows wider than a tile.
    rows=st.integers(1, 80),
    cols=st.integers(1, 2 * SKETCH_TILE_CODES + 5),
    incx=st.integers(1, 3),
    incy=st.integers(1, 3),
    alpha=st.sampled_from([1.0, 2.0, -0.5]),
    beta=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_float32_bound_holds_for_every_kernel_pair_property(
    bit_width, rows, cols, incx, incy, alpha, beta, seed
):
    # random_quantized draws at most 2^b distinct values with epsilon 0, so
    # its reconstruction is the float matrix itself: every gap between a
    # quantized and a float kernel is float32 rounding.
    rng = np.random.default_rng(seed)
    q = random_quantized(rng, rows, cols, bit_width)
    w = dequantize(q).reshape(-1)
    x = rng.normal(size=(cols - 1) * incx + 1).astype(np.float32)
    y0 = rng.normal(size=(rows - 1) * incy + 1).astype(np.float32)
    p = params("RM", "NT", rows, cols, alpha, beta, incx=incx, incy=incy)
    bound = runtime_bound_check(q, x[::incx], alpha=alpha, beta=beta, y=y0[::incy])
    assert bound > 0.0
    for quantized in (gemv_sketch, gemv_opt):
        y_q = quantized(q, x, y0.copy(), p).astype(np.float64)
        for dense in (gemv_naive, gemv_opt):
            gap = np.abs(y_q - dense(w, x, y0.copy(), p)).max()
            assert gap <= bound, (quantized.__name__, dense.__name__, gap, bound)


# -- the in-place alpha/beta store -------------------------------------------


@pytest.mark.parametrize("alpha", [1.0, 2.0, -0.5])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_store_matches_the_formula_bit_for_bit(alpha, beta):
    # Every kernel stores fl(fl(alpha * s) + fl(beta * y0)) in that operand
    # order, where s is its own row sums.  Checked on the int32 bits, so NaN
    # payloads, the NaN that 0 * inf makes and the sign of zero all count.
    # y0 holds NaN, +-inf and -0.0, and x and y are strided.
    rng = np.random.default_rng(31)
    m, n, incx, incy = 172, 61, 2, 3  # 61 columns: 7 full groups of 8, then a tail
    q = random_quantized(rng, m, n, 3)
    dense = dequantize(q)
    x = rng.normal(size=(n - 1) * incx + 1).astype(np.float32)
    y0 = rng.normal(size=(m - 1) * incy + 1).astype(np.float32)
    y0[[0, 3, 6, 9]] = [np.nan, np.inf, -np.inf, -0.0]
    p = params(m=m, n=n, alpha=alpha, beta=beta, incx=incx, incy=incy)
    x_eff, y_eff0 = x[::incx], y0[::incy]
    # A packed gemv_opt reduces each tile with one matmul; the compiled
    # step's packed kernel sums in the order step.c documents.
    tile = SKETCH_TILE_CODES // n
    ordered = np.cumsum(dense * x_eff, axis=1)[:, -1]

    def compiled(a, x, y, p):
        assert gemv_step(a, x, y, p.alpha, p.beta, p.incx, p.incy)(()) == 0

    sums = {
        "dense gemv_opt": (gemv_opt, dense.reshape(-1), dense @ x_eff),
        "packed gemv_opt": (gemv_opt, q, np.concatenate(
            [dense[r0 : r0 + tile] @ x_eff for r0 in range(0, m, tile)])),
        "gemv_naive": (gemv_naive, dense.reshape(-1), ordered),
        "gemv_sketch": (gemv_sketch, q, ordered),
    }
    if native.load().step is not None:
        sums["compiled packed step"] = (compiled, q, native_order_sums(dense, x_eff))
    with np.errstate(invalid="ignore"):
        for name, (kernel, a, s) in sums.items():
            expect = y0.copy()
            expect[::incy] = np.float32(alpha) * s + np.float32(beta) * y_eff0
            y = y0.copy()
            kernel(a, x, y, p)
            np.testing.assert_array_equal(y.view(np.int32), expect.view(np.int32), err_msg=name)


def test_dense_call_allocates_one_y_sized_temporary():
    # The product's result is the only array a bound dense call allocates:
    # alpha and beta scale it and y in place.
    rng = np.random.default_rng(32)
    m, n = 256, 64
    a = rng.normal(size=m * n).astype(np.float32)
    x = rng.normal(size=n).astype(np.float32)
    y = rng.normal(size=m).astype(np.float32)
    for alpha, beta in ((1.0, 0.0), (2.0, 0.5)):
        call = bind_gemv("RM", "NT", m, n, alpha, a.reshape(m, n), n, x, 1, beta, y, 1)
        call.run()  # warm up lazy numpy state outside the measurement
        tracemalloc.start()
        try:
            call.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= y.nbytes + 1024, (alpha, beta, peak)


@pytest.mark.parametrize("storage", ["contiguous", "stride2", "reversed"])
def test_dense_view_is_a_read_only_view_of_storage(storage):
    # Whole rows split the storage's one axis, which never copies; the last
    # row stopping short of lda takes the as_strided path.  Either way the
    # view reads the caller's storage and cannot write it.
    rng = np.random.default_rng(33)
    m, n, lda = 4, 5, 7
    for size in (m * lda, (m - 1) * lda + n):
        base = rng.normal(size=2 * size).astype(np.float32)
        a = {"contiguous": base[:size], "stride2": base[::2], "reversed": base[::-1][:size]}[storage]
        call = bind_gemv("RM", "NT", m, n, 1.0, a, lda, np.ones(n, np.float32), 1, 0.0,
                         np.zeros(m, np.float32), 1)
        assert np.shares_memory(call.view, a)
        assert not call.view.flags.writeable
        expect = np.stack([a[r * lda : r * lda + n] for r in range(m)])
        np.testing.assert_array_equal(call.view, expect)
