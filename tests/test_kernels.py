import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantloop.bitcodec import pack_bits
from quantloop.intrinsics import bind_gemv, gemv_handler
from quantloop.kernels import (
    SKETCH_TILE_CODES,
    BoundReport,
    GemvParams,
    GemvShapeError,
    Layout,
    Trans,
    error_bound,
    gemv_codes,
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

from conftest import assert_elementwise_close, gemv_scale
from oracles import gemv_reference


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


def random_quantized(rng, rows, cols, bit_width) -> QuantizedMatrix:
    """A quantized matrix with random codes, built without running the quantizer."""
    centroids = np.sort(rng.normal(size=1 << bit_width)).astype(np.float32)
    codes = rng.integers(0, 1 << bit_width, size=rows * cols)
    return QuantizedMatrix(
        rows=rows,
        cols=cols,
        codebook=Codebook(centroids=centroids, bit_width=bit_width),
        indices=pack_bits(codes, bit_width),
        epsilon=0.0,
    )


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


def _peak_bytes(kernel, rows: int, cols: int) -> int:
    rng = np.random.default_rng(5)
    q = random_quantized(rng, rows, cols, 3)
    a = q if kernel in (gemv_sketch, gemv_codes) else dequantize(q).reshape(-1)
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
    for kernel in (gemv_sketch, gemv_codes, gemv_naive):
        small = _peak_bytes(kernel, 64, 256)
        large = _peak_bytes(kernel, 4096, 256)
        assert large <= 1.25 * small, (kernel.__name__, small, large)
        assert large < 64 * 1024, (kernel.__name__, large)


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


def test_bound_formulas_hand_example():
    # eps=0.1, x=[1,-2,3] -> ||x||_1 = 6 -> inf 0.6; M=4 -> l2 = 2*0.6 = 1.2
    rep = error_bound(0.1, np.array([1, -2, 3], dtype=np.float32), 4)
    assert rep.x_l1_norm == 6.0
    assert rep.inf_bound == pytest.approx(0.6, rel=1e-12)
    assert rep.l2_bound == pytest.approx(1.2, rel=1e-12)


def test_runtime_bound_check_threshold():
    rng = np.random.default_rng(8)
    w = rng.normal(size=(4, 6)).astype(np.float32)
    q = quantize_matrix(w, QuantConfig(bit_width=1))
    x = np.ones(6, dtype=np.float32)
    rep = runtime_bound_check(q, x, threshold=1e9)
    assert not rep.threshold_exceeded
    rep2 = runtime_bound_check(q, x, threshold=rep.inf_bound / 2)
    assert rep2.threshold_exceeded
    rep3 = runtime_bound_check(q, x)
    assert rep3.threshold is None and not rep3.threshold_exceeded


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
        rep = error_bound(q.epsilon, x, m)
        assert np.abs(diff).max() <= rep.inf_bound
        assert np.linalg.norm(diff) <= rep.l2_bound


# -- codes kernel --------------------------------------------------------------


def assert_codes_close_to_sketch(q, x, y0, p):
    y_codes = gemv_codes(q, x, y0.copy(), p)
    y_sketch = gemv_sketch(q, x, y0.copy(), p)
    # The two compute the same exact product, so their gap is rounding
    # alone: the float32 bound with epsilon set to 0.
    bound = runtime_bound_check(
        replace(q, epsilon=0.0), x[:: p.incx][: p.n],
        alpha=p.alpha, beta=p.beta, y=y0[:: p.incy][: p.m],
    ).inf_bound
    gap = np.abs(y_codes.astype(np.float64) - y_sketch).max()
    assert gap <= bound, (gap, bound)
    # Only the elements the call writes may change.
    untouched = np.ones(y0.size, dtype=bool)
    untouched[:: p.incy][: p.m] = False
    np.testing.assert_array_equal(y_codes[untouched], y0[untouched])


@settings(max_examples=40, deadline=None)
@given(
    bit_width=st.integers(1, 8),
    rows=st.integers(1, 24),
    cols=st.integers(1, 2 * SKETCH_TILE_CODES + 5),
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
    # m = 1, row counts around exact multiples of a tile, and rows wider
    # than a tile, at every bit width.
    rng = np.random.default_rng(21)
    for bit_width in range(1, 9):
        for cols in (64, SKETCH_TILE_CODES, SKETCH_TILE_CODES + 37):
            tile_rows = max(1, SKETCH_TILE_CODES // cols)
            for rows in (1, tile_rows, tile_rows + 1, 3 * tile_rows):
                q = random_quantized(rng, rows, cols, bit_width)
                x = rng.normal(size=cols).astype(np.float32)
                y0 = rng.normal(size=rows).astype(np.float32)
                assert_codes_close_to_sketch(q, x, y0, params(m=rows, n=cols, alpha=0.75, beta=-1.5))


def test_codes_other_layouts_share_the_sketch_fallback():
    # Layouts the codes are not packed in reconstruct the matrix and run the
    # reference kernel, exactly as gemv_sketch does.
    rng = np.random.default_rng(22)
    for layout, trans in (("RM", "T"), ("CM", "NT"), ("CM", "T")):
        m, n = 12, 9
        q = random_quantized(rng, m, n, 4)
        lda = n if layout == "RM" else m
        x = rng.normal(size=n if trans == "NT" else m).astype(np.float32)
        y0 = rng.normal(size=m if trans == "NT" else n).astype(np.float32)
        p = params(layout, trans, m, n, 1.5, 0.5, lda)
        y_codes = gemv_codes(q, x, y0.copy(), p)
        np.testing.assert_array_equal(y_codes, gemv_sketch(q, x, y0.copy(), p))
        np.testing.assert_array_equal(
            y_codes, gemv_naive(dequantize(q).reshape(-1), x, y0.copy(), p)
        )


def test_codes_checks_like_the_sketch():
    q = random_quantized(np.random.default_rng(23), 2, 3, 1)
    x, y = np.zeros(3, dtype=np.float32), np.zeros(2, dtype=np.float32)
    for p in (params(m=2, n=3, lda=4), params(m=3, n=2)):
        with pytest.raises(GemvShapeError):
            gemv_codes(q, x, y, p)
    with pytest.raises(GemvShapeError):
        gemv_codes(q, x[:2], y, params(m=2, n=3))


def test_handler_runs_packed_calls_as_gemv_codes():
    rng = np.random.default_rng(24)
    q = random_quantized(rng, 70, 40, 3)
    x = rng.normal(size=2 * 40 - 1).astype(np.float32)
    y0 = rng.normal(size=3 * 70 - 2).astype(np.float32)
    y = y0.copy()
    call = bind_gemv("RM", "NT", 70, 40, -0.5, q, 40, x, 2, 1.0, y, 3)
    assert call.view is None
    gemv_handler(call)
    expect = gemv_codes(q, x, y0.copy(), params(m=70, n=40, alpha=-0.5, beta=1.0, incx=2, incy=3))
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
    rep = runtime_bound_check(q, x)
    assert error_bound(q.epsilon, x, 172).inf_bound == 0.0
    assert rep.inf_bound > 0.0
    for kernel in (gemv_sketch, gemv_codes):
        y_q = kernel(q, x, np.zeros(172, dtype=np.float32), p)
        assert np.abs(y_q.astype(np.float64) - y_f).max() <= rep.inf_bound


def test_runtime_bound_terms():
    # eps 0, c = 2, x = [1, -2, 3]: g_3 * 2c * 6, inflated by (3+16) ulps.
    q = random_quantized(np.random.default_rng(27), 2, 3, 1)
    q = replace(q, codebook=Codebook(np.array([-2.0, 1.0], dtype=np.float32), 1))
    x = np.array([1, -2, 3], dtype=np.float32)
    u = 2.0**-24
    g3 = 3 * u / (1 - 3 * u)
    rep = runtime_bound_check(q, x)
    assert rep.epsilon == 0.0 and rep.x_l1_norm == 6.0
    assert g3 * 4 * 6 < rep.inf_bound <= g3 * 4 * 6 * (1 + 2**-40)
    assert rep.l2_bound == pytest.approx(np.sqrt(2) * rep.inf_bound)
    # alpha = -1, beta = 0 stores exactly; any other alpha or beta adds the
    # store's rounding, and beta != 0 needs the old y.
    assert runtime_bound_check(q, x, alpha=-1.0).inf_bound == rep.inf_bound
    assert runtime_bound_check(q, x, alpha=1.0, beta=0.5, y=np.ones(2, np.float32)).inf_bound > rep.inf_bound
    assert runtime_bound_check(q, x, alpha=2.0).inf_bound > 2 * rep.inf_bound
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
    bound = runtime_bound_check(q, x[::incx], alpha=alpha, beta=beta, y=y0[::incy]).inf_bound
    assert bound > 0.0
    for quantized in (gemv_sketch, gemv_codes):
        y_q = quantized(q, x, y0.copy(), p).astype(np.float64)
        for dense in (gemv_naive, gemv_opt):
            gap = np.abs(y_q - dense(w, x, y0.copy(), p)).max()
            assert gap <= bound, (quantized.__name__, dense.__name__, gap, bound)
