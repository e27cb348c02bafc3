"""Matrix-vector product kernels and analytic output-error bounds.

Three kernels share one calling convention modeled on BLAS GEMV:

    y[i] = beta * y[i] + alpha * sum_k A(i, k) * x[k]

``gemv_naive`` is the semantic reference: it walks each output lane and
accumulates the products strictly left-to-right in float32, so its result
is a deterministic, order-fixed baseline the other kernels are judged
against.  ``gemv_opt`` delegates the heavy lifting to numpy's BLAS-backed
matmul (blocked, vectorized, and deterministic per row).  ``gemv_sketch``
consumes a :class:`~quantloop.quantizer.QuantizedMatrix` directly: a tile
of whole rows of codes is unpacked at a time, mapped through the centroid
table, multiplied by x and accumulated along each row with the same
left-to-right order as the reference kernel, keeping peak extra memory at
O(tile) (:data:`SKETCH_TILE_CODES`).

For a quantized matrix with reconstruction error ``epsilon`` the deviation
of ``y_hat = W_hat @ x`` from ``y = W @ x`` obeys, per element and in the
2-norm:

    max_i |y_hat_i - y_i| <= epsilon * l1(x)
    l2(y_hat - y)         <= sqrt(M) * epsilon * l1(x)

because each output deviation is a sum of N terms each bounded by
``epsilon * |x_k|``.  :func:`error_bound` evaluates both bounds, and
:func:`runtime_bound_check` does so against a caller threshold at call time
so callers can route individual products to a full-precision path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .bitcodec import unpack_slice
from .quantizer import QuantizedMatrix, dequantize

__all__ = [
    "BoundReport",
    "GemvParams",
    "GemvShapeError",
    "Layout",
    "SKETCH_TILE_CODES",
    "Trans",
    "error_bound",
    "gemv_naive",
    "gemv_opt",
    "gemv_sketch",
    "runtime_bound_check",
]


#: Codes the sketch kernel decodes per step, rounded down to whole rows but
#: never below one row.  A tile costs about 16 B of transient memory per code
#: (the uint8 code, its intp cast inside ``take``, the float32 product), so
#: this constant caps the kernel's extra memory as well as its call count.
SKETCH_TILE_CODES = 1024


class Layout(enum.Enum):
    ROW_MAJOR = "RM"
    COL_MAJOR = "CM"


class Trans(enum.Enum):
    NO_TRANS = "NT"
    TRANS = "T"


class GemvShapeError(ValueError):
    """Operand sizes or strides are inconsistent with the GEMV parameters."""


@dataclass(frozen=True)
class GemvParams:
    """BLAS-style GEMV parameters.

    ``m`` and ``n`` are the logical matrix extents (A is m x n); ``lda`` is
    the leading dimension of the flat storage (>= n for row-major, >= m for
    column-major); ``incx``/``incy`` are vector strides.
    """

    layout: Layout = Layout.ROW_MAJOR
    trans: Trans = Trans.NO_TRANS
    m: int = 1
    n: int = 1
    alpha: float = 1.0
    beta: float = 0.0
    lda: int = 1
    incx: int = 1
    incy: int = 1

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise GemvShapeError(f"matrix extents must be positive, got {self.m}x{self.n}")
        min_lda = self.n if self.layout is Layout.ROW_MAJOR else self.m
        if self.lda < min_lda:
            raise GemvShapeError(
                f"lda {self.lda} below minimum {min_lda} for {self.layout.value} storage"
            )
        if self.incx < 1 or self.incy < 1:
            raise GemvShapeError("vector strides must be >= 1")

    @property
    def x_len(self) -> int:
        """Logical length of x (n unless the op is transposed)."""
        return self.n if self.trans is Trans.NO_TRANS else self.m

    @property
    def y_len(self) -> int:
        """Logical length of y (m unless the op is transposed)."""
        return self.m if self.trans is Trans.NO_TRANS else self.n


def _require_f32_vector(name: str, v: np.ndarray, logical_len: int, inc: int) -> np.ndarray:
    v = np.asarray(v)
    if v.ndim != 1:
        raise GemvShapeError(f"{name} must be 1-D, got shape {v.shape}")
    if v.dtype != np.float32:
        raise GemvShapeError(f"{name} must be float32, got {v.dtype}")
    if v.size < (logical_len - 1) * inc + 1:
        raise GemvShapeError(
            f"{name} holds {v.size} elements, need {(logical_len - 1) * inc + 1}"
        )
    return v


def _require_flat_matrix(a: np.ndarray, p: GemvParams) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 1:
        raise GemvShapeError(f"matrix storage must be flat 1-D, got shape {a.shape}")
    if a.dtype != np.float32:
        raise GemvShapeError(f"matrix storage must be float32, got {a.dtype}")
    rows = p.m if p.layout is Layout.ROW_MAJOR else p.n
    cols = p.n if p.layout is Layout.ROW_MAJOR else p.m
    need = (rows - 1) * p.lda + cols
    if a.size < need:
        raise GemvShapeError(f"matrix storage holds {a.size} elements, need {need}")
    return a


def _dot_f32(u: np.ndarray, v: np.ndarray) -> np.float32:
    """Left-to-right float32 accumulation of elementwise products."""
    if u.size == 0:
        return np.float32(0.0)
    prods = np.multiply(u, v, dtype=np.float32)
    return np.cumsum(prods, dtype=np.float32)[-1]


def _lane(a: np.ndarray, p: GemvParams, out_ix: int) -> np.ndarray:
    """The strided slice of `a` dotted against x for output `out_ix`."""
    if p.layout is Layout.ROW_MAJOR:
        if p.trans is Trans.NO_TRANS:  # A(i, k) = a[i*lda + k], reduce over k
            return a[out_ix * p.lda : out_ix * p.lda + p.n]
        # y_k = sum_i A(i, k) x_i: stride lda down column k
        return a[out_ix : out_ix + p.m * p.lda : p.lda]
    if p.trans is Trans.NO_TRANS:  # A(i, k) = a[k*lda + i], reduce over k
        return a[out_ix : out_ix + p.n * p.lda : p.lda]
    return a[out_ix * p.lda : out_ix * p.lda + p.m]


def gemv_naive(a: np.ndarray, x: np.ndarray, y: np.ndarray, p: GemvParams) -> np.ndarray:
    """Reference GEMV with a fixed left-to-right float32 summation order.

    Updates ``y`` in place (``y[i] = alpha * sum + beta * y[i]``, evaluated
    in that operand order) and returns it.  Non-finite inputs propagate per
    IEEE-754; in particular ``beta == 0`` still multiplies the old y.
    """
    a = _require_flat_matrix(a, p)
    x = _require_f32_vector("x", x, p.x_len, p.incx)
    y = _require_f32_vector("y", y, p.y_len, p.incy)
    x_eff = x[:: p.incx][: p.x_len]
    alpha = np.float32(p.alpha)
    beta = np.float32(p.beta)
    for i in range(p.y_len):
        s = _dot_f32(_lane(a, p, i), x_eff)
        y[i * p.incy] = alpha * s + beta * y[i * p.incy]
    return y


def gemv_opt(a: np.ndarray, x: np.ndarray, y: np.ndarray, p: GemvParams) -> np.ndarray:
    """Optimized GEMV; agrees with :func:`gemv_naive` up to sum reassociation.

    The logical matrix is exposed to numpy as a strided view and the product
    runs through the BLAS matmul path, which blocks and vectorizes the
    traversal while keeping a fixed reduction order per output row.
    """
    a = _require_flat_matrix(a, p)
    x = _require_f32_vector("x", x, p.x_len, p.incx)
    y = _require_f32_vector("y", y, p.y_len, p.incy)

    itemsize = a.itemsize
    if p.layout is Layout.ROW_MAJOR:
        view = np.lib.stride_tricks.as_strided(
            a, shape=(p.m, p.n), strides=(p.lda * itemsize, itemsize), writeable=False
        )
    else:
        view = np.lib.stride_tricks.as_strided(
            a, shape=(p.m, p.n), strides=(itemsize, p.lda * itemsize), writeable=False
        )
    if p.trans is Trans.TRANS:
        view = view.T

    x_eff = np.ascontiguousarray(x[:: p.incx][: p.x_len])
    sums = view @ x_eff
    y_eff = y[:: p.incy][: p.y_len]
    y_eff[...] = np.float32(p.alpha) * sums + np.float32(p.beta) * y_eff
    return y


def gemv_sketch(q: QuantizedMatrix, x: np.ndarray, y: np.ndarray, p: GemvParams) -> np.ndarray:
    """GEMV over a quantized matrix without materializing it.

    Row-major, non-transposed products (the shape the program synthesizer
    emits) walk the matrix in tiles of whole rows, about
    :data:`SKETCH_TILE_CODES` codes each.  A tile is decoded with one
    :func:`~quantloop.bitcodec.unpack_slice` call, mapped through the
    centroid table, multiplied by x, and reduced by a running sum along each
    row, which keeps the reference kernel's left-to-right float32 order; the
    tile's outputs are then stored in one vectorized update.  Extra memory
    is O(tile).  Other layouts reconstruct the dense matrix once and
    delegate to :func:`gemv_naive`.  Either way the result is bit-identical
    to running the reference kernel on the dequantized matrix.
    """
    if p.layout is Layout.ROW_MAJOR and p.trans is Trans.NO_TRANS:
        if p.m != q.rows or p.n != q.cols:
            raise GemvShapeError(
                f"params describe {p.m}x{p.n} but matrix is {q.rows}x{q.cols}"
            )
        if p.lda != q.cols:
            raise GemvShapeError(
                f"packed rows are dense; lda must equal cols ({q.cols}), got {p.lda}"
            )
        x = _require_f32_vector("x", x, p.x_len, p.incx)
        y = _require_f32_vector("y", y, p.y_len, p.incy)
        x_eff = x[:: p.incx][: p.x_len]
        centroids = q.codebook.centroids
        alpha = np.float32(p.alpha)
        beta = np.float32(p.beta)
        cols = q.cols
        tile_rows = max(1, SKETCH_TILE_CODES // cols)
        for r0 in range(0, q.rows, tile_rows):
            t = min(tile_rows, q.rows - r0)
            codes = unpack_slice(q.indices, r0 * cols, t * cols)
            prods = np.take(centroids, codes).reshape(t, cols)
            np.multiply(prods, x_eff, out=prods)
            # Never sum/dot/@ here: those reassociate.  cumsum accumulates
            # each row strictly left to right, like _dot_f32.
            np.cumsum(prods, axis=1, out=prods)
            y_tile = y[r0 * p.incy : (r0 + t) * p.incy : p.incy]
            y_tile[...] = alpha * prods[:, -1] + beta * y_tile
        return y
    return gemv_naive(dequantize(q).reshape(-1), x, y, p)


@dataclass(frozen=True)
class BoundReport:
    """Analytic output-error bounds for one quantized GEMV.

    ``inf_bound`` caps the largest per-element deviation and ``l2_bound``
    the Euclidean norm of the deviation vector; both hold deterministically
    for any input, not just with high probability.
    """

    epsilon: float
    x_l1_norm: float
    inf_bound: float
    l2_bound: float
    threshold: float | None = None
    threshold_exceeded: bool = False


def error_bound(epsilon: float, x: np.ndarray, m: int) -> BoundReport:
    """Evaluate the deviation bounds for reconstruction error `epsilon`.

    Args:
        epsilon: max per-element reconstruction error of the matrix.
        x: the input vector (any float dtype; the L1 norm is taken in float64).
        m: number of output elements.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if m < 1:
        raise ValueError(f"output length must be positive, got {m}")
    x_l1 = float(np.abs(np.asarray(x, dtype=np.float64)).sum())
    inf_bound = epsilon * x_l1
    return BoundReport(
        epsilon=float(epsilon),
        x_l1_norm=x_l1,
        inf_bound=inf_bound,
        l2_bound=math.sqrt(m) * inf_bound,
    )


def runtime_bound_check(
    q: QuantizedMatrix, x: np.ndarray, threshold: float | None = None
) -> BoundReport:
    """Evaluate the bounds for `q` against `x` and compare to a threshold.

    The L1 norm of x is computed at call time, so the report reflects the
    actual input; callers may use ``threshold_exceeded`` to fall back to a
    full-precision product for this call.  With no threshold the report just
    carries the bounds.
    """
    base = error_bound(q.epsilon, x, q.rows)
    if threshold is None:
        return base
    return replace(
        base,
        threshold=float(threshold),
        threshold_exceeded=base.inf_bound > threshold,
    )
