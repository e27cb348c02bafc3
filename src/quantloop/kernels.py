"""Matrix-vector product kernels and analytic output-error bounds.

Three kernels share one calling convention modeled on BLAS GEMV:

    y[i] = beta * y[i] + alpha * sum_k A(i, k) * x[k]

and one core.  :func:`_operands` checks the flat storage and the two
vectors against the :class:`GemvParams` once and exposes the logical
``y_len x x_len`` matrix as a single read-only strided view that follows
the storage's own element stride.  ``gemv_opt`` multiplies that view by x
through numpy's BLAS-backed matmul (blocked, vectorized, deterministic per
row).  ``gemv_naive`` is the semantic reference: :func:`_row_tiles` walks
tiles of whole rows, multiplies each by x and accumulates every row
strictly left to right in float32, so its result is a deterministic,
order-fixed baseline the other kernels are judged against.  ``gemv_sketch``
consumes a :class:`~quantloop.quantizer.QuantizedMatrix` directly and runs
the same tile loop on rows decoded from the packed codes through the
centroid table, so it matches the reference on the dequantized matrix bit
for bit.  Both tiled kernels keep extra memory at O(tile)
(:data:`SKETCH_TILE_CODES`).

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


#: Matrix elements per step of the row-tile loop shared by the reference and
#: sketch kernels, rounded down to whole rows but never below one row.  A
#: sketch tile costs about 16 B of transient memory per code (the uint8 code,
#: its intp cast inside ``take``, the float32 product), so this constant caps
#: the kernels' extra memory as well as their per-tile call count.
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


def _operands(a: np.ndarray | None, x: np.ndarray, y: np.ndarray, p: GemvParams):
    """Check the operands against `p` and return ``(A, x_eff, y_eff)``.

    Each operand must be 1-D float32 and long enough for its extents and
    stride.  ``A`` is the logical ``y_len x x_len`` matrix of the product, a
    read-only strided view of the flat storage `a` that steps by the
    storage's own element stride (so a sliced or reversed array is addressed
    correctly); ``x_eff`` and ``y_eff`` are strided views of the vectors, and
    writes to ``y_eff`` land in `y`.  With ``a=None`` (a packed matrix, which
    the sketch checks itself) ``A`` is None.
    """
    rows, cols = (p.m, p.n) if p.layout is Layout.ROW_MAJOR else (p.n, p.m)
    views = []
    for name, v, need, inc in (
        ("matrix storage", a, (rows - 1) * p.lda + cols, 1),
        ("x", x, (p.x_len - 1) * p.incx + 1, p.incx),
        ("y", y, (p.y_len - 1) * p.incy + 1, p.incy),
    ):
        if v is not None:
            v = np.asarray(v)
            if v.ndim != 1 or v.dtype != np.float32:
                raise GemvShapeError(f"{name} must be flat float32, got {v.dtype} {v.shape}")
            if v.size < need:
                raise GemvShapeError(f"{name} holds {v.size} elements, need {need}")
            v = v[:need:inc]
        views.append(v)
    a, x_eff, y_eff = views
    if a is None:
        return None, x_eff, y_eff
    # Storage row r, column c is a[r*lda + c].  Row-major storage holds A,
    # column-major storage holds A^T, and the product needs A (NT) or A^T
    # (T), so the storage view is transposed for RM/T and CM/NT.
    s = a.strides[0]
    view = np.lib.stride_tricks.as_strided(
        a, shape=(rows, cols), strides=(p.lda * s, s), writeable=False
    )
    if (p.layout is Layout.ROW_MAJOR) == (p.trans is Trans.TRANS):
        view = view.T
    return view, x_eff, y_eff


def _row_tiles(rows, x_eff: np.ndarray, y_eff: np.ndarray, p: GemvParams) -> None:
    """``y_eff = alpha * (A @ x_eff) + beta * y_eff``, a tile of whole rows at a time.

    ``rows(r0, r1)`` returns rows ``r0:r1`` of the logical matrix A as a new
    float32 array, which becomes the tile's scratch: the products overwrite
    it and a running sum along each row overwrites those, so every output is
    accumulated strictly left to right in float32.  Each step holds about
    :data:`SKETCH_TILE_CODES` elements and never less than one row.
    """
    alpha = np.float32(p.alpha)
    beta = np.float32(p.beta)
    n_rows = y_eff.size
    step = max(1, SKETCH_TILE_CODES // x_eff.size)
    for r0 in range(0, n_rows, step):
        r1 = min(r0 + step, n_rows)
        prods = rows(r0, r1)
        np.multiply(prods, x_eff, out=prods)
        # Never sum/dot/@ here: those reassociate.  cumsum accumulates each
        # row in order, and its last column is the row's sum.
        np.cumsum(prods, axis=1, out=prods)
        y_tile = y_eff[r0:r1]
        y_tile[...] = alpha * prods[:, -1] + beta * y_tile


def gemv_naive(a: np.ndarray, x: np.ndarray, y: np.ndarray, p: GemvParams) -> np.ndarray:
    """Reference GEMV with a fixed left-to-right float32 summation order.

    Copies a tile of rows of the logical matrix at a time and reduces it in
    :func:`_row_tiles`, so extra memory is O(tile).  Updates ``y`` in place
    (``y[i] = alpha * sum + beta * y[i]``, evaluated in that operand order)
    and returns it.  Non-finite inputs propagate per IEEE-754; in particular
    ``beta == 0`` still multiplies the old y.
    """
    view, x_eff, y_eff = _operands(a, x, y, p)
    _row_tiles(lambda r0, r1: view[r0:r1].copy(), x_eff, y_eff, p)
    return y


def gemv_opt(a: np.ndarray, x: np.ndarray, y: np.ndarray, p: GemvParams) -> np.ndarray:
    """Optimized GEMV; agrees with :func:`gemv_naive` up to sum reassociation.

    The product is the checked strided view times x through numpy's
    BLAS-backed matmul, which blocks and vectorizes the traversal while
    keeping a fixed reduction order per output row.
    """
    view, x_eff, y_eff = _operands(a, x, y, p)
    y_eff[...] = np.float32(p.alpha) * (view @ x_eff) + np.float32(p.beta) * y_eff
    return y


def gemv_sketch(q: QuantizedMatrix, x: np.ndarray, y: np.ndarray, p: GemvParams) -> np.ndarray:
    """GEMV over a quantized matrix without materializing it.

    Row-major, non-transposed products (the shape the program synthesizer
    emits) run the reference kernel's tile loop, :func:`_row_tiles`, with
    each tile's rows decoded by one :func:`~quantloop.bitcodec.unpack_slice`
    call and mapped through the centroid table, so extra memory is O(tile)
    and the result is bit-identical to :func:`gemv_naive` on the dequantized
    matrix by construction.  Other layouts reconstruct the dense matrix once
    and delegate to :func:`gemv_naive`, with the same result.
    """
    if p.layout is not Layout.ROW_MAJOR or p.trans is not Trans.NO_TRANS:
        return gemv_naive(dequantize(q).reshape(-1), x, y, p)
    if p.m != q.rows or p.n != q.cols:
        raise GemvShapeError(f"params describe {p.m}x{p.n} but matrix is {q.rows}x{q.cols}")
    if p.lda != q.cols:
        raise GemvShapeError(
            f"packed rows are dense; lda must equal cols ({q.cols}), got {p.lda}"
        )
    _, x_eff, y_eff = _operands(None, x, y, p)
    centroids = q.codebook.centroids
    cols = q.cols

    def decoded(r0: int, r1: int) -> np.ndarray:
        codes = unpack_slice(q.indices, r0 * cols, (r1 - r0) * cols)
        return np.take(centroids, codes).reshape(r1 - r0, cols)

    _row_tiles(decoded, x_eff, y_eff, p)
    return y


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
