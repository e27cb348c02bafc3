"""Matrix-vector product kernels and analytic output-error bounds.

Four kernels share one calling convention modeled on BLAS GEMV:

    y[i] = beta * y[i] + alpha * sum_k A(i, k) * x[k]

and one core.  :func:`_operands` checks the flat storage and the two
vectors against the :class:`GemvParams` once and exposes the logical
``y_len x x_len`` matrix as a single read-only strided view that follows
the storage's own element stride.  :func:`_row_tiles` walks tiles of whole
rows, reduces each against x and stores ``alpha * sums + beta * y`` for the
tile.

* ``gemv_naive`` is the semantic reference: its tiles are copies of the
  view, reduced strictly left to right in float32, so its result is a
  deterministic, order-fixed baseline the other kernels are judged against.
* ``gemv_opt`` multiplies the whole view by x through numpy's BLAS-backed
  matmul (blocked, vectorized, deterministic per row).
* ``gemv_sketch`` is the codes-domain oracle.  It consumes a
  :class:`~quantloop.quantizer.QuantizedMatrix` directly and runs the
  reference's ordered tile loop on rows decoded from the packed codes
  through the centroid table, so it matches ``gemv_naive`` on the
  dequantized matrix bit for bit.
* ``gemv_codes`` is the codes-domain kernel that runs: the same decoded
  tiles, each reduced by one matmul.  It may reassociate each row's sum,
  so it agrees with the oracle within the float32 rounding term below, not
  bit for bit.  The ``gemv`` intrinsic dispatches every quantized call to
  it (:func:`quantloop.intrinsics.gemv_handler`).

The three tiled kernels keep extra memory at O(tile)
(:data:`SKETCH_TILE_CODES`).

**Exact-arithmetic bound.**  For a quantized matrix ``W_hat`` with
reconstruction error ``epsilon`` (``|w - w_hat| <= epsilon`` per element)
the deviation of ``y_hat = W_hat @ x`` from ``y = W @ x`` obeys, per
element and in the 2-norm:

    max_i |y_hat_i - y_i| <= epsilon * l1(x)
    l2(y_hat - y)         <= sqrt(M) * epsilon * l1(x)

because each output deviation is a sum of N terms each bounded by
``epsilon * |x_k|``.  :func:`error_bound` evaluates both.

**Float32 bound.**  The kernels compute in float32, and the two paths a
caller compares (the quantized product and the float product on the
original weights) sum in different orders, so the exact bound alone does
not hold of their results: with ``epsilon = 0`` it is 0, yet the results
differ.  :func:`runtime_bound_check` bounds what actually runs.  With
``u = 2**-24`` (float32 unit roundoff), ``n = len(x)``, ``L = l1(x)``,
``c = max|centroid|`` (:attr:`~quantloop.quantizer.Codebook.max_abs`) and
the standard model ``fl(a op b) = (a op b)(1 + d)``, ``|d| <= u`` (no
overflow or underflow):

1. *Dot products.*  For any summation order, and with or without fused
   multiply-adds, ``|fl(a.x) - a.x| <= g_n * sum_k |a_k x_k|`` with
   ``g_n = n*u / (1 - n*u)`` (Higham, *Accuracy and Stability of
   Numerical Algorithms*, 2nd ed., §3.1).  Every ``|w_hat| <= c`` and
   every ``|w| <= |w_hat| + epsilon <= c + epsilon``, so the quantized sum
   ``s_q`` is within ``g_n * c * L`` of ``W_hat @ x`` and the float sum
   ``s_f`` within ``g_n * (c + epsilon) * L`` of ``W @ x``, and

       |s_q - s_f| <= (epsilon + g_n * (2c + epsilon)) * L

2. *The alpha/beta store.*  Every kernel stores
   ``fl(fl(alpha * s) + fl(beta * y0))`` in that operand order, with
   float32 ``alpha`` and ``beta``.  ``fl(beta * y0)`` is the same value on
   both paths, so the results differ by at most
   ``|alpha| |s_q - s_f| + (2u + u**2) |alpha| (|s_q| + |s_f|)
   + 2u (1 + u) |beta| |y0|``, and ``|s_q| + |s_f| <= (1 + g_n) (2c +
   epsilon) L``.  For ``alpha = +-1`` and ``beta = 0`` every store
   operation is exact, so this rounding term is 0 there.

The sum of both is the per-element bound of one call.  It is evaluated in
float64, which rounds too, so the result is inflated by ``(n + 16)``
float64 ulps (more than the relative error of an ``n``-term sum plus the
dozen operations after it) and then rounded up once more.  It holds for
any summation order, which is what lets ``gemv_codes`` reassociate.
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
    "gemv_codes",
    "gemv_naive",
    "gemv_opt",
    "gemv_sketch",
    "runtime_bound_check",
]


#: Matrix elements per step of the row-tile loop shared by the reference and
#: codes-domain kernels, rounded down to whole rows but never below one row.
#: A decoded tile costs about 16 B of transient memory per code (the uint8
#: code, its intp cast inside ``take``, the float32 value), so this constant
#: caps the kernels' extra memory as well as their per-tile call count.
SKETCH_TILE_CODES = 1024

#: Unit roundoff of IEEE-754 binary32 with round to nearest.
F32_UNIT_ROUNDOFF = 2.0**-24


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


def _ordered_sums(tile: np.ndarray, x_eff: np.ndarray) -> np.ndarray:
    """Each row of `tile` times x, summed strictly left to right in float32.

    The products overwrite the tile and a running sum along each row
    overwrites those.  Never sum/dot/@ here: those reassociate.  cumsum
    accumulates each row in order, and its last column is the row's sum.
    """
    np.multiply(tile, x_eff, out=tile)
    np.cumsum(tile, axis=1, out=tile)
    return tile[:, -1]


def _row_tiles(rows, x_eff: np.ndarray, y_eff: np.ndarray, p: GemvParams, sums) -> None:
    """``y_eff = alpha * (A @ x_eff) + beta * y_eff``, a tile of whole rows at a time.

    ``rows(r0, r1)`` returns rows ``r0:r1`` of the logical matrix A as a new
    float32 array, which ``sums(tile, x_eff)`` may use as scratch while it
    reduces each row against x.  Each step holds about
    :data:`SKETCH_TILE_CODES` elements and never less than one row.
    """
    alpha = np.float32(p.alpha)
    beta = np.float32(p.beta)
    n_rows = y_eff.size
    step = max(1, SKETCH_TILE_CODES // x_eff.size)
    for r0 in range(0, n_rows, step):
        r1 = min(r0 + step, n_rows)
        y_tile = y_eff[r0:r1]
        y_tile[...] = alpha * sums(rows(r0, r1), x_eff) + beta * y_tile


def gemv_naive(a: np.ndarray, x: np.ndarray, y: np.ndarray, p: GemvParams) -> np.ndarray:
    """Reference GEMV with a fixed left-to-right float32 summation order.

    Copies a tile of rows of the logical matrix at a time and reduces it in
    :func:`_row_tiles`, so extra memory is O(tile).  Updates ``y`` in place
    (``y[i] = alpha * sum + beta * y[i]``, evaluated in that operand order)
    and returns it.  Non-finite inputs propagate per IEEE-754; in particular
    ``beta == 0`` still multiplies the old y.
    """
    view, x_eff, y_eff = _operands(a, x, y, p)
    _row_tiles(lambda r0, r1: view[r0:r1].copy(), x_eff, y_eff, p, _ordered_sums)
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


def _packed_operands(q: QuantizedMatrix, x: np.ndarray, y: np.ndarray, p: GemvParams):
    """Check a call on packed matrix `q` and return ``(x_eff, y_eff)``.

    Returns None for any layout but the one the codes are packed in
    (row-major, not transposed); the caller then works on a reconstruction.
    """
    if p.layout is not Layout.ROW_MAJOR or p.trans is not Trans.NO_TRANS:
        return None
    if p.m != q.rows or p.n != q.cols:
        raise GemvShapeError(f"params describe {p.m}x{p.n} but matrix is {q.rows}x{q.cols}")
    if p.lda != q.cols:
        raise GemvShapeError(
            f"packed rows are dense; lda must equal cols ({q.cols}), got {p.lda}"
        )
    _, x_eff, y_eff = _operands(None, x, y, p)
    return x_eff, y_eff


def _decoded_rows(q: QuantizedMatrix):
    """``rows(r0, r1)`` for :func:`_row_tiles`: one slice decode and one lookup."""
    centroids = q.codebook.centroids
    cols = q.cols

    def rows(r0: int, r1: int) -> np.ndarray:
        codes = unpack_slice(q.indices, r0 * cols, (r1 - r0) * cols)
        return np.take(centroids, codes).reshape(r1 - r0, cols)

    return rows


def _codes_tiles(q: QuantizedMatrix, x_eff: np.ndarray, y_eff: np.ndarray, p: GemvParams) -> None:
    """:func:`gemv_codes` on operands :func:`_packed_operands` already checked.

    Per tile, ``y_tile = alpha * (decoded_tile @ x_eff) + beta * y_tile``.
    """
    _row_tiles(_decoded_rows(q), x_eff, y_eff, p, np.matmul)


def _quantized_gemv(q: QuantizedMatrix, x, y, p: GemvParams, sums) -> np.ndarray:
    operands = _packed_operands(q, x, y, p)
    if operands is None:
        return gemv_naive(dequantize(q).reshape(-1), x, y, p)
    x_eff, y_eff = operands
    _row_tiles(_decoded_rows(q), x_eff, y_eff, p, sums)
    return y


def gemv_sketch(q: QuantizedMatrix, x: np.ndarray, y: np.ndarray, p: GemvParams) -> np.ndarray:
    """Ordered GEMV over a quantized matrix without materializing it: the oracle.

    Row-major, non-transposed products (the shape the program synthesizer
    emits) run the reference kernel's tile loop, :func:`_row_tiles`, with
    each tile's rows decoded by one :func:`~quantloop.bitcodec.unpack_slice`
    call and mapped through the centroid table, so extra memory is O(tile)
    and the result is bit-identical to :func:`gemv_naive` on the dequantized
    matrix by construction.  Other layouts reconstruct the dense matrix once
    and delegate to :func:`gemv_naive`, with the same result.
    """
    return _quantized_gemv(q, x, y, p, _ordered_sums)


def gemv_codes(q: QuantizedMatrix, x: np.ndarray, y: np.ndarray, p: GemvParams) -> np.ndarray:
    """GEMV over a quantized matrix, one decoded-tile matmul per tile.

    The same tiles, decode, checks and non-native-layout fallback as
    :func:`gemv_sketch`, but each tile is reduced by one BLAS-backed matmul
    and stored in the same step, so row sums may be reassociated.  It agrees
    with the sketch within the float32 rounding term of
    :func:`runtime_bound_check`; extra memory stays O(tile).
    """
    return _quantized_gemv(q, x, y, p, np.matmul)


@dataclass(frozen=True)
class BoundReport:
    """Analytic output-error bounds for one quantized GEMV.

    ``inf_bound`` caps the largest per-element deviation and ``l2_bound``
    the Euclidean norm of the deviation vector; both hold deterministically
    for any input, not just with high probability.  From
    :func:`error_bound` they bound exact arithmetic; from
    :func:`runtime_bound_check` they bound the float32 results.
    """

    epsilon: float
    x_l1_norm: float
    inf_bound: float
    l2_bound: float
    threshold: float | None = None
    threshold_exceeded: bool = False


def error_bound(epsilon: float, x: np.ndarray, m: int) -> BoundReport:
    """Evaluate the exact-arithmetic deviation bounds for reconstruction error `epsilon`.

    :func:`runtime_bound_check` adds the float32 rounding terms to these.

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


def _gamma(n: int) -> float:
    """``g_n = n*u / (1 - n*u)`` for float32, or inf once ``n*u`` reaches 1."""
    nu = n * F32_UNIT_ROUNDOFF
    return nu / (1.0 - nu) if nu < 1.0 else math.inf


def runtime_bound_check(
    q: QuantizedMatrix,
    x: np.ndarray,
    threshold: float | None = None,
    *,
    alpha: float = 1.0,
    beta: float = 0.0,
    y: np.ndarray | None = None,
) -> BoundReport:
    """Bound one float32 GEMV call on `q` against `x` and compare to a threshold.

    ``inf_bound`` caps ``|y_q - y_f|`` per element, where ``y_q`` is the
    call's result on `q` (any codes-domain kernel) and ``y_f`` its result on
    the float matrix `q` was quantized from (any float kernel), both run in
    float32 with the same `alpha`, `beta` and old `y`: the exact-arithmetic
    bound scaled by ``|alpha|``, plus the dot-product and alpha/beta store
    rounding terms derived in the module docstring, rounded up.  `x` and `y`
    are the vectors the product reads (the strided views, not the whole
    buffers); `y` is needed only when ``beta != 0``.  The L1 norm of x is
    computed at call time, so callers may use ``threshold_exceeded`` to fall
    back to a full-precision product for this call.
    """
    base = error_bound(q.epsilon, x, q.rows)
    n = np.size(x)
    a = abs(float(np.float32(alpha)))
    b = abs(float(np.float32(beta)))
    u = F32_UNIT_ROUNDOFF
    g = _gamma(n)
    eps, c, l1 = base.epsilon, q.codebook.max_abs, base.x_l1_norm
    bound = a * (eps + g * (2.0 * c + eps)) * l1
    if a != 1.0 or b != 0.0:
        y_max = 0.0
        if b != 0.0:
            if y is None:
                raise ValueError("a bound with beta != 0 needs the old y")
            y_max = float(np.abs(np.asarray(y, dtype=np.float64)).max(initial=0.0))
        bound += (2 * u + u * u) * a * (1.0 + g) * (2.0 * c + eps) * l1
        bound += 2 * u * (1.0 + u) * b * y_max
    bound = math.nextafter(bound * (1.0 + (n + 16) * 2.0**-52), math.inf)
    return replace(
        base,
        inf_bound=bound,
        l2_bound=math.sqrt(q.rows) * bound,
        threshold=None if threshold is None else float(threshold),
        threshold_exceeded=threshold is not None and bound > threshold,
    )
