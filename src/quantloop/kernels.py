"""Matrix-vector product kernels and analytic output-error bounds.

Three kernels share one calling convention modeled on BLAS GEMV:

    y[i] = beta * y[i] + alpha * sum_k A(i, k) * x[k]

and one bound call.  :func:`bind` is the only operand check: it checks the
matrix and the two vectors against the :class:`GemvParams` once and returns
a :class:`GemvCall`.  Dense storage, and a quantized matrix in any layout
but the one its codes are packed in (row-major, not transposed), become the
logical ``y_len x x_len`` matrix as one read-only strided view; a packed
matrix stays packed.  :meth:`GemvCall.run` is the only executor.
:func:`_row_tiles` walks tiles of whole rows, reduces each against x and
stores ``alpha * sums + beta * y`` for the tile in place, as the dense path
stores its product.

* ``gemv_naive`` is the semantic reference: its tiles are copies of the
  view, reduced strictly left to right in float32, so its result is a
  deterministic, order-fixed baseline the other kernels are judged against.
* ``gemv_sketch`` is the codes-domain oracle: ``gemv_naive`` on a
  :class:`~quantloop.quantizer.QuantizedMatrix`, whose tiles are rows
  decoded from the packed codes through the centroid table, so it matches
  ``gemv_naive`` on the dequantized matrix bit for bit.
* ``gemv_opt`` is ``bind(...).run()``, what the ``gemv`` intrinsic runs:
  a view times x through numpy's BLAS-backed matmul, or, on packed codes,
  one call into the compiled kernel of :mod:`quantloop.native`.  That
  kernel reads the packed bytes itself, maps each field of one or two
  codes through :attr:`~quantloop.quantizer.Codebook.field_table`, and
  sums each row in the fixed order that ``_native/gemv.c`` documents (8
  float32 accumulators, a fixed combine tree, then the tail).  It reads
  each group of 8 codes as one 8-byte word and trusts only what
  :class:`~quantloop.bitcodec.PackedBuffer` guarantees: the buffer holds
  the whole payload and the guard byte after it, so every group starts
  inside the buffer.  A word is read whole only when all 8 of its bytes
  lie inside; otherwise a bound tail read copies just the bytes left, the
  guard byte among them.  Without a compiler, or when the build or the
  load fails, packed rows are decoded by the oracle's decoder instead and
  each tile is reduced by one matmul.  Either way each row's sum may
  be reassociated, so on a quantized matrix ``gemv_opt`` agrees with the
  oracle within the float32 rounding term below, not bit for bit.

The tiled paths keep extra memory at O(tile), :data:`SKETCH_TILE_CODES`
elements per tile; the compiled kernel allocates nothing.

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
   float32 ``alpha`` and ``beta``.  The store runs in place
   (:func:`_store`): ``alpha * s`` overwrites the sums, ``beta * y0``
   overwrites y and their sum overwrites y, so the order and every
   rounding are those of the expression.  ``fl(beta * y0)`` is the same
   value on both paths, so the results differ by at most
   ``|alpha| |s_q - s_f| + (2u + u**2) |alpha| (|s_q| + |s_f|)
   + 2u (1 + u) |beta| |y0|``, and ``|s_q| + |s_f| <= (1 + g_n) (2c +
   epsilon) L``.  For ``alpha = +-1`` and ``beta = 0`` every store
   operation is exact, so this rounding term is 0 there.

The sum of both is the per-element bound of one call.  It is evaluated in
float64, which rounds too, so the result is inflated by ``(n + 16)``
float64 ulps (more than the relative error of an ``n``-term sum plus the
dozen operations after it) and then rounded up once more.  It holds for
any summation order, which is what lets ``gemv_opt`` reassociate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import native
from .bitcodec import unpack_slice
from .quantizer import QuantizedMatrix, dequantize

__all__ = [
    "BoundReport",
    "GemvCall",
    "GemvParams",
    "GemvShapeError",
    "Layout",
    "SKETCH_TILE_CODES",
    "Trans",
    "bind",
    "error_bound",
    "gemv_naive",
    "gemv_opt",
    "gemv_sketch",
    "runtime_bound_check",
]


#: Matrix elements per step of the row-tile loop (``gemv_naive``, the
#: ``gemv_sketch`` oracle, and the packed path without the compiled kernel),
#: rounded down to whole rows but never below one row.  The oracle's decode
#: costs about 18 B of transient memory per code at 3 bits (``unpack_slice``'s
#: bits and their float32 copy, then the intp index and float32 value of
#: ``take``), so this constant caps its extra memory as well as its per-tile
#: call count.
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
    column-major); ``incx``/``incy`` are vector strides.  ``alpha32`` and
    ``beta32`` are alpha and beta rounded to float32, taken once here; every
    kernel's store multiplies by them.
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
    alpha32: np.float32 = field(init=False, repr=False, compare=False)
    beta32: np.float32 = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "alpha32", np.float32(self.alpha))
        object.__setattr__(self, "beta32", np.float32(self.beta))

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
    read-only view of the flat storage `a` that steps by the storage's own
    element stride (so a sliced or reversed array is addressed correctly);
    ``x_eff`` and ``y_eff`` are strided views of the vectors, and writes to
    ``y_eff`` land in `y`.  With ``a=None`` (a packed matrix, which
    :func:`bind` checks itself) ``A`` is None.
    """
    x_need = (p.x_len - 1) * p.incx + 1
    y_need = (p.y_len - 1) * p.incy + 1
    x_eff = _checked("x", x, x_need)[: x_need : p.incx]
    y_eff = _checked("y", y, y_need)[: y_need : p.incy]
    if a is None:
        return None, x_eff, y_eff
    rows, cols = (p.m, p.n) if p.layout is Layout.ROW_MAJOR else (p.n, p.m)
    a = _checked("matrix storage", a, (rows - 1) * p.lda + cols)
    # Storage row r, column c is a[r*lda + c].  When the storage holds every
    # row whole, splitting its one axis into (rows, lda) is a view whatever
    # its stride; a shorter last row needs as_strided.
    if a.size >= rows * p.lda:
        view = a[: rows * p.lda].reshape(rows, p.lda)[:, :cols]
    else:
        s = a.strides[0]
        view = np.lib.stride_tricks.as_strided(a, shape=(rows, cols), strides=(p.lda * s, s))
    view.flags.writeable = False
    # Row-major storage holds A, column-major storage holds A^T, and the
    # product needs A (NT) or A^T (T), so the storage view is transposed for
    # RM/T and CM/NT.
    if (p.layout is Layout.ROW_MAJOR) == (p.trans is Trans.TRANS):
        view = view.T
    return view, x_eff, y_eff


def _checked(name: str, v, need: int) -> np.ndarray:
    """`v` as an array, if it is 1-D float32 with at least `need` elements."""
    v = np.asarray(v)
    if v.ndim != 1 or v.dtype != np.float32:
        raise GemvShapeError(f"{name} must be flat float32, got {v.dtype} {v.shape}")
    if v.size < need:
        raise GemvShapeError(f"{name} holds {v.size} elements, need {need}")
    return v


@dataclass(frozen=True, slots=True)
class GemvCall:
    """One gemv call with its operands checked against its params.

    ``x_eff`` and ``y_eff`` are the strided views of the vectors that
    :func:`_operands` returns.  ``view`` is the logical matrix of the
    product: the checked view of dense storage, or of a read-only
    reconstruction of a quantized matrix in a layout its codes are not packed
    in.  It is None for a quantized matrix in its packed layout, which stays
    packed.  ``native`` then holds the compiled kernel's operands (see
    :func:`_native_args`), or None when the rows are decoded on numpy.
    ``shadow``, when a caller binds one, is the same call on the matrix's
    float copy, writing into its own y scratch.
    """

    a: object  # the flat float32 storage or QuantizedMatrix
    x: np.ndarray
    y: np.ndarray
    params: GemvParams
    view: np.ndarray | None
    x_eff: np.ndarray
    y_eff: np.ndarray
    shadow: "GemvCall | None" = None
    native: "native.GemvArgs | None" = None

    def run(self) -> np.ndarray:
        """``y = alpha * (A @ x) + beta * y`` over the bound operands; returns y.

        A view is multiplied whole through numpy's BLAS-backed matmul.  Packed
        codes are one call into the compiled kernel, which decodes and sums
        each row and stores it in place.  Without that kernel, packed rows
        run :func:`_row_tiles` over tiles that the oracle's decoder,
        :func:`_decoded_rows`, makes, each reduced by one matmul.  Either way
        each row's sum may be reassociated.
        """
        p = self.params
        if self.view is not None:
            _store(self.view @ self.x_eff, self.y_eff, p)
        elif (args := self.native) is not None:
            if not args.table:  # the call site's first run builds the field table
                args.table = native.address(self.a.codebook.field_table)
            native.load().kernel(args)
        else:
            rows = _decoded_rows(self.a)
            _row_tiles(rows, self.x_eff, self.y_eff, p, np.matmul, SKETCH_TILE_CODES)
        return self.y


def bind(a, x: np.ndarray, y: np.ndarray, p: GemvParams,
         addresses: native.Addresses | None = None) -> GemvCall:
    """Check one call's operands against `p` once and choose how A is read.

    `a` is flat float32 storage or a :class:`QuantizedMatrix`.  A quantized
    matrix in row-major, non-transposed layout (the one its codes are packed
    in) must match `p`'s extents with ``lda == cols`` and is left packed;
    in any other layout it is reconstructed once, read-only, and viewed like
    dense storage.  `addresses`, when a caller binds many sites over the
    same vectors, looks each vector's address up once for all of them.
    """
    if isinstance(a, QuantizedMatrix):
        if p.layout is Layout.ROW_MAJOR and p.trans is Trans.NO_TRANS:
            if (p.m, p.n, p.lda) != (a.rows, a.cols, a.cols):
                raise GemvShapeError(
                    f"params describe {p.m}x{p.n} with lda {p.lda}; the packed matrix "
                    f"is {a.rows}x{a.cols} with dense rows (lda {a.cols})"
                )
            _, x_eff, y_eff = _operands(None, x, y, p)
            return GemvCall(a, x, y, p, None, x_eff, y_eff,
                            native=_native_args(a, x, y, x_eff, y_eff, p, addresses))
        dense = dequantize(a).reshape(-1)
        dense.flags.writeable = False
        return GemvCall(a, x, y, p, *_operands(dense, x, y, p))
    return GemvCall(a, x, y, p, *_operands(a, x, y, p))


def _native_args(q: QuantizedMatrix, x: np.ndarray, y: np.ndarray, x_eff: np.ndarray,
                 y_eff: np.ndarray, p: GemvParams,
                 addresses: native.Addresses | None) -> "native.GemvArgs | None":
    """The compiled kernel's operands for one packed call, or None to run it on numpy.

    The kernel is loaded here, on the first packed bind of the process.  The
    struct holds raw pointers into the packed bytes and the two vectors,
    which the call and its matrix keep alive; its reads of the packed bytes
    stop at their length.  The strided views start at element 0 of `x` and
    `y`, whose addresses `addresses` looks up when given.  Its pointer to
    the codebook's field table is filled in by the call's first run, which
    builds the table: a table built here would sit through the quantization
    of every engine made after this one.  A vector the kernel cannot take as it is (a read-only or
    misaligned y, a misaligned x, or an x and y that may overlap) leaves the
    call on numpy, which raises or runs it as before.
    """
    if native.load().kernel is None or np.may_share_memory(x_eff, y_eff):
        return None
    if not (y_eff.flags.writeable and y_eff.flags.aligned and x_eff.flags.aligned):
        return None
    codes = np.frombuffer(q.indices.data, np.uint8)
    address = addresses or native.address
    return native.GemvArgs(
        codes=address(codes),
        x=address(x),
        y=address(y),
        codes_bytes=codes.size,
        rows=q.rows,
        cols=q.cols,
        incx=x_eff.strides[0] // x_eff.itemsize,
        incy=y_eff.strides[0] // y_eff.itemsize,
        bits=q.codebook.bit_width,
        alpha=float(p.alpha32),
        beta=float(p.beta32),
    )


def _ordered_sums(tile: np.ndarray, x_eff: np.ndarray) -> np.ndarray:
    """Each row of `tile` times x, summed strictly left to right in float32.

    The products overwrite the tile and a running sum along each row
    overwrites those.  Never sum/dot/@ here: those reassociate.  cumsum
    accumulates each row in order, and its last column is the row's sum.
    """
    np.multiply(tile, x_eff, out=tile)
    np.cumsum(tile, axis=1, out=tile)
    return tile[:, -1]


def _row_tiles(
    rows, x_eff: np.ndarray, y_eff: np.ndarray, p: GemvParams, sums, tile_codes: int
) -> None:
    """``y_eff = alpha * (A @ x_eff) + beta * y_eff``, a tile of whole rows at a time.

    ``rows(r0, r1)`` returns rows ``r0:r1`` of the logical matrix A as a new
    float32 array, which ``sums(tile, x_eff)`` may use as scratch while it
    reduces each row against x.  Each step holds about `tile_codes` elements
    and never less than one row, and stores its rows with :func:`_store`, in
    place.
    """
    n_rows = y_eff.size
    step = max(1, tile_codes // x_eff.size)
    for r0 in range(0, n_rows, step):
        r1 = min(r0 + step, n_rows)
        _store(sums(rows(r0, r1), x_eff), y_eff[r0:r1], p)


def _store(s: np.ndarray, y: np.ndarray, p: GemvParams) -> None:
    """``y = alpha * s + beta * y`` in place, with `s` as scratch.

    Each step is one float32 operation with its operands in the order of
    that expression, so ``y`` is ``fl(fl(alpha * s) + fl(beta * y0))`` with
    no temporary: ``alpha * s`` overwrites `s` (skipped for ``alpha == 1``,
    where ``fl(1 * s) == s``), ``beta * y`` overwrites `y`, and their sum
    overwrites `y`.  ``beta == 0`` still multiplies the old y, so its NaNs
    and infinities propagate.
    """
    if p.alpha != 1.0:
        np.multiply(p.alpha32, s, out=s)
    np.multiply(p.beta32, y, out=y)
    np.add(s, y, out=y)


def _decoded_rows(q: QuantizedMatrix):
    """``rows(r0, r1)`` for :func:`_row_tiles`: one slice decode and one lookup."""
    centroids = q.codebook.centroids
    cols = q.cols

    def rows(r0: int, r1: int) -> np.ndarray:
        codes = unpack_slice(q.indices, r0 * cols, (r1 - r0) * cols)
        return np.take(centroids, codes).reshape(r1 - r0, cols)

    return rows


def gemv_naive(a, x: np.ndarray, y: np.ndarray, p: GemvParams) -> np.ndarray:
    """Reference GEMV with a fixed left-to-right float32 summation order.

    Runs :func:`_row_tiles` over the rows the bound call reads: copies of
    its view, or rows decoded from packed codes.  Either way extra memory is
    O(tile).  Updates ``y`` in place (``y[i] = alpha * sum + beta * y[i]``,
    evaluated in that operand order by :func:`_store`, which writes each
    step over the tile's sums or over y) and returns it.  Non-finite inputs
    propagate per IEEE-754; in particular ``beta == 0`` still multiplies the
    old y.
    """
    call = bind(a, x, y, p)
    view = call.view
    rows = _decoded_rows(a) if view is None else lambda r0, r1: view[r0:r1].copy()
    _row_tiles(rows, call.x_eff, call.y_eff, p, _ordered_sums, SKETCH_TILE_CODES)
    return y


def gemv_opt(a, x: np.ndarray, y: np.ndarray, p: GemvParams) -> np.ndarray:
    """Optimized GEMV on flat float32 storage or a :class:`QuantizedMatrix`.

    ``bind(a, x, y, p).run()``: it agrees with :func:`gemv_naive` (and, on a
    quantized matrix, with :func:`gemv_sketch`) up to sum reassociation,
    which the float32 term of :func:`runtime_bound_check` covers.
    """
    return bind(a, x, y, p).run()


def gemv_sketch(q: QuantizedMatrix, x: np.ndarray, y: np.ndarray, p: GemvParams) -> np.ndarray:
    """Ordered GEMV over a quantized matrix without materializing it: the oracle.

    Row-major, non-transposed products (the shape the program synthesizer
    emits) run the reference kernel's tile loop, :func:`_row_tiles`, with
    each tile's rows decoded by one :func:`~quantloop.bitcodec.unpack_slice`
    call and mapped through the centroid table, so extra memory is O(tile)
    and the result is bit-identical to :func:`gemv_naive` on the dequantized
    matrix by construction.  Other layouts run the reference kernel over the
    one reconstruction :func:`bind` makes, with the same result.
    """
    return gemv_naive(q, x, y, p)


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
        x: the input vector (any float dtype; the L1 norm is summed in float64).
        m: number of output elements.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if m < 1:
        raise ValueError(f"output length must be positive, got {m}")
    x_l1 = float(np.abs(x).sum(dtype=np.float64))
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
    back to a full-precision product for this call.  ``q.epsilon`` is not
    checked here: a :class:`~quantloop.quantizer.QuantizedMatrix` holds only
    a finite, non-negative one.
    """
    eps = float(q.epsilon)
    n = np.size(x)
    a = abs(float(np.float32(alpha)))
    b = abs(float(np.float32(beta)))
    u = F32_UNIT_ROUNDOFF
    g = _gamma(n)
    c, l1 = q.codebook.max_abs, float(np.abs(x).sum(dtype=np.float64))
    bound = a * (eps + g * (2.0 * c + eps)) * l1
    if a != 1.0 or b != 0.0:
        y_max = 0.0
        if b != 0.0:
            if y is None:
                raise ValueError("a bound with beta != 0 needs the old y")
            y_max = float(np.abs(y).max(initial=0.0))
        bound += (2 * u + u * u) * a * (1.0 + g) * (2.0 * c + eps) * l1
        bound += 2 * u * (1.0 + u) * b * y_max
    bound = math.nextafter(bound * (1.0 + (n + 16) * 2.0**-52), math.inf)
    return BoundReport(
        epsilon=eps,
        x_l1_norm=l1,
        inf_bound=bound,
        l2_bound=math.sqrt(q.rows) * bound,
        threshold=None if threshold is None else float(threshold),
        threshold_exceeded=threshold is not None and not bound <= threshold,
    )
