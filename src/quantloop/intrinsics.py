"""Fixed math for the opaque intrinsics used by synthesized programs.

Every handler mutates its output buffer(s) in place and works in float32.
The registry maps intrinsic names to handlers; the interpreter resolves
buffer arguments to their environment values before calling, so handlers
see numpy arrays (or a :class:`QuantizedMatrix` for quantized operands).

Signatures (buffers first, then scalars):

* ``gemv(call)`` — one :class:`GemvCall`, which the interpreter binds from
  the program's BLAS-shaped arguments ``(layout, trans, m, n, alpha, A, lda,
  x, incx, beta, y, incy)`` with :func:`bind_gemv` when the program is
  prepared.  A dense A runs the product over the view checked at bind.  A
  quantized A runs :func:`~quantloop.kernels.gemv_codes`, the kernel that
  reduces each decoded tile with one matmul, on the vectors checked at
  bind; :func:`~quantloop.kernels.gemv_sketch` is not dispatched, it stays
  the ordered oracle that ``gemv_codes`` is tested against.
* ``rmsnorm(dst, src, weight)`` — ``dst = src * weight / rms(src)`` with
  ``rms(src) = sqrt(mean(src^2) + 1e-5)``.
* ``softmax(v)`` — in place, max-subtracted.
* ``silu(v)`` — in place ``v * sigmoid(v)``.
* ``rope(q, k, pos, head_size, kv_dim)`` — rotary position embedding:
  consecutive pairs ``(2i, 2i+1)`` rotate by ``pos * 10000^-(d/head_size)``
  where ``d = 2i mod head_size``; ``k`` only holds ``kv_dim`` entries and is
  rotated over those.
* ``attention(out, q, k_cur, v_cur, k_cache, v_cache, pos, n_heads,
  n_kv_heads, head_size)`` — appends the current key/value rows to the
  caches at ``pos`` and computes causal scaled dot-product attention over
  positions ``0..pos``; with fewer KV heads than query heads, each group of
  ``n_heads // n_kv_heads`` query heads shares one KV head.
* ``embed(dst, table, token)`` — copies row ``token`` of the embedding
  table (decoding just that row when the table is quantized).
* ``argmax(dst, src)`` — writes the index of the first maximum to
  ``dst[0]`` as a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitcodec import unpack_slice
# gemv_opt and gemv_sketch are imported only for perfbench/tracing.py, which
# patches them here by name.  The handler runs neither: a dense call is
# gemv_opt's product and a packed one gemv_codes' tile loop, each minus the
# operand check, so their traced figures read 0.
from .kernels import (  # noqa: F401
    GemvParams,
    Layout,
    Trans,
    _codes_tiles,
    _operands,
    _packed_operands,
    gemv_opt,
    gemv_sketch,
)
from .quantizer import QuantizedMatrix, dequantize

__all__ = [
    "GemvCall",
    "RMSNORM_EPS",
    "ROPE_THETA",
    "bind_gemv",
    "default_registry",
    "gemv_handler",
]

RMSNORM_EPS = 1e-5
ROPE_THETA = 10000.0


@dataclass(frozen=True, slots=True)
class GemvCall:
    """One gemv call with its operands checked against its params.

    ``x_eff`` and ``y_eff`` are the strided views of the vectors that the
    kernels' operand check returns.  For a dense matrix ``view`` is the
    checked view of the matrix, so running the call is only the product and
    the alpha/beta store.  For a quantized matrix in its packed layout
    ``view`` is None and the call runs the codes kernel's tile loop; in
    any other layout ``view`` is over a reconstruction made once, here.
    ``shadow``, when a caller binds one, is the same call on the matrix's
    float copy, writing into its own y scratch.
    """

    a: object  # the bound float32 ndarray or QuantizedMatrix
    x: np.ndarray
    y: np.ndarray
    params: GemvParams
    view: np.ndarray | None
    x_eff: np.ndarray
    y_eff: np.ndarray
    shadow: "GemvCall | None" = None

    def over(self, a, y: np.ndarray | None = None) -> "GemvCall":
        """The same call on matrix `a` (and output `y`), checked again."""
        return _bind_operands(a, self.x, self.y if y is None else y, self.params)


def _bind_operands(a, x, y, p: GemvParams) -> GemvCall:
    if isinstance(a, QuantizedMatrix):
        vectors = _packed_operands(a, x, y, p)
        if vectors is not None:
            return GemvCall(a, x, y, p, None, *vectors)
        dense = dequantize(a).reshape(-1)
        dense.flags.writeable = False
        return GemvCall(a, x, y, p, *_operands(dense, x, y, p))
    return GemvCall(a, x, y, p, *_operands(a.reshape(-1), x, y, p))


def bind_gemv(layout, trans, m, n, alpha, a, lda, x, incx, beta, y, incy) -> GemvCall:
    """Check one BLAS-shaped gemv call's arguments and bind its operands."""
    p = GemvParams(
        layout=Layout(layout),
        trans=Trans(trans),
        m=int(m),
        n=int(n),
        alpha=float(alpha),
        beta=float(beta),
        lda=int(lda),
        incx=int(incx),
        incy=int(incy),
    )
    return _bind_operands(a, x, y, p)


def gemv_handler(call: GemvCall) -> None:
    """Run a bound gemv call.

    Dense results equal ``gemv_opt``'s bit for bit and packed quantized
    results ``gemv_codes``'s.
    """
    p = call.params
    if call.view is None:
        _codes_tiles(call.a, call.x_eff, call.y_eff, p)
    else:
        y_eff = call.y_eff
        y_eff[...] = np.float32(p.alpha) * (call.view @ call.x_eff) + np.float32(p.beta) * y_eff


def rmsnorm_handler(dst, src, weight) -> None:
    ss = float(np.dot(src, src)) / src.shape[0] + RMSNORM_EPS
    inv = np.float32(1.0 / math.sqrt(ss))
    dst[...] = (src * inv) * weight


def softmax_inplace(v: np.ndarray) -> None:
    m = v.max()
    np.subtract(v, m, out=v)
    np.exp(v, out=v)
    v /= v.sum()


def silu_handler(v) -> None:
    v *= 1.0 / (1.0 + np.exp(-v))


def rope_handler(q, k, pos, head_size, kv_dim) -> None:
    head_size = int(head_size)
    kv_dim = int(kv_dim)
    idx = np.arange(0, q.shape[0], 2)
    angles = int(pos) * (ROPE_THETA ** (-((idx % head_size) / head_size)))
    cos = np.cos(angles).astype(np.float32)
    sin = np.sin(angles).astype(np.float32)

    q0 = q[idx].copy()
    q1 = q[idx + 1].copy()
    q[idx] = q0 * cos - q1 * sin
    q[idx + 1] = q0 * sin + q1 * cos

    kidx = idx[idx < kv_dim]
    kcos = cos[: kidx.size]
    ksin = sin[: kidx.size]
    k0 = k[kidx].copy()
    k1 = k[kidx + 1].copy()
    k[kidx] = k0 * kcos - k1 * ksin
    k[kidx + 1] = k0 * ksin + k1 * kcos


def attention_handler(
    out, q, k_cur, v_cur, k_cache, v_cache, pos, n_heads, n_kv_heads, head_size
) -> None:
    pos = int(pos)
    n_heads = int(n_heads)
    n_kv_heads = int(n_kv_heads)
    head_size = int(head_size)
    k_cache[pos, :] = k_cur
    v_cache[pos, :] = v_cur
    keys = k_cache[: pos + 1]
    vals = v_cache[: pos + 1]
    kv_mul = n_heads // n_kv_heads
    scale = np.float32(1.0 / math.sqrt(head_size))
    for h in range(n_heads):
        lo = h * head_size
        hi = lo + head_size
        kv = (h // kv_mul) * head_size
        scores = (keys[:, kv : kv + head_size] @ q[lo:hi]) * scale
        softmax_inplace(scores)
        out[lo:hi] = scores @ vals[:, kv : kv + head_size]


def embed_handler(dst, table, token) -> None:
    token = int(token)
    if isinstance(table, QuantizedMatrix):
        if not 0 <= token < table.rows:
            raise IndexError(f"token {token} out of vocabulary range {table.rows}")
        codes = unpack_slice(table.indices, token * table.cols, table.cols)
        dst[...] = table.codebook.centroids[codes]
    else:
        if not 0 <= token < table.shape[0]:
            raise IndexError(f"token {token} out of vocabulary range {table.shape[0]}")
        dst[...] = table[token]


def argmax_handler(dst, src) -> None:
    dst[0] = float(np.argmax(src))


def default_registry() -> dict:
    """A fresh name->handler mapping (callers may override entries)."""
    return {
        "gemv": gemv_handler,
        "rmsnorm": rmsnorm_handler,
        "softmax": softmax_inplace,
        "silu": silu_handler,
        "rope": rope_handler,
        "attention": attention_handler,
        "embed": embed_handler,
        "argmax": argmax_handler,
    }
