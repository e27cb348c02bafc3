"""Fixed math for the opaque intrinsics used by synthesized programs.

Every handler mutates its output buffer(s) in place and works in float32.
The registry maps intrinsic names to handlers; the interpreter resolves
buffer arguments to their environment values before calling, so handlers
see numpy arrays (or a :class:`QuantizedMatrix` for quantized operands).

Signatures (buffers first, then scalars):

* ``gemv(call)`` — one :class:`~quantloop.kernels.GemvCall`, which the
  interpreter binds from the program's BLAS-shaped arguments ``(layout,
  trans, m, n, alpha, A, lda, x, incx, beta, y, incy)`` with
  :func:`bind_gemv` when the program is prepared.  The handler runs it:
  :meth:`~quantloop.kernels.GemvCall.run` is what
  :func:`~quantloop.kernels.gemv_opt` runs too, minus the operand check.
* ``rmsnorm(dst, src, weight)`` — ``dst = src * weight / rms(src)`` with
  ``rms(src) = sqrt(mean(src^2) + 1e-5)``, evaluated as ``(src * inv_rms)
  * weight``.  Both products are written into ``dst`` (``dst`` may be
  ``src``); when ``dst`` shares memory with ``weight`` the expression runs
  out of place instead, so weight is read whole before it is overwritten.
* ``silu(v)`` — in place ``v * sigmoid(v)``, with one temporary.
* ``rope(q, k, pos, head_size, kv_dim)`` — rotary position embedding:
  consecutive pairs ``(2i, 2i+1)`` rotate by ``pos * 10000^-(d/head_size)``
  where ``d = 2i mod head_size``; ``k`` is rotated over its first ``kv_dim``
  entries.  The float64 inverse frequencies ``10000^-(d/head_size)`` are
  computed once per ``(len(q), head_size)`` and memoized read-only; each
  call multiplies them by ``pos``, which gives the angles of computing them
  afresh.  The even and odd entries rotate in place as two strided views,
  with the float32 products and sums of a one-pair-at-a-time rotation, so
  the results are those of that rotation bit for bit.
* ``attention(out, q, k_cur, v_cur, k_cache, v_cache, pos, n_heads,
  n_kv_heads, head_size)`` — writes the current key/value rows to the
  caches at ``pos`` and computes causal scaled dot-product attention over
  positions ``0..pos`` (softmax max-subtracted).  All heads run as one
  batched product; with fewer KV heads than query heads, each run of
  ``n_heads // n_kv_heads`` consecutive query heads shares one KV head.
  Only rows ``0..pos`` and columns below ``n_kv_heads * head_size`` of the
  caches are read.
* ``embed(dst, table, token)`` — copies row ``token`` of the embedding
  table (decoding just that row when the table is quantized).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bitcodec import unpack_slice
# gemv_opt and gemv_sketch are imported only for perfbench/tracing.py, which
# patches them here by name.  The handler runs neither: it runs the call
# bound at prepare, so their traced figures read 0.
from .kernels import (  # noqa: F401
    GemvCall,
    GemvParams,
    Layout,
    Trans,
    bind,
    gemv_opt,
    gemv_sketch,
)
from .quantizer import QuantizedMatrix

__all__ = [
    "RMSNORM_EPS",
    "ROPE_THETA",
    "bind_gemv",
    "default_registry",
    "gemv_handler",
]

RMSNORM_EPS = 1e-5
ROPE_THETA = 10000.0


def bind_gemv(layout, trans, m, n, alpha, a, lda, x, incx, beta, y, incy) -> GemvCall:
    """Parse one BLAS-shaped gemv call's arguments and bind its operands.

    A dense matrix arrives as its 2-D buffer and is bound as flat storage.
    """
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
    return bind(a if isinstance(a, QuantizedMatrix) else a.reshape(-1), x, y, p)


def gemv_handler(call: GemvCall) -> None:
    """Run a bound gemv call."""
    call.run()


def rmsnorm_handler(dst, src, weight) -> None:
    ss = float(np.dot(src, src)) / src.shape[0] + RMSNORM_EPS
    inv = np.float32(1.0 / math.sqrt(ss))
    if np.may_share_memory(dst, weight):  # weight must be read before dst is written
        dst[...] = (src * inv) * weight
    else:
        np.multiply(src, inv, out=dst)
        np.multiply(dst, weight, out=dst)


def softmax_inplace(v: np.ndarray) -> None:
    np.subtract(v, v.max(axis=-1, keepdims=True), out=v)
    np.exp(v, out=v)
    v /= v.sum(axis=-1, keepdims=True)


def silu_handler(v) -> None:
    t = np.negative(v)  # the one temporary: each step of 1 / (1 + exp(-v)) overwrites it
    np.exp(t, out=t)
    np.add(1.0, t, out=t)
    np.divide(1.0, t, out=t)
    v *= t


@functools.lru_cache(maxsize=32)
def _rope_inv_freq(dim: int, head_size: int) -> np.ndarray:
    """``ROPE_THETA ** -(d / head_size)`` in float64 for each pair of a `dim` vector.

    Memoized per shape, so the array is read-only.
    """
    d = np.arange(0, dim, 2) % head_size
    inv = ROPE_THETA ** (-(d / head_size))
    inv.flags.writeable = False
    return inv


def rope_handler(q, k, pos, head_size, kv_dim) -> None:
    head_size = int(head_size)
    kv_dim = int(kv_dim)
    if kv_dim > k.shape[0]:
        raise ValueError(f"rope: kv_dim {kv_dim} exceeds the {k.shape[0]} entries of k")
    angles = int(pos) * _rope_inv_freq(q.shape[0], head_size)
    cos = np.cos(angles).astype(np.float32)
    sin = np.sin(angles).astype(np.float32)
    for v, n in ((q, cos.size), (k, kv_dim // 2)):
        v0, v1, c, s = v[0 : 2 * n : 2], v[1 : 2 * n : 2], cos[:n], sin[:n]
        t = v0 * s
        v0 *= c
        v0 -= v1 * s
        v1 *= c
        v1 += t


def attention_handler(
    out, q, k_cur, v_cur, k_cache, v_cache, pos, n_heads, n_kv_heads, head_size
) -> None:
    pos = int(pos)
    n_heads = int(n_heads)
    n_kv_heads = int(n_kv_heads)
    head_size = int(head_size)
    if q.shape[0] != n_heads * head_size:
        raise ValueError(f"attention: {n_heads} heads of {head_size} do not cover q of {q.shape[0]}")
    k_cache[pos, :] = k_cur
    v_cache[pos, :] = v_cur
    rows, width = pos + 1, n_kv_heads * head_size
    keys = k_cache[:rows, :width].reshape(rows, n_kv_heads, head_size)
    vals = v_cache[:rows, :width].reshape(rows, n_kv_heads, head_size)
    scores = q.reshape(n_kv_heads, n_heads // n_kv_heads, head_size) @ keys.transpose(1, 2, 0)
    scores *= np.float32(1.0 / math.sqrt(head_size))
    softmax_inplace(scores)
    out[...] = (scores @ vals.transpose(1, 0, 2)).reshape(-1)


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


def default_registry() -> dict:
    """A fresh name->handler mapping (callers may override entries)."""
    return {
        "gemv": gemv_handler,
        "rmsnorm": rmsnorm_handler,
        "silu": silu_handler,
        "rope": rope_handler,
        "attention": attention_handler,
        "embed": embed_handler,
    }
