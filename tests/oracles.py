"""Independently written reference implementations used to pin expected
values.  Everything here favors obviousness over speed: bit twiddling is
done one bit at a time on Python ints, GEMV one scalar at a time with
explicit float32 casts, clustering by brute force where feasible — so a bug
in the package cannot hide in a shared helper.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# -- bit packing -------------------------------------------------------------


def pack_bits_reference(codes, bit_width: int) -> bytes:
    """Pack one bit at a time, LSB-first within and across codes."""
    n_payload = (len(codes) * bit_width + 7) // 8
    out = bytearray(n_payload + 1)  # + guard byte
    bitpos = 0
    for code in codes:
        code = int(code)
        assert 0 <= code < (1 << bit_width)
        for b in range(bit_width):
            if (code >> b) & 1:
                out[bitpos >> 3] |= 1 << (bitpos & 7)
            bitpos += 1
    return bytes(out)


def unpack_bits_reference(data: bytes, count: int, bit_width: int):
    out = []
    bitpos = 0
    for _ in range(count):
        v = 0
        for b in range(bit_width):
            v |= ((data[bitpos >> 3] >> (bitpos & 7)) & 1) << b
            bitpos += 1
        out.append(v)
    return out


# -- GEMV --------------------------------------------------------------------


def native_order_sums(w, x):
    """Row sums of ``w @ x`` in the order of the compiled packed kernel.

    Written from the order ``_native/step.c`` documents for every dot
    product, dense or packed, in float32 numpy:
    every product rounded on its own; products ``k < n8 = n - n % 8`` added
    to accumulator ``k % 8`` in increasing k; the accumulators combined as
    ``((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))``; then the
    products ``k >= n8`` added left to right.
    """
    products = np.asarray(w, dtype=np.float32) * np.asarray(x, dtype=np.float32)
    rows, n = products.shape
    n8 = n - n % 8
    acc = np.zeros((rows, 8), dtype=np.float32)
    for k in range(0, n8, 8):
        acc += products[:, k : k + 8]
    a = acc.T
    s = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
    for k in range(n8, n):
        s += products[:, k]
    return s


def gemv_reference(a_flat, x, y, layout, trans, m, n, alpha, beta, lda,
                   incx=1, incy=1):
    """Scalar float32 GEMV, one multiply and one add at a time.

    `layout` is "RM"/"CM", `trans` is "NT"/"T"; returns a new y array.
    """
    f = np.float32
    a_flat = np.asarray(a_flat, dtype=np.float32).reshape(-1)
    x = np.asarray(x, dtype=np.float32)
    y = np.array(y, dtype=np.float32, copy=True)

    def elem(i, k):  # logical A[i, k], i < m, k < n
        if layout == "RM":
            return a_flat[i * lda + k]
        return a_flat[k * lda + i]

    out_len = m if trans == "NT" else n
    in_len = n if trans == "NT" else m
    for i in range(out_len):
        s = f(0.0)
        for k in range(in_len):
            aik = elem(i, k) if trans == "NT" else elem(k, i)
            s = f(s + f(aik * x[k * incx]))
        y[i * incy] = f(f(f(alpha) * s) + f(f(beta) * y[i * incy]))
    return y


# -- clustering --------------------------------------------------------------


def best_assignment_bruteforce(weights, n_clusters: int):
    """Exhaustive search over all assignments; returns (L1 cost, assignment).

    Centroids are the means of each cluster (the L1-optimal choice for this
    fixed-assignment subproblem is the median, but the package's refinement
    uses means, so the oracle scores mean-centroids).  Only usable for tiny
    inputs.
    """
    weights = [float(w) for w in weights]
    best = (math.inf, None)
    for assign in itertools.product(range(n_clusters), repeat=len(weights)):
        groups = {}
        for w, a in zip(weights, assign):
            groups.setdefault(a, []).append(w)
        cents = {a: sum(g) / len(g) for a, g in groups.items()}
        cost = sum(abs(w - cents[a]) for w, a in zip(weights, assign))
        if cost < best[0] - 1e-15:
            best = (cost, assign)
    return best


def epsilon_reference(weights, centroids, assignments) -> float:
    return max(
        abs(float(w) - float(centroids[a])) for w, a in zip(weights, assignments)
    )


# -- rope and attention ------------------------------------------------------


def rope_reference(q, k, pos: int, head_size: int, kv_dim: int, theta: float = 10000.0):
    """Rotary embedding one pair at a time in float64; returns new (q, k).

    Pair ``(i, i+1)``, ``i`` even, turns by ``pos * theta^-((i mod
    head_size) / head_size)``.  ``k`` turns over its first ``kv_dim``
    entries and keeps the rest.
    """

    def rotate(v, width):
        v = [float(x) for x in v]
        for i in range(0, width, 2):
            angle = pos * theta ** (-((i % head_size) / head_size))
            c, s = math.cos(angle), math.sin(angle)
            a, b = v[i], v[i + 1]
            v[i] = a * c - b * s
            v[i + 1] = a * s + b * c
        return np.array(v)

    return rotate(q, len(q)), rotate(k, kv_dim)


def attention_reference(q, keys, values, n_heads: int, n_kv_heads: int, head_size: int):
    """Scaled dot-product attention one head at a time in float64.

    `keys` and `values` are the cache rows ``0..pos``, each
    ``n_kv_heads * head_size`` wide.  Query head ``h`` reads KV head
    ``h // (n_heads // n_kv_heads)``.  Returns the ``n_heads * head_size``
    output.
    """
    group = n_heads // n_kv_heads
    out = np.zeros(n_heads * head_size)
    for h in range(n_heads):
        qh = [float(x) for x in q[h * head_size : (h + 1) * head_size]]
        kv = (h // group) * head_size
        scores = []
        for row in keys:
            dot = sum(qh[d] * float(row[kv + d]) for d in range(head_size))
            scores.append(dot / math.sqrt(head_size))
        top = max(scores)
        weights = [math.exp(s - top) for s in scores]
        total = sum(weights)
        for d in range(head_size):
            acc = sum(w * float(row[kv + d]) for w, row in zip(weights, values))
            out[h * head_size + d] = acc / total
    return out
