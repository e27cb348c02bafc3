"""The rope, rmsnorm and silu handlers against their formulas, bit for bit.

Each handler writes its result over the buffers it is handed and keeps
what it can between calls.  These tests evaluate each formula afresh, out
of place, on every call and compare the int32 bits of the results.
"""

import math

import numpy as np
import pytest

from quantloop import intrinsics
from quantloop.intrinsics import (
    RMSNORM_EPS,
    ROPE_THETA,
    rmsnorm_handler,
    rope_handler,
    silu_handler,
)


def assert_same_bits(actual, expect, context=""):
    np.testing.assert_array_equal(actual.view(np.int32), expect.view(np.int32), err_msg=context)


def rope_fresh(q, k, pos, head_size, kv_dim):
    """rope's float32 rotation with its angles computed on this call; returns new (q, k)."""
    d = np.arange(0, q.size, 2) % head_size
    angles = pos * (ROPE_THETA ** (-(d / head_size)))
    cos = np.cos(angles).astype(np.float32)
    sin = np.sin(angles).astype(np.float32)
    out = []
    for v, n in ((q, q.size // 2), (k, kv_dim // 2)):
        v = v.copy()
        a, b, c, s = v[0 : 2 * n : 2].copy(), v[1 : 2 * n : 2].copy(), cos[:n], sin[:n]
        v[0 : 2 * n : 2] = a * c - b * s
        v[1 : 2 * n : 2] = b * c + a * s
        out.append(v)
    return out


def test_rope_with_memoized_frequencies_matches_the_fresh_formula():
    # Shapes alternate within one process, so frequencies memoized under the
    # wrong key would reach the next shape's call.  kv_dim below dim leaves
    # the tail of k alone.
    rng = np.random.default_rng(41)
    shapes = [(64, 16, 64), (64, 32, 32), (48, 8, 16), (64, 16, 32)]  # dim, head_size, kv_dim
    for _ in range(2):
        for dim, head_size, kv_dim in shapes:
            for pos in (0, 1, 7, 128, 255):
                q = rng.normal(size=dim).astype(np.float32)
                k = rng.normal(size=dim).astype(np.float32)
                expect_q, expect_k = rope_fresh(q, k, pos, head_size, kv_dim)
                rope_handler(q, k, pos, head_size, kv_dim)
                where = f"dim {dim}, head_size {head_size}, kv_dim {kv_dim}, pos {pos}"
                assert_same_bits(q, expect_q, where)
                assert_same_bits(k, expect_k, where)


def test_rope_frequency_memo_is_read_only():
    inv = intrinsics._rope_inv_freq(64, 16)
    assert inv.dtype == np.float64 and not inv.flags.writeable
    assert intrinsics._rope_inv_freq(64, 16) is inv
    with pytest.raises(ValueError):
        inv[0] = 0.0


def rmsnorm_fresh(src, weight):
    ss = float(np.dot(src, src)) / src.shape[0] + RMSNORM_EPS
    return (src * np.float32(1.0 / math.sqrt(ss))) * weight


@pytest.mark.parametrize("dst_is", ["own buffer", "src", "weight"])
def test_rmsnorm_result_does_not_depend_on_which_buffer_it_writes(dst_is):
    rng = np.random.default_rng(42)
    src = rng.normal(size=64).astype(np.float32)
    weight = rng.normal(size=64).astype(np.float32)
    expect = rmsnorm_fresh(src, weight)
    dst = {"own buffer": np.full(64, np.nan, np.float32), "src": src, "weight": weight}[dst_is]
    rmsnorm_handler(dst, src, weight)
    assert_same_bits(dst, expect, dst_is)


def test_silu_matches_the_formula_on_special_values():
    rng = np.random.default_rng(43)
    v = (rng.normal(size=172) * 30).astype(np.float32)
    v[:5] = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    with np.errstate(invalid="ignore", over="ignore"):
        expect = v * (1.0 / (1.0 + np.exp(-v)))
        silu_handler(v)
    assert_same_bits(v, expect)
