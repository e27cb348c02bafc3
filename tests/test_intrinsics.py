"""The rope, attention and softmax intrinsics against float64 oracles."""

import numpy as np
import pytest

from quantloop.intrinsics import attention_handler, rope_handler, softmax_inplace
from quantloop.runtime import Engine, ModelConfig, make_toy_checkpoint

from oracles import attention_reference, rope_reference

RTOL, ATOL = 1e-5, 1e-6

#: (n_heads, n_kv_heads, head_size, max_seq_len): the toy model's attention,
#: grouped-query (two query heads per KV head) and multi-query (one KV head).
SHAPES = {
    "toy": (4, 4, 16, 256),
    "gqa": (8, 4, 32, 48),
    "mqa": (4, 1, 16, 40),
}
#: pos 0, a middle position and the last cache row.
WHERE = {"first": lambda seq: 0, "middle": lambda seq: seq // 2, "last": lambda seq: seq - 1}


def _case(shape, where):
    n_heads, n_kv_heads, head_size, seq = SHAPES[shape]
    pos = WHERE[where](seq)
    rng = np.random.default_rng([sorted(SHAPES).index(shape), pos])
    return n_heads, n_kv_heads, head_size, seq, pos, rng


def _normal(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


@pytest.mark.parametrize("where", sorted(WHERE))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rope_matches_reference(shape, where):
    n_heads, n_kv_heads, head_size, _, pos, rng = _case(shape, where)
    kv_dim = n_kv_heads * head_size
    q = _normal(rng, n_heads * head_size)
    k = _normal(rng, kv_dim + 2)  # entries past kv_dim are not rotated
    want_q, want_k = rope_reference(q, k, pos, head_size, kv_dim)

    rope_handler(q, k, pos, head_size, kv_dim)

    np.testing.assert_allclose(q, want_q, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(k, want_k, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("where", sorted(WHERE))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_attention_matches_reference(shape, where):
    n_heads, n_kv_heads, head_size, seq, pos, rng = _case(shape, where)
    width = n_kv_heads * head_size
    q = _normal(rng, n_heads * head_size)
    k_cur, v_cur = _normal(rng, width), _normal(rng, width)
    # Rows past pos are poisoned: none of them may reach the output.
    k_cache = np.full((seq, width), np.nan, dtype=np.float32)
    v_cache = np.full((seq, width), np.nan, dtype=np.float32)
    k_cache[:pos] = _normal(rng, pos, width)
    v_cache[:pos] = _normal(rng, pos, width)
    out = np.full(n_heads * head_size, np.nan, dtype=np.float32)

    attention_handler(out, q, k_cur, v_cur, k_cache, v_cache, pos,
                      n_heads, n_kv_heads, head_size)

    np.testing.assert_array_equal(k_cache[pos], k_cur)
    np.testing.assert_array_equal(v_cache[pos], v_cur)
    assert np.isnan(k_cache[pos + 1:]).all() and np.isnan(v_cache[pos + 1:]).all()
    want = attention_reference(q, k_cache[: pos + 1], v_cache[: pos + 1],
                               n_heads, n_kv_heads, head_size)
    np.testing.assert_allclose(out, want, rtol=RTOL, atol=ATOL)


def test_size_arguments_must_match_buffers():
    f32 = np.float32
    # 2 heads of 16 cover only half of a 64-wide q.
    q, out, row = np.ones(64, f32), np.zeros(64, f32), np.ones(64, f32)
    cache = np.zeros((4, 64), f32)
    with pytest.raises(ValueError, match="attention"):
        attention_handler(out, q, row, row, cache, cache.copy(), 0, 2, 2, 16)
    # kv_dim names more entries than k holds.
    with pytest.raises(ValueError, match="rope"):
        rope_handler(np.ones(64, f32), np.ones(32, f32), 3, 16, 64)


def test_softmax_rows_match_one_dimensional_softmax():
    rows = np.random.default_rng(5).standard_normal((3, 2, 37)).astype(np.float32) * 4
    want = rows.copy()
    for row in want.reshape(-1, want.shape[-1]):
        softmax_inplace(row)
    softmax_inplace(rows)
    np.testing.assert_array_equal(rows, want)


def test_gqa_engine_modes_agree(tmp_path):
    config = ModelConfig(dim=64, hidden_dim=96, n_layers=2, n_heads=8, n_kv_heads=2,
                         vocab_size=48, max_seq_len=16)
    path = str(tmp_path / "gqa.ditf")
    make_toy_checkpoint(path, seed=3, config=config)
    naive = Engine(path, mode="naive")
    fast = Engine(path, mode="optimized")

    rn = naive.generate([1, 2], steps=8)
    rf = fast.generate([1, 2], steps=8)
    assert rn.generated_tokens == rf.generated_tokens
