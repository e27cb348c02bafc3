"""Model configuration and the canonical tensor inventory.

A checkpoint stores tensors in a fixed order derived from the config, so
both the writer and the reader iterate `tensor_shapes` and nothing needs
per-tensor headers beyond the quantization record itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

#: Largest KV cache, in bytes, a config may ask for: one float32 key and one
#: value cache of ``max_seq_len x kv_dim`` per layer.  ``max_seq_len`` is the
#: one header field a checkpoint's size does not bound, so a config past this
#: ceiling is refused before the engine tries to allocate its caches.
MAX_KV_CACHE_BYTES = 1 << 30


@dataclass(frozen=True)
class ModelConfig:
    """The seven checkpoint header integers; the fields, in order, are the header.

    Every rule on the fields' values is checked here, so a config that the
    readers refuse cannot be built in memory and written either.
    """

    dim: int
    hidden_dim: int
    n_layers: int
    n_heads: int
    n_kv_heads: int
    vocab_size: int
    max_seq_len: int

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{f.name} must be a positive int, got {v!r}")
        if self.dim % self.n_heads != 0:
            raise ValueError("dim must be divisible by n_heads")
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError("n_heads must be divisible by n_kv_heads")
        if self.head_size % 2 != 0:
            # rope rotates pairs (2i, 2i+1), and each must lie inside one head.
            raise ValueError(f"head_size {self.head_size} must be even")
        kv_bytes = 2 * self.n_layers * self.max_seq_len * self.kv_dim * 4
        if kv_bytes > MAX_KV_CACHE_BYTES:
            raise ValueError(
                f"max_seq_len {self.max_seq_len} needs a {kv_bytes}-byte KV "
                f"cache, over the {MAX_KV_CACHE_BYTES}-byte limit"
            )

    @property
    def head_size(self) -> int:
        return self.dim // self.n_heads

    @property
    def kv_dim(self) -> int:
        return self.head_size * self.n_kv_heads


#: Small config used by the test suite and the toy checkpoint script.
TOY_CONFIG = ModelConfig(
    dim=64,
    hidden_dim=172,
    n_layers=2,
    n_heads=4,
    n_kv_heads=4,
    vocab_size=256,
    max_seq_len=256,
)


def layer_shapes(config: ModelConfig, i: int) -> list:
    """Ordered (name, shape) pairs of layer `i`'s tensors; every layer has the same shapes."""
    d, h, kv = config.dim, config.hidden_dim, config.kv_dim
    return [
        (f"l{i}_att_norm", (d,)),
        (f"l{i}_wq", (d, d)),
        (f"l{i}_wk", (kv, d)),
        (f"l{i}_wv", (kv, d)),
        (f"l{i}_wo", (d, d)),
        (f"l{i}_ffn_norm", (d,)),
        (f"l{i}_w1", (h, d)),
        (f"l{i}_w2", (d, h)),
        (f"l{i}_w3", (h, d)),
    ]


def tensor_shapes(config: ModelConfig) -> list:
    """Ordered (name, shape) pairs for every tensor in a checkpoint.

    2-D tensors are the matmul weights (quantizable); 1-D tensors are the
    normalization gains (always stored as float32).
    """
    d = config.dim
    shapes = [("tok_emb", (config.vocab_size, d))]
    for i in range(config.n_layers):
        shapes += layer_shapes(config, i)
    shapes += [("final_norm", (d,)), ("classifier", (config.vocab_size, d))]
    return shapes


def param_count(config: ModelConfig) -> int:
    return sum(math.prod(shape) for _, shape in tensor_shapes(config))


def gemv_flops_per_token(config: ModelConfig) -> int:
    """Multiply-accumulate FLOPs (2 per MAC) in the matmul weights per token."""
    return sum(2 * math.prod(shape) for _, shape in tensor_shapes(config) if len(shape) == 2)
