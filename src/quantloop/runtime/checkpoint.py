"""Checkpoint containers for float ("DITF") and quantized ("DITQ") weights.

Both files start with a 36-byte header: 4-byte magic, u32 version, then the
seven model-config integers, all little-endian.  Tensor payloads follow in
the fixed order given by `tensor_shapes(config)` with no per-tensor names.

DITF stores every tensor as raw float32.  DITQ stores 1-D tensors as raw
float32 and each 2-D tensor as a quantization record::

    u8  bit_width
    u32 rows
    u32 cols
    f32 epsilon                 # max reconstruction error of this tensor
    f32 centroids[2**bit_width]
    u8  packed_codes[ceil(rows*cols*bit_width/8) + 1]   # incl. guard byte

Epsilon is stored because the runtime bound check needs it and the original
weights are gone after quantization.

The two kinds differ only in that one choice, so one reader (`_read`) and
one writer (`_write`) serve both, keyed on the magic; the four public
read/write functions are one-line calls into them.  Either reader returns
``{name: tensor}`` in inventory order, each tensor a C-contiguous float32
array or, in a DITQ file, a :class:`~quantloop.quantizer.QuantizedMatrix`
for each 2-D slot.
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple
from typing import BinaryIO, Union

import numpy as np

from ..bitcodec import PackedBuffer, check_bit_width, payload_size
from ..quantizer import Codebook, QuantConfig, QuantizedMatrix, quantize_matrix
from .config import ModelConfig, TOY_CONFIG, layer_shapes, tensor_shapes
from .rng import tensor_fill

FLOAT_MAGIC = b"DITF"
QUANT_MAGIC = b"DITQ"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sI7i")
_RECORD = struct.Struct("<BIIf")

Tensor = Union[np.ndarray, QuantizedMatrix]


class CheckpointError(Exception):
    """Base class for checkpoint read failures."""


class InvalidHeaderError(CheckpointError):
    """Magic or version is wrong for the reader used."""


class TruncatedCheckpointError(CheckpointError):
    """The file ends before the tensor inventory is complete."""


class ExtentMismatchError(CheckpointError):
    """A tensor record's shape disagrees with the config-derived shape."""


class InvalidRecordError(CheckpointError):
    """A quantization record's bit width, epsilon or centroids are invalid."""


def _read_exact(f: BinaryIO, size: int, n: int, what: str) -> bytes:
    # Sizes come from the file's own header, so a hostile one can ask for
    # gigabytes or for more than a read can express; they are checked against
    # the file's `size` first, before anything is allocated.
    left = size - f.tell()
    if n > left:
        raise TruncatedCheckpointError(
            f"expected {n} bytes for {what}, the file has {left} left"
        )
    data = f.read(n)
    if len(data) != n:
        raise TruncatedCheckpointError(
            f"expected {n} bytes for {what}, got {len(data)}"
        )
    return data


def _read_header(f: BinaryIO, magic: bytes, path: str) -> ModelConfig:
    raw = f.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise InvalidHeaderError(f"{path}: file shorter than a header")
    got_magic, version, *fields = _HEADER.unpack(raw)
    if got_magic != magic:
        raise InvalidHeaderError(
            f"{path}: magic {got_magic!r} is not {magic.decode()!r}"
        )
    if version != FORMAT_VERSION:
        raise InvalidHeaderError(
            f"{path}: unsupported version {version} (expected {FORMAT_VERSION})"
        )
    try:
        config = ModelConfig(*fields)
    except ValueError as exc:
        raise InvalidHeaderError(f"{path}: bad config fields: {exc}") from exc
    return config


def _check_layer_count(config: ModelConfig, size: int, quantized: bool) -> None:
    # The header's n_layers sizes the tensor inventory, a list of 9 entries
    # per layer, so it is checked against the file first: each layer takes at
    # least its raw float32 tensors, or for .ditq its gains plus one 1-bit
    # record per matrix.
    per_layer = sum(
        quantized_record_size(*shape, 1) if quantized and len(shape) == 2
        else 4 * math.prod(shape)
        for _, shape in layer_shapes(config, 0)
    )
    need = _HEADER.size + config.n_layers * per_layer
    if need > size:
        raise TruncatedCheckpointError(
            f"{config.n_layers} layers need at least {need} bytes, the file has {size}"
        )


def quantized_record_size(rows: int, cols: int, bit_width: int) -> int:
    return _RECORD.size + 4 * (1 << bit_width) + payload_size(rows * cols, bit_width) + 1


def serialize_record(q: QuantizedMatrix) -> bytes:
    """The on-disk form of one quantized tensor (header, codebook, codes)."""
    return (
        _RECORD.pack(q.codebook.bit_width, q.rows, q.cols, q.epsilon)
        + q.codebook.centroids.astype("<f4").tobytes()
        + q.indices.data
    )


def _read_record(f: BinaryIO, size: int, name: str, shape: tuple) -> QuantizedMatrix:
    raw = _read_exact(f, size, _RECORD.size, f"record header of {name!r}")
    bit_width, rows, cols, epsilon = _RECORD.unpack(raw)
    if (rows, cols) != shape:
        raise ExtentMismatchError(
            f"{name}: stored extents ({rows}, {cols}) != expected {shape}"
        )
    # The types below check every other rule; bit_width is checked first
    # because it sizes both reads.
    try:
        check_bit_width(bit_width)
        centroids = _read_exact(f, size, 4 << bit_width, f"centroids of {name!r}")
        data = _read_exact(
            f, size, payload_size(rows * cols, bit_width) + 1, f"codes of {name!r}"
        )
        return QuantizedMatrix(
            rows=rows,
            cols=cols,
            codebook=Codebook(
                centroids=np.frombuffer(centroids, dtype="<f4").copy(), bit_width=bit_width
            ),
            indices=PackedBuffer(data=data, count=rows * cols, bit_width=bit_width),
            epsilon=float(epsilon),
        )
    except ValueError as exc:
        raise InvalidRecordError(f"{name}: {exc}") from exc


def _read(path: str, magic: bytes) -> tuple[ModelConfig, dict[str, Tensor]]:
    """The one reader: a 2-D tensor is a quantization record iff `magic` is DITQ."""
    quantized = magic == QUANT_MAGIC
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        config = _read_header(f, magic, path)
        _check_layer_count(config, size, quantized)
        tensors = {}
        for name, shape in tensor_shapes(config):
            if quantized and len(shape) == 2:
                tensors[name] = _read_record(f, size, name, shape)
            else:
                raw = _read_exact(f, size, 4 * math.prod(shape), f"tensor {name!r}")
                tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        return config, tensors


def _write(path: str, magic: bytes, config: ModelConfig, tensors: dict[str, Tensor]) -> None:
    """The one writer: a 2-D tensor must be a QuantizedMatrix iff `magic` is DITQ.

    Every tensor is checked before the output is opened, so a refused write
    leaves whatever file was at `path` as it was.
    """
    quantized = magic == QUANT_MAGIC
    shapes = tensor_shapes(config)
    missing = [name for name, _ in shapes if name not in tensors]
    if missing:
        raise ValueError(f"missing tensors: {missing}")
    checked = []
    for name, shape in shapes:
        t = tensors[name]
        if quantized and len(shape) == 2:
            if not isinstance(t, QuantizedMatrix):
                raise TypeError(f"{name}: expected QuantizedMatrix, got {type(t)}")
            if (t.rows, t.cols) != shape:
                raise ExtentMismatchError(
                    f"{name}: extents ({t.rows}, {t.cols}) != expected {shape}"
                )
        else:
            t = np.ascontiguousarray(t, dtype=np.float32)
            if t.shape != shape:
                raise ExtentMismatchError(f"{name}: shape {t.shape} != expected {shape}")
        checked.append(t)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(magic, FORMAT_VERSION, *astuple(config)))
        for t in checked:
            f.write(serialize_record(t) if isinstance(t, QuantizedMatrix) else t.tobytes())


def read_float_checkpoint(path: str):
    """Returns (config, {name: float32 ndarray})."""
    return _read(path, FLOAT_MAGIC)


def read_quantized_checkpoint(path: str):
    """Returns (config, {name: QuantizedMatrix | float32 ndarray})."""
    return _read(path, QUANT_MAGIC)


def write_float_checkpoint(path: str, config: ModelConfig, tensors: dict) -> None:
    _write(path, FLOAT_MAGIC, config, tensors)


def write_quantized_checkpoint(path: str, config: ModelConfig, tensors: dict) -> None:
    _write(path, QUANT_MAGIC, config, tensors)


def sniff_magic(path: str) -> bytes:
    """The first four bytes of a file: FLOAT_MAGIC, QUANT_MAGIC or anything else."""
    with open(path, "rb") as f:
        return f.read(4)


# ---------------------------------------------------------------------------
# Quantization driver
# ---------------------------------------------------------------------------


def quantize_checkpoint(
    in_path: str, out_path: str, config: QuantConfig = QuantConfig()
) -> dict:
    """Quantize every 2-D tensor of a float checkpoint; returns a report.

    Tensors are independent, so they are farmed out to a thread pool (the
    heavy work is in numpy, which releases the GIL).
    """
    model_config, tensors = read_float_checkpoint(in_path)
    names_2d = [name for name, shape in tensor_shapes(model_config) if len(shape) == 2]

    def job(name: str) -> QuantizedMatrix:
        return quantize_matrix(tensors[name], config)

    with ThreadPoolExecutor() as pool:
        quantized = dict(zip(names_2d, pool.map(job, names_2d)))

    out_tensors: dict = dict(tensors)
    out_tensors.update(quantized)
    write_quantized_checkpoint(out_path, model_config, out_tensors)

    in_size = os.path.getsize(in_path)
    out_size = os.path.getsize(out_path)
    return {
        "input": in_path,
        "output": out_path,
        "bit_width": config.bit_width,
        "input_bytes": in_size,
        "output_bytes": out_size,
        "size_ratio": out_size / in_size,
        "tensors": [
            {
                "name": name,
                "rows": quantized[name].rows,
                "cols": quantized[name].cols,
                "bit_width": quantized[name].codebook.bit_width,
                "epsilon": quantized[name].epsilon,
            }
            for name in names_2d
        ],
        "max_epsilon": max(quantized[name].epsilon for name in names_2d),
    }


def make_toy_checkpoint(path: str, seed: int = 0, config: ModelConfig = TOY_CONFIG) -> ModelConfig:
    """Write a deterministic float checkpoint with splitmix64-filled tensors."""
    tensors = {}
    for name, shape in tensor_shapes(config):
        count = int(np.prod(shape))
        if len(shape) == 1:
            # Normalization gains near 1.
            tensors[name] = 1.0 + tensor_fill(seed, name, count, 0.2)
        else:
            scale = 1.0 / np.sqrt(shape[1])
            tensors[name] = tensor_fill(seed, name, count, scale).reshape(shape)
    write_float_checkpoint(path, config, tensors)
    return config
