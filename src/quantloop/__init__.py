"""quantloop: codebook weight quantization with certified output-error
bounds, a loop-IR compiler pass that rewrites GEMV nests into kernel calls,
and a small transformer runtime that ties the two together."""

__version__ = "0.1.0"

from .bitcodec import (
    CodeRangeError,
    MalformedBuffer,
    PackedBuffer,
    pack_bits,
    payload_size,
    unpack_bits,
    unpack_slice,
)
from .quantizer import (
    Codebook,
    QuantConfig,
    QuantizedMatrix,
    bits_required,
    dequantize,
    init_equal_population,
    quantize_matrix,
    refine,
)
from .kernels import (
    BoundReport,
    GemvParams,
    GemvShapeError,
    Layout,
    Trans,
    error_bound,
    gemv_codes,
    gemv_naive,
    gemv_opt,
    gemv_sketch,
    runtime_bound_check,
)

__all__ = [
    "BoundReport",
    "Codebook",
    "CodeRangeError",
    "GemvParams",
    "GemvShapeError",
    "Layout",
    "MalformedBuffer",
    "PackedBuffer",
    "QuantConfig",
    "QuantizedMatrix",
    "Trans",
    "__version__",
    "bits_required",
    "dequantize",
    "error_bound",
    "gemv_codes",
    "gemv_naive",
    "gemv_opt",
    "gemv_sketch",
    "init_equal_population",
    "pack_bits",
    "payload_size",
    "quantize_matrix",
    "refine",
    "runtime_bound_check",
    "unpack_bits",
    "unpack_slice",
]
