"""Fixed-width bit packing of small integer codes into dense byte streams.

Code ``i`` of an ``n``-code stream occupies bit positions ``[i*b, (i+1)*b)``
where ``b`` is the code width in bits (1..8).  Bit position ``p`` lives in
byte ``p // 8`` at intra-byte offset ``p % 8``, least-significant bit first.
A code that straddles a byte boundary is split: its low-order bits fill the
remaining space of the current byte and the high-order bits spill into the
next byte.

The payload is exactly ``ceil(n*b/8)`` bytes and is always followed by a
single zero guard byte.  The guard is a format invariant: writers always
emit it, the ``.ditq`` record size counts it, and :class:`PackedBuffer`
refuses a buffer too short to hold it (:class:`MalformedBuffer`), so a
stream cut at the end of its payload is refused when it is made.
:func:`unpack_slice` reads only the payload bytes that hold the requested
codes.

In memory, and only there, the guard is followed by :data:`PADDING` more
readable bytes.  The compiled step's packed records, the GEMV and the embed
(``quantloop/_native/step.c``), read the codes in 8-byte little-endian
words from any payload byte on, so a word read from the last one ends at
the padding's last byte, and no read needs a bound.  That padding is the
one guarantee the C side takes from this module besides the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DECODE_SLICE",
    "MAX_BIT_WIDTH",
    "CodeRangeError",
    "MalformedBuffer",
    "PADDING",
    "PackedBuffer",
    "check_bit_width",
    "pack_bits",
    "payload_size",
    "unpack_bits",
    "unpack_slice",
]

MAX_BIT_WIDTH = 8

#: Readable bytes that follow a :class:`PackedBuffer`'s guard byte in memory:
#: an 8-byte word read from the last payload byte ends at the last of them.
PADDING = 6

#: Codes decoded per :func:`unpack_slice` call when a whole stream is decoded
#: (:func:`unpack_bits`, :func:`quantloop.quantizer.dequantize`), which bounds
#: their scratch to about ``(5 * bit_width + 13) * DECODE_SLICE`` bytes.
DECODE_SLICE = 1 << 14

# float32 holds every sum of at most MAX_BIT_WIDTH place values (<= 255)
# exactly, and a float32 product runs through BLAS where a uint8 one does not.
_PLACE_VALUES = (1 << np.arange(MAX_BIT_WIDTH)).astype(np.float32)


class CodeRangeError(ValueError):
    """A code does not fit the declared bit width."""


class MalformedBuffer(ValueError):
    """A packed buffer is truncated or otherwise inconsistent."""


def payload_size(count: int, bit_width: int) -> int:
    """Number of payload bytes (guard byte excluded) for `count` codes."""
    return (count * bit_width + 7) // 8


def check_bit_width(bit_width: int) -> None:
    """Refuse a code width outside 1..:data:`MAX_BIT_WIDTH` with a ValueError."""
    if not 1 <= bit_width <= MAX_BIT_WIDTH:
        raise ValueError(f"bit width must be in 1..{MAX_BIT_WIDTH}, got {bit_width}")


@dataclass(frozen=True)
class PackedBuffer:
    """A densely packed stream of fixed-width codes.

    ``data`` holds the payload plus the trailing zero guard byte, so
    ``len(data) == payload_size(count, bit_width) + 1``, whatever buffer the
    stream was made from.  It is a view of ``padded``, which holds it and
    then at least :data:`PADDING` more readable bytes, for the compiled
    step's whole-word reads.  A caller's buffer that is already that long is
    kept and viewed, not copied, so its codes must not change while this
    lives; a shorter one's payload and guard are copied once, followed by
    :data:`PADDING` zero bytes.  A bad bit width, a negative count or a
    buffer too short for payload and guard is refused here, and the decoders
    do not check again.
    """

    padded: bytes | memoryview
    count: int
    bit_width: int

    def __init__(self, data, count: int, bit_width: int) -> None:
        check_bit_width(bit_width)
        if count < 0:
            raise MalformedBuffer(f"negative code count {count}")
        need = payload_size(count, bit_width) + 1  # payload + guard
        if len(data) < need:
            raise MalformedBuffer(
                f"packed buffer truncated: need {need} bytes "
                f"({need - 1} payload + 1 guard), have {len(data)}"
            )
        if len(data) < need + PADDING:
            data = b"".join((memoryview(data)[:need], bytes(PADDING)))
        elif not isinstance(data, bytes):
            data = memoryview(data)  # holds the caller's buffer at its size while this lives
        object.__setattr__(self, "padded", data)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "bit_width", bit_width)

    @property
    def data(self) -> memoryview:
        """The payload and the guard byte, a view of :attr:`padded`."""
        return memoryview(self.padded)[: self.payload_bytes + 1]

    @property
    def payload_bytes(self) -> int:
        return payload_size(self.count, self.bit_width)


def pack_bits(codes, bit_width: int) -> PackedBuffer:
    """Pack integer codes into a :class:`PackedBuffer`.

    Args:
        codes: sequence (or 1-D array) of integers, each in ``[0, 2**bit_width)``.
        bit_width: code width in bits, 1..8.

    Raises:
        CodeRangeError: if any code falls outside the representable range.
    """
    check_bit_width(bit_width)
    arr = np.ascontiguousarray(codes, dtype=np.int64).reshape(-1)
    if arr.size:
        lo = int(arr.min())
        hi = int(arr.max())
        if lo < 0 or hi >= (1 << bit_width):
            raise CodeRangeError(
                f"codes must lie in [0, {1 << bit_width}) for bit width "
                f"{bit_width}; saw range [{lo}, {hi}]"
            )
    # Explode each code into bit_width little-endian bits, then let numpy
    # fold the flat bit stream back into bytes (LSB-first within each byte).
    bits = ((arr[:, None] >> np.arange(bit_width, dtype=np.int64)) & 1).astype(np.uint8)
    payload = np.packbits(bits.reshape(-1), bitorder="little").tobytes()
    return PackedBuffer(payload + bytes(1 + PADDING), count=arr.size, bit_width=bit_width)


def unpack_slice(buf: PackedBuffer, start: int, count: int) -> np.ndarray:
    """Decode codes ``start .. start+count`` without touching the rest.

    The payload bytes spanning the slice are exploded into their
    little-endian bit stream, the bits of the code straddling the first byte
    are skipped, and each run of ``bit_width`` bits is folded back into a
    code by a float32 product with the place values ``1, 2, 4, ...`` (exact,
    as every code is below 256) and cast to ``uint8``.  That is a handful of
    numpy calls whatever the count, and about ``5 * bit_width + 5`` bytes of
    scratch per code.
    """
    if start < 0 or count < 0 or start + count > buf.count:
        raise IndexError(
            f"slice [{start}, {start + count}) out of range for {buf.count} codes"
        )
    b = buf.bit_width
    first_bit = start * b
    end_bit = first_bit + count * b
    data = np.frombuffer(buf.padded, dtype=np.uint8)
    bits = np.unpackbits(data[first_bit >> 3 : (end_bit + 7) >> 3], bitorder="little")
    skip = first_bit & 7
    bits = bits[skip : skip + count * b].reshape(count, b).astype(np.float32)
    return (bits @ _PLACE_VALUES[:b]).astype(np.uint8)


def unpack_bits(buf: PackedBuffer) -> np.ndarray:
    """Decode every code in the buffer; inverse of :func:`pack_bits`.

    Returns a ``uint8`` array of length ``buf.count``.
    """
    codes = np.empty(buf.count, dtype=np.uint8)
    for start in range(0, buf.count, DECODE_SLICE):
        stop = min(start + DECODE_SLICE, buf.count)
        codes[start:stop] = unpack_slice(buf, start, stop - start)
    return codes
