import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantloop.bitcodec import (
    DECODE_SLICE,
    PADDING,
    CodeRangeError,
    MalformedBuffer,
    PackedBuffer,
    pack_bits,
    payload_size,
    unpack_bits,
    unpack_slice,
)
from quantloop.quantizer import QuantizedMatrix
from quantloop.runtime import read_quantized_checkpoint

from oracles import pack_bits_reference, unpack_bits_reference


# -- pinned byte layouts -----------------------------------------------------


def test_two_bit_example_bytes():
    # codes 1,1,1,0,0,0,2,2,2 at b=2: bits 01 01 01 00 00 00 10 10 10
    # LSB-first -> payload 0x15 0xA0 0x02, then one zero guard byte.
    buf = pack_bits(np.array([1, 1, 1, 0, 0, 0, 2, 2, 2]), 2)
    assert buf.data == bytes([0x15, 0xA0, 0x02, 0x00])
    assert buf.payload_bytes == 3


def test_three_bit_example_bytes():
    # codes 5,6,7 at b=3: bits 101 011 111 -> payload 0xF5 0x01.
    buf = pack_bits(np.array([5, 6, 7]), 3)
    assert buf.data == bytes([0xF5, 0x01, 0x00])
    assert buf.payload_bytes == 2


def test_payload_size_formula():
    assert payload_size(0, 3) == 0
    assert payload_size(1, 1) == 1
    assert payload_size(8, 1) == 1
    assert payload_size(9, 1) == 2
    assert payload_size(3, 3) == 2
    assert payload_size(1000, 7) == 875


def test_matches_bit_by_bit_reference():
    rng = np.random.default_rng(11)
    for bit_width in range(1, 9):
        # The last size spans two decode slices of unpack_bits.
        for n in (0, 1, 7, 8, 9, 100, DECODE_SLICE + 3):
            codes = rng.integers(0, 1 << bit_width, size=n)
            got = pack_bits(codes, bit_width)
            assert got.data == pack_bits_reference(codes, bit_width)
            assert list(unpack_bits(got)) == unpack_bits_reference(
                got.data, n, bit_width
            )


# -- slicing -----------------------------------------------------------------


def test_unpack_slice_windows():
    codes = np.arange(32) % 8
    buf = pack_bits(codes, 3)
    for start in range(32):
        for count in range(32 - start):
            np.testing.assert_array_equal(
                unpack_slice(buf, start, count), codes[start : start + count]
            )


def test_unpack_slice_bounds_checked():
    buf = pack_bits(np.array([1, 2, 3]), 4)
    with pytest.raises(IndexError):
        unpack_slice(buf, 2, 2)
    with pytest.raises(IndexError):
        unpack_slice(buf, -1, 1)


# -- error paths -------------------------------------------------------------


def test_out_of_range_code_rejected():
    with pytest.raises(CodeRangeError):
        pack_bits(np.array([0, 4]), 2)
    with pytest.raises(CodeRangeError):
        pack_bits(np.array([-1]), 2)


def test_bad_bit_width_rejected():
    for bad in (0, 9, -3):
        with pytest.raises(ValueError):
            pack_bits(np.array([0]), bad)


def test_truncated_buffer_rejected():
    good = pack_bits(np.arange(16) % 4, 2)
    with pytest.raises(MalformedBuffer):
        PackedBuffer(data=good.data[:-2], count=16, bit_width=2)


def test_missing_guard_byte_rejected():
    good = pack_bits(np.arange(16) % 4, 2)
    # Payload intact but guard byte missing.
    with pytest.raises(MalformedBuffer):
        PackedBuffer(data=good.data[:-1], count=16, bit_width=2)


# -- padding in memory -------------------------------------------------------


def _padding(buf: PackedBuffer) -> bytes:
    """The PADDING bytes that follow ``buf.data`` in memory, read where they lie."""
    data = np.frombuffer(buf.data, np.uint8)
    return ctypes.string_at(data.ctypes.data + data.size, PADDING)


def test_every_packed_buffer_is_followed_by_its_padding(toy_quant_path):
    # However a PackedBuffer is made, `data` is payload + guard, and PADDING
    # readable bytes follow it in memory: zero where PackedBuffer allocated
    # them, the caller's own where it views a buffer that is long enough.
    packed = pack_bits(np.arange(61) % 8, 3)
    payload = bytes(packed.data)
    _, tensors = read_quantized_checkpoint(toy_quant_path)
    read = [t.indices for t in tensors.values() if isinstance(t, QuantizedMatrix)]
    assert read
    made = [packed, pack_bits([], 5), *read, PackedBuffer(payload, 61, 3),
            PackedBuffer(payload + b"\xff" * (PADDING - 1), 61, 3)]
    for buf in made:
        assert len(buf.data) == buf.payload_bytes + 1
        assert _padding(buf) == bytes(PADDING)
    tail = bytes(range(1, PADDING + 3))
    longer = bytearray(payload + tail)
    buf = PackedBuffer(longer, 61, 3)
    assert len(buf.data) == buf.payload_bytes + 1 and buf.data == payload
    assert np.shares_memory(np.frombuffer(buf.data, np.uint8), np.frombuffer(longer, np.uint8))
    assert _padding(buf) == tail[:PADDING]


# -- properties --------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    bit_width=st.integers(1, 8),
    data=st.data(),
)
def test_roundtrip_property(bit_width, data):
    codes = data.draw(
        st.lists(st.integers(0, (1 << bit_width) - 1), min_size=0, max_size=300)
    )
    buf = pack_bits(np.array(codes, dtype=np.int64), bit_width)
    assert buf.payload_bytes == (len(codes) * bit_width + 7) // 8
    assert len(buf.data) == buf.payload_bytes + 1
    np.testing.assert_array_equal(unpack_bits(buf), codes)


@settings(max_examples=200, deadline=None)
@given(bit_width=st.integers(1, 8), data=st.data())
def test_slice_matches_full_unpack(bit_width, data):
    # Starts and counts are arbitrary code positions, so the slice's first and
    # last bits land at every offset within a byte; count 0 is included.
    codes = data.draw(
        st.lists(st.integers(0, (1 << bit_width) - 1), min_size=0, max_size=300)
    )
    buf = pack_bits(np.array(codes, dtype=np.int64), bit_width)
    start = data.draw(st.integers(0, len(codes)))
    count = data.draw(st.integers(0, len(codes) - start))
    got = unpack_slice(buf, start, count)
    assert got.dtype == np.uint8 and got.shape == (count,)
    np.testing.assert_array_equal(got, unpack_bits(buf)[start : start + count])
    np.testing.assert_array_equal(got, codes[start : start + count])
