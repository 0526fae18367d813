"""Property-based tests and a decoder fuzz for the chunk codec frames.

Invariants: every codec is the identity through ``encode_chunk`` /
``decode_chunk`` on any record layout; the ``shuffle`` codec's wire size
never exceeds the raw planes plus its preamble; and a frame that was
damaged, cut, extended or forged makes ``decode_chunk`` raise
:class:`CodecError` -- no other exception type -- without allocating
more than a small multiple of the bytes it was actually handed.

What a frame does *not* promise: raw planes and identity payloads carry
no checksum of their own (``data/integrity.py`` checks the chunk), so a
flipped byte there comes back as a flipped byte.  The fuzz therefore
asserts "the original or ``CodecError``" for cuts and extensions, and
"``CodecError`` or exactly the declared number of bytes" for flips.
"""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.codecs import (
    CODEC_NAMES,
    HEADER_NBYTES,
    CodecError,
    _shuffle_bytes,
    decode_chunk,
    encode_chunk,
    frame_info,
    lz4_available,
)

HEADER = struct.Struct("<2sBBIQ")
NAMES = [n for n in CODEC_NAMES if n != "lz4" or lz4_available()]
STRIDES = [1, 2, 3, 4, 7, 8, 16, 256]
#: What one decode may allocate beyond a small multiple of its input: zlib's
#: own state (~40 KB) and first output block (32 KB) come to 73 KB.
SLACK = 128 << 10


@st.composite
def records(draw):
    """``(raw, stride)``: units whose byte planes are a drawn mix of
    constant, ramp and noise columns (so one frame holds deflated *and*
    raw planes), plus an optional ragged tail."""
    stride = draw(st.sampled_from(STRIDES))
    n_units = draw(st.integers(0, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = rng.integers(0, 3, stride)
    units = rng.integers(0, 256, (n_units, stride), dtype=np.uint8)
    units[:, kinds == 0] = rng.integers(0, 256, dtype=np.uint8)
    units[:, kinds == 1] = np.arange(n_units, dtype=np.uint8)[:, None]
    tail = draw(st.binary(max_size=stride - 1))
    return units.tobytes() + tail, stride


def legacy_shuffle_frame(raw, stride):
    """A frame as ``shuffle`` wrote it before planes were chosen (id 3)."""
    body = _shuffle_bytes(raw, stride) if stride > 1 and raw else raw
    return HEADER.pack(b"RC", 1, 3, stride, len(raw)) + zlib.compress(body, 6)


@st.composite
def frames(draw):
    """``(frame, raw)`` over every decoder, the decode-only one included."""
    raw, stride = draw(records())
    name = draw(st.sampled_from(NAMES + ["legacy"]))
    if name == "legacy":
        return legacy_shuffle_frame(raw, stride), raw
    return encode_chunk(raw, name, stride), raw


def decode_traced(frame):
    """``(decoded bytes or the CodecError, tracemalloc peak)``; any other
    exception propagates and fails the test."""
    tracemalloc.start()
    try:
        try:
            out = bytes(decode_chunk(frame))
        except CodecError as exc:
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRoundTrip:
    @given(record=records(), name=st.sampled_from(NAMES))
    @settings(max_examples=300, deadline=None)
    def test_every_codec_is_the_identity(self, record, name):
        raw, stride = record
        frame = encode_chunk(raw, name, stride)
        assert frame_info(frame)[1:] == (stride, len(raw))
        out = decode_chunk(frame)
        assert out == raw
        assert not isinstance(out, memoryview) or out.readonly

    @given(record=records())
    @settings(max_examples=200, deadline=None)
    def test_legacy_shuffle_frames_decode(self, record):
        raw, stride = record
        assert decode_chunk(legacy_shuffle_frame(raw, stride)) == raw

    @given(record=records())
    @settings(max_examples=200, deadline=None)
    def test_shuffle_never_costs_more_than_its_preamble(self, record):
        raw, stride = record
        frame = encode_chunk(raw, "shuffle", stride)
        assert len(frame) <= HEADER_NBYTES + -(-stride // 8) + 8 + len(raw)

    @given(
        units=st.integers(1, 400),
        stride=st.sampled_from([8, 32, 256]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_float64_mantissa_planes_are_never_deflated(self, units, stride, seed):
        raw = np.random.default_rng(seed).normal(size=units * stride // 8).tobytes()
        frame = encode_chunk(raw, "shuffle", stride)
        bitmap = np.unpackbits(
            np.frombuffer(frame, np.uint8, stride // 8, HEADER_NBYTES), bitorder="little"
        ).reshape(-1, 8)
        assert not bitmap[:, :6].any()
        assert decode_chunk(frame) == raw


class TestFuzz:
    @given(pair=frames(), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_cut_or_extended_frames(self, pair, data):
        frame, raw = pair
        if data.draw(st.booleans()):
            mutated = frame[: data.draw(st.integers(0, len(frame) - 1))]
        else:
            mutated = frame + data.draw(st.binary(min_size=1, max_size=64))
        out, peak = decode_traced(mutated)
        assert isinstance(out, CodecError) or out == raw
        assert peak <= SLACK + 10 * (len(mutated) + len(raw))

    @given(pair=frames(), data=st.data())
    @settings(max_examples=600, deadline=None)
    def test_flipped_bytes(self, pair, data):
        frame, raw = pair
        mutated = bytearray(frame)
        for at in data.draw(
            st.lists(st.integers(0, len(frame) - 1), min_size=1, max_size=4)
        ):
            mutated[at] ^= data.draw(st.integers(1, 255))
        out, peak = decode_traced(mutated)
        if not isinstance(out, CodecError):
            assert len(out) == HEADER.unpack_from(mutated)[4]
        assert peak <= SLACK + 10 * (len(mutated) + len(raw))

    @given(
        pair=frames(),
        stride=st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1)),
        logical=st.one_of(
            st.sampled_from([0, 2**63 - 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_forged_headers(self, pair, stride, logical):
        """Any stride and logical size over an honest payload."""
        frame, raw = pair
        codec_id = frame[3]
        mutated = HEADER.pack(b"RC", 1, codec_id, stride, logical) + frame[HEADER_NBYTES:]
        out, peak = decode_traced(mutated)
        if not isinstance(out, CodecError):
            assert len(out) == logical
        assert peak <= SLACK + 10 * (len(mutated) + len(raw))


class TestForgedShufflePreamble:
    """Hand-built new-style ``shuffle`` frames that do not add up."""

    def frame(self, stride, logical, bitmap, n_stream, rest):
        return (
            HEADER.pack(b"RC", 1, 4, stride, logical)
            + bytes(bitmap) + struct.pack("<Q", n_stream) + rest
        )

    def test_the_honest_frame_decodes(self):
        raw = bytes(range(24))
        planes = np.frombuffer(raw, np.uint8).reshape(3, 8).T.tobytes()
        assert decode_chunk(self.frame(8, 24, [0], 0, planes)) == raw

    def test_stride_zero(self):
        with pytest.raises(CodecError, match="stride"):
            decode_chunk(self.frame(0, 24, [], 0, bytes(24)))

    def test_stride_past_logical_is_all_tail(self):
        assert decode_chunk(self.frame(8, 3, [0], 0, b"abc")) == b"abc"
        with pytest.raises(CodecError, match="corrupt"):
            decode_chunk(self.frame(8, 3, [0], 0, b"abc" + bytes(8)))

    def test_bitmap_names_planes_past_stride(self):
        with pytest.raises(CodecError, match="past stride"):
            decode_chunk(self.frame(4, 8, [0b0001_0000], 0, bytes(8)))

    def test_bitmap_shorter_than_stride_needs(self):
        with pytest.raises(CodecError, match="bitmap"):
            decode_chunk(HEADER.pack(b"RC", 1, 4, 4096, 4096) + bytes(100))

    def test_stream_length_past_the_payload(self):
        stream = zlib.compress(bytes(8))
        for n_stream in (len(stream) + 1, 2**40, 2**64 - 1):
            with pytest.raises(CodecError, match="corrupt"):
                decode_chunk(self.frame(1, 8, [1], n_stream, stream))

    def test_logical_not_matching_the_planes(self):
        with pytest.raises(CodecError, match="corrupt"):
            decode_chunk(self.frame(8, 32, [0], 0, bytes(24)))

    def test_deflated_planes_without_a_stream(self):
        with pytest.raises(CodecError, match="corrupt"):
            decode_chunk(self.frame(2, 8, [0b01], 0, bytes(4)))

    def test_stream_holding_fewer_bytes_than_its_planes(self):
        stream = zlib.compress(bytes(3))
        with pytest.raises(CodecError, match="declares"):
            decode_chunk(self.frame(2, 8, [0b01], len(stream), stream + bytes(4)))

    def test_a_stream_nobody_asked_for(self):
        stream = zlib.compress(b"x")
        with pytest.raises(CodecError):
            decode_chunk(self.frame(2, 8, [0], len(stream), stream + bytes(8)))
