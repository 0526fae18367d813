"""Chunk codec frames: round-trips, fallbacks, and corruption handling."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.formats import edges_format, points_format, tokens_format
from repro.storage.codecs import (
    CODEC_NAMES,
    CODECS,
    HEADER_NBYTES,
    CodecError,
    _shuffle_bytes,
    _unshuffle_bytes,
    decode_chunk,
    encode_chunk,
    frame_info,
    lz4_available,
    resolve_codec,
)

FORMATS = {
    "tokens": tokens_format(),
    "edges": edges_format(),
    "points-f64": points_format(4),
    "points-f32": points_format(3, np.float32),
}


def units_for(fmt, n, seed=0):
    rng = np.random.default_rng(seed)
    if np.issubdtype(fmt.dtype, np.integer):
        arr = rng.integers(0, 1000, size=(n,) + fmt.record_shape)
        return arr.astype(fmt.dtype)
    return rng.normal(size=(n,) + fmt.record_shape).astype(fmt.dtype)


class TestRoundTrip:
    @pytest.mark.parametrize("codec", CODEC_NAMES)
    @pytest.mark.parametrize("fmt_name", sorted(FORMATS))
    @pytest.mark.parametrize("n_units", [0, 1, 117])
    def test_every_codec_every_format(self, codec, fmt_name, n_units):
        fmt = FORMATS[fmt_name]
        raw = fmt.encode(units_for(fmt, n_units, seed=3))
        frame = encode_chunk(raw, codec, fmt.unit_nbytes)
        assert decode_chunk(frame) == raw
        name, stride, logical = frame_info(frame)
        assert stride == fmt.unit_nbytes
        assert logical == len(raw)
        # The name recorded is the codec actually used (lz4 may fall
        # back to zlib when the optional package is missing).
        assert name == resolve_codec(codec).name

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_non_aligned_tail(self, codec):
        """A trailing partial unit must survive the shuffle transform."""
        raw = bytes(range(256)) * 5 + b"tail"  # not a multiple of 8
        frame = encode_chunk(raw, codec, unit_nbytes=8)
        assert decode_chunk(frame) == raw

    @pytest.mark.parametrize("codec", CODEC_NAMES)
    def test_stride_one(self, codec):
        raw = b"abcabcabc" * 100
        assert decode_chunk(encode_chunk(raw, codec, 1)) == raw

    def test_shuffle_beats_zlib_on_numeric_data(self):
        fmt = points_format(4)
        raw = fmt.encode(units_for(fmt, 2000, seed=1))
        z = encode_chunk(raw, "zlib", fmt.unit_nbytes)
        s = encode_chunk(raw, "shuffle", fmt.unit_nbytes)
        assert len(s) < len(z) < len(raw)

    @pytest.mark.parametrize("transpose", [_shuffle_bytes, _unshuffle_bytes])
    def test_transposing_whole_units_allocates_one_buffer(self, transpose):
        """Chunks are whole units: the byte transpose is the only
        chunk-sized allocation.  Appending the (empty) ragged tail costs
        nothing only because ``bytes + b""`` returns its left operand;
        an in-flight chunk's memory is counted on that."""
        fmt = points_format(32)
        raw = fmt.encode(units_for(fmt, 4096, seed=2))  # 1 MB
        tracemalloc.start()
        try:
            out = transpose(raw, fmt.unit_nbytes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == len(raw)
        assert peak <= 1.05 * len(raw)

    def test_identity_is_header_plus_raw(self):
        raw = b"x" * 100
        frame = encode_chunk(raw, "identity")
        assert len(frame) == HEADER_NBYTES + 100
        assert frame[HEADER_NBYTES:] == raw


@settings(max_examples=60, deadline=None)
@given(
    raw=st.binary(max_size=4096),
    stride=st.integers(min_value=1, max_value=64),
    codec=st.sampled_from([n for n in CODEC_NAMES if n != "lz4"]),
)
def test_round_trip_property(raw, stride, codec):
    assert decode_chunk(encode_chunk(raw, codec, stride)) == raw


class TestResolve:
    def test_unknown_name_is_value_error(self):
        with pytest.raises(ValueError, match="unknown codec"):
            resolve_codec("gzip")

    def test_lz4_fallback(self):
        c = resolve_codec("lz4")
        if lz4_available():
            assert c.name == "lz4"
        else:
            assert c.name == "zlib"

    def test_codec_ids_are_unique(self):
        ids = [c.codec_id for c in CODECS.values()]
        assert len(set(ids)) == len(ids)


class TestCorruption:
    def make(self, codec="zlib"):
        return encode_chunk(b"hello world" * 50, codec, 1)

    def test_truncated_header(self):
        with pytest.raises(CodecError, match="shorter than"):
            decode_chunk(self.make()[: HEADER_NBYTES - 1])

    def test_bad_magic(self):
        frame = b"XX" + self.make()[2:]
        with pytest.raises(CodecError, match="magic"):
            decode_chunk(frame)

    def test_bad_version(self):
        frame = bytearray(self.make())
        frame[2] = 99
        with pytest.raises(CodecError, match="version"):
            decode_chunk(bytes(frame))

    def test_unknown_codec_id(self):
        frame = bytearray(self.make())
        frame[3] = 200
        with pytest.raises(CodecError, match="codec id"):
            decode_chunk(bytes(frame))

    @pytest.mark.parametrize("codec", ["zlib", "shuffle"])
    def test_corrupt_payload(self, codec):
        frame = bytearray(self.make(codec))
        for i in range(HEADER_NBYTES, min(len(frame), HEADER_NBYTES + 8)):
            frame[i] ^= 0xFF
        with pytest.raises(CodecError, match="corrupt"):
            decode_chunk(bytes(frame))

    def test_length_mismatch(self):
        raw = b"hello world" * 50
        payload = zlib.compress(raw)
        # Header lies about the logical size.
        header = struct.pack("<2sBBIQ", b"RC", 1, 1, 1, len(raw) + 1)
        with pytest.raises(CodecError, match="declares"):
            decode_chunk(header + payload)

    def test_identity_truncated_payload(self):
        frame = encode_chunk(b"abcdef", "identity")
        with pytest.raises(CodecError, match="declares"):
            decode_chunk(frame[:-2])

    @pytest.mark.skipif(lz4_available(), reason="lz4 installed")
    def test_lz4_frame_without_package_is_codec_error(self):
        # Hand-build an lz4 frame (codec id 2): decoding must fail
        # cleanly, not return garbage.
        header = struct.pack("<2sBBIQ", b"RC", 1, 2, 1, 4)
        with pytest.raises(CodecError, match="lz4"):
            decode_chunk(header + b"\x00\x00\x00\x00")
