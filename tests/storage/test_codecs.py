"""Chunk codec frames: round-trips, fallbacks, and corruption handling."""

import struct
import tracemalloc
import zlib
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.formats import edges_format, points_format, tokens_format
from repro.storage import codecs
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
from tests.properties.test_codec_props import trial_deflate_shuffle_frame

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


def plane_bitmap(frame, stride):
    """Which byte planes of a new-style shuffle frame went through DEFLATE."""
    bits = np.frombuffer(frame, np.uint8, -(-stride // 8), HEADER_NBYTES)
    return np.unpackbits(bits, bitorder="little")[:stride].astype(bool)


def knn_points(n, dim=32, seed=0):
    """The suite's kNN generator: clustered float64 coordinates."""
    rng = np.random.default_rng(seed)
    centers = rng.random((8, dim))
    return rng.normal(0.0, 0.15, (n, dim)) + centers[rng.integers(0, 8, n)]


SHUFFLE_DATA = {
    "float64": lambda n: np.random.default_rng(5).normal(size=n // 8 + 1),
    "float32": lambda n: np.random.default_rng(6).normal(size=n // 4 + 1).astype(np.float32),
    "int64": lambda n: np.random.default_rng(7).integers(0, 5000, n // 8 + 1),
    "uint8": lambda n: np.random.default_rng(8).integers(0, 256, n, dtype=np.uint8),
}


class TestShufflePlanes:
    """The ``shuffle`` codec decides per byte plane what DEFLATE is worth."""

    @pytest.mark.parametrize("stride", [1, 4, 7, 8, 256, 4096])
    @pytest.mark.parametrize("kind", sorted(SHUFFLE_DATA))
    @pytest.mark.parametrize("n_units,n_tail", [(0, 0), (0, 3), (1, 0), (33, 0), (33, 5)])
    def test_round_trip(self, kind, stride, n_units, n_tail):
        nbytes = n_units * stride + min(n_tail, stride - 1)
        raw = SHUFFLE_DATA[kind](nbytes).tobytes()[:nbytes]
        frame = encode_chunk(raw, "shuffle", stride)
        assert frame_info(frame) == ("shuffle", stride, nbytes)
        assert decode_chunk(frame) == raw

    def test_read_only_and_shared_memory_inputs(self):
        raw = knn_points(500).tobytes()
        readonly = np.frombuffer(raw, np.uint8)  # not writable
        frame = encode_chunk(memoryview(readonly), "shuffle", 256)
        shm = shared_memory.SharedMemory(create=True, size=len(frame))
        try:
            shm.buf[: len(frame)] = frame
            assert encode_chunk(shm.buf[: len(raw) // 2], "shuffle", 256)
            out = decode_chunk(shm.buf[: len(frame)])
            assert out == raw
            del out  # a view over the segment would keep it from closing
        finally:
            shm.close()
            shm.unlink()

    def test_incompressible_planes_stay_raw(self):
        raw = np.random.default_rng(1).bytes(256 * 3000)
        frame = encode_chunk(raw, "shuffle", 256)
        assert not plane_bitmap(frame, 256).any()
        # bitmap + stream length: the whole price of asking
        assert len(frame) == len(encode_chunk(raw, "identity")) + 256 // 8 + 8
        assert decode_chunk(frame) == raw

    def test_token_ids_deflate_every_plane_into_less_than_one_stream(self):
        """A striped-wordcount-sized chunk of int64 word ids: every plane
        is deflated, and one run-length block per plane comes to no more
        than the one level-6 stream over all of them that this codec
        used to write (76 123 against 84 230 bytes)."""
        tokens = np.random.default_rng(2).zipf(1.3, 83_000) % 5000
        raw = tokens.tobytes()
        frame = encode_chunk(raw, "shuffle", 8)
        assert plane_bitmap(frame, 8).all()
        one_stream = zlib.compress(tokens.view(np.uint8).reshape(-1, 8).T.tobytes(), 6)
        assert len(frame) <= HEADER_NBYTES + 1 + 8 + len(one_stream)
        assert decode_chunk(frame) == raw

    def test_float64_coordinates_deflate_their_top_two_planes(self):
        """Six mantissa bytes of every float64 are noise DEFLATE expands
        (1.002); the seventh shrinks to ~0.77, sign/exponent to ~0.07."""
        raw = knn_points(6250).tobytes()  # the suite's chunk: 1.6 MB
        frame = encode_chunk(raw, "shuffle", 256)
        expected = np.zeros(256, bool)
        expected[6::8] = expected[7::8] = True
        assert plane_bitmap(frame, 256).tolist() == expected.tolist()
        assert len(frame) / len(raw) <= 0.86
        assert decode_chunk(frame) == raw

    def test_sample_that_promised_too_much_falls_back_to_raw(self, monkeypatch):
        """The decision reads the head of each plane; when the rest does
        not keep the promise the planes are stored, not expanded."""
        monkeypatch.setattr(codecs, "_SAMPLE_NBYTES", 16)
        raw = bytes(16) + np.random.default_rng(3).bytes(6000)
        assert len(zlib.compress(raw, 6)) > len(raw)
        frame = encode_chunk(raw, "shuffle", 1)
        assert not plane_bitmap(frame, 1).any()
        assert len(frame) == HEADER_NBYTES + 1 + 8 + len(raw)
        assert decode_chunk(frame) == raw

    def test_golden_legacy_frame_still_decodes(self):
        """Bytes written by ``encode_chunk(raw, "shuffle", 8)`` before this
        codec chose planes (codec id 3): readable for ever, never written."""
        frame = bytes.fromhex(
            "52430103080000000401000000000000789c63a8fd55fea5f05df68bd447f177"
            "22af055ff03de57ec4719ff50ed34dfa6b349729333030303232313133b3b0b0"
            "b2b2b1b1b37370707272717173f3f0f0f2f2f1f1330c715092989903003a8013"
            "bc"
        )
        raw = np.arange(0, 4000, 125, dtype=np.int64).tobytes() + b"tail"
        assert frame_info(frame) == ("shuffle", 8, len(raw))
        assert decode_chunk(frame) == raw
        assert encode_chunk(raw, "shuffle", 8)[3] != frame[3] == 3

    def test_golden_trial_deflate_frame_still_decodes(self):
        """Bytes written by ``encode_chunk(raw, "shuffle", 8)`` while the
        encoder chose planes by trial deflates and put them through one
        level-6 stream: the same codec id and frame layout, so readable
        for ever, but no longer what is written."""
        frame = bytes.fromhex(
            "52430104080000000401000000000000f80c00000000000000789c636018dc00"
            "0000a0000100c58a4f14d99e6328edb2773c01c68b5015da9f6429eeb3783d02"
            "c78c5116db00e8d1baa38b745d462e1700e9d2baa38c755d462f1800e9d2bba4"
            "8c755e472f0001030507090b0d0f11131516181a1c1e20222426282a2b2d2f31"
            "333537393b7461696c"
        )
        raw = (np.arange(0, 4000, 125, dtype=np.int64) * 1001).tobytes() + b"tail"
        assert frame_info(frame) == ("shuffle", 8, len(raw))
        assert plane_bitmap(frame, 8).tolist() == [False] * 3 + [True] * 5
        assert trial_deflate_shuffle_frame(raw, 8) == frame  # the oracle is that encoder
        assert decode_chunk(frame) == raw
        now = encode_chunk(raw, "shuffle", 8)
        assert now[3] == frame[3] == 4
        assert now != frame

    def test_result_is_read_only_and_outlives_its_frame(self):
        raw = knn_points(300).tobytes()
        frame = bytearray(encode_chunk(raw, "shuffle", 256))
        out = decode_chunk(frame)
        frame[:] = bytes(len(frame))
        del frame
        assert memoryview(out).readonly
        with pytest.raises((TypeError, ValueError)):
            np.frombuffer(out, np.uint8)[0] = 1
        assert out == raw

    def test_decode_allocates_less_than_the_old_inflate_alone(self):
        """PR 16 measured 4.5 x logical inside the old decode's inflate."""
        raw = knn_points(6250).tobytes()
        frame = encode_chunk(raw, "shuffle", 256)
        tracemalloc.start()
        try:
            out = decode_chunk(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == raw
        assert peak < 2.5 * len(raw)


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

    @pytest.mark.parametrize("codec_id", [1, 3, 4])
    def test_inflate_is_bounded_by_what_the_header_declares(self, codec_id):
        """A 97 KB stream of 100 MB of zeros behind a header declaring 10
        bytes used to be inflated whole (215 MB) before being rejected."""
        bomb = zlib.compress(bytes(10**8))
        if codec_id == 4:  # one plane, deflated: bitmap, stream length, stream
            bomb = b"\x01" + struct.pack("<Q", len(bomb)) + bomb
        frame = struct.pack("<2sBBIQ", b"RC", 1, codec_id, 1, 10) + bomb
        tracemalloc.start()
        try:
            with pytest.raises(CodecError, match="declares"):
                decode_chunk(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.skipif(lz4_available(), reason="lz4 installed")
    def test_lz4_frame_without_package_is_codec_error(self):
        # Hand-build an lz4 frame (codec id 2): decoding must fail
        # cleanly, not return garbage.
        header = struct.pack("<2sBBIQ", b"RC", 1, 2, 1, 4)
        with pytest.raises(CodecError, match="lz4"):
            decode_chunk(header + b"\x00\x00\x00\x00")
