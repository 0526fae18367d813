"""Property-based tests and a decoder fuzz for the chunk codec frames.

Invariants: every codec is the identity through ``encode_chunk`` /
``decode_chunk`` on any record layout; the ``shuffle`` codec's wire size
never exceeds the raw planes plus its preamble, a byte plane its
histogram bound rejects would not have deflated, and frames its earlier
encoders wrote still decode; and a frame that was damaged, cut, extended
or forged makes ``decode_chunk`` raise :class:`CodecError` -- no other
exception type -- without allocating more than a small multiple of the
bytes it was actually handed.

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
    _SAMPLE_NBYTES,
    CODEC_NAMES,
    HEADER_NBYTES,
    CodecError,
    _shuffle_bytes,
    _worth_deflating,
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


PLANE_FAMILIES = ("constant", "noise", "skewed", "ramp", "run", "sparse")


def family_plane(family, n, rng):
    """``n`` bytes shaped like one byte plane of real records."""
    if family == "constant":
        return np.full(n, rng.integers(0, 256), np.uint8)
    if family == "noise":  # uniform over an alphabet of 2..256 symbols
        return rng.integers(0, rng.integers(2, 257), n).astype(np.uint8)
    if family == "skewed":  # geometric: a few symbols carry most bytes
        return (rng.geometric(rng.uniform(0.02, 0.9), n) - 1).astype(np.uint8)
    if family == "ramp":  # climbing slowly or fast, wrapping at 256
        return (np.arange(n) * rng.integers(1, 256) // rng.integers(1, 65)).astype(np.uint8)
    if family == "run":  # random values held for random lengths
        held = rng.geometric(1 / rng.integers(1, 65), n)
        return np.repeat(rng.integers(0, 256, n, dtype=np.uint8), held)[:n]
    # sparse: zeros, with a fraction of random bytes
    hit = rng.random(n) < rng.uniform(0.01, 0.9)
    return np.where(hit, rng.integers(0, 256, n), 0).astype(np.uint8)


@st.composite
def records(draw):
    """``(raw, stride)``: units whose byte planes are a drawn mix of plane
    families (so one frame holds deflated *and* raw planes), plus an
    optional ragged tail."""
    stride = draw(st.sampled_from(STRIDES))
    n_units = draw(st.integers(0, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    units = np.empty((n_units, stride), np.uint8)
    for p, family in enumerate(rng.choice(PLANE_FAMILIES, stride)):
        units[:, p] = family_plane(family, n_units, rng)
    tail = draw(st.binary(max_size=stride - 1))
    return units.tobytes() + tail, stride


def legacy_shuffle_frame(raw, stride):
    """A frame as ``shuffle`` wrote it before planes were chosen (id 3)."""
    body = _shuffle_bytes(raw, stride) if stride > 1 and raw else raw
    return HEADER.pack(b"RC", 1, 3, stride, len(raw)) + zlib.compress(body, 6)


def trial_deflate_shuffle_frame(raw, stride):
    """A frame as ``shuffle`` wrote it while it chose planes by trial
    deflates (id 4, the frame layout of today): the first 2 048 bytes of
    each plane deflated at level 1, the planes that shrank to 7/8 put
    through one level-6 stream.  The oracle for old-frame compatibility
    and for the encoder's speed."""
    view = memoryview(raw).cast("B")
    n_units = view.nbytes // stride
    head = n_units * stride
    planes = np.frombuffer(_shuffle_bytes(view[:head], stride), np.uint8)
    planes = planes.reshape(stride, n_units)
    n_sample = min(n_units, 2048)
    deflated = np.array(
        [8 * len(zlib.compress(p[:n_sample], 1)) <= 7 * n_sample for p in planes], bool
    )
    chosen = planes[deflated]
    stream = zlib.compress(chosen, 6) if chosen.size else b""
    if len(stream) >= chosen.size:
        deflated[:] = False
        stream = b""
    return HEADER.pack(b"RC", 1, 4, stride, len(raw)) + b"".join((
        np.packbits(deflated, bitorder="little"),
        struct.pack("<Q", len(stream)),
        stream,
        planes[~deflated],
        view[head:],
    ))


OLD_ENCODERS = {"legacy": legacy_shuffle_frame, "trial-deflate": trial_deflate_shuffle_frame}


@st.composite
def frames(draw):
    """``(frame, raw)`` over every decoder and every encoder, the ones
    that no longer write included."""
    raw, stride = draw(records())
    name = draw(st.sampled_from(NAMES + sorted(OLD_ENCODERS)))
    if name in OLD_ENCODERS:
        return OLD_ENCODERS[name](raw, stride), raw
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
    def test_trial_deflate_shuffle_frames_decode(self, record):
        raw, stride = record
        assert decode_chunk(trial_deflate_shuffle_frame(raw, stride)) == raw

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

    @given(
        family=st.sampled_from(PLANE_FAMILIES),
        n=st.integers(64, 4096),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_a_rejected_plane_would_not_have_deflated(self, family, n, seed):
        """The encoder's histogram bound turns a plane away only when a
        run-length DEFLATE block of its sample stays above 0.85 of it."""
        sample = family_plane(family, n, np.random.default_rng(seed))[:_SAMPLE_NBYTES]
        if not _worth_deflating(sample[None, :])[0]:
            deflater = zlib.compressobj(6, zlib.DEFLATED, -15, 8, zlib.Z_RLE)
            coded = deflater.compress(sample) + deflater.flush()
            assert len(coded) >= 0.85 * sample.size


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
