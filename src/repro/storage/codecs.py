"""Chunk compression codecs for the WAN transfer layer.

Inter-cluster bandwidth is the scarcest resource in the bursting setup,
so the data organizer can write cloud-resident chunks *pre-compressed*
and the fetch path ships the encoded bytes over the (simulated) WAN,
decoding after reassembly.  Every encoded chunk is a self-describing
**frame** so any worker can decode any chunk regardless of the
producer's settings:

    +-------+---------+----------+------------+------------------+---------+
    | magic | version | codec id | unit       | logical size     | payload |
    | b"RC" | u8      | u8       | stride u32 | u64              | ...     |
    +-------+---------+----------+------------+------------------+---------+

Registered codecs:

``identity``
    No transform; the frame only adds the 16-byte header.  Baseline and
    escape hatch for incompressible data.
``zlib``
    Plain DEFLATE (always available, stdlib).
``lz4``
    LZ4 frame compression -- *optional* dependency.  When the ``lz4``
    package is absent, :func:`resolve_codec` falls back to ``zlib`` for
    encoding; decoding an lz4 frame without the package raises
    :class:`CodecError` (the bytes cannot be recovered locally).
``shuffle``
    Format-aware byte shuffle + selective DEFLATE, Blosc-style: the
    fixed-stride unit stream (stride = ``RecordFormat.unit_nbytes``) is
    byte-transposed so that the k-th byte of every unit becomes one
    contiguous *plane*, and only the planes that deflate are deflated.
    The high-order bytes of numeric data (zero bytes of int64 token ids,
    sign/exponent bytes of float64 coordinates) collapse to a few
    percent; float mantissa planes are noise that DEFLATE expands, so
    they cross the wire raw and cost nothing to decode.  Frames written
    before the planes were chosen one by one (codec id 3: one stream
    over everything) still decode; nothing writes them any more.

All corruption -- bad magic, unknown codec, truncated payload, lengths
that do not add up, size mismatch after decode -- surfaces as a clean
:class:`CodecError` rather than garbage units, and is found *before*
anything of the size a header merely claims is allocated: inflating is
capped at what the frame declares.

Zero-copy contract: both directions accept any bytes-like buffer
(``bytes``, ``bytearray``, ``memoryview``, shared-memory pages) without
an intermediate ``bytes()`` materialization, and :func:`decode_chunk`
returns a **read-only view over the input frame** for the identity
codec -- the only copies on the decode path are the ones the transform
itself requires (inflate, byte un-transpose).
"""

from __future__ import annotations

import mmap
import struct
import sys
import zlib

import numpy as np

try:  # optional dependency; the container may not ship it
    import lz4.frame as _lz4frame
except ImportError:  # pragma: no cover - exercised on lz4-less CI legs
    _lz4frame = None

__all__ = [
    "CodecError",
    "Codec",
    "CODECS",
    "CODEC_NAMES",
    "Buffer",
    "encode_chunk",
    "decode_chunk",
    "frame_info",
    "resolve_codec",
    "lz4_available",
]

#: Any contiguous bytes-like object the codec layer moves around.
Buffer = bytes | bytearray | memoryview

_MAGIC = b"RC"
_VERSION = 1
# magic(2) version(1) codec_id(1) stride(4) logical_nbytes(8)
_HEADER = struct.Struct("<2sBBIQ")
HEADER_NBYTES = _HEADER.size


class CodecError(Exception):
    """An encoded chunk frame is invalid, corrupt, or undecodable here."""


def lz4_available() -> bool:
    """True when the optional ``lz4`` package is importable."""
    return _lz4frame is not None


def _shuffle_bytes(raw: Buffer, stride: int) -> bytes:
    """Byte-transpose the stride-aligned prefix of ``raw``; tail kept raw.

    The transpose is the one copy this transform is (it rewrites the
    byte order); no other materialization happens.
    """
    view = memoryview(raw)
    n_units = view.nbytes // stride
    head = n_units * stride
    arr = np.frombuffer(view, dtype=np.uint8, count=head)
    shuffled = arr.reshape(n_units, stride).T.tobytes()
    return shuffled + bytes(view[head:])


def _unshuffle_bytes(raw: Buffer, stride: int) -> bytes:
    view = memoryview(raw)
    n_units = view.nbytes // stride
    head = n_units * stride
    arr = np.frombuffer(view, dtype=np.uint8, count=head)
    unshuffled = arr.reshape(stride, n_units).T.tobytes()
    return unshuffled + bytes(view[head:])


class Codec:
    """One registered transform: raw chunk bytes <-> wire payload.

    ``compress``/``decompress`` accept any bytes-like buffer and may
    return a view over it (the identity codec does); only transforms
    that rewrite bytes are allowed to allocate.  ``decompress`` is told
    the logical size the header declares so it can bound what it
    allocates *before* it allocates; :func:`decode_chunk` checks the
    size of what comes back.
    """

    name = "identity"
    codec_id = 0

    def compress(self, raw: Buffer, stride: int) -> Buffer:
        return raw

    def decompress(self, payload: Buffer, stride: int, logical: int) -> Buffer:
        return payload


def _inflate(stream: Buffer, nbytes: int, what: str) -> bytes:
    """Inflate a zlib stream the frame says holds ``nbytes``.

    The inflater is allowed one byte more than that: enough to tell a
    stream that lies about its size from one that does not, without
    ever allocating what a hostile stream would like us to (1000:1 is
    ordinary for DEFLATE).
    """
    if nbytes >= sys.maxsize:  # a u64 field can say so; no buffer can
        raise CodecError(f"frame declares {nbytes} bytes: not addressable here")
    inflater = zlib.decompressobj()
    try:
        out = inflater.decompress(stream, nbytes + 1)
    except zlib.error as exc:
        raise CodecError(f"{what} payload corrupt: {exc}") from exc
    if len(out) > nbytes:
        raise CodecError(
            f"{what} payload inflates past the {nbytes} bytes the frame declares"
        )
    if not inflater.eof:
        raise CodecError(f"{what} payload corrupt: deflate stream is truncated")
    if inflater.unused_data:
        raise CodecError(f"{what} payload corrupt: bytes after the deflate stream")
    if len(out) != nbytes:
        raise CodecError(
            f"{what} payload inflates to {len(out)} bytes but the frame "
            f"declares {nbytes}"
        )
    return out


class _ZlibCodec(Codec):
    name = "zlib"
    codec_id = 1

    def compress(self, raw: Buffer, stride: int) -> Buffer:
        return zlib.compress(raw, level=6)

    def decompress(self, payload: Buffer, stride: int, logical: int) -> Buffer:
        return _inflate(payload, logical, "zlib")


class _Lz4Codec(Codec):
    name = "lz4"
    codec_id = 2

    def compress(self, raw: Buffer, stride: int) -> Buffer:
        if _lz4frame is None:  # pragma: no cover - encode side is gated
            raise CodecError("lz4 codec requires the optional lz4 package")
        return _lz4frame.compress(bytes(raw) if isinstance(raw, memoryview) else raw)

    def decompress(self, payload: Buffer, stride: int, logical: int) -> Buffer:
        if _lz4frame is None:
            raise CodecError(
                "chunk was encoded with lz4 but the lz4 package is not installed"
            )
        try:
            return _lz4frame.decompress(
                bytes(payload) if isinstance(payload, memoryview) else payload
            )
        except RuntimeError as exc:  # pragma: no cover - needs lz4
            raise CodecError(f"lz4 payload corrupt: {exc}") from exc


class _LegacyShuffleCodec(Codec):
    """Codec id 3: every plane through one DEFLATE stream, tail included.

    What ``shuffle`` wrote before planes were chosen one by one.  Kept
    decode-only (registered by id, not by name) so frames already in a
    store stay readable; nothing writes it.
    """

    name = "shuffle"
    codec_id = 3

    def decompress(self, payload: Buffer, stride: int, logical: int) -> Buffer:
        raw = _inflate(payload, logical, "shuffle")
        if stride > 1 and raw:
            return _unshuffle_bytes(raw, stride)
        return raw


_U64 = struct.Struct("<Q")
# Every page of a decoded chunk is written at once, so where the platform
# can (Linux) have the kernel map them in one call, not a fault per page.
_MAP_POPULATED = (
    {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | mmap.MAP_POPULATE}
    if hasattr(mmap, "MAP_POPULATE")
    else {}
)
#: Bytes at the head of each plane whose histogram decides whether it is
#: worth a DEFLATE block.
_SAMPLE_NBYTES = 2048
#: Least a DEFLATE block spends besides its literals: a fixed-code one, 3
#: header bits and a 7-bit end code; a dynamic-code one, 29 header bits
#: (block type, three counts, four code-length codes) and about 4 bits
#: per symbol its code table gives a code.
_FIXED_BLOCK_BITS, _DYNAMIC_BLOCK_BITS, _TABLE_BITS_PER_SYMBOL = 10, 29, 4


def _worth_deflating(sample: np.ndarray) -> np.ndarray:
    """Which rows of ``sample`` (planes x bytes) might deflate to 7/8.

    A run-length DEFLATE block can absorb a byte equal to its predecessor
    into a run; every other byte is a literal.  A fixed-code block spends
    at least 8 bits on a literal.  A dynamic-code block spends no less
    than the literals' count times their empirical entropy (no prefix
    code does better), plus its code table.  A plane for which both
    bounds exceed 7/8 of its bytes is rejected: a bound, not a guess.
    One histogram over ``(plane << 8) | byte`` keys, repeats sent to one
    sentinel bin, takes the place of a trial deflate per plane.
    """
    n_planes, n = sample.shape
    keys = sample.astype(np.intp)
    keys += (np.arange(n_planes, dtype=np.intp) << 8)[:, None]
    np.copyto(keys[:, 1:], n_planes << 8, where=sample[:, 1:] == sample[:, :-1])
    counts = np.bincount(keys.ravel(), minlength=(n_planes << 8) + 1)
    counts = counts[:-1].reshape(n_planes, 256)
    n_literals = counts.sum(axis=1)
    # L * H = L log2 L - sum(c log2 c) over the literal counts c, L = sum(c)
    c = np.arange(n + 1)
    c_log_c = c * np.log2(np.maximum(c, 1))
    fixed_bits = 8 * n_literals + _FIXED_BLOCK_BITS
    dynamic_bits = (
        c_log_c[n_literals]
        - c_log_c[counts].sum(axis=1)
        + _DYNAMIC_BLOCK_BITS
        + _TABLE_BITS_PER_SYMBOL * np.count_nonzero(counts, axis=1)
    )
    return np.minimum(fixed_bits, dynamic_bits) <= 7 * n


class _ShuffleCodec(Codec):
    """Byte shuffle, then DEFLATE only the planes that deflate.

    Payload, after the frame header (``n_units = logical // stride``)::

        bitmap   ceil(stride / 8) bytes, bit p (LSB first) = plane p deflated
        n_stream u64, length of the DEFLATE stream (0: no plane deflated)
        stream   the deflated planes, in plane order, one zlib stream
        raw      the other planes, in plane order, n_units bytes each
        tail     logical % stride bytes, as they were

    A plane is deflated unless a lower bound on its coded size, taken
    from the histogram of a sample (:func:`_worth_deflating`), already
    exceeds 7/8 of the sample: the WAN is the scarce resource, so any
    real saving is taken, and only bytes DEFLATE would *expand* (float
    mantissas) are spared the inflate at the other end.  Each deflated
    plane is its own run-length block of the one stream.
    """

    name = "shuffle"
    codec_id = 4

    def compress(self, raw: Buffer, stride: int) -> Buffer:
        view = memoryview(raw).cast("B")
        n_units = view.nbytes // stride
        head = n_units * stride
        planes = np.frombuffer(
            _shuffle_bytes(view[:head], stride), dtype=np.uint8
        ).reshape(stride, n_units)
        deflated = _worth_deflating(planes[:, :_SAMPLE_NBYTES])
        chosen = np.flatnonzero(deflated)
        stream = b""
        if n_units and chosen.size:
            # One zlib stream, one run-length block per plane: every plane
            # gets its own Huffman tables, and one that does not shrink
            # after all is stored (~5 bytes; inflating it is a memcpy).
            deflater = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
            blocks = []
            for p in chosen:
                blocks.append(deflater.compress(planes[p]))
                blocks.append(deflater.flush(zlib.Z_BLOCK))
            blocks.append(deflater.flush())
            stream = b"".join(blocks)
        if len(stream) >= chosen.size * n_units:  # the sample promised too much
            deflated[:] = False
            stream = b""
        return b"".join((
            np.packbits(deflated, bitorder="little"),
            _U64.pack(len(stream)),
            stream,
            planes[~deflated],
            view[head:],
        ))

    def decompress(self, payload: Buffer, stride: int, logical: int) -> Buffer:
        # Everything the header and preamble imply is checked against the
        # payload's real size before anything of that size is allocated.
        payload = memoryview(payload)
        if stride == 0:
            raise CodecError("shuffle payload corrupt: unit stride is 0")
        n_units, n_tail = divmod(logical, stride)
        n_bitmap = -(-stride // 8)
        if payload.nbytes < n_bitmap + _U64.size:
            raise CodecError(
                f"shuffle payload corrupt: {payload.nbytes} bytes cannot hold "
                f"the plane bitmap of stride {stride}"
            )
        bits = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8, count=n_bitmap), bitorder="little"
        ).view(bool)
        if bits[stride:].any():
            raise CodecError(
                f"shuffle payload corrupt: bitmap names planes past stride {stride}"
            )
        deflated = bits[:stride]
        n_deflated = int(np.count_nonzero(deflated))
        (n_stream,) = _U64.unpack_from(payload, n_bitmap)
        stream_at = n_bitmap + _U64.size
        raw_at = stream_at + n_stream
        n_raw = (stride - n_deflated) * n_units
        if raw_at + n_raw + n_tail != payload.nbytes:
            raise CodecError(
                f"shuffle payload corrupt: {payload.nbytes} bytes where the frame "
                f"declares {logical} logical bytes in {stride - n_deflated} raw "
                f"planes and a {n_stream}-byte stream"
            )
        n_inflated = n_deflated * n_units
        inflated = np.frombuffer(
            _inflate(payload[stream_at:raw_at], n_inflated, "shuffle")
            if n_stream or n_inflated
            else b"",
            dtype=np.uint8,
        ).reshape(n_deflated, n_units)
        if logical == 0:
            return b""
        raw_planes = np.frombuffer(
            payload, dtype=np.uint8, count=n_raw, offset=raw_at
        ).reshape(stride - n_deflated, n_units)
        planes = np.empty((stride, n_units), dtype=np.uint8)
        planes[deflated] = inflated
        planes[~deflated] = raw_planes
        # An anonymous mapping, not a bytes object: it goes back to the OS
        # when its last view dies instead of being parked in the malloc
        # arena of whichever pool thread decoded it (ARCHITECTURE 4b).
        out = mmap.mmap(-1, logical, **_MAP_POPULATED)
        units = np.frombuffer(out, dtype=np.uint8)
        np.copyto(units[: n_units * stride].reshape(n_units, stride), planes.T)
        units[n_units * stride:] = np.frombuffer(
            payload, dtype=np.uint8, count=n_tail, offset=raw_at + n_raw
        )
        return memoryview(out)


CODECS: dict[str, Codec] = {
    c.name: c for c in (Codec(), _ZlibCodec(), _Lz4Codec(), _ShuffleCodec())
}
CODEC_NAMES = tuple(CODECS)
#: Decoders by wire id: everything that is written, plus what once was.
_BY_ID: dict[int, Codec] = {
    c.codec_id: c for c in (*CODECS.values(), _LegacyShuffleCodec())
}


def resolve_codec(name: str) -> Codec:
    """Look up a codec for *encoding*, applying the lz4 -> zlib fallback.

    Raises ``ValueError`` (not :class:`CodecError`) for unknown names so
    CLI/config typos fail loudly at setup time rather than at decode.
    """
    if name not in CODECS:
        raise ValueError(
            f"unknown codec {name!r}; choose from {', '.join(CODEC_NAMES)}"
        )
    if name == "lz4" and not lz4_available():
        return CODECS["zlib"]
    return CODECS[name]


def encode_chunk(raw: Buffer, codec: str | Codec, unit_nbytes: int = 1) -> bytes:
    """Encode raw chunk bytes into a self-describing frame.

    ``unit_nbytes`` is the fixed record stride used by the shuffle
    transform; it is recorded in the header so decode needs no index.
    ``raw`` may be any bytes-like buffer and is compressed in place --
    the only allocation is the output frame itself (header + payload
    are necessarily one new contiguous object).
    """
    c = resolve_codec(codec) if isinstance(codec, str) else codec
    stride = max(1, int(unit_nbytes))
    logical = memoryview(raw).nbytes
    payload = c.compress(raw, stride)
    header = _HEADER.pack(_MAGIC, _VERSION, c.codec_id, stride, logical)
    return b"".join((header, payload))


def _parse_header(frame: Buffer) -> tuple[Codec, int, int]:
    if memoryview(frame).nbytes < HEADER_NBYTES:
        raise CodecError(
            f"frame of {memoryview(frame).nbytes} bytes is shorter than "
            f"the {HEADER_NBYTES}-byte header"
        )
    magic, version, codec_id, stride, logical = _HEADER.unpack_from(frame)
    if magic != _MAGIC:
        raise CodecError(f"bad frame magic {magic!r}")
    if version != _VERSION:
        raise CodecError(f"unsupported frame version {version}")
    codec = _BY_ID.get(codec_id)
    if codec is None:
        raise CodecError(f"unknown codec id {codec_id}")
    return codec, stride, logical


def frame_info(frame: Buffer) -> tuple[str, int, int]:
    """Parse a frame header -> ``(codec_name, unit_stride, logical_nbytes)``."""
    codec, stride, logical = _parse_header(frame)
    return codec.name, stride, logical


def decode_chunk(frame: Buffer) -> Buffer:
    """Decode one frame back into the chunk's logical bytes.

    Zero-copy where the transform allows: the payload is sliced off the
    frame as a ``memoryview`` (never re-materialized), and the identity
    codec returns a **read-only view aliasing the input buffer** -- for
    a frame mapped from shared memory the decoded bytes are the mapped
    pages themselves.  Transforms that must rewrite bytes return the one
    buffer they produce: ``bytes`` (zlib, lz4) or a read-only view that
    owns its memory (shuffle) and stays valid after ``frame`` is gone.
    """
    codec, stride, logical = _parse_header(frame)
    payload = memoryview(frame).cast("B")[HEADER_NBYTES:]
    raw = codec.decompress(payload, stride, logical)
    if isinstance(raw, memoryview):
        raw = raw.toreadonly()
    n = memoryview(raw).nbytes
    if n != logical:
        raise CodecError(
            f"decoded {n} bytes but frame declares {logical} logical bytes"
        )
    return raw
