"""Chunk integrity: CRC32 checksums and verification.

Remote retrieval over flaky WANs makes end-to-end integrity checking a
practical necessity for a bursting middleware.  The data organizer can
stamp every chunk of the index with a CRC32 of its bytes; readers then
verify a fetched chunk before processing it and surface corruption as
:class:`IntegrityError` instead of silently wrong results.
"""

from __future__ import annotations

import zlib

from repro.data.chunks import ChunkInfo
from repro.data.index import DataIndex
from repro.storage.base import StorageBackend
from repro.storage.codecs import CodecError, decode_chunk

__all__ = ["IntegrityError", "attach_checksums", "verify_chunk_bytes", "verify_dataset"]


def _read_logical(chunk: ChunkInfo, store: StorageBackend) -> bytes:
    """Read a chunk's *logical* bytes, decoding the frame when encoded.

    Checksums always cover the logical bytes, so a chunk re-encoded with
    a different codec keeps its CRC32 and retries after a corrupted
    transfer can be verified after decode.
    """
    raw = store.get(chunk.key, chunk.wire_offset, chunk.wire_nbytes)
    return decode_chunk(raw) if chunk.codec is not None else raw


class IntegrityError(Exception):
    """A chunk's bytes do not match its recorded checksum."""

    def __init__(self, chunk: ChunkInfo, actual_crc: int) -> None:
        super().__init__(
            f"chunk {chunk.chunk_id} of {chunk.key!r} failed verification: "
            f"crc32 {actual_crc:#010x} != recorded {chunk.crc32:#010x}"
        )
        self.chunk = chunk
        self.actual_crc = actual_crc


def attach_checksums(index: DataIndex, stores: dict[str, StorageBackend]) -> DataIndex:
    """Return a copy of ``index`` with every chunk's CRC32 recorded.

    Reads each chunk once from wherever it currently lives; typically
    run by the data organizer right after writing the dataset.
    """
    new_chunks = []
    for c in index.chunks:
        raw = _read_logical(c, stores[c.location])
        new_chunks.append(
            ChunkInfo(
                c.chunk_id, c.file_id, c.key, c.offset, c.nbytes, c.n_units,
                c.location, zlib.crc32(raw),
                codec=c.codec, enc_offset=c.enc_offset, enc_nbytes=c.enc_nbytes,
            )
        )
    return DataIndex(index.fmt, list(index.files), new_chunks, dict(index.meta))


def verify_chunk_bytes(chunk: ChunkInfo, raw: bytes | bytearray | memoryview) -> None:
    """Raise :class:`IntegrityError` if ``raw`` mismatches the checksum.

    Chunks without a recorded checksum pass trivially (verification is
    opt-in at organization time).
    """
    if chunk.crc32 is None:
        return
    actual = zlib.crc32(raw)
    if actual != chunk.crc32:
        raise IntegrityError(chunk, actual)


def verify_dataset(
    index: DataIndex, stores: dict[str, StorageBackend]
) -> list[ChunkInfo]:
    """Scrub the whole dataset; returns the chunks that failed.

    Chunks lacking checksums are skipped.  Missing objects count as
    failures (returned in the list) rather than raising, so a scrub
    reports all damage at once.
    """
    bad: list[ChunkInfo] = []
    for c in index.chunks:
        if c.crc32 is None:
            continue
        try:
            raw = _read_logical(c, stores[c.location])
        except (KeyError, ValueError, CodecError):
            # missing object, bad range, or an undecodable frame: the
            # chunk's bytes cannot be recovered, so it scrubs as damaged
            bad.append(c)
            continue
        try:
            verify_chunk_bytes(c, raw)
        except IntegrityError:
            bad.append(c)
    return bad
