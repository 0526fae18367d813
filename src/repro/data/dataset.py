"""Dataset writer/reader: the paper's "data organizer".

The organizer lays a dataset out as ``n_files`` binary files in one or
more storage backends, splits each file into chunks sized for worker
memory, and emits the index that the head node later turns into the job
pool.

Placement (:func:`distribute_dataset`, :func:`replicate_dataset`,
:func:`stripe_dataset`) runs its per-object work over up to
:data:`PLACEMENT_CONNECTIONS` concurrent connections: a store caps each
stream, so the organizer writes the way slaves read, several objects in
flight at once.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from typing import Callable, TypeVar

import numpy as np

from repro.data.chunks import ChunkStats, compute_chunk_stats
from repro.data.formats import RecordFormat
from repro.data.index import DataIndex, build_index
from repro.data.redundancy import normalize_stripe, validate_redundancy
from repro.storage.base import StorageBackend
from repro.storage.codecs import Buffer, decode_chunk, encode_chunk, resolve_codec

__all__ = [
    "PLACEMENT_CONNECTIONS",
    "write_dataset",
    "distribute_dataset",
    "replicate_dataset",
    "stripe_dataset",
    "ordered_placements",
    "read_chunk",
    "read_all_units",
]

#: Placement tasks (one object moved, copied or striped each) in flight
#: at once; at most this many objects are held in memory.
PLACEMENT_CONNECTIONS = 8

_T = TypeVar("_T")


def _place_each(tasks: list[Callable[[], _T]]) -> list[_T]:
    """Run placement ``tasks`` concurrently; their results in task order.

    At most :data:`PLACEMENT_CONNECTIONS` run at once.  Every task runs
    to completion and the pool is joined before anything is returned or
    raised; a failure re-raises the first error in task order.  With at
    most one task no thread is started.
    """
    if len(tasks) <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(
        max_workers=min(PLACEMENT_CONNECTIONS, len(tasks)),
        thread_name_prefix="place",
    ) as pool:
        futures = [pool.submit(task) for task in tasks]
    return [f.result() for f in futures]


def ordered_placements(
    stores: dict[str, StorageBackend],
    home: str,
    n_slots: int,
    *,
    rotation: int = 0,
    include_home: bool = False,
    distinct: bool = True,
    what: str = "replica",
) -> list[str]:
    """Choose ``n_slots`` ordered store locations for copies of an object.

    The single source-placement rule shared by :func:`replicate_dataset`
    (replica targets) and :func:`stripe_dataset` (fragment targets):
    candidates are the stores in dict order, excluding ``home`` unless
    ``include_home`` (then home comes first), walked round-robin from
    ``rotation`` so consecutive objects spread across stores.  With
    ``distinct=True`` each slot gets a different store and the candidate
    ring must be wide enough; with ``distinct=False`` the ring wraps, so
    more slots than stores are allowed (several fragments share a
    store).
    """
    if home not in stores:
        raise KeyError(f"no store for location {home!r}")
    ring = [name for name in stores if name != home]
    if include_home:
        ring = [home] + ring
    if not ring:
        raise ValueError(f"no candidate stores for {what}s of {home!r}")
    if distinct and n_slots > len(ring):
        need = n_slots + (0 if include_home else 1)
        raise ValueError(
            f"{n_slots} {what}s need {need} stores, have {len(stores)}"
        )
    start = rotation % len(ring)
    return [ring[(start + j) % len(ring)] for j in range(n_slots)]


def write_dataset(
    units: np.ndarray,
    fmt: RecordFormat,
    store: StorageBackend,
    *,
    n_files: int,
    chunk_units: int,
    key_prefix: str = "part",
    meta: dict | None = None,
    codec: str | None = None,
) -> DataIndex:
    """Write ``units`` into ``n_files`` files in ``store`` and build the index.

    Units are split into contiguous, nearly equal file-sized runs (sizes
    differ by at most one unit), preserving order: file 0 holds the first
    run, and chunk ids increase with position in the dataset, so
    "consecutive jobs" in the index are physically consecutive bytes.

    With ``codec`` set the organizer writes each file *pre-compressed*:
    every chunk becomes one self-describing frame
    (:func:`repro.storage.codecs.encode_chunk`) and the frames are
    concatenated, so a chunk is still one contiguous range read -- just
    of its *encoded* range, which the index records in
    ``enc_offset``/``enc_nbytes``.  ``offset``/``nbytes``/``FileInfo.nbytes``
    keep describing logical bytes (placement fractions stay
    byte-of-data fractions).  ``lz4`` silently falls back to ``zlib``
    when the optional package is missing; the codec actually used is
    recorded per chunk and in ``index.meta["codec"]``.

    Every chunk also gets its :class:`~repro.data.chunks.ChunkStats`,
    computed on the array that is written -- ``units`` cast once per file
    to ``fmt.dtype`` -- so they describe exactly the values a reader
    decodes, are identical with or without a codec and survive
    :func:`replicate_dataset` unchanged.  They feed the head's predicate
    pushdown (metadata-first retrieval).
    """
    if n_files <= 0:
        raise ValueError("n_files must be positive")
    n = units.shape[0]
    if n < n_files:
        raise ValueError(f"{n} units cannot fill {n_files} files")
    codec_obj = resolve_codec(codec) if codec is not None else None
    base, extra = divmod(n, n_files)
    file_units: list[int] = []
    enc_ranges: dict[int, list[tuple[int, int]]] = {}
    chunk_stats: dict[int, list[ChunkStats]] = {}
    pos = 0
    for i in range(n_files):
        cnt = base + (1 if i < extra else 0)
        file_units.append(cnt)
        key = f"{key_prefix}-{i:05d}.bin"
        run = np.ascontiguousarray(units[pos : pos + cnt], dtype=fmt.dtype)
        chunk_stats[i] = [
            compute_chunk_stats(run[start : start + chunk_units])
            for start in range(0, cnt, chunk_units)
        ]
        if codec_obj is None:
            store.put(key, fmt.encode(run))
        else:
            frames: list[bytes] = []
            ranges: list[tuple[int, int]] = []
            off = 0
            for start in range(0, cnt, chunk_units):
                frame = encode_chunk(
                    fmt.encode(run[start : start + chunk_units]),
                    codec_obj,
                    fmt.unit_nbytes,
                )
                ranges.append((off, len(frame)))
                off += len(frame)
                frames.append(frame)
            store.put(key, b"".join(frames))
            enc_ranges[i] = ranges
        pos += cnt
    index = build_index(
        fmt,
        file_units,
        chunk_units=chunk_units,
        location=store.location,
        key_prefix=key_prefix,
        meta=meta,
    )
    next_in_file = {f.file_id: 0 for f in index.files}
    new_chunks = []
    for c in index.chunks:
        j = next_in_file[c.file_id]
        next_in_file[c.file_id] = j + 1
        kw: dict = {"stats": chunk_stats[c.file_id][j]}
        if codec_obj is not None:
            enc_off, enc_n = enc_ranges[c.file_id][j]
            kw.update(codec=codec_obj.name, enc_offset=enc_off, enc_nbytes=enc_n)
        new_chunks.append(replace(c, **kw))
    new_meta = dict(index.meta)
    if codec_obj is not None:
        new_meta["codec"] = codec_obj.name
    return DataIndex(index.fmt, index.files, new_chunks, new_meta)


def distribute_dataset(
    index: DataIndex,
    stores: dict[str, StorageBackend],
    fractions: dict[str, float],
    source: StorageBackend,
) -> DataIndex:
    """Move files between sites to realize a placement.

    Given a dataset whose files all live in ``source``, copy each file to
    the store its new location demands (per ``fractions``, see
    :meth:`DataIndex.with_placement`) and delete it from the source if it
    moved.  Returns the re-placed index.

    Files move concurrently (see :data:`PLACEMENT_CONNECTIONS`).  A
    source object is deleted only after its put succeeded, so a failed
    move loses no file.
    """
    placed = index.with_placement(fractions)

    def move(key: str, target: StorageBackend) -> None:
        target.put(key, source.get(key))
        source.delete(key)

    _place_each([
        partial(move, f.key, stores[f.location])
        for f in placed.files
        if stores[f.location] is not source
    ])
    return placed


def replicate_dataset(
    index: DataIndex,
    stores: dict[str, StorageBackend],
    *,
    n_replicas: int = 1,
) -> DataIndex:
    """Copy every file to ``n_replicas`` additional stores and record sources.

    For each file, replica locations are chosen round-robin from the
    stores *other than* the file's current location (ordered by the
    ``stores`` dict, which preserves insertion order), so replicas of a
    local file land on the cloud store and vice versa.  The bytes are
    copied verbatim -- encoded frames included -- so every replica
    serves the exact same ranges; each chunk gains
    :class:`~repro.data.chunks.ChunkSource` entries in ``replicas``.

    Requires at least ``n_replicas + 1`` distinct stores.  Returns the
    replica-annotated index; the input index is unchanged.  Files are
    copied concurrently (see :data:`PLACEMENT_CONNECTIONS`).
    """
    if n_replicas <= 0:
        return index
    validate_redundancy(replicas=n_replicas, n_stores=len(stores))
    # Rotate the start point per file so replicas spread evenly when
    # there are more candidate stores than replicas.
    replica_locs = {
        f.file_id: ordered_placements(
            stores, f.location, n_replicas, rotation=i, what="replica"
        )
        for i, f in enumerate(index.files)
    }

    def copy(f) -> None:
        data = stores[f.location].get(f.key)
        for loc in replica_locs[f.file_id]:
            stores[loc].put(f.key, data)

    _place_each([partial(copy, f) for f in index.files])
    from repro.data.chunks import ChunkSource

    new_chunks = [
        replace(
            c,
            replicas=tuple(
                ChunkSource(
                    location=loc,
                    key=c.key,
                    enc_offset=c.enc_offset,
                    enc_nbytes=c.enc_nbytes,
                )
                for loc in replica_locs[c.file_id]
            ),
        )
        for c in index.chunks
    ]
    new_meta = dict(index.meta)
    new_meta["n_replicas"] = n_replicas
    return DataIndex(index.fmt, index.files, new_chunks, new_meta)


def stripe_dataset(
    index: DataIndex,
    stores: dict[str, StorageBackend],
    *,
    k: int,
    m: int,
) -> DataIndex:
    """Erasure-code every chunk into ``k`` data + ``m`` parity fragments.

    The sibling of :func:`replicate_dataset` on the coding rung of the
    robustness ladder: instead of whole extra copies (overhead
    ``1 + n_replicas``), each chunk's *wire frame* (the encoded frame
    when a codec is set, the logical bytes otherwise) is split via
    :func:`repro.storage.erasure.stripe_frame` and the ``k + m``
    fragments are written round-robin across the stores (home store
    first, rotated per chunk via :func:`ordered_placements`) -- overhead
    ``(k + m) / k``, and any ``m`` lost fragments are masked.

    The original file objects are **deleted** after striping, so the
    recorded overhead really is ``(k + m) / k``; each chunk keeps its
    ``location`` as the scheduler-locality home and gains
    ``fragments``/``stripe`` metadata.  Returns the striped index; the
    input index is unchanged.

    Chunks are striped concurrently (see :data:`PLACEMENT_CONNECTIONS`);
    the originals are deleted only once every chunk's fragments are
    written, so a failed stripe leaves every source file in place.
    """
    from repro.data.chunks import ChunkFragment
    from repro.storage.erasure import stripe_frame

    k, m = normalize_stripe((k, m))  # canonical wording for shape errors
    placements = [
        ordered_placements(
            stores, c.location, k + m,
            rotation=c.chunk_id, include_home=True, distinct=False,
            what="fragment",
        )
        for c in index.chunks
    ]

    def stripe(c, locs: list[str]):
        frame = stores[c.location].get(c.key, c.wire_offset, c.wire_nbytes)
        infos = []
        for j, (loc, data) in enumerate(zip(locs, stripe_frame(frame, k, m))):
            fkey = f"{c.key}.c{c.chunk_id:06d}.f{j:02d}"
            stores[loc].put(fkey, data)
            infos.append(
                ChunkFragment(
                    frag_index=j, location=loc, key=fkey, nbytes=len(data)
                )
            )
        return replace(c, fragments=tuple(infos), stripe=(k, m))

    new_chunks = _place_each([
        partial(stripe, c, locs) for c, locs in zip(index.chunks, placements)
    ])
    for f in index.files:
        stores[f.location].delete(f.key)
    new_meta = dict(index.meta)
    new_meta["stripe"] = [k, m]
    return DataIndex(index.fmt, index.files, new_chunks, new_meta)


def read_chunk(
    index: DataIndex,
    chunk_id: int,
    stores: dict[str, StorageBackend],
    *,
    verify: bool = False,
) -> np.ndarray:
    """Fetch and decode one chunk from wherever it currently lives.

    ``verify=True`` checks the chunk's recorded CRC32 (when present)
    and raises :class:`repro.data.integrity.IntegrityError` on mismatch.
    """
    chunk = index.chunks[chunk_id]
    if chunk.chunk_id != chunk_id:  # index must be dense and ordered
        raise ValueError(f"index chunk list is not dense at id {chunk_id}")
    raw: Buffer
    if chunk.fragments:
        from repro.storage.erasure import reassemble

        k, m = chunk.stripe
        frags: dict[int, bytes] = {}
        for frag in sorted(chunk.fragments, key=lambda f: f.frag_index):
            if len(frags) == k:
                break
            try:
                frags[frag.frag_index] = stores[frag.location].get(frag.key)
            except KeyError:
                continue
        buf, _ = reassemble(frags, k, m, chunk.wire_nbytes)
        raw = bytes(buf)
    else:
        raw = stores[chunk.location].get(
            chunk.key, chunk.wire_offset, chunk.wire_nbytes
        )
    if chunk.codec is not None:
        raw = decode_chunk(raw)
    if verify:
        from repro.data.integrity import verify_chunk_bytes

        verify_chunk_bytes(chunk, raw)
    return index.fmt.decode(raw)


def read_all_units(index: DataIndex, stores: dict[str, StorageBackend]) -> np.ndarray:
    """Decode the full dataset in chunk order (for verification/tests)."""
    parts = [read_chunk(index, c.chunk_id, stores) for c in index.chunks]
    return np.concatenate(parts, axis=0) if parts else np.empty((0,) + index.fmt.record_shape)
