"""Chunk planning.

The data set is divided into files; the data inside the files is split
into logical chunks sized for the compute units' available memory.  One
*job* in the middleware corresponds to one chunk, so the chunk plan fixes
the job pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChunkSource",
    "ChunkFragment",
    "ChunkStats",
    "ChunkInfo",
    "compute_chunk_stats",
    "plan_file_chunks",
]

#: Default number of representative data units sampled into ChunkStats.
SAMPLE_UNITS = 8


def _enc_num(v: int | float | None) -> int | float | str | None:
    """JSON-safe encoding of a stat value (non-finite floats as strings)."""
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)  # 'inf' / '-inf' / 'nan'
    return v


# Index documents are untrusted JSON: every ``from_dict`` here (and in
# ``formats``/``index``) reports a malformed one -- a missing key, a wrong
# type, a list of the wrong length, a negative size -- as ValueError.


def _doc(d: object, what: str, keys: frozenset[str]) -> dict:
    """``d`` if it is a JSON object holding no keys outside ``keys``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what}: expected an object, got {type(d).__name__}")
    if not d.keys() <= keys:
        raise ValueError(f"{what}: unknown keys {sorted(map(str, d.keys() - keys))}")
    return d


def _get(d: dict, key: str, what: str, kind: type, *, optional: bool = False):
    """``d[key]`` checked to be a ``kind`` (``None`` when ``optional`` and
    it is absent or null); integers go through :func:`_nonneg`."""
    v = d.get(key)
    if v is None:
        if optional:
            return None
        raise ValueError(f"{what}: missing {key!r}")
    if not isinstance(v, kind):
        raise ValueError(
            f"{what}: {key!r} must be {kind.__name__}, got {type(v).__name__}"
        )
    return v


def _nonneg(v: object, what: str) -> int:
    """``v`` if it is a non-negative integer (not a bool)."""
    if isinstance(v, int) and not isinstance(v, bool) and v >= 0:
        return v
    raise ValueError(f"{what}: expected a non-negative integer, got {v!r:.40}")


def _size(d: dict, key: str, what: str, *, optional: bool = False) -> int:
    """``d[key]`` as a non-negative integer (``None`` when optional and
    absent or null)."""
    v = d.get(key)
    return None if v is None and optional else _nonneg(v, f"{what} {key}")


def _dec_num(v: object, what: str, *, nullable: bool = False) -> int | float | None:
    """A stat value from JSON: a number, a non-finite float's string, or
    (for bounds) ``None``."""
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            raise ValueError(f"{what}: non-numeric stat {v!r}") from None
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return v
    if v is None and nullable:
        return None
    raise ValueError(f"{what}: expected a number, got {type(v).__name__}")


_NUMBERS = frozenset((int, float))
_BOUNDS = _NUMBERS | {type(None)}


def _dec_nums(
    vals: object, what: str, n: int, *, nullable: bool = False
) -> tuple[int | float | None, ...]:
    """``vals`` as exactly ``n`` stat values, one per field."""
    if not isinstance(vals, list) or len(vals) != n:
        raise ValueError(f"{what}: expected a list of {n} values, got {vals!r:.40}")
    if set(map(type, vals)) <= (_BOUNDS if nullable else _NUMBERS):
        return tuple(vals)  # plain JSON numbers, the common case
    return tuple(_dec_num(v, what, nullable=nullable) for v in vals)


def _num_eq(a, b) -> bool:
    """Value equality that treats NaN as equal to NaN (for round-trips)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


@dataclass(frozen=True, eq=False)
class ChunkStats:
    """Per-field statistics over a chunk's *decoded* data units.

    Computed by the organizer (:func:`write_dataset`) in its existing
    single pass over the data and stored in the index, so the head can
    prune or reorder chunks without fetching a byte (metadata-first
    retrieval).  A "field" is one scalar slot of the record: records of
    shape ``(d,)`` have ``d`` fields; scalar records have one.

    NaN safety: ``counts`` holds the number of *non-NaN* values per
    field, and ``mins``/``maxs`` ignore NaN entries (``None`` when a
    field has no non-NaN values at all, e.g. an empty chunk).  ``sums``
    are exact for integer fields even past the int64 range.  ``sample``
    holds up to :data:`SAMPLE_UNITS` evenly spaced data units, as tuples
    of field values, for selectivity estimation.

    Predicates built on these stats must treat ``None`` bounds as
    "unknown" and keep the chunk -- pruning is only sound on proof.
    """

    n_units: int
    counts: tuple[int, ...]
    mins: tuple[int | float | None, ...]
    maxs: tuple[int | float | None, ...]
    sums: tuple[int | float, ...]
    sample: tuple[tuple[int | float, ...], ...] = ()

    def __eq__(self, other: object) -> bool:
        # NaN-aware field equality so serialization round-trips compare
        # equal even when a float sum is NaN (e.g. +inf and -inf data).
        if not isinstance(other, ChunkStats):
            return NotImplemented
        return (
            self.n_units == other.n_units
            and self.counts == other.counts
            and len(self.mins) == len(other.mins)
            and all(_num_eq(a, b) for a, b in zip(self.mins, other.mins))
            and all(_num_eq(a, b) for a, b in zip(self.maxs, other.maxs))
            and all(_num_eq(a, b) for a, b in zip(self.sums, other.sums))
            and len(self.sample) == len(other.sample)
            and all(
                len(r1) == len(r2)
                and all(_num_eq(a, b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.sample, other.sample)
            )
        )

    @property
    def n_fields(self) -> int:
        return len(self.counts)

    def overlaps(self, field: int, lo: float, hi: float) -> bool:
        """True when the chunk MAY contain a ``field`` value in [lo, hi].

        Returns True on unknown bounds (``None``), so a ``relevant()``
        predicate built on it can never mis-prune.
        """
        mn, mx = self.mins[field], self.maxs[field]
        if mn is None or mx is None:
            return True
        # NaN bounds cannot arise (mins/maxs are NaN-free by
        # construction) but a defensive check keeps pruning sound even
        # against hand-built stats.
        if isinstance(mn, float) and math.isnan(mn):
            return True
        if isinstance(mx, float) and math.isnan(mx):
            return True
        return not (mx < lo or mn > hi)

    def mean(self, field: int) -> float | None:
        """Mean of the field's non-NaN values (None for an empty field)."""
        if self.counts[field] == 0:
            return None
        return float(self.sums[field]) / self.counts[field]

    def sample_fraction(self, pred) -> float:
        """Fraction of sampled units satisfying ``pred(unit_fields)``.

        A cheap selectivity estimate for ``priority()`` hints; returns
        0.0 when the chunk carries no sample.
        """
        if not self.sample:
            return 0.0
        return sum(1 for row in self.sample if pred(row)) / len(self.sample)

    def to_dict(self) -> dict:
        return {
            "n_units": self.n_units,
            "counts": list(self.counts),
            "mins": [_enc_num(v) for v in self.mins],
            "maxs": [_enc_num(v) for v in self.maxs],
            "sums": [_enc_num(v) for v in self.sums],
            "sample": [[_enc_num(v) for v in row] for row in self.sample],
        }

    _KEYS = frozenset(("n_units", "counts", "mins", "maxs", "sums", "sample"))

    @classmethod
    def from_dict(cls, d: dict) -> "ChunkStats":
        what = "chunk stats"
        d = _doc(d, what, cls._KEYS)
        n_units = _size(d, "n_units", what)
        counts = tuple(
            _nonneg(c, f"{what} counts") for c in _get(d, "counts", what, list)
        )
        if any(c > n_units for c in counts):
            raise ValueError(f"{what}: a count exceeds n_units {n_units}")
        n = len(counts)
        rows = _get(d, "sample", what, list, optional=True) or []
        return cls(
            n_units=n_units,
            counts=counts,
            mins=_dec_nums(d.get("mins"), f"{what} mins", n, nullable=True),
            maxs=_dec_nums(d.get("maxs"), f"{what} maxs", n, nullable=True),
            sums=_dec_nums(d.get("sums"), f"{what} sums", n),
            sample=tuple(_dec_nums(row, f"{what} sample", n) for row in rows),
        )


#: ``(counts, mins, maxs, sums)``, one entry per field.
_Fields = tuple[
    list[int], list[int | float | None], list[int | float | None], list[int | float]
]


def _float_fields(flat: np.ndarray, cols: np.ndarray, private: bool) -> _Fields:
    """``(counts, mins, maxs, sums)`` of the float ``(n, fields)`` array
    ``flat``, reduced along its field-major copy ``cols``.

    ``fmin``/``fmax`` skip NaN, and a contiguous row sums pairwise exactly
    as a NaN-zeroed contiguous copy of the column would, so the results
    are bit-identical to NumPy's NaN-ignoring reductions run column by
    column.  Only which of ``0.0``/``-0.0`` wins a bound depends on the
    reduction order, so a bound that is a zero is taken again from the
    strided column.  A NaN anywhere in a row makes its sum NaN, so the
    NaN mask and the zero-fill are paid only by a chunk that holds one;
    ``cols`` is written only when ``private``.
    """
    n = cols.shape[1]
    with np.errstate(invalid="ignore"):
        mins = np.fmin.reduce(cols, axis=1)
        maxs = np.fmax.reduce(cols, axis=1)
        for bounds, ufunc in ((mins, np.fmin), (maxs, np.fmax)):
            for f in np.flatnonzero(bounds == 0).tolist():
                bounds[f] = ufunc.reduce(flat[:, f])
        sums = cols.sum(axis=1)
        counts: list[int] = [n] * len(sums)
        if np.isnan(sums).any():
            mask = np.isnan(cols)
            counts = (n - mask.sum(axis=1)).tolist()
            if not private:
                cols = cols.copy()
            np.copyto(cols, 0, where=mask)
            sums = cols.sum(axis=1)
    known = [c > 0 for c in counts]
    return (
        counts,
        [float(v) if k else None for v, k in zip(mins.tolist(), known)],
        [float(v) if k else None for v, k in zip(maxs.tolist(), known)],
        [float(v) if k else 0.0 for v, k in zip(sums.tolist(), known)],
    )


def _int_fields(cols: np.ndarray) -> _Fields:
    """``(counts, mins, maxs, sums)`` of integer rows ``cols``, sums exact.

    The int64 accumulation can only wrap in a row whose ``n * max|v|``
    reaches 2**63; only those rows are cross-checked against a float64
    accumulation, and a row whose two sums diverge (a genuine wrap
    shifts the value by 2**64, far outside float64 rounding error) is
    summed again in Python ints, which do not wrap, a block at a time.
    """
    n = cols.shape[1]
    lows = [int(v) for v in cols.min(axis=1).tolist()]
    highs = [int(v) for v in cols.max(axis=1).tolist()]
    sums = cols.sum(axis=1, dtype=np.int64).tolist()
    for f, (lo, hi) in enumerate(zip(lows, highs)):
        if n * max(-lo, hi) < 2**63:
            continue
        check = float(cols[f].sum(dtype=np.float64))
        if abs(float(sums[f]) - check) > max(1.0, abs(check)) * 1e-6:
            sums[f] = sum(
                sum(cols[f, i : i + 4096].tolist()) for i in range(0, n, 4096)
            )
    return [n] * len(sums), list(lows), list(highs), sums


def compute_chunk_stats(
    units: np.ndarray, *, sample_units: int = SAMPLE_UNITS
) -> ChunkStats:
    """Per-field statistics over one chunk's data units.

    ``units`` is the decoded unit array, shape ``(n, *record_shape)``; it
    is never written.  The work is one field-major copy (free for scalar
    records) and a fixed number of whole-chunk reductions along it,
    whatever the field count.  Integer sums are exact past the int64
    range (see :func:`_int_fields`).
    """
    arr = np.asarray(units)
    n = int(arr.shape[0]) if arr.ndim else 0
    n_fields = int(np.prod(arr.shape[1:])) if arr.ndim > 1 else 1
    flat = arr.reshape(n, n_fields)
    is_float = np.issubdtype(flat.dtype, np.floating)

    fields: _Fields
    if n == 0:
        zero: int | float = 0.0 if is_float else 0
        fields = (
            [0] * n_fields, [None] * n_fields, [None] * n_fields, [zero] * n_fields
        )
    else:
        cols = np.ascontiguousarray(flat.T)
        if is_float:
            fields = _float_fields(flat, cols, not np.may_share_memory(cols, arr))
        else:
            fields = _int_fields(cols)
    counts, mins, maxs, sums = fields

    sample: tuple[tuple[int | float, ...], ...] = ()
    if n > 0 and sample_units > 0:
        idx = np.unique(
            np.linspace(0, n - 1, num=min(sample_units, n)).astype(np.int64)
        )
        cast = float if is_float else int
        sample = tuple(
            tuple(cast(v) for v in row) for row in flat[idx].tolist()
        )

    return ChunkStats(
        n_units=n,
        counts=tuple(counts),
        mins=tuple(mins),
        maxs=tuple(maxs),
        sums=tuple(sums),
        sample=sample,
    )


@dataclass(frozen=True)
class ChunkSource:
    """One place a chunk's bytes can be fetched from.

    A chunk always has its *primary* source (the location/key recorded
    directly on :class:`ChunkInfo`); replicated datasets add further
    sources so the fetch path can fail over or hedge.  ``enc_offset`` /
    ``enc_nbytes`` of ``None`` mean "same encoded range as the primary"
    -- replication byte-copies whole files, so ranges normally match.
    """

    location: str
    key: str
    enc_offset: int | None = None
    enc_nbytes: int | None = None

    def to_dict(self) -> dict:
        d: dict = {"location": self.location, "key": self.key}
        if self.enc_offset is not None:
            d["enc_offset"] = self.enc_offset
        if self.enc_nbytes is not None:
            d["enc_nbytes"] = self.enc_nbytes
        return d

    _KEYS = frozenset(("location", "key", "enc_offset", "enc_nbytes"))

    @classmethod
    def from_dict(cls, d: dict) -> "ChunkSource":
        what = "chunk source"
        d = _doc(d, what, cls._KEYS)
        return cls(
            location=_get(d, "location", what, str),
            key=_get(d, "key", what, str),
            enc_offset=_size(d, "enc_offset", what, optional=True),
            enc_nbytes=_size(d, "enc_nbytes", what, optional=True),
        )


@dataclass(frozen=True)
class ChunkFragment:
    """One erasure-coded fragment of a chunk's wire frame.

    Striped datasets (:func:`repro.data.dataset.stripe_dataset`) split
    each chunk's encoded frame into ``k`` data + ``m`` parity fragments,
    each stored as its own object.  ``frag_index < k`` is a verbatim
    frame slice; ``frag_index >= k`` is parity.  Any ``k`` fragments
    reconstruct the frame.
    """

    frag_index: int
    location: str
    key: str
    nbytes: int

    def to_dict(self) -> dict:
        return {
            "frag_index": self.frag_index,
            "location": self.location,
            "key": self.key,
            "nbytes": self.nbytes,
        }

    _KEYS = frozenset(("frag_index", "location", "key", "nbytes"))

    @classmethod
    def from_dict(cls, d: dict) -> "ChunkFragment":
        what = "chunk fragment"
        d = _doc(d, what, cls._KEYS)
        return cls(
            frag_index=_size(d, "frag_index", what),
            location=_get(d, "location", what, str),
            key=_get(d, "key", what, str),
            nbytes=_size(d, "nbytes", what),
        )


@dataclass(frozen=True)
class ChunkInfo:
    """Metadata for one logical chunk, as recorded in the index file.

    Mirrors the paper's index entries: physical location (data file),
    starting offset, size, and number of data units inside the chunk.
    """

    chunk_id: int
    file_id: int
    key: str            # storage key of the containing file
    offset: int         # byte offset within the file
    nbytes: int         # chunk size in bytes
    n_units: int        # number of data units in the chunk
    location: str       # name of the storage site currently holding it
    crc32: int | None = None  # checksum of the chunk's bytes, if computed
    # Set when the organizer wrote the file pre-compressed: the chunk's
    # encoded frame lives at [enc_offset, enc_offset + enc_nbytes) of the
    # stored object, while offset/nbytes keep describing the *logical*
    # byte range.  The fetch path retrieves the encoded range and
    # decodes; crc32 always covers the logical bytes.
    codec: str | None = None
    enc_offset: int | None = None
    enc_nbytes: int | None = None
    # Additional places the same bytes live (replicated datasets).  The
    # primary source above is always tried first when healthy; these are
    # ordered failover/hedge targets.
    replicas: tuple[ChunkSource, ...] = ()
    # Erasure striping: when non-empty, the chunk's wire frame no longer
    # lives at key/offset -- it is split into k data + m parity
    # fragments (``stripe == (k, m)``), each its own stored object, and
    # any k of them reconstruct the frame.  location remains the
    # scheduler-locality home.
    fragments: tuple[ChunkFragment, ...] = ()
    stripe: tuple[int, int] | None = None
    # Per-field statistics over the chunk's *decoded* values, computed
    # by the organizer.  Drives predicate pushdown at the head; None on
    # indexes written before stats existed (such chunks are never
    # pruned).  Stats describe logical values, so they are independent
    # of codec and replica placement.
    stats: ChunkStats | None = None

    @property
    def wire_offset(self) -> int:
        """Byte offset actually fetched from the store."""
        return self.offset if self.codec is None else self.enc_offset

    @property
    def wire_nbytes(self) -> int:
        """Byte count actually fetched from the store."""
        return self.nbytes if self.codec is None else self.enc_nbytes

    @property
    def sources(self) -> tuple[ChunkSource, ...]:
        """All places this chunk can be fetched from, primary first."""
        primary = ChunkSource(
            location=self.location,
            key=self.key,
            enc_offset=self.enc_offset,
            enc_nbytes=self.enc_nbytes,
        )
        return (primary,) + self.replicas

    def to_dict(self) -> dict:
        return {
            "chunk_id": self.chunk_id,
            "file_id": self.file_id,
            "key": self.key,
            "offset": self.offset,
            "nbytes": self.nbytes,
            "n_units": self.n_units,
            "location": self.location,
            "crc32": self.crc32,
            "codec": self.codec,
            "enc_offset": self.enc_offset,
            "enc_nbytes": self.enc_nbytes,
            **(
                {"replicas": [r.to_dict() for r in self.replicas]}
                if self.replicas
                else {}
            ),
            **(
                {
                    "fragments": [f.to_dict() for f in self.fragments],
                    "stripe": list(self.stripe),
                }
                if self.fragments and self.stripe is not None
                else {}
            ),
            **({"stats": self.stats.to_dict()} if self.stats is not None else {}),
        }

    _KEYS = frozenset((
        "chunk_id", "file_id", "key", "offset", "nbytes", "n_units", "location",
        "crc32", "codec", "enc_offset", "enc_nbytes", "replicas", "fragments",
        "stripe", "stats",
    ))

    @classmethod
    def from_dict(cls, d: dict) -> "ChunkInfo":
        what = "chunk"
        d = _doc(d, what, cls._KEYS)
        codec = _get(d, "codec", what, str, optional=True)
        enc_offset = _size(d, "enc_offset", what, optional=True)
        enc_nbytes = _size(d, "enc_nbytes", what, optional=True)
        if codec is not None and (enc_offset is None or enc_nbytes is None):
            raise ValueError(f"{what}: codec {codec!r} without its encoded range")
        stripe = _get(d, "stripe", what, list, optional=True)
        if stripe is not None:
            if len(stripe) != 2:
                raise ValueError(f"{what}: stripe must be [k, m], got {stripe!r:.40}")
            stripe = tuple(_nonneg(v, f"{what} stripe") for v in stripe)
        stats = d.get("stats")
        return cls(
            chunk_id=_size(d, "chunk_id", what),
            file_id=_size(d, "file_id", what),
            key=_get(d, "key", what, str),
            offset=_size(d, "offset", what),
            nbytes=_size(d, "nbytes", what),
            n_units=_size(d, "n_units", what),
            location=_get(d, "location", what, str),
            crc32=_size(d, "crc32", what, optional=True),
            codec=codec,
            enc_offset=enc_offset,
            enc_nbytes=enc_nbytes,
            replicas=tuple(
                ChunkSource.from_dict(r)
                for r in _get(d, "replicas", what, list, optional=True) or ()
            ),
            fragments=tuple(
                ChunkFragment.from_dict(f)
                for f in _get(d, "fragments", what, list, optional=True) or ()
            ),
            stripe=stripe,
            stats=None if stats is None else ChunkStats.from_dict(stats),
        )


def plan_file_chunks(
    *,
    file_id: int,
    key: str,
    file_units: int,
    unit_nbytes: int,
    chunk_units: int,
    location: str,
    first_chunk_id: int = 0,
) -> list[ChunkInfo]:
    """Split one file of ``file_units`` units into chunks of ``chunk_units``.

    The last chunk of the file may hold fewer units.  Offsets are byte
    offsets into the file, so a chunk can be fetched with a single range
    read.
    """
    if chunk_units <= 0:
        raise ValueError("chunk_units must be positive")
    if file_units < 0:
        raise ValueError("file_units must be non-negative")
    chunks: list[ChunkInfo] = []
    cid = first_chunk_id
    for start_unit in range(0, file_units, chunk_units):
        n = min(chunk_units, file_units - start_unit)
        chunks.append(
            ChunkInfo(
                chunk_id=cid,
                file_id=file_id,
                key=key,
                offset=start_unit * unit_nbytes,
                nbytes=n * unit_nbytes,
                n_units=n,
                location=location,
            )
        )
        cid += 1
    return chunks
