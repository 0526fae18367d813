"""The data index: metadata driving the job pool.

"A data index file is generated after analyzing the data set.  It holds
metadata such as physical locations (data files), starting offset
addresses, size of chunks and number of data units inside the chunks.
When the head node starts, it reads the index file in order to generate
the job pool.  Each job in the job pool corresponds to a chunk."
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.data.chunks import ChunkInfo, _doc, _get, _size, plan_file_chunks
from repro.data.formats import RecordFormat

__all__ = ["FileInfo", "DataIndex", "build_index"]


@dataclass(frozen=True)
class FileInfo:
    """Metadata for one data file."""

    file_id: int
    key: str
    nbytes: int
    n_units: int
    location: str

    def to_dict(self) -> dict:
        return {
            "file_id": self.file_id,
            "key": self.key,
            "nbytes": self.nbytes,
            "n_units": self.n_units,
            "location": self.location,
        }

    _KEYS = frozenset(("file_id", "key", "nbytes", "n_units", "location"))

    @classmethod
    def from_dict(cls, d: dict) -> "FileInfo":
        what = "file"
        d = _doc(d, what, cls._KEYS)
        return cls(
            file_id=_size(d, "file_id", what),
            key=_get(d, "key", what, str),
            nbytes=_size(d, "nbytes", what),
            n_units=_size(d, "n_units", what),
            location=_get(d, "location", what, str),
        )


@dataclass
class DataIndex:
    """Index of a dataset: record format, files, and chunk plan."""

    fmt: RecordFormat
    files: list[FileInfo]
    chunks: list[ChunkInfo]
    meta: dict = field(default_factory=dict)

    @property
    def n_units(self) -> int:
        return sum(f.n_units for f in self.files)

    @property
    def nbytes(self) -> int:
        return sum(f.nbytes for f in self.files)

    @property
    def locations(self) -> list[str]:
        """Distinct storage locations appearing in the index, in file order."""
        seen: list[str] = []
        for f in self.files:
            if f.location not in seen:
                seen.append(f.location)
        return seen

    def chunks_at(self, location: str) -> list[ChunkInfo]:
        return [c for c in self.chunks if c.location == location]

    def with_placement(self, fractions: dict[str, float]) -> "DataIndex":
        """Return a copy with file locations reassigned by data fraction.

        ``fractions`` maps location name -> fraction of total *bytes* to
        place there (values should sum to ~1).  Placement is at file
        granularity, matching the paper's setup where the 120 GB datasets
        are split across 32 files and a whole file lives at one site.
        Files are assigned greedily in file order, so e.g. a 33/67 split
        of 32 equal files puts the first ~11 files locally.
        """
        if not self.files:
            raise ValueError("cannot place an empty index")
        total = sum(fractions.values())
        if total <= 0:
            raise ValueError("fractions must sum to a positive value")
        order = list(fractions.items())
        targets = [self.nbytes * frac / total for _, frac in order]
        new_files: list[FileInfo] = []
        loc_i = 0
        placed = 0.0
        for f in self.files:
            # Advance to the next location once the current one met its target.
            while loc_i < len(order) - 1 and placed >= targets[loc_i] - 1e-9:
                loc_i += 1
                placed = 0.0
            loc = order[loc_i][0]
            placed += f.nbytes
            new_files.append(FileInfo(f.file_id, f.key, f.nbytes, f.n_units, loc))
        loc_by_file = {f.file_id: f.location for f in new_files}
        new_chunks = [
            ChunkInfo(
                c.chunk_id, c.file_id, c.key, c.offset, c.nbytes, c.n_units,
                loc_by_file[c.file_id], c.crc32,
                codec=c.codec, enc_offset=c.enc_offset, enc_nbytes=c.enc_nbytes,
                replicas=c.replicas, fragments=c.fragments, stripe=c.stripe,
                stats=c.stats,
            )
            for c in self.chunks
        ]
        return DataIndex(self.fmt, new_files, new_chunks, dict(self.meta))

    def to_dict(self) -> dict:
        """Plain-dict form of the full index (JSON-safe)."""
        return {
            "format": self.fmt.to_dict(),
            "files": [f.to_dict() for f in self.files],
            "chunks": [c.to_dict() for c in self.chunks],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DataIndex":
        """The index a :meth:`to_dict` document describes; a malformed
        document raises ValueError."""
        what = "index"
        d = _doc(d, what, frozenset(("format", "files", "chunks", "meta")))
        return cls(
            fmt=RecordFormat.from_dict(_get(d, "format", what, dict)),
            files=[FileInfo.from_dict(f) for f in _get(d, "files", what, list)],
            chunks=[ChunkInfo.from_dict(c) for c in _get(d, "chunks", what, list)],
            meta=_get(d, "meta", what, dict, optional=True) or {},
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "DataIndex":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "DataIndex":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def build_index(
    fmt: RecordFormat,
    file_units: list[int],
    *,
    chunk_units: int,
    location: str = "local",
    key_prefix: str = "part",
    meta: dict | None = None,
) -> DataIndex:
    """Build an index for a dataset of ``len(file_units)`` files.

    ``file_units[i]`` is the number of data units in file ``i``.  All
    files are initially placed at ``location``; use
    :meth:`DataIndex.with_placement` to split them across sites.
    """
    files: list[FileInfo] = []
    chunks: list[ChunkInfo] = []
    for fid, n_units in enumerate(file_units):
        key = f"{key_prefix}-{fid:05d}.bin"
        files.append(
            FileInfo(fid, key, n_units * fmt.unit_nbytes, n_units, location)
        )
        chunks.extend(
            plan_file_chunks(
                file_id=fid,
                key=key,
                file_units=n_units,
                unit_nbytes=fmt.unit_nbytes,
                chunk_units=chunk_units,
                location=location,
                first_chunk_id=len(chunks),
            )
        )
    return DataIndex(fmt, files, chunks, meta or {})
