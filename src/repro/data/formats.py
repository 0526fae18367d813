"""Record formats: how data units are laid out in bytes.

The paper's data organizer works on three granularities -- files, chunks,
and *data units*, where a data unit is "the smallest processable data
element in the system".  A :class:`RecordFormat` defines the binary layout
of one data unit.  All our formats are fixed-size records backed by a
numpy dtype so that a whole group of units can be decoded with one
zero-copy ``np.frombuffer`` call and processed with vectorized kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.data.chunks import _doc, _get, _nonneg

__all__ = ["RecordFormat", "points_format", "edges_format", "tokens_format"]


@dataclass(frozen=True)
class RecordFormat:
    """Fixed-size binary record layout for data units.

    Parameters
    ----------
    name:
        Human-readable identifier, stored in the index file.
    dtype:
        Scalar numpy dtype of each field of the record.
    record_shape:
        Trailing shape of a single record.  ``()`` means one scalar per
        unit; ``(d,)`` means each unit is a ``d``-vector (e.g. a point in
        d-dimensional space); ``(2,)`` an edge, etc.
    """

    name: str
    dtype: Any
    record_shape: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        object.__setattr__(self, "record_shape", tuple(int(s) for s in self.record_shape))
        if any(s <= 0 for s in self.record_shape):
            raise ValueError(f"record_shape must be positive, got {self.record_shape}")

    @property
    def values_per_unit(self) -> int:
        """Number of scalar values composing one data unit."""
        return int(math.prod(self.record_shape)) if self.record_shape else 1

    @property
    def unit_nbytes(self) -> int:
        """Size in bytes of one encoded data unit."""
        return self.values_per_unit * self.dtype.itemsize

    def n_units(self, nbytes: int) -> int:
        """Number of whole units contained in ``nbytes`` bytes."""
        if nbytes % self.unit_nbytes:
            raise ValueError(
                f"{nbytes} bytes is not a whole number of {self.unit_nbytes}-byte units"
            )
        return nbytes // self.unit_nbytes

    def encode(self, units: np.ndarray) -> bytes:
        """Serialize an ``(n, *record_shape)`` array of units to bytes."""
        arr = np.ascontiguousarray(units, dtype=self.dtype)
        expected = (arr.shape[0],) + self.record_shape
        if arr.shape != expected:
            raise ValueError(f"expected unit array of shape (n, {self.record_shape}), got {arr.shape}")
        return arr.tobytes()

    def decode(self, buf: bytes | bytearray | memoryview) -> np.ndarray:
        """Deserialize bytes into an ``(n, *record_shape)`` array.

        The returned array is **always** a read-only zero-copy view over
        ``buf`` (``OWNDATA`` is False and writes raise), whatever the
        input buffer -- ``bytes``, a ``bytearray``, or a writable
        ``memoryview`` over shared-memory pages.  Read-only-ness is part
        of the hot-path contract: fold kernels receive views into
        fetch/shm buffers that other workers may alias, so an accidental
        in-place mutation must fail loudly rather than corrupt data.

        A buffer whose size is not a whole number of records is rejected
        with a clear error (a truncated or corrupt frame must never
        silently drop its tail).
        """
        view = memoryview(buf)
        if view.ndim != 1 or view.format != "B":
            view = view.cast("B")
        nbytes = view.nbytes
        if nbytes % self.unit_nbytes:
            raise ValueError(
                f"buffer of {nbytes} bytes is not a whole number of "
                f"{self.unit_nbytes}-byte {self.name!r} records "
                f"({nbytes % self.unit_nbytes} trailing bytes -- truncated "
                f"or corrupt chunk?)"
            )
        arr = np.frombuffer(view, dtype=self.dtype)
        arr.flags.writeable = False
        return arr.reshape((nbytes // self.unit_nbytes,) + self.record_shape)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dtype": self.dtype.str,
            "record_shape": list(self.record_shape),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RecordFormat":
        """The format a :meth:`to_dict` document describes; a malformed
        document raises ValueError."""
        what = "record format"
        d = _doc(d, what, frozenset(("name", "dtype", "record_shape")))
        dtype = _get(d, "dtype", what, str)
        try:
            dt = np.dtype(dtype)
        except (TypeError, ValueError, OverflowError):
            dt = None
        if dt is None or dt.kind not in "biufc":
            raise ValueError(f"{what}: {dtype!r:.40} is not a numeric dtype")
        shape = _get(d, "record_shape", what, list)
        return cls(
            _get(d, "name", what, str), dt,
            tuple(_nonneg(v, f"{what} record_shape") for v in shape),
        )


def points_format(dim: int, dtype: Any = np.float64) -> RecordFormat:
    """Format for d-dimensional points (kNN, k-means workloads)."""
    return RecordFormat("points", dtype, (dim,))


def edges_format(dtype: Any = np.int64) -> RecordFormat:
    """Format for directed graph edges ``(src, dst)`` (PageRank workload)."""
    return RecordFormat("edges", dtype, (2,))


def tokens_format(dtype: Any = np.int64) -> RecordFormat:
    """Format for token-id streams (wordcount workload)."""
    return RecordFormat("tokens", dtype, ())
