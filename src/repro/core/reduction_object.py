"""Reduction objects.

The reduction object is the central abstraction of the Generalized
Reduction API: a user-declared accumulator that each worker updates *in
place* while processing data elements, so no intermediate (key, value)
pairs ever materialize.  Copies of the object from different workers and
clusters are merged during global reduction, and the object's size in
bytes is exactly what must cross the inter-cluster link -- which is why
the paper tracks it so carefully (PageRank's ~30 MB object dominates its
sync time).

Invariant required of every implementation (and property-tested): the
final merged value must be independent of (a) the order elements were
processed in and (b) the shape of the merge tree.  ``merge`` must
therefore be commutative and associative over objects produced by
``local_reduction``.
"""

from __future__ import annotations

import abc
import copy
from typing import Any, Callable, Iterable

import numpy as np

__all__ = [
    "ReductionObject",
    "ArrayReductionObject",
    "DictReductionObject",
    "CounterReductionObject",
    "TopKReductionObject",
]


class ReductionObject(abc.ABC):
    """Base class for user-declared accumulators."""

    @abc.abstractmethod
    def merge(self, other: "ReductionObject") -> None:
        """Fold ``other`` into ``self`` (in place).

        ``other`` is only read, and ``self`` keeps no reference into its
        mutable state afterwards (copy what is retained): the runtimes
        merge worker objects that alias shared memory into the object
        they hand out, then drop that memory.
        """

    @abc.abstractmethod
    def copy_empty(self) -> "ReductionObject":
        """A fresh identity-valued object of the same configuration."""

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Approximate serialized size; drives the communication model."""

    @abc.abstractmethod
    def value(self) -> Any:
        """The accumulated result in user-facing form."""


class ArrayReductionObject(ReductionObject):
    """Dense numpy accumulator merged with an elementwise ufunc.

    Suits k-means (centroid sums + counts) and PageRank (rank vector):
    the object is a fixed-shape array, local reduction scatter-adds into
    it, and merge is ``np.add``/``np.minimum``/... applied in place.
    """

    _IDENTITIES: dict[str, float] = {"add": 0.0, "minimum": np.inf, "maximum": -np.inf}

    def __init__(
        self,
        shape: tuple[int, ...],
        dtype: Any = np.float64,
        op: str = "add",
        data: np.ndarray | None = None,
    ) -> None:
        if op not in self._IDENTITIES:
            raise ValueError(f"unsupported op {op!r}; one of {sorted(self._IDENTITIES)}")
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.op = op
        if data is not None:
            if data.shape != self.shape:
                raise ValueError(f"data shape {data.shape} != declared {self.shape}")
            self.data = np.asarray(data, dtype=self.dtype)
        else:
            identity = self._IDENTITIES[op]
            if not np.isfinite(identity) and self.dtype.kind in "iu":
                raise ValueError(f"op {op!r} has no identity for integer dtype")
            self.data = np.full(self.shape, identity, dtype=self.dtype)

    def merge(self, other: ReductionObject) -> None:
        if not isinstance(other, ArrayReductionObject) or other.op != self.op:
            raise TypeError("can only merge a matching ArrayReductionObject")
        getattr(np, self.op)(self.data, other.data, out=self.data)

    def copy_empty(self) -> "ArrayReductionObject":
        return ArrayReductionObject(self.shape, self.dtype, self.op)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def value(self) -> np.ndarray:
        return self.data


class DictReductionObject(ReductionObject):
    """Sparse key -> value accumulator with a per-key combiner.

    The generalized-reduction analogue of a combine-enabled wordcount:
    keys never leave the worker, only the combined dictionary does.
    """

    def __init__(self, combiner: Callable[[Any, Any], Any], value_nbytes: int = 16) -> None:
        self.combiner = combiner
        self.value_nbytes = value_nbytes
        self.data: dict[Any, Any] = {}

    def update(self, key: Any, value: Any) -> None:
        if key in self.data:
            self.data[key] = self.combiner(self.data[key], value)
        else:
            self.data[key] = value

    def merge(self, other: ReductionObject) -> None:
        if not isinstance(other, DictReductionObject):
            raise TypeError("can only merge a DictReductionObject")
        for k, v in other.data.items():
            self.update(k, v)

    def copy_empty(self) -> "DictReductionObject":
        return DictReductionObject(self.combiner, self.value_nbytes)

    @property
    def nbytes(self) -> int:
        return len(self.data) * self.value_nbytes

    def value(self) -> dict:
        return dict(self.data)


class CounterReductionObject(ReductionObject):
    """Occurrence counts of integer ids (wordcount's accumulator).

    Counting over a bounded key range needs no sort: a chunk whose ids
    are *dense* -- none negative, the largest below the chunk's own
    length, so the count array cannot outgrow the chunk it summarises --
    is one ``np.bincount`` added in place to an ``int64`` array indexed
    by id.  The array grows geometrically to the largest id counted so
    far; only the used prefix is reported, pickled or merged.  Any other
    chunk (a negative id, or ids sparse in a huge range) is sorted with
    ``np.unique`` and folded into a dict held beside the array.  The
    choice is made per chunk from one ``max`` over integer ids viewed
    unsigned (a negative id reads as huge; other dtypes take ``min`` and
    ``max``), an id may end up counted in both places, and ``value()``
    adds the two.

    Counts are integers end to end (exact up to ``int64``); the dense
    array is the object's one numpy payload, so it travels out of band
    through shared memory like an :class:`ArrayReductionObject`.
    """

    #: what one sparse entry costs on the wire (key + count)
    SPARSE_ENTRY_NBYTES = 16

    def __init__(self) -> None:
        self._dense = np.zeros(0, dtype=np.int64)
        self._n = 0  # ids 0.._n-1 are in use; the rest of _dense is spare
        self.sparse: dict[int, int] = {}

    def __getstate__(self) -> dict:
        return {"_dense": self.counts, "sparse": self.sparse}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._n = len(self._dense)

    @property
    def counts(self) -> np.ndarray:
        """Dense counts, index == id (a view; zeros are ids never seen)."""
        return self._dense[: self._n]

    def _reserve(self, n: int) -> None:
        if n > len(self._dense):
            grown = np.zeros(max(n, 2 * len(self._dense)), dtype=np.int64)
            grown[: self._n] = self._dense[: self._n]
            self._dense = grown
        self._n = max(self._n, n)

    def count(self, ids: np.ndarray) -> None:
        """Fold a chunk of ids: add one to the count of each occurrence."""
        if ids.size == 0:
            return
        if ids.dtype.kind in "iu":
            # one pass: viewed unsigned, a negative id reads as huge
            dense = ids.view(f"u{ids.dtype.itemsize}").max() < ids.size
        else:
            dense = ids.min() >= 0 and ids.max() < ids.size
        if dense:
            # int64 input is counted where it lies; narrower or unsigned
            # ids are widened once (they are all below ids.size, so it fits)
            chunk = np.bincount(ids.astype(np.intp, copy=False))
            self._reserve(len(chunk))
            self._dense[: len(chunk)] += chunk
            return
        uniq, occurrences = np.unique(ids, return_counts=True)
        self._add_sparse(zip(uniq.tolist(), occurrences.tolist()))

    def _add_sparse(self, counted: Iterable[tuple[int, int]]) -> None:
        sparse = self.sparse
        for key, n in counted:
            sparse[key] = sparse.get(key, 0) + n

    def merge(self, other: ReductionObject) -> None:
        if not isinstance(other, CounterReductionObject):
            raise TypeError("can only merge a CounterReductionObject")
        theirs = other.counts
        self._reserve(len(theirs))
        self._dense[: len(theirs)] += theirs
        self._add_sparse(other.sparse.items())

    def copy_empty(self) -> "CounterReductionObject":
        return CounterReductionObject()

    @property
    def nbytes(self) -> int:
        return int(self.counts.nbytes) + len(self.sparse) * self.SPARSE_ENTRY_NBYTES

    def value(self) -> dict[int, int]:
        """``{id: count}`` for every id counted at least once."""
        counts = self.counts
        seen = np.flatnonzero(counts)
        out = dict(zip(seen.tolist(), counts[seen].tolist()))
        for key, n in self.sparse.items():
            out[key] = out.get(key, 0) + n
        return out


class TopKReductionObject(ReductionObject):
    """Keeps the ``k`` items with the smallest (or largest) scores.

    Used by kNN: the object holds the k nearest candidates seen so far;
    merging two objects re-selects the best k of their union.  Payloads
    accompany scores (e.g. the point coordinates or its id).
    """

    def __init__(self, k: int, largest: bool = False, entry_nbytes: int = 16) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.largest = largest
        self.entry_nbytes = entry_nbytes
        self._scores: np.ndarray = np.empty(0, dtype=np.float64)
        self._payloads: list[Any] = []

    def update_batch(self, scores: np.ndarray, payloads: list[Any] | np.ndarray) -> None:
        """Offer a batch of candidates; retain the best k overall.

        Vectorized: one concatenate + one ``argpartition`` per batch, no
        per-element Python in the hot path.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 1 or len(scores) != len(payloads):
            raise ValueError("scores must be 1-D and match payloads length")
        all_scores = np.concatenate([self._scores, scores])
        all_payloads = list(self._payloads) + list(payloads)
        if len(all_scores) > self.k:
            key = -all_scores if self.largest else all_scores
            idx = np.argpartition(key, self.k - 1)[: self.k]
        else:
            idx = np.arange(len(all_scores))
        self._scores = all_scores[idx]
        self._payloads = [all_payloads[i] for i in idx]

    def merge(self, other: ReductionObject) -> None:
        if not isinstance(other, TopKReductionObject) or other.largest != self.largest:
            raise TypeError("can only merge a matching TopKReductionObject")
        if self.k != other.k:
            raise ValueError("cannot merge top-k objects with different k")
        # Copies: a retained payload must not alias ``other``'s.
        self.update_batch(other._scores, [copy.copy(p) for p in other._payloads])

    def copy_empty(self) -> "TopKReductionObject":
        return TopKReductionObject(self.k, self.largest, self.entry_nbytes)

    @property
    def nbytes(self) -> int:
        return len(self._scores) * self.entry_nbytes

    def value(self) -> list[tuple[float, Any]]:
        """Sorted ``(score, payload)`` pairs, best first."""
        order = np.argsort(-self._scores if self.largest else self._scores, kind="stable")
        return [(float(self._scores[i]), self._payloads[i]) for i in order]
