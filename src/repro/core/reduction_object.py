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
from typing import Any, Callable

import numpy as np

__all__ = [
    "ReductionObject",
    "ArrayReductionObject",
    "DictReductionObject",
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

    def update_many(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Vectorized bulk update: combine duplicate keys first, then fold."""
        keys = np.asarray(keys)
        values = np.asarray(values)
        uniq, inv = np.unique(keys, return_inverse=True)
        sums = np.bincount(inv, weights=values, minlength=len(uniq))
        for k, v in zip(uniq.tolist(), sums.tolist()):
            self.update(k, v)

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
