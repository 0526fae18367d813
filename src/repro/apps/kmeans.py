"""k-Means clustering.

The paper's kmeans: "heavy computation resulting in low to medium I/O,
and a small reduction object."  One run of the spec performs one Lloyd
iteration: the reduction object accumulates per-cluster coordinate sums,
member counts, and the within-cluster sum of squared errors; finalize
yields the updated centroids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator, Sequence

import numpy as np

from repro.apps.base import Application, register_application
from repro.core.api import GeneralizedReductionSpec
from repro.core.mapreduce_api import MapReduceSpec
from repro.core.reduction_object import ArrayReductionObject, ReductionObject
from repro.data.formats import points_format
from repro.data.generator import generate_points

__all__ = ["KMeansResult", "KMeansSpec", "KMeansMapReduceSpec", "lloyd_step", "KMEANS_APP"]


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one Lloyd iteration."""

    centroids: np.ndarray  # (k, d); empty clusters keep their old centroid
    counts: np.ndarray     # (k,) members per cluster
    sse: float             # total within-cluster sum of squared errors


def _assign(group: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment, vectorized.

    Uses the expansion ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 so the hot
    path is one GEMM, per the HPC guide's "know your linear algebra".
    Returns ``(assignment, squared_distance)``.
    """
    x2 = np.einsum("ij,ij->i", group, group)
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    cross = group @ centroids.T
    d2 = x2[:, None] - 2.0 * cross + c2[None, :]
    assign = np.argmin(d2, axis=1)
    best = d2[np.arange(len(group)), assign]
    # Numerical cancellation can produce tiny negatives; clamp in place.
    np.maximum(best, 0.0, out=best)
    return assign, best


class KMeansSpec(GeneralizedReductionSpec):
    """Generalized-reduction k-means (one Lloyd iteration per pass)."""

    def __init__(self, centroids: np.ndarray) -> None:
        # A private read-only copy (K x d, tiny): the fold kernel's
        # operands below are derived from it once, so an in-place update
        # of the caller's array must not reach this spec.
        centroids = np.array(centroids, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[0] == 0:
            raise ValueError("centroids must be a non-empty (k, d) array")
        self.centroids = centroids
        self.k, self.dim = centroids.shape
        self.fmt = points_format(self.dim)
        # Exact duplicates tie on every point, and BLAS does not promise
        # bit-identical products for identical columns, so only the
        # first copy of each centroid is scored: such ties go to the
        # lowest index by construction.
        first = np.sort(np.unique(centroids, axis=0, return_index=True)[1])
        self._scored = first if len(first) < self.k else None
        scored = centroids[first]
        # argmin_c ||x - c||^2 = argmin_c (||c||^2 - 2 x.c): the per-row
        # constant ||x||^2 cannot change the winner, so the (n, K) score
        # matrix is one GEMM against -2 C^T plus ||c||^2.
        self._neg2ct = np.ascontiguousarray(-2.0 * scored.T)
        self._c2 = np.einsum("ij,ij->i", scored, scored)
        for arr in (self.centroids, self._neg2ct, self._c2):
            arr.flags.writeable = False
        # Imported here, not at module level: nothing else under repro
        # needs scipy, and ``import repro`` should not pay for it.
        from scipy.sparse import csc_array

        self._csc_array = csc_array

    def create_reduction_object(self) -> ArrayReductionObject:
        # Layout: [:, :d] coordinate sums, [:, d] counts, [:, d+1] sse.
        return ArrayReductionObject((self.k, self.dim + 2), np.float64, "add")

    def local_reduction(self, robj: ReductionObject, unit_group: np.ndarray) -> None:
        """Fold one group of points: one GEMM, one sparse scatter.

        The only (n, K) array is the score matrix, updated in place;
        ``||x||^2`` is added to the n winning scores alone.  Ties go to
        the lowest cluster index (``argmin``; duplicate centroids are
        scored once, see ``__init__``).
        """
        assert isinstance(robj, ArrayReductionObject)
        n, d = len(unit_group), self.dim
        scores = unit_group @ self._neg2ct
        scores += self._c2
        assign = scores.argmin(axis=1)
        sq = np.take_along_axis(scores, assign[:, None], axis=1)[:, 0]
        sq += np.einsum("ij,ij->i", unit_group, unit_group)
        # Numerical cancellation can produce tiny negatives; clamp in place.
        np.maximum(sq, 0.0, out=sq)
        if self._scored is not None:
            assign = self._scored[assign]
        # Column i of the one-hot CSC matrix selects cluster assign[i], so
        # its product with the points is every coordinate sum at once.
        onehot = self._csc_array(
            (np.ones(n), assign, np.arange(n + 1)), shape=(self.k, n)
        )
        data = robj.data
        data[:, :d] += onehot @ unit_group
        data[:, d] += np.bincount(assign, minlength=self.k)
        data[:, d + 1] += np.bincount(assign, weights=sq, minlength=self.k)

    def local_reduction_batch(self, robj: ReductionObject, units: np.ndarray) -> None:
        # The kernel is vectorized over any group size and its one
        # (n, K) temporary is 4 MB at a 2 MB chunk, so the whole chunk
        # folds in one call.
        self.local_reduction(robj, units)

    def finalize(self, robj: ReductionObject) -> KMeansResult:
        data = robj.value()
        d = self.dim
        counts = data[:, d].copy()
        sums = data[:, :d]
        new_centroids = self.centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        return KMeansResult(new_centroids, counts.astype(np.int64), float(data[:, d + 1].sum()))

    compute_s_per_unit = 4.0e-7  # heavy computation per element


class KMeansMapReduceSpec(MapReduceSpec):
    """Baseline MapReduce k-means: one pair per point (cluster, stats)."""

    def __init__(self, centroids: np.ndarray, with_combiner: bool = True) -> None:
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.k, self.dim = self.centroids.shape
        self.fmt = points_format(self.dim)
        self._with_combiner = with_combiner

    def map(self, unit_group: np.ndarray) -> Iterator[tuple[Hashable, Any]]:
        assign, sq = _assign(unit_group, self.centroids)
        for a, point, s in zip(assign.tolist(), unit_group, sq.tolist()):
            yield a, (point.copy(), 1, s)

    @property
    def has_combiner(self) -> bool:
        return self._with_combiner

    @staticmethod
    def _merge(values: Sequence[Any]) -> tuple[np.ndarray, int, float]:
        total = None
        count = 0
        sse = 0.0
        for vec, c, s in values:
            total = vec.astype(np.float64, copy=True) if total is None else total + vec
            count += c
            sse += s
        assert total is not None
        return total, count, sse

    def combine(self, key: Hashable, values: Sequence[Any]) -> Any:
        return self._merge(values)

    def reduce(self, key: Hashable, values: Sequence[Any]) -> Any:
        return self._merge(values)

    def finalize(self, output: dict) -> KMeansResult:
        counts = np.zeros(self.k, dtype=np.int64)
        centroids = self.centroids.copy()
        sse = 0.0
        for cid, (total, count, s) in output.items():
            counts[cid] = count
            if count:
                centroids[cid] = total / count
            sse += s
        return KMeansResult(centroids, counts, sse)


def lloyd_step(points: np.ndarray, centroids: np.ndarray) -> KMeansResult:
    """Reference single-machine Lloyd iteration (for tests)."""
    assign, sq = _assign(points, np.asarray(centroids, dtype=np.float64))
    k, d = centroids.shape
    counts = np.bincount(assign, minlength=k)
    new = np.asarray(centroids, dtype=np.float64).copy()
    for j in range(d):
        sums = np.bincount(assign, weights=points[:, j], minlength=k)
        nz = counts > 0
        new[nz, j] = sums[nz] / counts[nz]
    return KMeansResult(new, counts.astype(np.int64), float(sq.sum()))


def _make_gr_spec(centroids: np.ndarray, **_ignored) -> KMeansSpec:
    return KMeansSpec(centroids)


def _make_mr_spec(centroids: np.ndarray, *, with_combiner: bool = True, **_ignored):
    return KMeansMapReduceSpec(centroids, with_combiner)


KMEANS_APP = register_application(
    Application(
        name="kmeans",
        make_format=lambda dim=8, **_: points_format(dim),
        generate=lambda n_units, seed=0, dim=8, **kw: generate_points(
            n_units, dim, seed=seed, **{k: v for k, v in kw.items() if k in ("n_clusters", "spread")}
        ),
        make_gr_spec=_make_gr_spec,
        make_mr_spec=_make_mr_spec,
        default_params={"dim": 8, "k": 10},
        profile="cpu-bound",
    )
)
