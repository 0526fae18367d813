"""Filtered workload variants exercising the pushdown contract.

Each spec here answers a *restricted* query -- a token range, a bounding
box, a page-id window -- and declares the matching
``relevant(chunk_stats)`` predicate (plus a ``priority(chunk_stats)``
hint) so the head can prune chunks that provably cannot contribute
(metadata-first retrieval).  The predicates are conservative interval
checks over :class:`~repro.data.chunks.ChunkStats` min/max bounds:
every pruned chunk's fold contribution is exactly the identity, so the
filtered answer is bit-identical with pruning on or off -- which
``EngineOptions(pushdown="verify")`` and the equivalence matrix assert.

Pruning only pays when data is *clustered* on the filtered field (e.g.
time-ordered logs, sorted keys, spatial tiles): a chunk whose values
span the whole domain can never be excluded by its min/max.  The
ablation benchmark generates sorted datasets for exactly this reason.
"""

from __future__ import annotations

import numpy as np

from repro.apps.kmeans import KMeansSpec
from repro.apps.knn import KnnSpec
from repro.apps.pagerank import PageRankSpec
from repro.apps.wordcount import WordCountSpec
from repro.core.reduction_object import ArrayReductionObject, ReductionObject
from repro.data.chunks import ChunkStats
from repro.data.formats import edges_format

__all__ = [
    "FilteredWordCountSpec",
    "BoundingBoxKMeansSpec",
    "BoundingBoxKnnSpec",
    "TopKPageRankSpec",
    "filtered_wordcount_exact",
    "bounding_box_mask",
    "topk_pagerank_window_exact",
]


def _box_bounds(lo, hi, dim: int) -> tuple[np.ndarray, np.ndarray]:
    lo = np.broadcast_to(np.asarray(lo, dtype=np.float64), (dim,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), (dim,)).copy()
    if np.any(lo > hi):
        raise ValueError("box lower bounds must not exceed upper bounds")
    return lo, hi


def bounding_box_mask(points: np.ndarray, lo, hi) -> np.ndarray:
    """Boolean mask of rows inside the axis-aligned box [lo, hi]."""
    lo, hi = _box_bounds(lo, hi, points.shape[1])
    return np.all((points >= lo) & (points <= hi), axis=1)


def _box_relevant(stats: ChunkStats, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Chunk-bbox vs query-box intersection, keep-on-unknown per dim."""
    return all(
        stats.overlaps(j, lo[j], hi[j]) for j in range(len(lo))
    )


class FilteredWordCountSpec(WordCountSpec):
    """Wordcount restricted to token ids in the inclusive range [lo, hi].

    ``relevant`` prunes chunks whose token min/max lies entirely outside
    the range; ``priority`` front-loads chunks by the fraction of their
    value span inside it.
    """

    def __init__(self, lo: int, hi: int) -> None:
        super().__init__()
        if lo > hi:
            raise ValueError("lo must not exceed hi")
        self.lo = int(lo)
        self.hi = int(hi)

    def local_reduction(self, robj: ReductionObject, unit_group: np.ndarray) -> None:
        mask = (unit_group >= self.lo) & (unit_group <= self.hi)
        if not mask.any():
            return
        super().local_reduction(robj, unit_group[mask])

    def relevant(self, stats: ChunkStats) -> bool:
        return stats.overlaps(0, self.lo, self.hi)

    def priority(self, stats: ChunkStats) -> float:
        mn, mx = stats.mins[0], stats.maxs[0]
        if mn is None or mx is None:
            return 0.0
        inter = min(float(mx), float(self.hi)) - max(float(mn), float(self.lo))
        if inter < 0:
            return 0.0
        span = float(mx) - float(mn)
        return 1.0 if span <= 0 else inter / span


class BoundingBoxKMeansSpec(KMeansSpec):
    """One Lloyd iteration over only the points inside a bounding box.

    ``relevant`` prunes chunks whose per-dimension bbox misses the query
    box; ``priority`` estimates in-box density from the chunk's value
    sample.
    """

    def __init__(self, centroids: np.ndarray, lo, hi) -> None:
        super().__init__(centroids)
        self.lo, self.hi = _box_bounds(lo, hi, self.dim)

    def local_reduction(self, robj: ReductionObject, unit_group: np.ndarray) -> None:
        mask = bounding_box_mask(unit_group, self.lo, self.hi)
        if not mask.any():
            return
        super().local_reduction(robj, unit_group[mask])

    def relevant(self, stats: ChunkStats) -> bool:
        return _box_relevant(stats, self.lo, self.hi)

    def priority(self, stats: ChunkStats) -> float:
        lo, hi = self.lo, self.hi
        return stats.sample_fraction(
            lambda row: all(
                lo[j] <= row[j] <= hi[j] for j in range(len(lo))
            )
        )


class BoundingBoxKnnSpec(KnnSpec):
    """kNN among only the points inside a bounding box.

    ``priority`` ranks chunks by (negated) squared distance from the
    query to the chunk's bbox, so the nearest chunks are folded first
    -- the classic best-first spatial-index visit order.
    """

    def __init__(self, query: np.ndarray, k: int, lo, hi) -> None:
        super().__init__(query, k)
        self.lo, self.hi = _box_bounds(lo, hi, len(self.query))

    def local_reduction(self, robj: ReductionObject, unit_group: np.ndarray) -> None:
        mask = bounding_box_mask(unit_group, self.lo, self.hi)
        if not mask.any():
            return
        super().local_reduction(robj, unit_group[mask])

    def relevant(self, stats: ChunkStats) -> bool:
        return _box_relevant(stats, self.lo, self.hi)

    def priority(self, stats: ChunkStats) -> float:
        d2 = 0.0
        for j, q in enumerate(self.query):
            mn, mx = stats.mins[j], stats.maxs[j]
            if mn is None or mx is None:
                continue
            gap = max(float(mn) - q, q - float(mx), 0.0)
            d2 += gap * gap
        return -d2


class TopKPageRankSpec(PageRankSpec):
    """One power-iteration step for a *window* of candidate pages.

    Top-k rank queries only need exact ranks for the current candidate
    set; when candidates occupy a page-id window [dst_lo, dst_hi]
    (inclusive), only edges *into* the window matter.  The reduction
    object shrinks from n_pages to the window width, and ``relevant``
    prunes edge chunks whose dst min/max misses the window entirely.
    ``finalize`` returns the damped ranks for the window only.
    """

    def __init__(
        self,
        ranks: np.ndarray,
        outdeg: np.ndarray,
        dst_lo: int,
        dst_hi: int,
        damping: float = 0.85,
    ) -> None:
        super().__init__(ranks, outdeg, damping)
        if dst_lo > dst_hi:
            raise ValueError("dst_lo must not exceed dst_hi")
        if dst_lo < 0 or dst_hi >= self.n_pages:
            raise ValueError("page-id window out of range")
        self.dst_lo = int(dst_lo)
        self.dst_hi = int(dst_hi)
        self.window = self.dst_hi - self.dst_lo + 1
        self.fmt = edges_format()

    def create_reduction_object(self) -> ArrayReductionObject:
        return ArrayReductionObject((self.window,), np.float64, "add")

    def local_reduction(self, robj: ReductionObject, unit_group: np.ndarray) -> None:
        assert isinstance(robj, ArrayReductionObject)
        dst = unit_group[:, 1]
        mask = (dst >= self.dst_lo) & (dst <= self.dst_hi)
        if not mask.any():
            return
        # The PageRank fold rule, on the window: scatter, no dense
        # window-sized temporary per group.
        np.add.at(
            robj.data, dst[mask] - self.dst_lo, self._share[unit_group[:, 0][mask]]
        )

    def relevant(self, stats: ChunkStats) -> bool:
        # Field 1 of the (src, dst) edge record is the destination page.
        return stats.overlaps(1, self.dst_lo, self.dst_hi)

    def priority(self, stats: ChunkStats) -> float:
        lo, hi = self.dst_lo, self.dst_hi
        return stats.sample_fraction(lambda row: lo <= row[1] <= hi)

    def finalize(self, robj: ReductionObject) -> np.ndarray:
        incoming = robj.value()
        dangling = float(self.ranks[self.outdeg == 0].sum())
        n = self.n_pages
        return (1.0 - self.damping) / n + self.damping * (incoming + dangling / n)


def filtered_wordcount_exact(tokens: np.ndarray, lo: int, hi: int) -> dict[int, int]:
    """Reference range-filtered counts (for tests)."""
    kept = tokens[(tokens >= lo) & (tokens <= hi)]
    uniq, counts = np.unique(kept, return_counts=True)
    return {int(t): int(c) for t, c in zip(uniq, counts)}


def topk_pagerank_window_exact(
    edges: np.ndarray,
    ranks: np.ndarray,
    outdeg: np.ndarray,
    dst_lo: int,
    dst_hi: int,
    damping: float = 0.85,
) -> np.ndarray:
    """Reference window ranks computed directly (for tests)."""
    n = len(ranks)
    safe = np.where(outdeg > 0, outdeg, 1.0)
    mask = (edges[:, 1] >= dst_lo) & (edges[:, 1] <= dst_hi)
    kept = edges[mask]
    contrib = (ranks / safe)[kept[:, 0]]
    window = dst_hi - dst_lo + 1
    incoming = np.bincount(kept[:, 1] - dst_lo, weights=contrib, minlength=window)
    dangling = float(ranks[outdeg == 0].sum())
    return (1.0 - damping) / n + damping * (incoming + dangling / n)
