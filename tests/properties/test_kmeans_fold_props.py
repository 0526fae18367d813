"""Property-based tests for the k-means fold kernel.

``KMeansSpec.local_reduction`` (one in-place GEMM + one sparse scatter)
must give ``lloyd_step``'s answer -- ``counts`` exactly, centroids and
SSE to ``rtol=1e-9`` -- however a chunk is cut into groups and whatever
memory layout the groups arrive in: the read-only ``np.frombuffer``
views decode yields, strided views, the boolean-masked copies
``BoundingBoxKMeansSpec`` passes on.  The degenerate shapes ride along:
``K=1``, ``K > n``, a single point, empty clusters, duplicate centroids.

Duplicate centroids tie exactly on every point.  The kernel scores each
distinct centroid once, so the lowest index takes the whole tie; the
reference leaves it to BLAS, which does not promise bit-identical
products for identical columns (OpenBLAS 0.3.31/Haswell differs from
d=32 up).  The comparison therefore moves the reference's members of a
duplicate onto its first copy, which is a no-op without duplicates.

Hypothesis draws the shapes, the cuts and a seed; the coordinates come
from a seeded generator so no point sits *exactly* between two distinct
centroids, where the two implementations' rounding may differ.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.filtered import BoundingBoxKMeansSpec, bounding_box_mask
from repro.apps.kmeans import KMeansSpec, lloyd_step
from repro.core.api import run_local_pass

RTOL = 1e-9


@st.composite
def problems(draw, max_n=120):
    """``(points, centroids)``: n >= 1 points, K >= 1 centroids, maybe degenerate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_n))
    d = draw(st.sampled_from([1, 2, 3, 5, 16, 33]))
    k = draw(st.integers(1, 10))
    points = rng.normal(rng.random((1, d)), 0.15, (n, d))
    centroids = rng.random((k, d))
    if k > 1 and draw(st.booleans()):
        # duplicate centroids: an exact tie on every point
        centroids[draw(st.integers(1, k - 1))] = centroids[0]
    if k > 1 and draw(st.booleans()):
        # a centroid no point is nearest to: an empty cluster
        centroids[-1] = 50.0
    return points, centroids


@st.composite
def partitions(draw, n):
    """Consecutive ``(lo, hi)`` ranges covering ``range(n)``: 1 row to everything."""
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=8))) if n > 1 else []
    edges = [0, *cuts, n]
    return list(zip(edges[:-1], edges[1:]))


def readonly_view(points):
    """What ``RecordFormat.decode`` yields: read-only, not owning its data."""
    return np.frombuffer(points.tobytes(), dtype=np.float64).reshape(points.shape)


def strided_view(points):
    """The same values as every second row of a twice-as-long buffer."""
    wide = np.repeat(points, 2, axis=0)
    wide[1::2] = np.nan
    return wide[::2]


LAYOUTS = {"plain": lambda p: p, "readonly": readonly_view, "strided": strided_view}


def pooled(step, centroids):
    """``(counts, coordinate sums)`` with every duplicate's share on its first copy."""
    _, first, inverse = np.unique(centroids, axis=0, return_index=True, return_inverse=True)
    owner = first[inverse.ravel()]
    counts = np.zeros_like(step.counts)
    np.add.at(counts, owner, step.counts)
    sums = np.zeros_like(step.centroids)
    np.add.at(sums, owner, step.centroids * step.counts[:, None])
    return counts, sums


def assert_same_step(result, expected, centroids):
    counts, sums = pooled(expected, centroids)
    np.testing.assert_array_equal(result.counts, counts)
    np.testing.assert_allclose(
        result.centroids * result.counts[:, None], sums, rtol=RTOL, atol=1e-12
    )
    np.testing.assert_allclose(result.sse, expected.sse, rtol=RTOL)


class TestFoldMatchesLloydStep:
    @given(data=st.data(), layout=st.sampled_from(sorted(LAYOUTS)))
    @settings(max_examples=150, deadline=None)
    def test_any_partition_any_layout(self, data, layout):
        points, centroids = data.draw(problems())
        ranges = data.draw(partitions(len(points)))
        units = LAYOUTS[layout](points)
        spec = KMeansSpec(centroids)
        robj = run_local_pass(spec, (units[lo:hi] for lo, hi in ranges))
        assert_same_step(spec.finalize(robj), lloyd_step(points, centroids), centroids)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_boolean_masked_groups(self, data):
        points, centroids = data.draw(problems())
        ranges = data.draw(partitions(len(points)))
        # A box through the middle of the cloud keeps some rows of most groups.
        lo = np.quantile(points, 0.2, axis=0)
        hi = np.quantile(points, 0.9, axis=0)
        spec = BoundingBoxKMeansSpec(centroids, lo, hi)
        units = readonly_view(points)
        robj = run_local_pass(spec, (units[a:b] for a, b in ranges))
        inside = points[bounding_box_mask(points, lo, hi)]
        if len(inside) == 0:
            assert not robj.value().any()
        else:
            assert_same_step(spec.finalize(robj), lloyd_step(inside, centroids), centroids)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_two_objects_merged_equal_one_fold(self, data):
        points, centroids = data.draw(problems())
        ranges = data.draw(partitions(len(points)))
        owner = data.draw(st.lists(st.booleans(), min_size=len(ranges), max_size=len(ranges)))
        spec = KMeansSpec(centroids)
        one = run_local_pass(spec, (points[lo:hi] for lo, hi in ranges))
        halves = [
            run_local_pass(spec, (points[lo:hi] for (lo, hi), o in zip(ranges, owner) if o == side))
            for side in (True, False)
        ]
        merged = spec.global_reduction(halves)
        d = spec.dim
        np.testing.assert_array_equal(merged.value()[:, d], one.value()[:, d])
        np.testing.assert_allclose(merged.value(), one.value(), rtol=RTOL, atol=1e-12)
        assert_same_step(spec.finalize(merged), lloyd_step(points, centroids), centroids)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_sse_never_negative(self, data):
        # Every point *is* a centroid: the true SSE is 0 and only
        # cancellation error remains, which the clamp keeps at >= 0.
        points, _ = data.draw(problems(max_n=10))
        spec = KMeansSpec(points)
        robj = run_local_pass(spec, [readonly_view(points)])
        assert (robj.value()[:, spec.dim + 1] >= 0.0).all()


class TestFoldMemory:
    def test_one_score_matrix_at_the_benchmark_shape(self):
        """A 7812 x 32 chunk at K=64 folds within two ``(n, K)`` buffers.

        The kernel needs one (the in-place score matrix, 4 MB); the
        ``_assign`` + flattened-``bincount`` fold it replaced held three
        plus an ``(n, d)`` int64 index, which spilled L2 at 2 MB chunks.
        """
        n, d, k = 7812, 32, 64
        rng = np.random.default_rng(5)
        units = readonly_view(rng.random((n, d)))
        spec = KMeansSpec(rng.random((k, d)))
        robj = spec.create_reduction_object()
        spec.local_reduction_batch(robj, units)  # warm imports and caches
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            spec.local_reduction_batch(robj, units)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 2 * n * k * 8
