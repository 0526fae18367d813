"""Unit tests for the k-means application."""

import numpy as np
import pytest

from repro.apps.kmeans import KMeansMapReduceSpec, KMeansSpec, lloyd_step
from repro.core.api import run_local_pass
from repro.data.generator import generate_points
from repro.data.units import iter_unit_groups


@pytest.fixture
def centroids():
    return generate_points(5, 4, seed=21)


class TestKMeansSpec:
    def test_matches_reference(self, points, centroids):
        spec = KMeansSpec(centroids)
        res = spec.finalize(run_local_pass(spec, iter_unit_groups(points, 111)))
        ref = lloyd_step(points, centroids)
        np.testing.assert_allclose(res.centroids, ref.centroids)
        np.testing.assert_array_equal(res.counts, ref.counts)
        assert res.sse == pytest.approx(ref.sse)

    def test_counts_sum_to_n(self, points, centroids):
        spec = KMeansSpec(centroids)
        res = spec.finalize(run_local_pass(spec, iter_unit_groups(points, 64)))
        assert res.counts.sum() == len(points)

    def test_group_size_invariance(self, points, centroids):
        spec = KMeansSpec(centroids)
        r1 = spec.finalize(run_local_pass(spec, iter_unit_groups(points, 17)))
        r2 = spec.finalize(run_local_pass(spec, iter_unit_groups(points, 999)))
        np.testing.assert_allclose(r1.centroids, r2.centroids)
        assert r1.sse == pytest.approx(r2.sse)

    def test_empty_cluster_keeps_centroid(self):
        pts = np.zeros((10, 2))
        cents = np.array([[0.0, 0.0], [100.0, 100.0]])
        spec = KMeansSpec(cents)
        res = spec.finalize(run_local_pass(spec, [pts]))
        assert res.counts[1] == 0
        np.testing.assert_array_equal(res.centroids[1], [100.0, 100.0])

    def test_merge_across_workers(self, points, centroids):
        spec = KMeansSpec(centroids)
        a = run_local_pass(spec, iter_unit_groups(points[:1000], 100))
        b = run_local_pass(spec, iter_unit_groups(points[1000:], 100))
        res = spec.finalize(spec.global_reduction([a, b]))
        ref = lloyd_step(points, centroids)
        np.testing.assert_allclose(res.centroids, ref.centroids)

    def test_iteration_decreases_sse(self, points, centroids):
        """Lloyd iterations are monotone in SSE -- a classic invariant."""
        cents = centroids
        last = np.inf
        for _ in range(4):
            spec = KMeansSpec(cents)
            res = spec.finalize(run_local_pass(spec, iter_unit_groups(points, 256)))
            assert res.sse <= last + 1e-9
            last = res.sse
            cents = res.centroids

    def test_invalid_centroids(self):
        with pytest.raises(ValueError):
            KMeansSpec(np.zeros(3))
        with pytest.raises(ValueError):
            KMeansSpec(np.zeros((0, 3)))

    def test_caller_mutation_after_construction_is_ignored(self, points, centroids):
        """The spec folds against the centroids it was built with."""
        mine = centroids.copy()
        spec = KMeansSpec(mine)
        mine += 7.0
        res = spec.finalize(run_local_pass(spec, iter_unit_groups(points, 111)))
        ref = lloyd_step(points, centroids)
        np.testing.assert_array_equal(res.counts, ref.counts)
        np.testing.assert_allclose(res.centroids, ref.centroids)
        assert res.sse == pytest.approx(ref.sse)
        with pytest.raises(ValueError):
            spec.centroids[0, 0] = 1.0

    def test_duplicate_centroids_go_to_the_lowest_index(self):
        # d=32 is where BLAS stops giving identical columns identical products.
        pts = generate_points(500, 32, seed=3)
        cents = generate_points(6, 32, seed=4)
        cents[4] = cents[1]
        spec = KMeansSpec(cents)
        res = spec.finalize(run_local_pass(spec, iter_unit_groups(pts, 1)))
        assert res.counts[4] == 0
        assert res.counts.sum() == len(pts)
        np.testing.assert_array_equal(res.centroids[4], cents[4])

    def test_robj_small(self, points, centroids):
        spec = KMeansSpec(centroids)
        robj = run_local_pass(spec, iter_unit_groups(points, 100))
        # (k, d+2) float64 regardless of dataset size.
        assert robj.nbytes == 5 * 6 * 8


class TestKMeansMapReduce:
    def test_matches_reference(self, points, centroids, local_store):
        from repro.data.dataset import write_dataset
        from repro.data.formats import points_format
        from repro.mapreduce.engine import MapReduceEngine

        idx = write_dataset(points, points_format(4), local_store, n_files=2, chunk_units=300)
        engine = MapReduceEngine({"local": local_store}, n_mappers=3, n_reducers=2)
        res = engine.run(KMeansMapReduceSpec(centroids), idx)
        ref = lloyd_step(points, centroids)
        np.testing.assert_allclose(res.result.centroids, ref.centroids)
        assert res.result.sse == pytest.approx(ref.sse)

    def test_plain_mr_emits_pair_per_point(self, points, centroids, local_store):
        from repro.data.dataset import write_dataset
        from repro.data.formats import points_format
        from repro.mapreduce.engine import MapReduceEngine

        idx = write_dataset(points, points_format(4), local_store, n_files=2, chunk_units=300)
        engine = MapReduceEngine({"local": local_store}, n_mappers=2, n_reducers=2)
        res = engine.run(KMeansMapReduceSpec(centroids, with_combiner=False), idx)
        assert res.stats.intermediate_pairs == len(points)
