"""Filtered workload variants and their pushdown contracts.

Two invariants per spec: (1) the filtered answer matches a direct
reference computation, and (2) ``relevant()`` is *sound* -- it never
returns False for a chunk whose fold contribution differs from the
identity (brute-checked over real chunkings).
"""

import numpy as np
import pytest

from repro.apps.filtered import (
    BoundingBoxKMeansSpec,
    BoundingBoxKnnSpec,
    FilteredWordCountSpec,
    TopKPageRankSpec,
    bounding_box_mask,
    filtered_wordcount_exact,
    topk_pagerank_window_exact,
)
from repro.apps.kmeans import lloyd_step
from repro.apps.knn import knn_exact
from repro.apps.pagerank import out_degrees, pagerank_step
from repro.core.api import run_local_pass, supports_pushdown
from repro.data.chunks import compute_chunk_stats
from repro.data.units import iter_unit_groups


def brute_check_soundness(spec, units, chunk_units=17):
    """relevant()==False must imply an identity fold contribution."""
    identity = spec.create_reduction_object().value()
    for start in range(0, len(units), chunk_units):
        chunk = units[start:start + chunk_units]
        if spec.relevant(compute_chunk_stats(chunk)):
            continue
        robj = spec.create_reduction_object()
        spec.local_reduction_batch(robj, chunk)
        got = robj.value()
        if isinstance(got, np.ndarray):
            assert np.array_equal(got, identity), "pruned chunk contributed"
        else:
            assert got == identity, "pruned chunk contributed"


class TestFilteredWordCount:
    def test_matches_reference(self, tokens):
        spec = FilteredWordCountSpec(10, 30)
        robj = run_local_pass(spec, iter_unit_groups(tokens, 97))
        assert spec.finalize(robj) == filtered_wordcount_exact(tokens, 10, 30)

    def test_empty_range_intersection(self, tokens):
        spec = FilteredWordCountSpec(1000, 2000)  # outside the vocab
        robj = run_local_pass(spec, iter_unit_groups(tokens, 97))
        assert spec.finalize(robj) == {}

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError, match="lo must not exceed hi"):
            FilteredWordCountSpec(5, 4)

    def test_declares_pushdown(self, tokens):
        spec = FilteredWordCountSpec(10, 30)
        assert supports_pushdown(spec)
        brute_check_soundness(spec, np.sort(tokens))

    def test_priority_prefers_concentrated_chunks(self):
        spec = FilteredWordCountSpec(10, 20)
        inside = compute_chunk_stats(np.arange(10, 21))
        straddling = compute_chunk_stats(np.arange(0, 100))
        assert spec.priority(inside) > spec.priority(straddling)
        outside = compute_chunk_stats(np.arange(50, 60))
        assert spec.priority(outside) == 0.0


class TestBoundingBoxKMeans:
    def test_matches_reference(self, points):
        cents = points[:3].copy()
        lo, hi = -0.5, 0.5
        spec = BoundingBoxKMeansSpec(cents, lo, hi)
        robj = run_local_pass(spec, iter_unit_groups(points, 83))
        got = spec.finalize(robj)
        inside = points[bounding_box_mask(points, lo, hi)]
        ref = lloyd_step(inside, cents)
        np.testing.assert_allclose(got.centroids, ref.centroids)
        np.testing.assert_array_equal(got.counts, ref.counts)

    def test_scalar_bounds_broadcast(self, points):
        spec = BoundingBoxKMeansSpec(points[:2].copy(), 0.0, 1.0)
        assert spec.lo.shape == (4,) and spec.hi.shape == (4,)

    def test_rejects_inverted_box(self, points):
        with pytest.raises(ValueError, match="lower bounds"):
            BoundingBoxKMeansSpec(points[:2].copy(), 1.0, -1.0)

    def test_soundness(self, points):
        # Sort on dim 0 so chunks get narrow bboxes and pruning fires.
        ordered = points[np.argsort(points[:, 0])]
        spec = BoundingBoxKMeansSpec(points[:3].copy(), -0.2, 0.2)
        brute_check_soundness(spec, ordered)

    def test_priority_is_sampled_density(self, points):
        spec = BoundingBoxKMeansSpec(points[:2].copy(), -10.0, 10.0)
        st = compute_chunk_stats(points[:100])
        assert spec.priority(st) == 1.0  # everything is in a huge box


class TestBoundingBoxKnn:
    def test_matches_reference(self, points):
        query = np.full(4, 0.25)
        lo, hi = -0.6, 0.6
        spec = BoundingBoxKnnSpec(query, 7, lo, hi)
        robj = run_local_pass(spec, iter_unit_groups(points, 83))
        got = spec.finalize(robj)
        inside = points[bounding_box_mask(points, lo, hi)]
        ref = knn_exact(inside, query, 7)
        np.testing.assert_allclose(
            [g[0] for g in got], [r[0] for r in ref]
        )

    def test_soundness(self, points):
        ordered = points[np.argsort(points[:, 0])]
        spec = BoundingBoxKnnSpec(np.zeros(4), 5, -0.15, 0.15)
        brute_check_soundness(spec, ordered)

    def test_priority_is_best_first_distance(self, points):
        query = np.zeros(4)
        spec = BoundingBoxKnnSpec(query, 5, -1.0, 1.0)
        near = compute_chunk_stats(np.full((10, 4), 0.1))
        far = compute_chunk_stats(np.full((10, 4), 5.0))
        assert spec.priority(near) > spec.priority(far)
        containing = compute_chunk_stats(np.vstack([-np.ones(4), np.ones(4)]))
        assert spec.priority(containing) == 0.0  # query inside the bbox


class TestTopKPageRank:
    def test_matches_reference(self, edges):
        n = 300
        ranks = np.full(n, 1.0 / n)
        outdeg = out_degrees(edges, n)
        spec = TopKPageRankSpec(ranks, outdeg, 40, 79)
        robj = run_local_pass(spec, iter_unit_groups(edges, 131))
        got = spec.finalize(robj)
        ref = topk_pagerank_window_exact(edges, ranks, outdeg, 40, 79)
        assert got.shape == (40,)
        np.testing.assert_allclose(got, ref)

    def test_window_agrees_with_full_pagerank(self, edges):
        n = 300
        ranks = np.full(n, 1.0 / n)
        outdeg = out_degrees(edges, n)
        full = pagerank_step(edges, ranks, outdeg)
        spec = TopKPageRankSpec(ranks, outdeg, 40, 79)
        got = spec.finalize(run_local_pass(spec, iter_unit_groups(edges, 131)))
        np.testing.assert_allclose(got, full[40:80])

    @pytest.mark.parametrize("pushdown", [None, "prune", "verify"])
    def test_matches_reference_under_every_pushdown_mode(self, edges, pushdown):
        from repro.data.dataset import distribute_dataset, write_dataset
        from repro.data.formats import edges_format
        from repro.runtime import ClusterConfig, make_engine
        from repro.storage.local import MemoryStore

        n = 300
        ranks = np.full(n, 1.0 / n)
        outdeg = out_degrees(edges, n)
        # Sorted by destination, so chunks' dst ranges are narrow and prune bites.
        ordered = edges[np.argsort(edges[:, 1], kind="stable")]
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        idx = write_dataset(ordered, edges_format(), stores["local"], n_files=4,
                            chunk_units=250)
        idx = distribute_dataset(idx, stores, {"local": 0.5, "cloud": 0.5}, stores["local"])
        clusters = [ClusterConfig("local", "local", 2, 2), ClusterConfig("cloud", "cloud", 2, 2)]
        spec = TopKPageRankSpec(ranks, outdeg, 100, 149)
        rr = make_engine("threaded", clusters, stores, pushdown=pushdown).run(spec, idx)
        ref = topk_pagerank_window_exact(edges, ranks, outdeg, 100, 149)
        np.testing.assert_allclose(rr.result, ref, rtol=1e-12)
        if pushdown is not None:
            assert rr.stats.n_pruned_chunks > 0

    def test_group_missing_the_window_returns_early(self, edges):
        n = 300
        ranks = np.full(n, 1.0 / n)
        spec = TopKPageRankSpec(ranks, out_degrees(edges, n), 100, 149)
        robj = spec.create_reduction_object()
        spec._share = None  # any gather or scatter would now raise
        spec.local_reduction(robj, np.array([[0, 10], [5, 150]]))
        spec.local_reduction(robj, np.empty((0, 2), dtype=np.int64))
        assert not robj.value().any()

    def test_window_validation(self, edges):
        n = 300
        ranks = np.full(n, 1.0 / n)
        outdeg = out_degrees(edges, n)
        with pytest.raises(ValueError, match="dst_lo"):
            TopKPageRankSpec(ranks, outdeg, 50, 40)
        with pytest.raises(ValueError, match="out of range"):
            TopKPageRankSpec(ranks, outdeg, 0, n)

    def test_reduction_object_is_window_sized(self, edges):
        n = 300
        ranks = np.full(n, 1.0 / n)
        outdeg = out_degrees(edges, n)
        spec = TopKPageRankSpec(ranks, outdeg, 10, 19)
        assert spec.create_reduction_object().value().shape == (10,)

    def test_soundness(self, edges):
        n = 300
        ranks = np.full(n, 1.0 / n)
        outdeg = out_degrees(edges, n)
        # Sort by destination so chunk dst-ranges are narrow.
        ordered = edges[np.argsort(edges[:, 1])]
        spec = TopKPageRankSpec(ranks, outdeg, 100, 149)
        brute_check_soundness(spec, ordered)

    def test_relevant_keys_on_dst_field(self, edges):
        n = 300
        ranks = np.full(n, 1.0 / n)
        outdeg = out_degrees(edges, n)
        spec = TopKPageRankSpec(ranks, outdeg, 100, 149)
        below = compute_chunk_stats(
            np.array([[150, 10], [200, 99]], dtype=edges.dtype)
        )
        assert not spec.relevant(below)  # dst in [10, 99] misses window
        inside = compute_chunk_stats(
            np.array([[0, 120]], dtype=edges.dtype)
        )
        assert spec.relevant(inside)
