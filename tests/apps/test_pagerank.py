"""Unit tests for the PageRank application."""

import tracemalloc

import numpy as np
import pytest

from repro.apps.pagerank import (
    PageRankMapReduceSpec,
    PageRankSpec,
    out_degrees,
    pagerank_reference,
    pagerank_step,
)
from repro.core.api import run_local_pass
from repro.data.units import iter_unit_groups

N_PAGES = 300


@pytest.fixture
def state(edges):
    outdeg = out_degrees(edges, N_PAGES)
    ranks = np.full(N_PAGES, 1.0 / N_PAGES)
    return ranks, outdeg


class TestPageRankSpec:
    def test_matches_reference_step(self, edges, state):
        ranks, outdeg = state
        spec = PageRankSpec(ranks, outdeg)
        got = spec.finalize(run_local_pass(spec, iter_unit_groups(edges, 97)))
        ref = pagerank_step(edges, ranks, outdeg)
        np.testing.assert_allclose(got, ref)

    def test_rank_mass_conserved(self, edges, state):
        ranks, outdeg = state
        spec = PageRankSpec(ranks, outdeg)
        got = spec.finalize(run_local_pass(spec, iter_unit_groups(edges, 128)))
        assert got.sum() == pytest.approx(1.0)

    def test_group_size_invariance(self, edges, state):
        ranks, outdeg = state
        spec = PageRankSpec(ranks, outdeg)
        r1 = spec.finalize(run_local_pass(spec, iter_unit_groups(edges, 7)))
        r2 = spec.finalize(run_local_pass(spec, iter_unit_groups(edges, 5000)))
        np.testing.assert_allclose(r1, r2)

    def test_merge_across_workers(self, edges, state):
        ranks, outdeg = state
        spec = PageRankSpec(ranks, outdeg)
        a = run_local_pass(spec, iter_unit_groups(edges[:2500], 500))
        b = run_local_pass(spec, iter_unit_groups(edges[2500:], 500))
        got = spec.finalize(spec.global_reduction([a, b]))
        ref = pagerank_step(edges, ranks, outdeg)
        np.testing.assert_allclose(got, ref)

    def test_iterates_to_networkx_fixed_point(self, edges):
        """Converged ranks must match networkx's PageRank."""
        import networkx as nx

        outdeg = out_degrees(edges, N_PAGES)
        ranks = np.full(N_PAGES, 1.0 / N_PAGES)
        for _ in range(100):
            spec = PageRankSpec(ranks, outdeg)
            new = spec.finalize(run_local_pass(spec, iter_unit_groups(edges, 1000)))
            if np.abs(new - ranks).sum() < 1e-12:
                break
            ranks = new
        g = nx.MultiDiGraph()
        g.add_nodes_from(range(N_PAGES))
        g.add_edges_from(map(tuple, edges))
        nx_ranks = nx.pagerank(g, alpha=0.85, tol=1e-12, max_iter=200)
        np.testing.assert_allclose(
            ranks, [nx_ranks[i] for i in range(N_PAGES)], atol=1e-6
        )

    def test_dangling_mass_redistributed(self):
        # Page 2 has no outgoing edges.
        edges = np.array([[0, 1], [1, 2]])
        outdeg = out_degrees(edges, 3)
        ranks = np.array([0.2, 0.3, 0.5])
        spec = PageRankSpec(ranks, outdeg)
        got = spec.finalize(run_local_pass(spec, [edges]))
        ref = pagerank_step(edges, ranks, outdeg)
        np.testing.assert_allclose(got, ref)
        assert got.sum() == pytest.approx(1.0)

    def test_robj_scales_with_pages(self, state):
        ranks, outdeg = state
        spec = PageRankSpec(ranks, outdeg)
        assert spec.create_reduction_object().nbytes == N_PAGES * 8

    def test_invalid_args(self, state):
        ranks, outdeg = state
        with pytest.raises(ValueError):
            PageRankSpec(ranks, outdeg[:-1])
        with pytest.raises(ValueError):
            PageRankSpec(ranks, outdeg, damping=1.5)


class TestFoldKernel:
    """The fold scatters each edge's share straight into the object."""

    def test_in_order_fold_is_bit_identical_to_reference(self, edges, state):
        # One object folding the groups in order adds the shares in the
        # same order as pagerank_step's single bincount over all edges.
        ranks, outdeg = state
        spec = PageRankSpec(ranks, outdeg)
        ref = pagerank_step(edges, ranks, outdeg)
        for size in (1, 7, 97, 5000):
            got = spec.finalize(run_local_pass(spec, iter_unit_groups(edges, size)))
            np.testing.assert_array_equal(got, ref)

    def test_merge_tree_within_tolerance(self, edges, state):
        ranks, outdeg = state
        spec = PageRankSpec(ranks, outdeg)
        parts = [run_local_pass(spec, iter_unit_groups(edges[i::4], 300)) for i in range(4)]
        tree = spec.global_reduction(
            [spec.global_reduction(parts[:2]), spec.global_reduction(parts[2:])]
        )
        np.testing.assert_allclose(
            spec.finalize(tree), pagerank_step(edges, ranks, outdeg), rtol=1e-12
        )

    def test_duplicate_destinations_accumulate(self):
        edges = np.array([[0, 2], [1, 2], [0, 2], [2, 0]])
        outdeg = out_degrees(edges, 3)
        ranks = np.array([0.5, 0.25, 0.25])
        spec = PageRankSpec(ranks, outdeg)
        robj = run_local_pass(spec, [edges])
        np.testing.assert_array_equal(robj.value(), [0.25, 0.0, 0.25 + 0.25 + 0.25])

    def test_single_edge_and_empty_group(self, state):
        ranks, outdeg = state
        spec = PageRankSpec(ranks, outdeg)
        robj = spec.create_reduction_object()
        spec.local_reduction(robj, np.empty((0, 2), dtype=np.int64))
        assert not robj.value().any()
        spec.local_reduction(robj, np.array([[3, 7]]))
        want = np.zeros(N_PAGES)
        want[7] = ranks[3] / outdeg[3]
        np.testing.assert_array_equal(robj.value(), want)

    def test_readonly_frombuffer_input(self, edges, state):
        ranks, outdeg = state
        units = np.frombuffer(edges.astype(np.int64).tobytes(), dtype=np.int64).reshape(-1, 2)
        assert not units.flags.writeable
        spec = PageRankSpec(ranks, outdeg)
        robj = spec.create_reduction_object()
        spec.local_reduction_batch(robj, units)
        np.testing.assert_array_equal(
            spec.finalize(robj), pagerank_step(edges, ranks, outdeg)
        )

    def test_allocates_no_object_sized_temporary(self):
        """187 500 edges into 1 000 000 pages: the shares gather (1.5 MB)
        and nothing the size of the 8 MB object (the dense per-chunk
        ``bincount`` it replaced peaked at 11 MB)."""
        n_pages, n_edges = 1_000_000, 187_500
        rng = np.random.default_rng(3)
        units = rng.integers(0, n_pages, (n_edges, 2))
        spec = PageRankSpec(np.full(n_pages, 1.0 / n_pages), np.ones(n_pages))
        robj = spec.create_reduction_object()
        spec.local_reduction_batch(robj, units[:10])  # warm imports and caches
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            spec.local_reduction_batch(robj, units)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 2 << 20


class TestReference:
    def test_reference_converges_and_sums_to_one(self, edges):
        ranks = pagerank_reference(edges, N_PAGES)
        assert ranks.sum() == pytest.approx(1.0)
        assert (ranks > 0).all()


class TestPageRankMapReduce:
    def test_matches_reference(self, edges, state, local_store):
        from repro.data.dataset import write_dataset
        from repro.data.formats import edges_format
        from repro.mapreduce.engine import MapReduceEngine

        ranks, outdeg = state
        idx = write_dataset(edges, edges_format(), local_store, n_files=2, chunk_units=600)
        engine = MapReduceEngine({"local": local_store}, n_mappers=2, n_reducers=3)
        res = engine.run(PageRankMapReduceSpec(ranks, outdeg), idx)
        np.testing.assert_allclose(res.result, pagerank_step(edges, ranks, outdeg))
