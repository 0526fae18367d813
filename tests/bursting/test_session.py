"""Unit tests for BurstingSession (iterative workloads)."""

import numpy as np
import pytest

from repro.apps.kmeans import KMeansSpec, lloyd_step
from repro.apps.pagerank import PageRankSpec, out_degrees, pagerank_reference
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.bursting.session import BurstingSession
from repro.data.dataset import distribute_dataset, replicate_dataset, write_dataset
from repro.data.formats import edges_format, points_format, tokens_format
from repro.data.generator import generate_edges, generate_points, generate_tokens
from repro.runtime import EngineOptions
from repro.storage.cache import ChunkCache
from repro.storage.health import BreakerPolicy, HedgePolicy
from repro.storage.local import MemoryStore


def make_stores():
    return {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}


class TestSessionBasics:
    def test_from_units_distributes_once(self, points):
        stores = make_stores()
        session = BurstingSession.from_units(
            points, points_format(4), stores, local_fraction=0.5
        )
        assert set(session.index.locations) == {"local", "cloud"}
        assert stores["local"].list_keys() and stores["cloud"].list_keys()

    def test_multiple_passes_same_data(self, points):
        session = BurstingSession.from_units(
            points, points_format(4), make_stores(), local_fraction=0.5
        )
        cents = generate_points(3, 4, seed=81)
        r1 = session.run(KMeansSpec(cents))
        r2 = session.run(KMeansSpec(cents))
        np.testing.assert_allclose(r1.result.centroids, r2.result.centroids)
        assert session.passes_run == 2

    def test_requires_both_stores(self, points):
        with pytest.raises(ValueError):
            BurstingSession.from_units(
                points, points_format(4), {"local": MemoryStore("local")}
            )

    def test_requires_workers(self, points):
        with pytest.raises(ValueError):
            BurstingSession.from_units(
                points, points_format(4), make_stores(),
                local_workers=0, cloud_workers=0,
            )

    def test_index_store_mismatch_rejected(self, points):
        stores = make_stores()
        session = BurstingSession.from_units(points, points_format(4), stores)
        with pytest.raises(ValueError):
            BurstingSession(session.index, {"local": stores["local"]})


class TestIterate:
    def test_kmeans_to_convergence_matches_reference(self, points):
        session = BurstingSession.from_units(
            points, points_format(4), make_stores(), local_fraction=1 / 3
        )
        init = generate_points(4, 4, seed=82)

        def converged(old, new):
            old_c = old if isinstance(old, np.ndarray) else old.centroids
            return bool(np.abs(new.centroids - old_c).max() < 1e-12)

        last = None
        for it, rr, state in session.iterate(
            lambda s: KMeansSpec(s if isinstance(s, np.ndarray) else s.centroids),
            init,
            max_iters=50,
            converged=converged,
        ):
            last = state
        # Single-machine Lloyd from the same init reaches the same point.
        ref = init
        for _ in range(it):
            ref = lloyd_step(points, ref).centroids
        np.testing.assert_allclose(last.centroids, ref)

    def test_pagerank_fixed_point(self, edges):
        n = 300
        session = BurstingSession.from_units(
            edges, edges_format(), make_stores(), local_fraction=0.5
        )
        outdeg = out_degrees(edges, n)
        ranks = np.full(n, 1.0 / n)
        for it, rr, new_ranks in session.iterate(
            lambda r: PageRankSpec(r, outdeg),
            ranks,
            max_iters=150,
            converged=lambda old, new: bool(
                np.abs(new - (old if isinstance(old, np.ndarray) else old)).sum() < 1e-12
            ),
        ):
            pass
        np.testing.assert_allclose(new_ranks, pagerank_reference(edges, n), atol=1e-8)

    def test_yields_iteration_numbers(self, points):
        session = BurstingSession.from_units(points, points_format(4), make_stores())
        init = generate_points(2, 4, seed=83)
        its = [
            it
            for it, _, s in session.iterate(
                lambda s: KMeansSpec(s if isinstance(s, np.ndarray) else s.centroids),
                init,
                max_iters=3,
            )
        ]
        assert its == [1, 2, 3]

    def test_invalid_max_iters(self, points):
        session = BurstingSession.from_units(points, points_format(4), make_stores())
        with pytest.raises(ValueError):
            list(session.iterate(lambda s: KMeansSpec(s), np.zeros((2, 4)), max_iters=0))


class TestSessionPipeline:
    def test_cache_warms_across_passes(self, points):
        session = BurstingSession.from_units(
            points, points_format(4), make_stores(),
            local_fraction=0.5, cache_mb=64,
        )
        cents = generate_points(3, 4, seed=81)
        r1 = session.run(KMeansSpec(cents))
        assert r1.stats.cache_hits == 0
        r2 = session.run(KMeansSpec(cents))
        np.testing.assert_allclose(r1.result.centroids, r2.result.centroids)
        assert r2.stats.cache_hits == len(session.index.chunks)
        assert r2.stats.cache_hit_rate == 1.0
        snap = session.cache_stats()
        assert snap["entries"] == len(session.index.chunks)
        assert snap["hits"] > 0

    def test_cache_disabled_by_default(self, points):
        session = BurstingSession.from_units(
            points, points_format(4), make_stores()
        )
        assert session.cache is None
        assert session.cache_stats() is None
        r = session.run(KMeansSpec(generate_points(3, 4, seed=81)))
        assert r.stats.cache_hits == 0

    def test_prefetch_session_matches_serial(self, points):
        cents = generate_points(3, 4, seed=81)
        serial = BurstingSession.from_units(
            points, points_format(4), make_stores(), local_fraction=0.5
        ).run(KMeansSpec(cents))
        pipelined = BurstingSession.from_units(
            points, points_format(4), make_stores(),
            local_fraction=0.5, prefetch=True, cache_mb=64,
        ).run(KMeansSpec(cents))
        np.testing.assert_allclose(
            serial.result.centroids, pipelined.result.centroids
        )


class TestSessionOptions:
    """Every keyword beyond the session's own is an EngineOptions field."""

    def test_hedge_and_breaker_over_replicas(self):
        tokens = generate_tokens(20_000, 300, seed=5)
        stores = make_stores()
        index = write_dataset(
            tokens, tokens_format(), stores["local"], n_files=4, chunk_units=1000
        )
        index = distribute_dataset(
            index, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
        )
        index = replicate_dataset(index, stores, n_replicas=1)
        session = BurstingSession(
            index, stores, hedge=HedgePolicy(), breaker=BreakerPolicy()
        )
        rr = session.run(WordCountSpec())
        assert rr.result == wordcount_exact(tokens)
        assert set(rr.stats.breakers) == {"local", "cloud"}

    def test_fields_land_in_options(self):
        cache = ChunkCache(1 << 20)
        session = BurstingSession.from_units(
            generate_points(300, 4, seed=2), points_format(4), make_stores(),
            prefetch=True, pushdown="prune", min_part_nbytes=0,
            chunk_cache=cache,
        )
        assert session.cache is cache
        assert session.options == EngineOptions(
            batch_size=2, prefetch=True, pushdown="prune", min_part_nbytes=0,
            chunk_cache=cache,
        )

    def test_cache_mb_and_chunk_cache_conflict(self, points):
        with pytest.raises(TypeError, match="not both"):
            BurstingSession.from_units(
                points, points_format(4), make_stores(),
                cache_mb=1, chunk_cache=ChunkCache(1 << 20),
            )

    def test_unknown_field_rejected(self, points):
        with pytest.raises(TypeError):
            BurstingSession.from_units(
                points, points_format(4), make_stores(), no_such_option=1
            )

    def test_unknown_engine_rejected_at_construction(self, points):
        with pytest.raises(ValueError, match="unknown engine"):
            BurstingSession.from_units(
                points, points_format(4), make_stores(), engine="warp"
            )

    def test_unknown_crash_worker_rejected_at_construction(self, points):
        with pytest.raises(ValueError, match="unknown workers"):
            BurstingSession.from_units(
                points, points_format(4), make_stores(),
                crash_plan={"cloud-w9": 1},
            )
