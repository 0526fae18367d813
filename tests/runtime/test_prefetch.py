"""Tests for the prefetch pipeline, fail-fast shutdown, and master refill."""

import threading
import time

import numpy as np
import pytest

from repro.apps.kmeans import KMeansSpec
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.formats import points_format, tokens_format
from repro.data.generator import generate_points, generate_tokens
from repro.runtime import make_engine
from repro.runtime.engine import ClusterConfig, ThreadedEngine
from repro.storage.cache import ChunkCache
from repro.storage.local import MemoryStore
from repro.storage.s3 import S3Profile, SimulatedS3Store
from tests.masters import MASTERS, make_master


def split_dataset(units, fmt, stores, local_frac=0.5, n_files=6, chunk_units=200):
    idx = write_dataset(
        units, fmt, stores["local"], n_files=n_files, chunk_units=chunk_units
    )
    fractions = {}
    if local_frac > 0:
        fractions["local"] = local_frac
    if local_frac < 1:
        fractions["cloud"] = 1 - local_frac
    return distribute_dataset(idx, stores, fractions, stores["local"])


def latency_stores(latency_s=0.002):
    return {
        "local": MemoryStore(location="local"),
        "cloud": SimulatedS3Store(
            profile=S3Profile(request_latency_s=latency_s)
        ),
    }


class TestPrefetchCorrectness:
    def test_wordcount_exact_with_prefetch(self, tokens, stores):
        idx = split_dataset(tokens, tokens_format(), stores)
        engine = ThreadedEngine(
            [
                ClusterConfig("local", "local", 2),
                ClusterConfig("cloud", "cloud", 2),
            ],
            stores,
            prefetch=True,
        )
        rr = engine.run(WordCountSpec(), idx)
        assert rr.result == wordcount_exact(tokens)
        assert rr.stats.jobs_processed == len(idx.chunks)

    def test_results_bit_identical_prefetch_on_vs_off(self, points, stores):
        """One worker folds identical groups in identical order."""
        idx = split_dataset(points, points_format(4), stores, local_frac=0.0)
        cents = generate_points(4, 4, seed=5)
        cluster = [ClusterConfig("cloud", "cloud", 1)]
        off = ThreadedEngine(cluster, stores).run(KMeansSpec(cents), idx)
        on = ThreadedEngine(cluster, stores, prefetch=True).run(
            KMeansSpec(cents), idx
        )
        assert np.array_equal(off.result.centroids, on.result.centroids)
        assert np.array_equal(off.robj.data, on.robj.data)

    def test_prefetch_stats_populated(self, tokens):
        stores = latency_stores()
        idx = split_dataset(tokens, tokens_format(), stores, local_frac=0.0)
        engine = ThreadedEngine(
            [ClusterConfig("cloud", "cloud", 1)], stores, prefetch=True
        )
        rr = engine.run(WordCountSpec(), idx)
        (w,) = rr.stats.clusters["cloud"].workers
        # Every job, the first included, is awaited out of the window.
        assert w.prefetch_hits + w.prefetch_misses == w.jobs_processed
        assert w.overlap_s >= 0.0
        assert w.retrieval_s >= 0.0
        assert w.cache_hits == 0
        assert w.cache_misses == w.jobs_processed

    def test_pipeline_rows_surface_counters(self, tokens):
        stores = latency_stores()
        idx = split_dataset(tokens, tokens_format(), stores, local_frac=0.0)
        engine = ThreadedEngine(
            [ClusterConfig("cloud", "cloud", 2)], stores, prefetch=True
        )
        rr = engine.run(WordCountSpec(), idx)
        (row,) = rr.stats.pipeline_rows()
        assert row["cluster"] == "cloud"
        assert row["prefetch_hits"] + row["prefetch_misses"] > 0
        assert row["cache_misses"] == rr.stats.jobs_processed

    @pytest.mark.parametrize("codec", ["zlib", "shuffle"])
    def test_n_copies_independent_of_prefetch(self, tokens, codec):
        """Every coded chunk is inflated exactly once, prefetched or not:
        the prefetch hop must carry the fetch's whole accounting."""
        stores = latency_stores(0.0)
        idx = write_dataset(
            tokens, tokens_format(), stores["local"], n_files=6,
            chunk_units=200, codec=codec,
        )
        idx = distribute_dataset(
            idx, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
        )
        clusters = [
            ClusterConfig("local", "local", 2),
            ClusterConfig("cloud", "cloud", 1),
        ]
        for prefetch in (False, True):
            rr = make_engine("threaded", clusters, stores, prefetch=prefetch).run(
                WordCountSpec(), idx
            )
            assert rr.result == wordcount_exact(tokens)
            assert rr.stats.jobs_processed == len(idx.chunks)
            assert rr.stats.n_copies == rr.stats.jobs_processed, (
                f"{codec}/prefetch={prefetch}"
            )
            assert rr.stats.bytes_logical == tokens.nbytes


class TestChunkCache:
    def test_second_pass_hits_cache(self, tokens, stores):
        idx = split_dataset(tokens, tokens_format(), stores)
        cache = ChunkCache(64 << 20)
        engine = ThreadedEngine(
            [
                ClusterConfig("local", "local", 2),
                ClusterConfig("cloud", "cloud", 2),
            ],
            stores,
            chunk_cache=cache,
        )
        first = engine.run(WordCountSpec(), idx)
        assert first.stats.cache_hits == 0
        second = engine.run(WordCountSpec(), idx)
        assert second.result == first.result == wordcount_exact(tokens)
        assert second.stats.cache_hits == len(idx.chunks)
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hit_rate == 1.0

    def test_cache_with_prefetch(self, tokens, stores):
        idx = split_dataset(tokens, tokens_format(), stores, local_frac=0.0)
        cache = ChunkCache(64 << 20)
        engine = ThreadedEngine(
            [ClusterConfig("cloud", "cloud", 2)],
            stores,
            prefetch=True,
            chunk_cache=cache,
        )
        engine.run(WordCountSpec(), idx)
        rr = engine.run(WordCountSpec(), idx)
        assert rr.result == wordcount_exact(tokens)
        assert rr.stats.cache_hits == len(idx.chunks)


class _PoisonSpec(WordCountSpec):
    """Raises after ``after`` local reductions (across all workers)."""

    def __init__(self, after: int) -> None:
        super().__init__()
        self._after = after
        self._calls = 0
        self._lock = threading.Lock()

    def local_reduction(self, robj, group):
        with self._lock:
            self._calls += 1
            if self._calls > self._after:
                raise RuntimeError("poisoned group")
        super().local_reduction(robj, group)


class TestFailFast:
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_worker_error_aborts_run_promptly(self, tokens, prefetch):
        stores = latency_stores(latency_s=0.02)
        idx = split_dataset(
            tokens, tokens_format(), stores, local_frac=0.0,
            n_files=8, chunk_units=50,
        )
        n_jobs = len(idx.chunks)
        assert n_jobs >= 20  # enough left to skip for the timing check
        engine = ThreadedEngine(
            [ClusterConfig("cloud", "cloud", 2)],
            stores,
            prefetch=prefetch,
            group_nbytes=1 << 30,  # one group per chunk
        )
        spec = _PoisonSpec(after=3)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="poisoned group"):
            engine.run(spec, idx)
        elapsed = time.monotonic() - t0
        # Draining all the jobs serially would cost >= n_jobs * 20ms per
        # worker; the stop event must abort far sooner than that.
        assert elapsed < n_jobs * 0.02 * 0.5


class TestMasterRefill:
    @pytest.mark.parametrize("kind", MASTERS)
    def test_concurrent_requesters_overlap_link_latency(self, tokens, stores, kind):
        """The head RTT is paid outside the refill lock, so two workers
        asking simultaneously wait ~1 RTT, not 2."""
        idx = split_dataset(tokens, tokens_format(), stores, local_frac=1.0)
        latency = 0.15
        cluster = ClusterConfig("local", "local", 2, link_latency_s=latency)
        master, _ = make_master(kind, cluster, idx, batch_size=4)
        results = []

        def ask():
            results.append(master.get_job())

        threads = [threading.Thread(target=ask) for _ in range(2)]
        t0 = time.monotonic()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        elapsed = time.monotonic() - t0
        assert all(j is not None for j in results)
        assert elapsed < 1.8 * latency  # serialized RTTs would be >= 2x
