"""Unit tests for the bursting drivers."""

import numpy as np
import pytest

from repro.apps.kmeans import lloyd_step
from repro.apps.knn import KnnSpec, knn_exact
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.bursting import driver
from repro.bursting.config import EnvironmentConfig
from repro.bursting.session import BurstingSession
from repro.bursting.driver import (
    paper_index,
    run_paper_sweep,
    run_scalability_sweep,
    run_threaded_bursting,
)
from repro.data.formats import tokens_format
from repro.data.generator import generate_points, generate_tokens
from repro.sim.calibration import (
    APP_PROFILES,
    PAPER_DATASET_NBYTES,
    PAPER_N_FILES,
    PAPER_N_JOBS,
)
from repro.storage.cache import ChunkCache
from repro.storage.health import BreakerPolicy, HedgePolicy
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryPolicy


class TestPaperIndex:
    def test_layout_matches_paper(self):
        idx = paper_index(APP_PROFILES["knn"], EnvironmentConfig("l", 1.0, 32, 0))
        assert len(idx.files) == PAPER_N_FILES
        assert len(idx.chunks) == PAPER_N_JOBS
        assert idx.nbytes == pytest.approx(PAPER_DATASET_NBYTES, rel=0.001)

    def test_placement_follows_env(self):
        idx = paper_index(APP_PROFILES["knn"], EnvironmentConfig("h", 1 / 3, 16, 16))
        local_bytes = sum(f.nbytes for f in idx.files if f.location == "local")
        assert local_bytes / idx.nbytes == pytest.approx(1 / 3, abs=0.05)

    def test_all_cloud_placement(self):
        idx = paper_index(APP_PROFILES["pagerank"], EnvironmentConfig("c", 0.0, 0, 32))
        assert idx.locations == ["cloud"]


class TestSweeps:
    def test_paper_sweep_has_five_envs(self):
        res = run_paper_sweep("knn")
        assert set(res) == {"env-local", "env-cloud", "env-50/50", "env-33/67", "env-17/83"}

    def test_scalability_sweep_has_four_configs(self):
        res = run_scalability_sweep("knn")
        assert list(res) == ["(4,4)", "(8,8)", "(16,16)", "(32,32)"]

    def test_scalability_monotone(self):
        res = run_scalability_sweep("kmeans")
        totals = [r.total_s for r in res.values()]
        assert totals == sorted(totals, reverse=True)

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            run_paper_sweep("nosuchapp")


class TestThreadedBursting:
    def test_knn_end_to_end(self):
        pts = generate_points(3000, 4, seed=31)
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        q = np.full(4, 0.4)
        rr = run_threaded_bursting(
            KnnSpec(q, 5), pts, stores, local_fraction=0.4,
            local_workers=2, cloud_workers=2,
        )
        ref = knn_exact(pts, q, 5)
        np.testing.assert_allclose([x[0] for x in rr.result], [r[0] for r in ref])
        assert rr.stats.jobs_processed > 0

    def test_kmeans_all_cloud_data(self):
        from repro.apps.kmeans import KMeansSpec

        pts = generate_points(2000, 4, seed=32)
        cents = generate_points(3, 4, seed=33)
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        rr = run_threaded_bursting(
            KMeansSpec(cents), pts, stores, local_fraction=0.0,
            local_workers=1, cloud_workers=2,
        )
        ref = lloyd_step(pts, cents)
        np.testing.assert_allclose(rr.result.centroids, ref.centroids)

    def test_requires_both_stores(self):
        pts = generate_points(100, 4, seed=1)
        with pytest.raises(ValueError):
            run_threaded_bursting(
                KnnSpec(np.zeros(4), 3), pts, {"local": MemoryStore("local")}
            )

    def test_same_options_as_the_session(self, monkeypatch):
        """The driver and the session turn the same field keywords into
        equal EngineOptions."""
        fields = dict(
            prefetch=True, chunk_cache=ChunkCache(1 << 20),
            retry=RetryPolicy(max_attempts=3), crash_plan={"cloud-w1": 2},
            hedge=HedgePolicy(), breaker=BreakerPolicy(), min_part_nbytes=0,
            pushdown="prune",
        )
        built = []

        class Spy(BurstingSession):
            def run(self, spec):
                built.append(self.options)
                return super().run(spec)

        monkeypatch.setattr(driver, "BurstingSession", Spy)
        tokens = generate_tokens(5000, 100, seed=4)
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        rr = run_threaded_bursting(WordCountSpec(), tokens, stores, **fields)
        assert rr.result == wordcount_exact(tokens)
        session = BurstingSession.from_units(
            tokens, tokens_format(), {"local": MemoryStore("local"),
                                      "cloud": MemoryStore("cloud")},
            **fields,
        )
        assert built == [session.options]
