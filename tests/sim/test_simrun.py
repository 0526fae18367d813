"""Unit/integration tests for the simulated bursting runs."""

import pytest

from repro.bursting.config import EnvironmentConfig
from repro.bursting.driver import paper_index, simulate_environment
from repro.runtime.scheduler import RandomScheduler
from repro.sim.calibration import APP_PROFILES, PAPER_N_JOBS, ResourceParams
from repro.sim.simrun import SimClusterConfig, simulate_run


@pytest.fixture
def knn_profile():
    return APP_PROFILES["knn"]


def small_env(local_frac=0.5, local=4, cloud=4):
    return EnvironmentConfig("test", local_frac, local, cloud)


class TestSimulateRun:
    def test_all_jobs_processed(self, knn_profile):
        res = simulate_environment("knn", small_env())
        assert res.stats.jobs_processed == PAPER_N_JOBS

    def test_deterministic_for_seed(self):
        a = simulate_environment("knn", small_env(), seed=3)
        b = simulate_environment("knn", small_env(), seed=3)
        assert a.total_s == b.total_s

    def test_seed_changes_variability(self):
        a = simulate_environment("knn", small_env(), seed=1)
        b = simulate_environment("knn", small_env(), seed=2)
        assert a.total_s != b.total_s

    def test_sync_consistency(self):
        """Per-worker sync = end - finish; totals are internally consistent."""
        res = simulate_environment("kmeans", small_env())
        for c in res.stats.clusters.values():
            for w in c.workers:
                assert w.sync_s == pytest.approx(res.total_s - w.finished_at)
                assert w.processing_s > 0
                assert w.retrieval_s > 0

    def test_global_reduction_positive(self):
        res = simulate_environment("pagerank", small_env())
        assert res.stats.global_reduction_s > 0
        assert res.stats.processing_end_s < res.total_s

    def test_single_cluster_no_idle(self):
        res = simulate_environment("knn", EnvironmentConfig("solo", 1.0, 8, 0))
        (c,) = res.stats.clusters.values()
        assert c.idle_s == 0.0

    def test_cloud_only_head_in_cloud(self):
        """All-cloud runs pay no WAN for the reduction object."""
        res = simulate_environment("pagerank", EnvironmentConfig("c", 0.0, 0, 8))
        (c,) = res.stats.clusters.values()
        # robj transfer is intra-site: only combination cost remains in
        # global reduction, and the upload itself is free.
        assert c.robj_transfer_s == pytest.approx(0.0, abs=1e-9)

    def test_hybrid_head_local_charges_cloud_upload(self):
        res = simulate_environment("pagerank", small_env())
        assert res.stats.clusters["cloud"].robj_transfer_s > 0
        assert res.stats.clusters["local"].robj_transfer_s == pytest.approx(0.0, abs=1e-9)

    def test_custom_scheduler(self):
        res = simulate_environment(
            "knn", small_env(), scheduler_factory=lambda jobs: RandomScheduler(jobs, seed=0)
        )
        assert res.stats.jobs_processed == PAPER_N_JOBS

    def test_requires_clusters(self, knn_profile):
        idx = paper_index(knn_profile, small_env())
        with pytest.raises(ValueError):
            simulate_run(idx, [], knn_profile)


class TestStealingBehaviour:
    def test_skew_increases_stealing(self):
        balanced = simulate_environment("knn", small_env(0.5))
        skewed = simulate_environment("knn", small_env(1 / 6))
        assert (
            skewed.stats.clusters["local"].jobs_stolen
            > balanced.stats.clusters["local"].jobs_stolen
        )

    def test_stolen_jobs_marked(self):
        res = simulate_environment("knn", EnvironmentConfig("x", 0.0, 4, 4))
        local = res.stats.clusters["local"]
        assert local.jobs_stolen == local.jobs_processed  # all data remote

    def test_retrieval_grows_with_remote_share(self):
        r50 = simulate_environment("knn", small_env(0.5, 16, 16))
        r17 = simulate_environment("knn", small_env(1 / 6, 16, 16))
        assert (
            r17.stats.clusters["local"].retrieval_s
            > r50.stats.clusters["local"].retrieval_s
        )


class TestResourceSensitivity:
    def test_slower_wan_hurts_skewed_runs(self):
        slow = ResourceParams().scaled(wan_bw=10 * (1 << 20))
        fast = ResourceParams().scaled(wan_bw=400 * (1 << 20))
        t_slow = simulate_environment("knn", small_env(1 / 6), slow).total_s
        t_fast = simulate_environment("knn", small_env(1 / 6), fast).total_s
        assert t_slow > t_fast

    def test_more_cores_faster(self):
        small = simulate_environment("kmeans", small_env(0.5, 4, 4))
        big = simulate_environment("kmeans", small_env(0.5, 16, 16))
        assert big.total_s < small.total_s

    def test_bigger_robj_more_global_reduction(self):
        prof = APP_PROFILES["pagerank"]
        env = small_env()
        idx = paper_index(prof, env)
        params = ResourceParams()
        clusters = env.clusters(params)
        small_prof = type(prof)(
            name="pr-small", unit_nbytes=prof.unit_nbytes,
            compute_s_per_unit=prof.compute_s_per_unit, robj_nbytes=1024,
        )
        big = simulate_run(idx, clusters, prof, params, seed=0)
        small = simulate_run(idx, clusters, small_prof, params, seed=0)
        assert big.stats.global_reduction_s > small.stats.global_reduction_s


class TestFixedFanOut:
    """Every uncached fetch fans out to the cluster's ``retrieval_threads``
    connections, the paper's multi-threaded retrieval: one cloud core
    reading cloud data pays one request latency per chunk plus the bytes
    at ``threads`` x the per-connection ceiling."""

    @pytest.mark.parametrize("threads", [1, 2, 4, 8, 16])
    def test_retrieval_is_latency_plus_bytes_over_the_fan_out(self, knn_profile, threads):
        params = ResourceParams()
        env = EnvironmentConfig("cloud-solo", 0.0, 0, 1)
        idx = paper_index(knn_profile, env)
        res = simulate_run(
            idx, env.clusters(params, retrieval_threads=threads), knn_profile,
            params, seed=0,
        )
        (cluster,) = res.stats.clusters.values()
        nbytes = sum(c.nbytes for c in idx.chunks)
        expected = (
            len(idx.chunks) * params.s3_request_latency_s
            + nbytes / (params.s3_per_connection_bw * threads)
        )
        assert cluster.retrieval_s == pytest.approx(expected, rel=1e-9)
