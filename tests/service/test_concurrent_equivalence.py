"""Concurrent-jobs equivalence: the service matches sequential runs.

The acceptance gate for the multi-tenant refactor: K jobs submitted
concurrently to one :class:`BurstingService` must produce the same
results as K one-shot engine runs executed sequentially -- on every
engine backend, for mixed applications, and under an injected worker
crash.  Wordcount (integer fold) must match bit-identically; kmeans
(float fold) matches to within accumulation-order tolerance, exactly
as the existing engine-equivalence matrix specifies.
"""

import numpy as np
import pytest

from repro.apps.kmeans import KMeansSpec
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.generator import generate_points, generate_tokens
from repro.runtime import ClusterConfig, make_engine
from repro.service import BurstingService, JobState, TenantConfig
from repro.storage.local import MemoryStore
from repro.storage.s3 import S3Profile, SimulatedS3Store

ENGINES = ("threaded", "process")

CLUSTERS = [
    ClusterConfig("local", "local", 2, 2),
    ClusterConfig("cloud", "cloud", 2, 2),
]


def build_env():
    """One store map holding two datasets (wordcount + kmeans)."""
    stores = {
        "local": MemoryStore("local"),
        "cloud": SimulatedS3Store(profile=S3Profile.unthrottled()),
    }
    toks = generate_tokens(9000, 250, seed=71)
    wspec = WordCountSpec()
    windex = write_dataset(
        toks, wspec.fmt, stores["local"], n_files=4,
        chunk_units=max(1, len(toks) // 12), key_prefix="wc",
    )
    windex = distribute_dataset(
        windex, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
    )
    pts = generate_points(2400, 4, n_clusters=3, spread=0.08, seed=72)
    kspec = KMeansSpec(pts[:3].copy())
    kindex = write_dataset(
        pts, kspec.fmt, stores["local"], n_files=4,
        chunk_units=max(1, len(pts) // 12), key_prefix="km",
    )
    kindex = distribute_dataset(
        kindex, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
    )
    # K=4 mixed jobs across two tenants.
    workload = [
        ("wordcount", wspec, windex, "analytics"),
        ("kmeans", kspec, kindex, "ingest"),
        ("wordcount", wspec, windex, "ingest"),
        ("kmeans", kspec, kindex, "analytics"),
    ]
    ref_w = wordcount_exact(toks)
    return stores, workload, ref_w


def assert_job_matches(app, got, want, label):
    if app == "wordcount":
        assert got.result == want.result, f"{label}: wordcount diverged"
    else:
        np.testing.assert_allclose(
            got.result.centroids, want.result.centroids,
            err_msg=f"{label}: centroids diverged",
        )
        np.testing.assert_array_equal(
            got.result.counts, want.result.counts,
            err_msg=f"{label}: counts diverged",
        )
    assert got.stats.jobs_processed == want.stats.jobs_processed, (
        f"{label}: job accounting diverged"
    )


@pytest.mark.parametrize("engine", ENGINES)
class TestConcurrentMatchesSequential:
    def test_k_concurrent_jobs_match_k_sequential_runs(self, engine):
        stores, workload, ref_w = build_env()
        sequential = [
            make_engine(engine, CLUSTERS, stores, batch_size=2).run(spec, index)
            for _, spec, index, _ in workload
        ]
        service = BurstingService(
            CLUSTERS, stores, engine=engine, batch_size=2,
            tenants={
                "analytics": TenantConfig(weight=2.0),
                "ingest": TenantConfig(weight=1.0),
            },
        )
        try:
            handles = [
                service.submit(spec, index, tenant=tenant)
                for _, spec, index, tenant in workload
            ]
            results = [h.result(timeout=60) for h in handles]
        finally:
            service.shutdown()
        for (app, _, _, _), got, want, h in zip(
            workload, results, sequential, handles
        ):
            assert h.status() is JobState.DONE
            assert_job_matches(app, got, want, f"{engine}/{app}/{h.run_id}")
        assert sequential[0].result == ref_w  # sanity: reference is exact

    def test_concurrent_jobs_survive_worker_crash(self, engine):
        stores, workload, ref_w = build_env()
        opts = dict(
            batch_size=2, crash_plan={"cloud-w0": 0}, min_part_nbytes=0,
        )
        sequential = [
            make_engine(engine, CLUSTERS, stores, **opts).run(spec, index)
            for _, spec, index, _ in workload
        ]
        service = BurstingService(CLUSTERS, stores, engine=engine, **opts)
        try:
            handles = [
                service.submit(spec, index, tenant=tenant)
                for _, spec, index, tenant in workload
            ]
            results = [h.result(timeout=60) for h in handles]
        finally:
            service.shutdown()
        for (app, _, _, _), got, want, h in zip(
            workload, results, sequential, handles
        ):
            assert_job_matches(
                app, got, want, f"{engine}/crash/{app}/{h.run_id}"
            )
        # The crash happened and was contained.
        total_failed = sum(r.stats.n_failed_workers for r in results)
        assert total_failed >= 1
        if engine == "threaded":
            # One shared fleet: the worker dies once, in exactly one
            # job's fault rows -- per-job fault isolation.
            assert total_failed == 1
            crashed = [
                r for r in results if r.stats.n_failed_workers
            ]
            assert len(crashed) == 1
            assert crashed[0].stats.jobs_recovered >= 1
            for r in results:
                if r is not crashed[0]:
                    assert r.stats.n_failed_workers == 0

    def test_per_job_stats_isolation(self, engine):
        """Each job's RunStats accounts exactly its own chunks."""
        stores, workload, _ = build_env()
        service = BurstingService(CLUSTERS, stores, engine=engine, batch_size=2)
        try:
            handles = [
                service.submit(spec, index, tenant=tenant)
                for _, spec, index, tenant in workload
            ]
            results = [h.result(timeout=60) for h in handles]
        finally:
            service.shutdown()
        for (_, _, index, _), r in zip(workload, results):
            assert r.stats.jobs_processed == len(index.chunks)
            per_cluster = [
                c.jobs_processed for c in r.stats.clusters.values()
            ]
            assert sum(per_cluster) == len(index.chunks)
