"""Engine equivalence: both executors compute the same answers.

The threaded and process engines implement the same
head/master/slave protocol over the same scheduler, the same fold step
(:func:`~repro.runtime.core.decode_and_fold`) and the same run
epilogue, behind the same :class:`EngineOptions` surface: a threaded
run is one job on a one-run service, whose fleet worker is the only
in-process worker loop.  For every application, data
placement, and feature combination (prefetch, chunk cache, retries
under injected faults, worker crashes) they must produce identical
results and account every job exactly once -- no job lost, none
double-folded, regardless of which side of the process boundary the
fold ran on.
"""

import numpy as np
import pytest

from repro.apps.kmeans import KMeansSpec, lloyd_step
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.generator import generate_points, generate_tokens
from repro.runtime import ClusterConfig, EngineOptions, make_engine
from repro.storage.cache import ChunkCache
from repro.storage.faults import FaultInjectingStore, FaultSpec
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryPolicy
from repro.storage.s3 import S3Profile, SimulatedS3Store

from tests.runtime.test_process_engine import paced

ENGINES = ("threaded", "process")

#: local_fraction -> placement label used in test ids.
PLACEMENTS = {"local-only": 1.0, "hybrid": 0.5, "cloud-only": 0.0}


def build_env(units, fmt, local_fraction):
    stores = {
        "local": MemoryStore("local"),
        "cloud": SimulatedS3Store(profile=S3Profile.unthrottled()),
    }
    index = write_dataset(
        units, fmt, stores["local"], n_files=4,
        chunk_units=max(1, len(units) // 12),
    )
    fractions = {}
    if local_fraction > 0:
        fractions["local"] = local_fraction
    if local_fraction < 1:
        fractions["cloud"] = 1.0 - local_fraction
    index = distribute_dataset(index, stores, fractions, stores["local"])
    clusters = [
        ClusterConfig("local", "local", 2, 2),
        ClusterConfig("cloud", "cloud", 2, 2),
    ]
    return stores, index, clusters


def run_engine(name, spec, stores, index, clusters):
    return make_engine(name, clusters, stores, batch_size=2).run(spec, index)


@pytest.mark.parametrize("placement", PLACEMENTS, ids=PLACEMENTS.keys())
class TestAllEnginesAgree:
    def test_wordcount_identical_counts(self, placement):
        toks = generate_tokens(12000, 300, seed=61)
        spec = WordCountSpec()
        stores, index, clusters = build_env(
            toks, spec.fmt, PLACEMENTS[placement]
        )
        ref = wordcount_exact(toks)
        n_jobs = len(index.chunks)
        for name in ENGINES:
            rr = run_engine(name, spec, stores, index, clusters)
            assert rr.result == ref, f"{name} wordcount diverged"
            assert rr.stats.jobs_processed == n_jobs, (
                f"{name}: {rr.stats.jobs_processed} jobs for {n_jobs} chunks"
            )

    def test_kmeans_identical_step(self, placement):
        pts = generate_points(2400, 4, n_clusters=3, spread=0.08, seed=62)
        cents = generate_points(3, 4, seed=63)
        spec = KMeansSpec(cents)
        stores, index, clusters = build_env(
            pts, spec.fmt, PLACEMENTS[placement]
        )
        ref = lloyd_step(pts, cents)
        n_jobs = len(index.chunks)
        for name in ENGINES:
            rr = run_engine(name, spec, stores, index, clusters)
            np.testing.assert_allclose(
                rr.result.centroids, ref.centroids,
                err_msg=f"{name} centroids diverged",
            )
            np.testing.assert_array_equal(rr.result.counts, ref.counts)
            assert rr.stats.jobs_processed == n_jobs


class TestExactlyOnceUnderStealing:
    def test_jobs_partition_across_clusters(self):
        """Per-cluster job counts sum to the total with no overlap even
        when one side steals (cloud-only placement, local workers idle
        or stealing)."""
        toks = generate_tokens(9000, 200, seed=64)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt, 0.0)
        n_jobs = len(index.chunks)
        for name in ENGINES:
            rr = run_engine(name, spec, stores, index, clusters)
            per_cluster = [
                c.jobs_processed for c in rr.stats.clusters.values()
            ]
            assert sum(per_cluster) == n_jobs
            assert rr.result == wordcount_exact(toks)


#: Feature combinations of the unified option surface; every engine
#: must produce bit-identical wordcounts under each of them.
FEATURES = {
    "plain": {},
    "prefetch": dict(prefetch=True),
    "cache": dict(chunk_cache=None),  # fresh ChunkCache built per run
    "prefetch-cache": dict(prefetch=True, chunk_cache=None),
    "crash": dict(crash_plan={"cloud-w0": 0}),
    "crash-prefetch": dict(prefetch=True, crash_plan={"cloud-w0": 0}),
}

FAST_RETRY = RetryPolicy(max_attempts=8, base_delay_s=0.0, max_delay_s=0.0)


@pytest.mark.parametrize("feature", FEATURES, ids=FEATURES.keys())
class TestFeatureMatrix:
    """(engine) x (prefetch, cache, crash_plan): same results, same counts."""

    def test_identical_results_and_exactly_once(self, feature):
        toks = generate_tokens(10000, 250, seed=65)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt, 0.5)
        ref = wordcount_exact(toks)
        n_jobs = len(index.chunks)
        for name in ENGINES:
            opts = dict(FEATURES[feature])
            if "chunk_cache" in opts:
                opts["chunk_cache"] = ChunkCache(64 << 20)
            # A crash plan needs the doomed worker to claim a job before
            # the run drains; the fold is far too quick to rely on, so
            # every GET takes 3 ms and all four workers hold a batch
            # before the first one finishes.
            run_stores = paced(stores, 0.003 if "crash_plan" in opts else 0.0)
            rr = make_engine(
                name, clusters, run_stores, batch_size=2, **opts
            ).run(spec, index)
            assert rr.result == ref, f"{name}/{feature} diverged"
            assert rr.stats.jobs_processed == n_jobs, (
                f"{name}/{feature}: {rr.stats.jobs_processed} jobs "
                f"for {n_jobs} chunks"
            )
            if "crash_plan" in opts:
                # The crashed worker's in-flight job was requeued and
                # re-executed by a survivor -- never lost, never folded
                # twice (jobs_processed above counts each chunk once).
                assert rr.stats.n_failed_workers == 1, f"{name}/{feature}"
                assert rr.stats.n_requeued_jobs >= 1, f"{name}/{feature}"


class TestCacheAcrossPasses:
    def test_second_pass_hits_cache_on_all_engines(self):
        toks = generate_tokens(8000, 200, seed=66)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt, 0.5)
        ref = wordcount_exact(toks)
        for name in ENGINES:
            cache = ChunkCache(64 << 20)
            engine = make_engine(
                name, clusters, stores, batch_size=2, chunk_cache=cache
            )
            first = engine.run(spec, index)
            second = engine.run(spec, index)
            assert first.result == ref and second.result == ref
            assert second.stats.cache_hits == len(index.chunks), (
                f"{name}: second pass should be all cache hits"
            )


class TestRetryUnderFaultsMatrix:
    def test_transient_faults_retried_identically(self):
        """Seeded transient faults on the cloud store: every engine
        retries through them and lands on the exact same counts."""
        toks = generate_tokens(10000, 250, seed=67)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt, 0.5)
        ref = wordcount_exact(toks)
        n_jobs = len(index.chunks)
        for name in ENGINES:
            faulty = FaultInjectingStore(
                stores["cloud"], FaultSpec.parse("transient:p=0.3,seed=9")
            )
            run_stores = dict(stores, cloud=faulty)
            rr = make_engine(
                name, clusters, run_stores, batch_size=2,
                retry=FAST_RETRY, prefetch=True,
            ).run(spec, index)
            assert rr.result == ref, f"{name} diverged under faults"
            assert rr.stats.jobs_processed == n_jobs
            injected = faulty.injection_counts()
            assert injected["transient"] > 0, (
                f"{name}: fault injector never fired -- test is vacuous"
            )
            # Every injected fault is one retry or one giveup in the
            # ledger of the fetch it hit, on every engine.
            assert rr.stats.n_retries + rr.stats.n_errors == injected["transient"]


class TestReplicaOutageMatrix:
    def test_store_down_with_replicas_identical_results(self):
        """One of two replica stores hard-down: every engine fails over
        to the surviving replica, completes with zero failed workers,
        and produces bit-identical counts."""
        from repro.data.dataset import replicate_dataset
        from repro.storage.health import BreakerPolicy

        toks = generate_tokens(10000, 250, seed=71)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt, 0.5)
        index = replicate_dataset(index, stores, n_replicas=1)
        ref = wordcount_exact(toks)
        n_jobs = len(index.chunks)
        cloud_chunks = sum(1 for c in index.chunks if c.location == "cloud")
        assert cloud_chunks > 0
        for name in ENGINES:
            # Fresh injector per engine: counters prove the chaos fired.
            dead = FaultInjectingStore(
                stores["cloud"], FaultSpec(permanent_keys=("part",))
            )
            run_stores = dict(stores, cloud=dead)
            rr = make_engine(
                name, clusters, run_stores, batch_size=2,
                retry=FAST_RETRY, breaker=BreakerPolicy(recovery_s=60.0),
            ).run(spec, index)
            assert rr.result == ref, f"{name} diverged with a store down"
            assert rr.stats.jobs_processed == n_jobs
            assert rr.stats.n_failed_workers == 0, (
                f"{name}: failover should contain the outage without "
                f"sacrificing workers"
            )
            assert rr.stats.n_failovers > 0, f"{name}: no failovers recorded"
            assert dead.injection_counts()["permanent"] > 0, (
                f"{name}: fault injector never fired -- test is vacuous"
            )
            # Once the breaker opens, failover puts the live replica
            # first: the dead store must not be tried for every chunk.
            assert dead.injection_counts()["permanent"] < cloud_chunks, (
                f"{name}: dead store tried first for all {cloud_chunks} "
                f"cloud-primary chunks -- breakers ignored on failover"
            )

    def test_hedge_option_accepted_by_every_engine(self):
        """Replicated dataset + hedge policy: identical results on all
        engines (stalls are injected seeded, so any hedges that fire
        race byte-identical replicas)."""
        from repro.data.dataset import replicate_dataset
        from repro.storage.health import HedgePolicy

        toks = generate_tokens(8000, 200, seed=72)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt, 0.5)
        index = replicate_dataset(index, stores, n_replicas=1)
        ref = wordcount_exact(toks)
        for name in ENGINES:
            stalled = FaultInjectingStore(
                stores["cloud"],
                FaultSpec(stall_p=0.5, stall_s=0.02, seed=73),
            )
            run_stores = dict(stores, cloud=stalled)
            rr = make_engine(
                name, clusters, run_stores, batch_size=2,
                hedge=HedgePolicy(min_threshold_s=0.005),
            ).run(spec, index)
            assert rr.result == ref, f"{name} diverged under hedging"
            assert rr.stats.jobs_processed == len(index.chunks)
            assert stalled.injection_counts()["stall"] > 0, (
                f"{name}: no stalls injected -- test is vacuous"
            )


class TestPushdownParity:
    """Metadata-first retrieval must be invisible in the answer: every
    engine produces bit-identical results with pushdown off, pruning,
    and the verify soundness guard -- while actually pruning chunks."""

    @pytest.mark.parametrize("mode", [None, "prune", "verify"],
                             ids=["off", "prune", "verify"])
    def test_filtered_wordcount_identical_across_engines_and_modes(self, mode):
        from repro.apps.filtered import (
            FilteredWordCountSpec,
            filtered_wordcount_exact,
        )

        toks = np.sort(generate_tokens(9000, 300, seed=70))
        spec = FilteredWordCountSpec(40, 99)
        stores, index, clusters = build_env(toks, spec.fmt, 0.5)
        ref = filtered_wordcount_exact(toks, 40, 99)
        baseline = None
        for name in ENGINES:
            rr = make_engine(
                name, clusters, stores, batch_size=2, pushdown=mode
            ).run(spec, index)
            assert rr.result == ref, f"{name}/pushdown={mode} diverged"
            if baseline is None:
                baseline = rr.result
            assert rr.result == baseline
            if mode is None:
                assert rr.stats.n_pruned_chunks == 0
                assert rr.stats.jobs_processed == len(index.chunks)
            else:
                assert rr.stats.n_pruned_chunks > 0, (
                    f"{name}: sorted data must let pruning fire"
                )
                assert rr.stats.jobs_processed == (
                    len(index.chunks) - rr.stats.n_pruned_chunks
                )


class TestOptionsValidationParity:
    """All engines validate identically through EngineOptions."""

    @pytest.fixture()
    def env(self):
        toks = generate_tokens(3000, 100, seed=68)
        return build_env(toks, WordCountSpec().fmt, 0.5)

    @pytest.mark.parametrize("name", ENGINES)
    def test_unknown_crash_target_rejected(self, env, name):
        stores, _index, clusters = env
        with pytest.raises(ValueError, match="crash_plan targets unknown"):
            make_engine(name, clusters, stores, crash_plan={"nope-w9": 1})

    @pytest.mark.parametrize("name", ENGINES)
    def test_duplicate_cluster_names_rejected(self, env, name):
        stores, _index, _clusters = env
        dupes = [
            ClusterConfig("same", "local", 1),
            ClusterConfig("same", "cloud", 1),
        ]
        with pytest.raises(ValueError, match="unique"):
            make_engine(name, dupes, stores)

    @pytest.mark.parametrize("name", ENGINES)
    def test_empty_clusters_rejected(self, env, name):
        stores, _index, _clusters = env
        with pytest.raises(ValueError, match="at least one cluster"):
            make_engine(name, [], stores)

    @pytest.mark.parametrize("name", ENGINES)
    def test_missing_store_rejected_at_run(self, env, name):
        _stores, index, clusters = env
        local_only = {"local": MemoryStore("local")}
        local_cluster = [ClusterConfig("local", "local", 1)]
        engine = make_engine(name, local_cluster, local_only)
        with pytest.raises(ValueError, match="unknown stores"):
            engine.run(WordCountSpec(), index)

    @pytest.mark.parametrize("name", ENGINES)
    def test_bad_batch_size_rejected(self, env, name):
        stores, _index, clusters = env
        with pytest.raises(ValueError, match="batch_size"):
            make_engine(name, clusters, stores, batch_size=0)

    def test_options_object_equivalent_to_kwargs(self, env):
        stores, index, clusters = env
        spec = WordCountSpec()
        via_kwargs = make_engine(
            "threaded", clusters, stores, batch_size=2, prefetch=True
        ).run(spec, index)
        via_options = make_engine(
            "threaded", clusters, stores,
            options=EngineOptions(batch_size=2, prefetch=True),
        ).run(spec, index)
        assert via_kwargs.result == via_options.result

    def test_options_and_kwargs_together_rejected(self, env):
        stores, _index, clusters = env
        with pytest.raises(TypeError, match="not both"):
            make_engine(
                "threaded", clusters, stores,
                options=EngineOptions(), prefetch=True,
            )


class TestVerifyChunksParity:
    """Every engine honors verify_chunks."""

    @pytest.mark.parametrize("name", ENGINES)
    def test_corruption_detected(self, name):
        from repro.data.integrity import IntegrityError, attach_checksums

        toks = generate_tokens(6000, 150, seed=69)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt, 0.5)
        index = attach_checksums(index, stores)
        # Flip one byte of a cloud-resident chunk behind the checksums.
        victim = next(c for c in index.chunks if c.location == "cloud")
        raw = bytearray(stores["cloud"].get(victim.key, 0, None))
        raw[victim.offset] ^= 0xFF
        stores["cloud"].put(victim.key, bytes(raw))
        engine = make_engine(name, clusters, stores, verify_chunks=True)
        with pytest.raises(IntegrityError):
            engine.run(spec, index)
