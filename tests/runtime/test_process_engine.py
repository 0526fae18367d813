"""ProcessEngine-specific behavior: shared-memory hygiene, crash
containment across a real process boundary, and IPC accounting.

Result equivalence with the other engines is covered by
``test_engine_equivalence.py``; these tests exercise what is unique to
running slaves as OS processes.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.apps.kmeans import KMeansSpec, lloyd_step
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.core.api import GeneralizedReductionSpec
from repro.core.reduction_object import ArrayReductionObject
from repro.data.dataset import (
    distribute_dataset,
    replicate_dataset,
    stripe_dataset,
    write_dataset,
)
from repro.data.formats import tokens_format
from repro.data.generator import generate_points, generate_tokens
from repro.data.index import DataIndex
from repro.runtime import EngineOptions, make_engine
from repro.runtime.engine import ClusterConfig
from repro.runtime.process_engine import ProcessEngine
from repro.storage.cache import ChunkCache
from repro.storage.codecs import CodecError
from repro.storage.faults import TransientStorageError
from repro.storage.health import HedgePolicy
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryPolicy
from repro.storage.s3 import S3Profile, SimulatedS3Store


def shm_entries() -> set[str]:
    """Names currently present under /dev/shm (POSIX shm segments)."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def paced(stores, latency_s):
    """Make every GET take ``latency_s`` (0 leaves the stores alone).  A
    job handed over through a recycled segment costs so little that the
    first child to warm up can fold a whole small run while its siblings
    are still being scheduled; tests that need a *particular* worker to
    reach its n-th job pace the run with this."""
    if not latency_s:
        return stores
    profile = S3Profile(request_latency_s=latency_s)
    return {
        name: SimulatedS3Store(store, profile, location=name)
        for name, store in stores.items()
    }


def build_env(units, fmt, local_fraction=0.5, cloud_store=None, latency_s=0.0):
    stores = paced({
        "local": MemoryStore("local"),
        "cloud": cloud_store
        or SimulatedS3Store(profile=S3Profile.unthrottled()),
    }, latency_s)
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


class TestSharedMemoryHygiene:
    def test_no_segments_leak_after_normal_run(self):
        toks = generate_tokens(8000, 200, seed=71)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        before = shm_entries()
        rr = ProcessEngine(clusters, stores, prefetch=True).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert shm_entries() - before == set()

    def test_no_segments_leak_after_worker_crash(self):
        toks = generate_tokens(8000, 200, seed=72)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        before = shm_entries()
        rr = ProcessEngine(
            clusters, stores, prefetch=True, crash_plan={"cloud-w0": 1}
        ).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert shm_entries() - before == set()

    def test_no_segments_leak_after_run_error(self):
        class ExplodingSpec(WordCountSpec):
            def local_reduction(self, robj, unit_group):
                raise RuntimeError("boom")

        toks = generate_tokens(4000, 100, seed=73)
        spec = ExplodingSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        before = shm_entries()
        with pytest.raises(RuntimeError, match="boom"):
            ProcessEngine(clusters, stores, prefetch=True).run(spec, index)
        assert shm_entries() - before == set()

    def test_chunk_bytes_accounted_through_shm(self):
        toks = generate_tokens(8000, 200, seed=74)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        rr = ProcessEngine(clusters, stores, prefetch=True).run(spec, index)
        total_chunk_bytes = sum(c.nbytes for c in index.chunks)
        # Every chunk crossed through shared memory at least once (robj
        # payload segments add on top).
        assert rr.stats.shm_nbytes >= total_chunk_bytes


class TestCrashContainment:
    def test_partial_robj_preserved_and_jobs_requeued(self):
        toks = generate_tokens(10000, 250, seed=75)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt, latency_s=0.003)
        rr = ProcessEngine(
            clusters, stores, prefetch=True, crash_plan={"local-w0": 2}
        ).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert rr.stats.n_failed_workers == 1
        assert rr.stats.n_requeued_jobs >= 1
        # Exactly-once: completions equal chunks despite the re-execution.
        assert rr.stats.jobs_processed == len(index.chunks)

    def test_crash_before_any_job(self):
        toks = generate_tokens(6000, 150, seed=76)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt, latency_s=0.003)
        rr = ProcessEngine(
            clusters, stores, prefetch=True, crash_plan={"cloud-w1": 0}
        ).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert rr.stats.n_failed_workers == 1

    @pytest.mark.parametrize("crash_plan", [None, {"cloud-w1": 0}], ids=["run", "crash"])
    def test_empty_numpy_payload_ships(self, crash_plan):
        """A zero-length array still pickles one (empty) out-of-band
        buffer; the parent must hand one back per declared length, also
        for a worker that dies before its first job."""

        class CountsNothing(GeneralizedReductionSpec):
            fmt = tokens_format()

            def create_reduction_object(self):
                return ArrayReductionObject((0,))

            def local_reduction(self, robj, unit_group):
                pass

        toks = generate_tokens(6000, 150, seed=83)
        spec = CountsNothing()
        stores, index, clusters = build_env(toks, spec.fmt, latency_s=0.003)
        before = shm_entries()
        rr = ProcessEngine(
            clusters, stores, prefetch=True, crash_plan=crash_plan
        ).run(spec, index)
        assert rr.robj.data.shape == (0,)
        assert rr.stats.n_failed_workers == len(crash_plan or {})
        assert rr.stats.jobs_processed == len(index.chunks)
        assert shm_entries() - before == set()

    def test_whole_cluster_dies_survivors_recover(self):
        toks = generate_tokens(8000, 200, seed=77)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt, latency_s=0.003)
        rr = ProcessEngine(
            clusters, stores, prefetch=True,
            crash_plan={"cloud-w0": 0, "cloud-w1": 1},
        ).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert rr.stats.n_failed_workers == 2
        assert rr.stats.jobs_processed == len(index.chunks)

    def test_retry_exhaustion_contained(self):
        """A fetch whose retries run dry kills only that worker: the
        failed job is requeued and re-fetched by a survivor."""

        class FlakyStore(MemoryStore):
            """Fails the first ``n`` gets with a transient error."""

            def __init__(self, name, n_failures):
                super().__init__(name)
                self.fails_left = n_failures

            def get(self, key, offset=0, nbytes=None):
                if self.fails_left > 0:
                    self.fails_left -= 1
                    raise TransientStorageError("injected transient")
                return super().get(key, offset, nbytes)

        toks = generate_tokens(8000, 200, seed=78)
        spec = WordCountSpec()
        cloud = FlakyStore("cloud", n_failures=1)
        stores, index, clusters = build_env(toks, spec.fmt, cloud_store=cloud)
        before = shm_entries()
        # max_attempts=1: the single injected failure exhausts one
        # fetch immediately and deterministically.
        rr = ProcessEngine(
            clusters, stores, prefetch=True,
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.001),
        ).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert rr.stats.n_failed_workers == 1
        assert rr.stats.n_requeued_jobs >= 1
        assert rr.stats.jobs_processed == len(index.chunks)
        assert shm_entries() - before == set()


class TestIpcAccounting:
    def test_ipc_rows_populated(self):
        pts = generate_points(2000, 4, n_clusters=3, seed=79)
        spec = KMeansSpec(generate_points(3, 4, seed=80))
        stores, index, clusters = build_env(pts, spec.fmt)
        rr = ProcessEngine(clusters, stores, prefetch=True).run(spec, index)
        np.testing.assert_allclose(
            rr.result.centroids, lloyd_step(pts, spec.centroids).centroids
        )
        rows = rr.stats.ipc_rows()
        assert {r["cluster"] for r in rows} == {"local", "cloud"}
        assert all(r["shm_nbytes"] > 0 for r in rows)
        # ser_s includes the worker-side pickle of the robj; it must be
        # measured (kmeans robjs carry real numpy payloads).
        assert sum(r["ser_s"] for r in rows) > 0

    def test_breakdown_rows_include_ipc_columns(self):
        toks = generate_tokens(5000, 120, seed=81)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        rr = ProcessEngine(clusters, stores, prefetch=True).run(spec, index)
        for row in rr.stats.breakdown_rows():
            assert "ipc_s" in row and "ser_s" in row
            assert row["total_s"] >= row["ipc_s"] + row["ser_s"]


class TestConfiguration:
    def test_unknown_crash_plan_worker_rejected(self):
        stores = {"local": MemoryStore("local")}
        clusters = [ClusterConfig("local", "local", 1)]
        with pytest.raises(ValueError, match="unknown workers"):
            ProcessEngine(clusters, stores, crash_plan={"nope-w0": 1})

    def test_duplicate_cluster_names_rejected(self):
        stores = {"local": MemoryStore("local")}
        clusters = [
            ClusterConfig("x", "local", 1),
            ClusterConfig("x", "local", 1),
        ]
        with pytest.raises(ValueError, match="unique"):
            ProcessEngine(clusters, stores)

    def test_default_options_whatever_the_entry_point(self):
        """One default per field: built bare, by name, or from
        ``EngineOptions()``, the engine holds the same options -- and so
        does not prefetch unless asked."""
        stores = {"local": MemoryStore("local")}
        clusters = [ClusterConfig("local", "local", 1)]
        bare = ProcessEngine(clusters, stores).options
        assert bare == make_engine("process", clusters, stores).options
        assert bare == EngineOptions()
        assert not bare.prefetch

    def test_prefetch_disabled_still_correct(self):
        toks = generate_tokens(6000, 150, seed=82)
        spec = WordCountSpec()
        stores, index, clusters = build_env(toks, spec.fmt)
        rr = ProcessEngine(clusters, stores, prefetch=False).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        assert rr.stats.jobs_processed == len(index.chunks)


# -- segment recycling --------------------------------------------------------


@pytest.fixture
def pools(monkeypatch):
    """Every ``SharedSegmentPool`` the engine builds, one per run."""
    import repro.runtime.process_engine as process_mod

    built = []

    class Recorded(process_mod.SharedSegmentPool):
        def __init__(self):
            super().__init__()
            self.names = set()
            self.sizes = []
            built.append(self)

        def create(self, nbytes):
            seg = super().create(nbytes)
            self.names.add(seg.name)
            self.sizes.append(nbytes)
            return seg

    monkeypatch.setattr(process_mod, "SharedSegmentPool", Recorded)
    return built


def many_chunks_env(
    units, fmt, workers=(1, 1), n_chunks=32, cloud_store=None, latency_s=0.0
):
    stores = paced({
        "local": MemoryStore("local"),
        "cloud": cloud_store or MemoryStore("cloud"),
    }, latency_s)
    index = write_dataset(
        units, fmt, stores["local"], n_files=4,
        chunk_units=-(-len(units) // n_chunks),
    )
    index = distribute_dataset(
        index, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
    )
    clusters = [
        ClusterConfig("local", "local", workers[0], 2),
        ClusterConfig("cloud", "cloud", workers[1], 2),
    ]
    return stores, index, clusters


def no_child_left() -> bool:
    import multiprocessing

    return multiprocessing.active_children() == []


class TestSegmentRecycling:
    @pytest.mark.parametrize("workers", [(1, 1), (2, 2)], ids=str)
    @pytest.mark.parametrize("prefetch", [False, True], ids=["serial", "prefetch"])
    def test_32_chunks_need_a_handful_of_segments(self, pools, workers, prefetch):
        pts = generate_points(6400, 4, n_clusters=3, seed=90)
        spec = KMeansSpec(generate_points(3, 4, seed=91))
        stores, index, clusters = many_chunks_env(pts, spec.fmt, workers)
        assert len(index.chunks) == 32
        before = shm_entries()
        rr = ProcessEngine(clusters, stores, prefetch=prefetch).run(spec, index)
        np.testing.assert_allclose(
            rr.result.centroids, lloyd_step(pts, spec.centroids).centroids
        )
        (pool,) = pools
        n_workers = sum(workers)
        # At most 3 per worker for chunks and 1 per worker for its
        # reduction object -- not one per chunk.
        assert rr.stats.shm_segments == pool.created <= 4 * n_workers
        assert pool.active_count == 0 and pool.parked_names == []
        robj_bytes = sum(c.robj_nbytes for c in rr.stats.clusters.values())
        chunk_bytes = sum(c.nbytes for c in index.chunks)
        # Payload bytes handed over are what they always were.
        assert chunk_bytes < rr.stats.shm_nbytes <= chunk_bytes + 2 * robj_bytes
        assert pool.bytes_through == rr.stats.shm_nbytes
        assert rr.stats.jobs_processed == 32
        assert shm_entries() - before == set()
        assert not shm_entries() & {n.lstrip("/") for n in pool.names}
        assert no_child_left()

    def test_rows_report_the_segments_created(self, pools):
        toks = generate_tokens(8000, 200, seed=92)
        spec = WordCountSpec()
        stores, index, clusters = many_chunks_env(toks, spec.fmt)
        rr = ProcessEngine(clusters, stores, prefetch=True).run(spec, index)
        rows = rr.stats.ipc_rows()
        assert sum(r["shm_segments"] for r in rows) == pools[0].created
        assert all(1 <= r["shm_segments"] <= 3 for r in rows)

    def test_a_segment_is_leased_again_only_after_its_reader_is_done(self, pools):
        """One worker, two chunks in flight, a fold that waits for the
        test: while the child sits on chunk A nothing is given back, and
        the moment it acknowledges A, A's segment carries chunk C."""
        import multiprocessing
        import threading

        from tests.gated import WAIT_S, GatedStore

        gate = multiprocessing.get_context("fork").Event()

        class WaitingFold(WordCountSpec):
            def local_reduction(self, robj, unit_group):
                assert gate.wait(WAIT_S)
                super().local_reduction(robj, unit_group)

        toks = generate_tokens(4000, 100, seed=93)
        spec = WaitingFold()
        store = GatedStore("local")
        stores = {"local": store}
        index = write_dataset(toks, spec.fmt, store, n_files=4, chunk_units=1000)
        index = distribute_dataset(index, stores, {"local": 1.0}, store)
        assert len(index.chunks) == 4
        engine = ProcessEngine(
            [ClusterConfig("local", "local", 1, 1)], stores,
            prefetch=True, batch_size=1,
        )
        out = {}
        runner = threading.Thread(
            target=lambda: out.update(rr=engine.run(spec, index)), daemon=True
        )
        before = shm_entries()
        runner.start()
        try:
            (key_a,) = store.wait_parked(1)
            (pool,) = pools
            (seg_a,) = pool.active_names
            store.release(key_a)           # A goes to the child, which waits
            (key_b,) = store.wait_parked(1)
            assert pool.created == 2 and pool.parked_names == []
            store.release(key_b)           # B queued behind it: window full
            # C cannot be fetched before A is acknowledged, so no third
            # GET arrives however long the child takes.
            assert store.n_arrivals == 2 and pool.parked_names == []
            gate.set()
            store.wait_parked(1)           # A done -> C is being fetched...
            assert pool.created == 2       # ...into a recycled segment
            assert seg_a in pool.active_names
            store.open_all()
            runner.join(WAIT_S)
            assert not runner.is_alive()
        finally:
            gate.set()
            store.open_all()
            runner.join(WAIT_S)
        assert out["rr"].result == wordcount_exact(toks)
        assert out["rr"].stats.shm_segments == pool.created == 2
        assert shm_entries() - before == set()
        assert no_child_left()


class TestRecyclingUnderFailure:
    """Requeued jobs travel through recycled segments: the answers must
    still be the threaded engine's, and nothing may be left behind."""

    def both_engines(self, spec, stores, index, clusters, **opts):
        from repro.runtime.engine import ThreadedEngine

        before = shm_entries()
        got = ProcessEngine(clusters, stores, batch_size=2, **opts).run(spec, index)
        assert shm_entries() - before == set()
        assert no_child_left()
        opts.pop("crash_plan", None)
        want = ThreadedEngine(clusters, stores, batch_size=2, **opts).run(spec, index)
        return got, want

    @pytest.mark.parametrize("prefetch", [False, True], ids=["serial", "prefetch"])
    def test_crashed_worker_with_jobs_in_flight(self, pools, prefetch):
        toks = generate_tokens(16000, 300, seed=94)
        spec = WordCountSpec()
        stores, index, clusters = many_chunks_env(
            toks, spec.fmt, (2, 2), latency_s=0.002
        )
        got, want = self.both_engines(
            spec, stores, index, clusters,
            prefetch=prefetch, crash_plan={"local-w0": 3, "cloud-w1": 0},
        )
        assert got.result == want.result == wordcount_exact(toks)
        assert got.stats.n_failed_workers == 2
        assert got.stats.n_requeued_jobs >= 2
        assert got.stats.jobs_processed == len(index.chunks) == 32
        assert got.stats.shm_segments == pools[0].created <= 4 * 4

    def test_retry_exhausted_mid_run(self, pools):
        class FailsOnce(MemoryStore):
            """The 7th GET fails past the retry policy; all others work."""

            def __init__(self, name):
                super().__init__(name)
                self.n_gets = 0

            def get(self, key, offset=0, nbytes=None):
                self.n_gets += 1
                if self.n_gets == 7:
                    raise TransientStorageError("injected transient")
                return super().get(key, offset, nbytes)

        pts = generate_points(6400, 4, n_clusters=3, seed=95)
        spec = KMeansSpec(generate_points(3, 4, seed=96))
        stores, index, clusters = many_chunks_env(
            pts, spec.fmt, (2, 2), cloud_store=FailsOnce("cloud")
        )
        got, want = self.both_engines(
            spec, stores, index, clusters, prefetch=True,
            retry=RetryPolicy(max_attempts=1, base_delay_s=0.001),
        )
        assert got.stats.n_failed_workers == 1
        assert got.stats.n_requeued_jobs >= 1
        assert got.stats.jobs_processed == len(index.chunks) == 32
        np.testing.assert_array_equal(got.result.counts, want.result.counts)
        np.testing.assert_allclose(got.result.centroids, want.result.centroids)
        assert got.stats.shm_segments == pools[0].created <= 4 * 4

    def test_failed_run_leaves_nothing_behind(self, pools):
        class ExplodesLate(WordCountSpec):
            def __init__(self):
                super().__init__()
                self.folds = 0

            def local_reduction(self, robj, unit_group):
                self.folds += 1
                if self.folds == 5:
                    raise RuntimeError("boom")
                super().local_reduction(robj, unit_group)

        toks = generate_tokens(16000, 300, seed=97)
        spec = ExplodesLate()
        stores, index, clusters = many_chunks_env(toks, spec.fmt, (2, 2))
        before = shm_entries()
        with pytest.raises(RuntimeError, match="boom"):
            ProcessEngine(clusters, stores, prefetch=True).run(spec, index)
        (pool,) = pools
        assert pool.active_count == 0 and pool.parked_names == []
        assert shm_entries() - before == set()
        assert not shm_entries() & {n.lstrip("/") for n in pool.names}
        assert no_child_left()


# -- chunk frames -------------------------------------------------------------


def shaped_env(toks, fmt, *, codec=None, replicas=0, stripe=None):
    """One store's dataset, replicated or striped over four stores."""
    stores = {n: MemoryStore(n) for n in ("local", "cloud", "spare0", "spare1")}
    index = write_dataset(
        toks, fmt, stores["local"], n_files=2, chunk_units=len(toks) // 8,
        codec=codec,
    )
    if replicas:
        index = replicate_dataset(index, stores, n_replicas=replicas)
    if stripe is not None:
        index = stripe_dataset(index, stores, k=stripe[0], m=stripe[1])
    return stores, index


HEDGE = HedgePolicy(min_threshold_s=0.001, max_hedges=1)


class TestFrames:
    """The feeder ships every chunk as the frame ``fetch_frame`` sourced
    into the segment, and the child decodes it through the fetch path's
    own size check."""

    @pytest.mark.parametrize(
        "shape,opts,copies",
        [
            ({}, {}, 0),
            ({}, {"chunk_cache": True}, 1),  # the copy out of the cache entry
            ({"codec": "zlib"}, {}, 0),
            ({"replicas": 1}, {}, 0),  # unhedged legs share the segment
            ({"replicas": 1}, {"hedge": HEDGE}, 1),  # the winner, copied in
            ({"codec": "zlib", "replicas": 1}, {"hedge": HEDGE}, 1),
            ({"stripe": (2, 1)}, {}, 1),  # reassembled into the segment
            ({"codec": "zlib", "stripe": (2, 1)}, {}, 1),
        ],
        ids=[
            "plain", "cached", "coded", "replica", "hedged-replica",
            "coded-hedged-replica", "striped", "coded-striped",
        ],
    )
    def test_books_per_shape(self, pools, shape, opts, copies):
        toks = generate_tokens(8000, 200, seed=98)
        spec = WordCountSpec()
        stores, index = shaped_env(toks, spec.fmt, **shape)
        if opts.get("chunk_cache"):
            opts = dict(opts, chunk_cache=ChunkCache(64 << 20))
        rr = ProcessEngine(
            [ClusterConfig("local", "local", 1, 2)], stores, **opts
        ).run(spec, index)
        assert rr.result == wordcount_exact(toks)
        n = len(index.chunks)
        assert rr.stats.jobs_processed == n
        assert rr.stats.n_copies == copies * n
        # One worker: its chunks' segments, then its reduction object's.
        (pool,) = pools
        assert sorted(pool.sizes[:n]) == sorted(c.wire_nbytes for c in index.chunks)
        if shape.get("codec"):  # frames, not logical bytes
            assert sum(pool.sizes[:n]) < toks.nbytes

    @pytest.mark.parametrize("engine", ["threaded", "process"])
    def test_a_frame_the_index_mis_sizes_fails_the_run(self, engine):
        toks = generate_tokens(6000, 100, seed=99)
        spec = WordCountSpec()
        store = MemoryStore("local")
        index = write_dataset(
            toks, spec.fmt, store, n_files=2, chunk_units=1500, codec="zlib"
        )
        first, *rest = index.chunks
        short = dataclasses.replace(
            first, nbytes=first.nbytes - 80, n_units=first.n_units - 10
        )
        index = DataIndex(
            index.fmt, list(index.files), [short, *rest], dict(index.meta)
        )
        # The process engine's child fails, and its parent with it.
        with pytest.raises(
            (CodecError, RuntimeError),
            match=f"chunk {first.chunk_id}: decoded {first.nbytes} bytes, "
            f"index says {short.nbytes}",
        ):
            make_engine(
                engine, [ClusterConfig("local", "local", 1)], {"local": store}
            ).run(spec, index)
