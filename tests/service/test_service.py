"""BurstingService lifecycle: submit, admission, cancel, shutdown.

The multi-tenant service refactor's contract, beyond result
correctness (covered by test_concurrent_equivalence): handles walk the
QUEUED -> RUNNING -> terminal state machine, per-tenant admission and
weighted fair-share behave as configured, cancellation works both
before and during execution, and shutdown leaves no live fleet
threads and no leaked shared-memory segments.
"""

import os
import threading

import pytest

from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.generator import generate_tokens
from repro.runtime import ClusterConfig
from repro.runtime.jobs import jobs_from_index
from repro.runtime.core import ClusterMaster
from repro.runtime.scheduler import HeadScheduler, StaticScheduler
from repro.service import (
    BurstingService,
    JobCancelledError,
    JobState,
    MultiJobScheduler,
    TenantConfig,
)
from repro.service.service import RECENT_RUNS
from repro.storage.local import MemoryStore
from repro.storage.s3 import S3Profile, SimulatedS3Store

CLUSTERS = [
    ClusterConfig("local", "local", 2, 2),
    ClusterConfig("cloud", "cloud", 2, 2),
]


def build_env(n_tokens=9000, local_fraction=0.5, cloud_store=None):
    stores = {
        "local": MemoryStore("local"),
        "cloud": cloud_store or SimulatedS3Store(profile=S3Profile.unthrottled()),
    }
    toks = generate_tokens(n_tokens, 200, seed=41)
    spec = WordCountSpec()
    index = write_dataset(
        toks, spec.fmt, stores["local"], n_files=4,
        chunk_units=max(1, n_tokens // 12),
    )
    fractions = {}
    if local_fraction > 0:
        fractions["local"] = local_fraction
    if local_fraction < 1:
        fractions["cloud"] = 1.0 - local_fraction
    index = distribute_dataset(index, stores, fractions, stores["local"])
    return stores, index, spec, wordcount_exact(toks)


def svc_threads():
    return [t for t in threading.enumerate() if t.name.startswith("svc-")]


class GateStore:
    """Wrapper that blocks every GET until the test opens the gate."""

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.fetch_started = threading.Event()

    def get(self, *args, **kwargs):
        self.fetch_started.set()
        assert self.gate.wait(10), "test gate never opened"
        return self.inner.get(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestLifecycle:
    def test_submit_runs_to_done(self):
        stores, index, spec, ref = build_env()
        service = BurstingService(CLUSTERS, stores, batch_size=2)
        try:
            handle = service.submit(spec, index, tenant="analytics")
            rr = handle.result(timeout=30)
        finally:
            service.shutdown()
        assert handle.status() is JobState.DONE
        assert handle.done()
        assert rr.result == ref
        assert rr.stats.jobs_processed == len(index.chunks)
        assert handle.progress() == {
            "jobs_total": len(index.chunks), "jobs_done": len(index.chunks),
        }
        assert len(handle.chunk_done_times()) == len(index.chunks)

    def test_status_and_service_rows(self):
        stores, index, spec, _ = build_env()
        service = BurstingService(CLUSTERS, stores, batch_size=2)
        try:
            h1 = service.submit(spec, index, tenant="a")
            h2 = service.submit(spec, index, tenant="b")
            h1.result(timeout=30)
            h2.result(timeout=30)
            rows = service.service_rows()
            status = service.status()
        finally:
            service.shutdown()
        assert [r["job"] for r in status] == [h1.run_id, h2.run_id]
        assert all(r["state"] == "done" for r in status)
        # Per-run rows plus the ALL rollup: chunk counts must sum.
        assert rows[-1]["job"] == "ALL"
        assert rows[-1]["chunks"] == sum(r["chunks"] for r in rows[:-1])
        assert rows[-1]["chunks_done"] == 2 * len(index.chunks)

    def test_async_result_retrieval(self):
        import asyncio

        stores, index, spec, ref = build_env()
        service = BurstingService(CLUSTERS, stores, batch_size=2)

        async def submit_and_await():
            h1 = service.submit(spec, index, tenant="a")
            h2 = service.submit(spec, index, tenant="b")
            r1, r2 = await asyncio.gather(h1.aresult(30), h2.aresult(30))
            return r1, r2

        try:
            r1, r2 = asyncio.run(submit_and_await())
        finally:
            service.shutdown()
        assert r1.result == ref and r2.result == ref

    def test_submit_after_shutdown_rejected(self):
        stores, index, spec, _ = build_env()
        service = BurstingService(CLUSTERS, stores)
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit(spec, index)

    def test_unknown_engine_rejected(self):
        stores, index, spec, _ = build_env()
        with pytest.raises(ValueError, match="unknown engine"):
            BurstingService(CLUSTERS, stores, engine="quantum")


class TestAdmission:
    def test_max_concurrent_runs_queues_fifo(self):
        stores, index, spec, _ = build_env()
        service = BurstingService(CLUSTERS, stores, max_concurrent_runs=1)
        try:
            h1 = service.submit(spec, index)
            h2 = service.submit(spec, index)
            # Admission is immediate for the first, queued for the second.
            assert h1.status() in (JobState.RUNNING, JobState.DONE)
            h1.result(timeout=30)
            h2.result(timeout=30)
            assert h2.status() is JobState.DONE
        finally:
            service.shutdown()

    def test_tenant_max_inflight(self):
        stores, index, spec, _ = build_env()
        service = BurstingService(
            CLUSTERS, stores,
            tenants={"capped": TenantConfig(max_inflight=1)},
        )
        try:
            handles = [
                service.submit(spec, index, tenant="capped") for _ in range(3)
            ]
            for h in handles:
                h.result(timeout=30)
        finally:
            service.shutdown()
        assert all(h.status() is JobState.DONE for h in handles)

    def test_unknown_tenant_auto_registered(self):
        stores, index, spec, _ = build_env()
        service = BurstingService(CLUSTERS, stores)
        try:
            service.submit(spec, index, tenant="walk-in").result(timeout=30)
            report = service.tenant_report()
        finally:
            service.shutdown()
        assert report["walk-in"]["weight"] == 1.0
        assert report["walk-in"]["served_chunks"] == len(index.chunks)

    def test_bad_tenant_config_rejected(self):
        with pytest.raises(ValueError, match="weight must be positive"):
            TenantConfig(weight=0)
        with pytest.raises(ValueError, match="max_inflight"):
            TenantConfig(max_inflight=0)


class TestMultiJobScheduler:
    """Unit coverage of the weighted fair-share layer."""

    class _Entry:
        def __init__(self, run_id, tenant, seq, jobs):
            self.run_id = run_id
            self.tenant = tenant
            self.seq = seq
            self.scheduler = HeadScheduler(jobs)

    def _entry(self, run_id, tenant, seq, index):
        from dataclasses import replace

        jobs = [replace(j, run_id=run_id) for j in jobs_from_index(index)]
        return self._Entry(run_id, tenant, seq, jobs)

    def test_weighted_share_tracks_weights(self):
        _, index, _, _ = build_env(n_tokens=24000)
        multi = MultiJobScheduler({"heavy": 2.0, "light": 1.0})
        entries = {
            "r0": self._entry("r0", "heavy", 0, index),
            "r1": self._entry("r1", "light", 1, index),
        }
        for e in entries.values():
            multi.add_run(e)
        # Drain one assignment at a time; as long as both tenants hold
        # work, served chunks should track the 2:1 weights.
        while multi.has_work():
            jobs = multi.request_jobs("local", 1)
            if not jobs:
                break
            for j in jobs:
                # complete immediately so outstanding never blocks
                entries[j.run_id].scheduler.complete(j)
            if multi.served("light") and multi.served("heavy"):
                lead = multi.served("heavy") / multi.served("light")
                assert 0.5 <= lead <= 4.0
        # Equal totals submitted, so both drain completely in the end.
        assert multi.served("heavy") == multi.served("light")

    def test_deficit_prefers_underserved_tenant(self):
        _, index, _, _ = build_env()
        multi = MultiJobScheduler({"a": 1.0, "b": 1.0})
        ea = self._entry("ra", "a", 0, index)
        eb = self._entry("rb", "b", 1, index)
        multi.add_run(ea)
        multi.add_run(eb)
        first = multi.request_jobs("local", 2)
        assert all(j.run_id == "ra" for j in first)  # FIFO tie-break
        second = multi.request_jobs("local", 2)
        assert all(j.run_id == "rb" for j in second)  # deficit flipped

    def test_tenant_bias_published_to_assignment_key(self):
        _, index, _, _ = build_env()
        multi = MultiJobScheduler({"a": 1.0})
        entry = self._entry("ra", "a", 0, index)
        multi.add_run(entry)
        multi.request_jobs("local", 4)
        expected_bias = multi.deficit("a")  # published at next request
        multi.request_jobs("local", 1)
        sched = entry.scheduler
        assert sched.tenant_bias == pytest.approx(expected_bias)
        key = sched.assignment_key(index.chunks[0].file_id, set())
        assert key[1] == sched.tenant_bias


class TestHeadSchedulerServiceHooks:
    def test_drain_unassigned_empties_pool(self):
        _, index, _, _ = build_env()
        jobs = jobs_from_index(index)
        sched = HeadScheduler(jobs)
        taken = sched.request_jobs("local", 2)
        drained = sched.drain_unassigned()
        assert len(taken) + len(drained) == len(jobs)
        assert sched.remaining == 0
        assert not sched.all_done  # taken jobs still outstanding
        for j in taken:
            sched.complete(j)
        assert sched.all_done

    def test_assignment_key_orders_pick(self):
        _, index, _, _ = build_env()
        sched = HeadScheduler(jobs_from_index(index))
        fids = sorted({c.file_id for c in index.chunks})
        keys = [sched.assignment_key(f, set()) for f in fids]
        assert min(range(len(fids)), key=lambda i: keys[i]) == 0


class TestCancellation:
    def test_cancel_queued_job(self):
        # h1 fetches through a gate, so it cannot finish (and let h2 in)
        # before h2 is checked.
        gate = GateStore(SimulatedS3Store(profile=S3Profile.unthrottled()))
        stores, index, spec, _ = build_env(local_fraction=0.0, cloud_store=gate)
        service = BurstingService(CLUSTERS, stores, max_concurrent_runs=1)
        try:
            h1 = service.submit(spec, index)
            h2 = service.submit(spec, index)
            assert h2.status() is JobState.QUEUED
            assert h2.cancel()
            assert h2.status() is JobState.CANCELLED
            with pytest.raises(JobCancelledError):
                h2.result(timeout=5)
            gate.gate.set()
            h1.result(timeout=30)  # the running job is untouched
        finally:
            gate.gate.set()
            service.shutdown()

    def test_cancel_mid_run_and_service_survives(self):
        gate = GateStore(SimulatedS3Store(profile=S3Profile.unthrottled()))
        stores, index, spec, ref = build_env(
            local_fraction=0.0, cloud_store=gate
        )
        service = BurstingService(CLUSTERS, stores, batch_size=2)
        try:
            handle = service.submit(spec, index)
            assert gate.fetch_started.wait(10), "run never started fetching"
            assert handle.status() is JobState.RUNNING
            assert handle.cancel()
            assert handle.status() is JobState.CANCELLED
            gate.gate.set()  # let the in-flight chunks drain
            with pytest.raises(JobCancelledError):
                handle.result(timeout=30)
            # A cancelled run still ends with each store's GET rate.
            rates = {"cloud": stores["cloud"].stats.s_per_byte, "local": None}
            assert rates["cloud"] is not None
            assert all(row["s_per_byte"] == rates for row in handle.stats.transfer_rows())
            # The fleet survives a cancelled job: the next submission
            # completes correctly on the same workers.
            after = service.submit(spec, index)
            assert after.result(timeout=30).result == ref
        finally:
            gate.gate.set()
            service.shutdown()

    def test_double_cancel_and_cancel_after_done(self):
        stores, index, spec, _ = build_env()
        service = BurstingService(CLUSTERS, stores)
        try:
            handle = service.submit(spec, index)
            handle.result(timeout=30)
            assert not handle.cancel()  # already done
        finally:
            service.shutdown()


class TestShutdownHygiene:
    def test_shutdown_leaves_no_fleet_threads(self):
        stores, index, spec, _ = build_env()
        service = BurstingService(CLUSTERS, stores)
        service.submit(spec, index).result(timeout=30)
        service.shutdown()
        assert svc_threads() == []

    def test_shutdown_is_idempotent_and_waits_for_inflight(self):
        stores, index, spec, ref = build_env()
        service = BurstingService(CLUSTERS, stores)
        handle = service.submit(spec, index)
        service.shutdown()
        service.shutdown()
        assert handle.status() is JobState.DONE
        assert handle.result().result == ref
        assert svc_threads() == []

    def test_shutdown_cancel_pending(self):
        stores, index, spec, _ = build_env()
        service = BurstingService(CLUSTERS, stores, max_concurrent_runs=1)
        h1 = service.submit(spec, index)
        h2 = service.submit(spec, index)
        service.shutdown(cancel_pending=True)
        assert h1.done() and h2.done()
        assert h2.status() is JobState.CANCELLED
        assert svc_threads() == []

    def test_context_manager_shuts_down(self):
        stores, index, spec, ref = build_env()
        with BurstingService(CLUSTERS, stores) as service:
            rr = service.submit(spec, index).result(timeout=30)
        assert rr.result == ref
        assert svc_threads() == []

    def test_a_long_lived_service_does_not_keep_finished_runs_state(self):
        """Every run used to leave a reduction object + stats on each
        worker that served it, and its registry entry for the service's
        life -- ~0.35 MB per job.  A run's fold contexts now live on its
        entry, which the service drops when the run resolves."""
        stores, index, spec, ref = build_env(n_tokens=1200)
        service = BurstingService(CLUSTERS, stores)
        try:
            most_runs = 0
            window = []
            for _ in range(200):
                window.append(service.submit(spec, index))
                most_runs = max(most_runs, len(service._runs))
                if len(window) == 2:  # two runs in flight, as two clients
                    assert window.pop(0).result(timeout=30).result == ref
            assert window.pop().result(timeout=30).result == ref
            assert most_runs <= 2  # only the runs in flight
            assert service._runs == {}
            assert len(service._finished) == RECENT_RUNS
            slaves = list(service._slaves)  # shutdown() forgets the fleet
        finally:
            service.shutdown()
        assert slaves and all(not s._window for s in slaves)
        assert service._slaves == [] and service._masters == {}

    def test_process_backend_keeps_only_live_run_threads(self):
        """One run thread per admitted process-backend run, each gone from
        the list by the time its run resolves."""
        stores, index, spec, ref = build_env()
        service = BurstingService(CLUSTERS, stores, engine="process")
        try:
            handles = [service.submit(spec, index) for _ in range(20)]
            assert all(h.result(timeout=120).result == ref for h in handles)
            assert len(service._run_threads) <= 1
        finally:
            service.shutdown()

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no POSIX shm mount"
    )
    def test_process_backend_leaves_no_shm_segments(self):
        def shm_entries():
            return {
                n for n in os.listdir("/dev/shm") if n.startswith("psm_")
            }

        stores, index, spec, ref = build_env()
        before = shm_entries()
        service = BurstingService(CLUSTERS, stores, engine="process")
        try:
            h1 = service.submit(spec, index)
            h2 = service.submit(spec, index)
            assert h1.result(timeout=60).result == ref
            assert h2.result(timeout=60).result == ref
        finally:
            service.shutdown()
        assert shm_entries() - before == set()


class TestDrainedPools:
    def test_a_drained_cluster_asks_again_once_the_fairest_run_changes(self):
        """Without stealing, the fairest run may hold nothing for a
        cluster while another run does.  That cluster's pool drains, and
        asks again once another cluster's refill moves the deficits."""
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        index = build_env()[1]
        local_only = index.with_placement({"local": 1.0})
        cloud_only = index.with_placement({"cloud": 1.0})
        service = BurstingService(
            CLUSTERS, stores, batch_size=2, scheduler_factory=StaticScheduler
        )
        service._ensure_fleet_locked = lambda: None  # the test is the fleet
        first = service.submit(WordCountSpec(), local_only, tenant="a")
        second = service.submit(WordCountSpec(), cloud_only, tenant="b")
        local, cloud = (
            service._masters.setdefault(c.name, ClusterMaster(service, c, 2))
            for c in CLUSTERS
        )
        got = []
        waiter = threading.Thread(target=lambda: got.append(cloud.get_job()), daemon=True)
        waiter.start()
        waiter.join(0.05)
        assert waiter.is_alive()  # the first run, fairest, has no cloud job
        assert local.get_job().run_id == first.run_id
        waiter.join(10.0)
        assert [job.run_id for job in got] == [second.run_id]
