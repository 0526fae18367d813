"""End-to-end fault tolerance in the threaded engine.

Chaos tests: seeded fault injection on the cloud store, retry/backoff on
the fetch path, worker-crash containment with reduction-object recovery.
All injection is hash-seeded, so every test here is deterministic.
"""

import threading

import numpy as np
import pytest

from repro.apps.kmeans import KMeansSpec
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.bursting.session import BurstingSession
from repro.data.formats import points_format, tokens_format
from repro.data.generator import generate_points, generate_tokens
from repro.data.index import build_index
from repro.runtime.core import window_depth
from repro.runtime.engine import ClusterConfig
from repro.runtime.jobs import jobs_from_index
from repro.runtime.scheduler import HeadScheduler
from repro.storage.faults import (
    FaultInjectingStore,
    FaultSpec,
    PermanentStorageError,
)
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryPolicy
from tests.masters import MASTERS, make_master
from tests.masters import run_master as LockMaster

FAST_RETRY = RetryPolicy(max_attempts=5, base_delay_s=0.0, max_delay_s=0.0)


def make_session(points, *, fault_spec=None, retry=None, crash_plan=None,
                 prefetch=False, retrieval_threads=2):
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    # min_part_nbytes=0 keeps every fetch split across retrieval threads
    # even for these tiny chunks; the pool round-trips yield the GIL, so
    # both clusters' workers reliably claim jobs (the crash tests need
    # the cloud workers to actually process some).
    session = BurstingSession.from_units(
        points, points_format(4), stores, local_fraction=0.5,
        retry=retry, crash_plan=crash_plan, prefetch=prefetch,
        retrieval_threads=retrieval_threads, min_part_nbytes=0,
    )
    if fault_spec is not None:
        # Wrap *after* the dataset is written and distributed, so the
        # setup path is clean and only the run's fetches see faults.
        faulty = FaultInjectingStore(stores["cloud"], fault_spec)
        session.stores["cloud"] = faulty
    return session


class TestTransientFaults:
    def test_retries_preserve_result(self, points):
        """Seeded transient faults (p=0.3) on the cloud store: the run
        retries through them and the result is unchanged."""
        clean = make_session(points).run(
            KMeansSpec(generate_points(3, 4, seed=81))
        )
        session = make_session(
            points, fault_spec=FaultSpec(transient_p=0.3, seed=7),
            retry=FAST_RETRY,
        )
        rr = session.run(KMeansSpec(generate_points(3, 4, seed=81)))
        np.testing.assert_allclose(
            rr.result.centroids, clean.result.centroids
        )
        assert rr.stats.n_retries > 0
        assert rr.stats.n_failed_workers == 0
        assert rr.stats.n_requeued_jobs == 0
        assert session.stores["cloud"].n_transient > 0

    def test_wordcount_exact_under_faults(self):
        """Integer reduction: exact equality through injected faults,
        with the prefetch pipeline on."""
        tokens = generate_tokens(30_000, 500, seed=3)
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        session = BurstingSession.from_units(
            tokens, tokens_format(), stores, local_fraction=0.5,
            retry=FAST_RETRY, prefetch=True,
        )
        faulty = FaultInjectingStore(
            stores["cloud"], FaultSpec(transient_p=0.3, seed=17)
        )
        session.stores["cloud"] = faulty
        rr = session.run(WordCountSpec())
        assert rr.result == wordcount_exact(tokens)
        assert rr.stats.n_retries > 0

    def test_every_injected_fault_is_a_workers_retry_or_giveup(self, points):
        """Each fetch's ledger is booked by the worker that ran it, one
        that gave up included: the workers' retries are the injected
        faults minus their giveups, and a worker holding a giveup
        (``n_errors``) is the one that gave up and died of it.  One GET
        per chunk and a fresh die per attempt make the counts the seed's."""
        session = make_session(
            points, fault_spec=FaultSpec(transient_p=0.3, seed=3),
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0),
            retrieval_threads=1,
        )
        rr = session.run(KMeansSpec(generate_points(3, 4, seed=81)))
        workers = [w for c in rr.stats.clusters.values() for w in c.workers]
        giveups = sum(w.n_errors for w in workers)
        injected = session.stores["cloud"].n_transient
        assert (injected, giveups) == (7, 2)
        assert sum(w.n_retries for w in workers) == rr.stats.n_retries == injected - giveups
        assert all(w.failed for w in workers if w.n_errors)
        assert rr.stats.n_failed_workers == giveups
        session.close()

    def test_counters_deterministic_for_seed(self, points):
        """Same seed, same faults, same counters -- twice."""
        def run():
            session = make_session(
                points, fault_spec=FaultSpec(transient_p=0.3, seed=7),
                retry=FAST_RETRY,
            )
            rr = session.run(KMeansSpec(generate_points(3, 4, seed=81)))
            store = session.stores["cloud"]
            return (rr.stats.n_retries, rr.stats.bytes_retried,
                    rr.stats.n_errors, store.injection_counts())

        assert run() == run()


class TestPermanentFaults:
    def test_permanent_key_fails_fast(self, points):
        """A dead object is not retried: the run aborts promptly with
        the injected error, even under a generous retry policy."""
        session = make_session(
            points, fault_spec=FaultSpec(permanent_keys=("part-",)),
            retry=FAST_RETRY,
        )
        with pytest.raises(PermanentStorageError, match="unreadable"):
            session.run(KMeansSpec(generate_points(3, 4, seed=81)))
        assert session.stores["cloud"].n_permanent >= 1


class TestWorkerCrash:
    def test_crash_is_contained_and_job_reexecuted(self, points):
        """One worker dies after 2 jobs: its in-flight job is requeued
        and re-executed by a survivor; the result is unchanged."""
        clean = make_session(points).run(
            KMeansSpec(generate_points(3, 4, seed=81))
        )
        session = make_session(points, crash_plan={"cloud-w0": 2})
        rr = session.run(KMeansSpec(generate_points(3, 4, seed=81)))
        np.testing.assert_allclose(
            rr.result.centroids, clean.result.centroids
        )
        assert rr.stats.n_failed_workers == 1
        assert rr.stats.n_requeued_jobs >= 1
        assert rr.stats.jobs_recovered >= 1
        # Exactly once: completed jobs stay in the preserved robj, the
        # requeued ones are re-executed -- total equals the job count.
        n_jobs = len(jobs_from_index(session.index))
        assert rr.stats.jobs_processed == n_jobs

    def test_crash_with_prefetch_requeues_reserved_job(self, points):
        """A pipelined worker holds its current job and a window of
        reserved ones; all of them must come back, each once
        (tests/runtime/test_readahead.py scripts the exact interleaving)."""
        clean = make_session(points).run(
            KMeansSpec(generate_points(3, 4, seed=81))
        )
        session = make_session(
            points, crash_plan={"local-w0": 1}, prefetch=True
        )
        rr = session.run(KMeansSpec(generate_points(3, 4, seed=81)))
        np.testing.assert_allclose(
            rr.result.centroids, clean.result.centroids
        )
        assert rr.stats.n_failed_workers == 1
        depth = max(window_depth(c.nbytes) for c in session.index.chunks)
        assert 1 <= rr.stats.n_requeued_jobs <= 1 + depth
        assert rr.stats.jobs_recovered == rr.stats.n_requeued_jobs
        n_jobs = len(jobs_from_index(session.index))
        assert rr.stats.jobs_processed == n_jobs

    def test_whole_cluster_dies_other_recovers(self, points):
        """Both cloud workers crash immediately: the local cluster
        steals everything, including the surrendered master pool."""
        clean = make_session(points).run(
            KMeansSpec(generate_points(3, 4, seed=81))
        )
        session = make_session(
            points, crash_plan={"cloud-w0": 0, "cloud-w1": 0}
        )
        rr = session.run(KMeansSpec(generate_points(3, 4, seed=81)))
        np.testing.assert_allclose(
            rr.result.centroids, clean.result.centroids
        )
        assert rr.stats.n_failed_workers == 2
        n_jobs = len(jobs_from_index(session.index))
        assert rr.stats.jobs_processed == n_jobs

    def test_retry_exhaustion_is_contained(self):
        """A worker whose fetch exhausts its retries dies like a crash:
        the run completes correctly on the survivors."""
        tokens = generate_tokens(30_000, 500, seed=3)
        stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
        session = BurstingSession.from_units(
            tokens, tokens_format(), stores, local_fraction=0.5,
            retry=RetryPolicy(max_attempts=1), retrieval_threads=1,
        )
        # The first two cloud-store GETs fail; with max_attempts=1 each
        # failure kills its worker (no retry budget).
        faulty = FaultInjectingStore(
            stores["cloud"], FaultSpec(fail_nth=(1, 2))
        )
        session.stores["cloud"] = faulty
        rr = session.run(WordCountSpec())
        assert rr.result == wordcount_exact(tokens)
        assert 1 <= rr.stats.n_failed_workers <= 2
        assert rr.stats.n_requeued_jobs >= 1
        assert rr.stats.n_errors >= 1


class TestMasterRequeue:
    """Satellite: an empty refill must not strand a job that is later
    requeued by a failed worker."""

    def make_master(self):
        idx = build_index(tokens_format(), [12] * 2, chunk_units=3)
        scheduler = HeadScheduler(jobs_from_index(idx))
        cluster = ClusterConfig("local", "local", 2)
        master = LockMaster(
            cluster, scheduler, threading.Lock(), batch_size=4, n_workers=2
        )
        return master, scheduler

    @pytest.mark.parametrize("kind", MASTERS)
    def test_waiting_get_job_picks_up_requeued_job(self, kind):
        idx = build_index(tokens_format(), [12] * 2, chunk_units=3)
        cluster = ClusterConfig("local", "local", 2)
        master, scheduler = make_master(kind, cluster, idx, batch_size=4)
        held = []
        while (j := master.get_job(wait=False)) is not None:
            held.append(j)
        assert held and scheduler.remaining == 0
        victim = held.pop()
        got = []
        waiter = threading.Thread(target=lambda: got.append(master.get_job()))
        waiter.start()
        waiter.join(0.05)
        assert waiter.is_alive()  # waiting: outstanding jobs remain
        master.requeue([victim])
        waiter.join(2.0)
        assert not waiter.is_alive()
        assert got and got[0].job_id == victim.job_id
        for j in held + got:
            master.complete(j)
        # Drained for real now.  The service master has nothing for
        # anyone; a blocking call would park until shutdown.
        assert master.get_job(wait=kind == "lock") is None
        assert scheduler.all_done

    def test_stop_event_aborts_waiter(self):
        master, scheduler = self.make_master()
        while master.get_job(wait=False) is not None:
            pass
        got = []
        waiter = threading.Thread(target=lambda: got.append(master.get_job()))
        waiter.start()
        master.stop.set()
        waiter.join(2.0)
        assert not waiter.is_alive()
        assert got == [None]

    def test_nonblocking_reserve_returns_none_immediately(self):
        master, scheduler = self.make_master()
        grabbed = []
        while (j := master.get_job(wait=False)) is not None:
            grabbed.append(j)
        assert grabbed and scheduler.outstanding == len(grabbed)
        # Outstanding jobs remain, but reserve must not block on them.
        assert master.reserve_next() is None

    def test_last_worker_death_surrenders_pool(self):
        master, scheduler = self.make_master()
        first = master.get_job()
        assert first is not None
        assert len(master.pool) > 0
        assert master.worker_died() == []  # one worker still alive
        drained = master.worker_died()     # last one: pool comes back
        assert drained and len(master.pool) == 0
