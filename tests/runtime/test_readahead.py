"""The fleet worker's read-ahead window, one interleaving at a time.

A real fleet worker of a real :class:`BurstingService` (one run, one
cluster) with real ``ParallelFetcher``s; only the store is a double
(:class:`tests.gated.GatedStore`), so the test decides which fetch
finishes when.  One chunk per object, one connection per fetch: a parked
GET *is* a chunk fetch in flight.  The chunks are small, so the window
is :func:`~repro.runtime.core.window_depth`'s deepest, and the run has a
few jobs more than it holds.
"""

import threading

import numpy as np
import pytest

import repro.service.service as service_mod
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import write_dataset
from repro.data.generator import generate_tokens
from repro.runtime.core import ClusterConfig, ClusterMaster, window_depth
from repro.service.service import BurstingService
from repro.storage.retry import RetryPolicy
from tests.gated import WAIT_S, GatedStore

UNITS = 300
#: Fetches in flight per worker over these chunks.
DEPTH = window_depth(UNITS * WordCountSpec().fmt.unit_nbytes)
#: Enough for two folds and a crash behind a full window.
N_JOBS = DEPTH + 4
NO_RETRY = RetryPolicy(max_attempts=1)


class RecordingMaster(ClusterMaster):
    """Notes the order jobs were handed out, completed and requeued.

    Every worker but ``local-w0`` waits for :attr:`survivor_go` before
    it asks for anything, so a second worker can stand by until the
    first one has died.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handed, self.completed, self.requeued = [], [], []
        self.survivor_go = threading.Event()

    def get_job(self, wait=True):
        if threading.current_thread().name != "svc-local-w0":
            self.survivor_go.wait()
        job = super().get_job(wait)
        if job is not None:
            self.handed.append(job.job_id)
        return job

    def complete(self, job):
        self.completed.append(job.job_id)
        return super().complete(job)

    def requeue(self, jobs):
        self.requeued.extend(j.job_id for j in jobs)
        super().requeue(jobs)


class Rig:
    """One run on a one-cluster service over a gated store.

    ``survivor`` adds a second worker that stands by until
    :meth:`TestContainment.drain` lets it in.
    """

    def __init__(self, monkeypatch, *, prefetch=True, gated=True, crash_after=None,
                 retry=None, spec=None, survivor=False):
        monkeypatch.setattr(service_mod, "ClusterMaster", RecordingMaster)
        self.tokens = generate_tokens(N_JOBS * UNITS, 50, seed=21)
        self.store = GatedStore(gated=gated)
        self.spec = spec or WordCountSpec()
        self.index = write_dataset(
            self.tokens, self.spec.fmt, self.store, n_files=N_JOBS, chunk_units=UNITS
        )
        assert len(self.index.chunks) == N_JOBS
        assert {window_depth(c.nbytes) for c in self.index.chunks} == {DEPTH}
        self.threads_before = set(threading.enumerate())
        cluster = ClusterConfig("local", "local", 1 + survivor, retrieval_threads=1)
        # batch_size=1: nothing pooled, so a requeue is exactly what the
        # worker itself was holding.
        self.service = BurstingService(
            [cluster], {"local": self.store}, batch_size=1, prefetch=prefetch,
            retry=retry,
            crash_plan={} if crash_after is None else {"local-w0": crash_after},
        )

    def start(self):
        self.handle = self.service.submit(self.spec, self.index)
        self.entry = self.service._runs[self.handle.run_id]
        self.scheduler = self.entry.scheduler
        self.errors = self.entry.errors
        self.fetchers = self.service._fetchers["local"]
        self.master = self.service._masters["local"]
        self.worker = self.service._slaves[0]
        self.thread = self.service._threads[0]

    def wstats(self, wid):
        return self.entry.stats.clusters["local"].workers[wid]

    def result(self):
        return self.handle.result(timeout=WAIT_S)

    def join(self):
        """Wait for worker 0 to exit (it has died)."""
        self.thread.join(WAIT_S)
        assert not self.thread.is_alive()

    def counts_of(self, job_ids):
        """The exact word counts of just these chunks."""
        return wordcount_exact(
            np.concatenate([self.tokens[i * UNITS:(i + 1) * UNITS] for i in job_ids])
        )

    def close(self):
        self.master.survivor_go.set()
        self.service.shutdown()
        leaked = set(threading.enumerate()) - self.threads_before
        assert not leaked, leaked
        assert not self.worker._window


def folded(rig):
    """Worker 0's reduction object, read before the run is finalized."""
    (robj,) = rig.entry.robjs["local"]
    return rig.spec.finalize(robj)


class TestWindow:
    def test_retrieval_bound_worker_keeps_readahead_fetches_in_flight(self, monkeypatch):
        rig = Rig(monkeypatch)
        rig.start()
        remaining = N_JOBS
        while remaining:
            expect = min(DEPTH, remaining)
            parked = rig.store.wait_parked(expect)
            assert len(parked) == expect  # the steady state, never more
            # Newest first: a later fetch finishing early must not jump
            # the queue.
            rig.store.release(*reversed(parked))
            remaining -= expect
        rr = rig.result()
        w = rig.wstats(0)
        assert rig.store.max_parked == DEPTH
        assert rig.master.completed == rig.master.handed  # fold order == reserve order
        assert len(rig.master.handed) == w.jobs_processed == N_JOBS
        assert w.prefetch_hits + w.prefetch_misses == N_JOBS  # every await counted
        assert rr.result == wordcount_exact(rig.tokens)
        assert rig.scheduler.all_done and not rig.errors
        rig.close()

    def test_compute_bound_worker_finds_every_chunk_waiting(self, monkeypatch):
        """A fold that outlasts the fetches in flight: nothing is awaited
        twice, nothing beyond the window is ever reserved."""

        class SlowFold(WordCountSpec):
            def local_reduction_batch(self, robj, units):
                window = list(rig.service._slaves[0]._window)
                sizes.append(len(window))
                for _, handle in window:
                    handle.result()  # the fold takes at least this long
                super().local_reduction_batch(robj, units)

        sizes = []
        rig = Rig(monkeypatch, gated=False, spec=SlowFold())
        rig.start()
        rr = rig.result()
        w = rig.wstats(0)
        # Only the run's very first await can find its fetch unfinished.
        assert w.prefetch_hits >= N_JOBS - 1
        assert w.prefetch_hits + w.prefetch_misses == N_JOBS
        assert w.retrieval_s >= 0.0 and w.overlap_s >= 0.0
        tail = list(range(DEPTH - 1, -1, -1))
        assert sizes == [DEPTH] * (N_JOBS - DEPTH) + tail
        assert rig.store.max_parked <= DEPTH
        assert rig.master.completed == rig.master.handed
        assert rr.result == wordcount_exact(rig.tokens)
        rig.close()

    def test_without_prefetch_nothing_is_fetched_in_the_background(self, monkeypatch):
        rig = Rig(monkeypatch, prefetch=False, gated=False)
        rig.start()
        rr = rig.result()
        w = rig.wstats(0)
        assert rig.store.max_parked == 1
        assert (w.prefetch_hits, w.prefetch_misses, w.overlap_s) == (0, 0, 0.0)
        assert w.jobs_processed == N_JOBS
        assert all(("readahead", "") not in f.pools._pools for f in rig.fetchers.values())
        assert rr.result == wordcount_exact(rig.tokens)
        rig.close()


class TestContainment:
    def drain(self, rig):
        """A second worker finishes what the dead one gave back."""
        rig.store.open_all()
        rig.master.survivor_go.set()
        rr = rig.result()
        assert rig.scheduler.all_done
        assert rr.result == wordcount_exact(rig.tokens)
        assert rig.wstats(1).jobs_recovered == len(rig.master.requeued)

    def test_crash_with_a_full_window_requeues_all_of_it_once(self, monkeypatch):
        rig = Rig(monkeypatch, crash_after=2, survivor=True)
        rig.start()
        # Jobs 1 and 2 fold, each reserving one more; job 3 has arrived
        # too: crash.
        rig.store.release(*rig.store.wait_parked(DEPTH))
        # The dying worker cancels the last fetches, or absorbs those
        # already on the wire.
        rig.store.open_all()
        rig.join()
        handed = rig.master.handed
        assert len(handed) == 2 + 1 + DEPTH
        assert rig.master.completed == handed[:2]
        assert rig.master.requeued == handed[2:]  # current + whole window, once
        assert rig.scheduler.n_reassigned == 1 + DEPTH
        assert rig.scheduler.outstanding == 0
        assert rig.wstats(0).failed and not rig.errors
        assert rig.entry.live and not rig.handle.done()  # the run goes on
        assert folded(rig) == rig.counts_of(rig.master.completed)  # partial robj kept
        self.drain(rig)
        rig.close()

    def test_a_dropped_window_entry_books_the_fetch_it_ran(self, monkeypatch):
        """At a contained crash each window entry whose fetch ran books
        its ledger in the run, and one cancelled unstarted books nothing:
        one GET per chunk, so worker 0 counts exactly the GETs that
        reached the store -- the first window's included, fetched whole
        before the crash and never folded."""
        rig = Rig(monkeypatch, crash_after=2, survivor=True)
        rig.start()
        rig.store.release(*rig.store.wait_parked(DEPTH))
        rig.store.open_all()
        rig.join()
        w = rig.wstats(0)
        assert w.cache_misses == rig.store.n_arrivals >= DEPTH > 3
        assert w.bytes_wire == w.bytes_logical == sum(
            rig.index.chunks[j].nbytes for j in rig.master.handed[: w.cache_misses]
        )
        self.drain(rig)
        rig.close()

    def test_exhausted_fetch_behind_the_head_surfaces_in_order(self, monkeypatch):
        rig = Rig(monkeypatch, retry=NO_RETRY, survivor=True)
        rig.store.fail_arrivals = {2}
        rig.start()
        first, second, *_ = rig.store.wait_parked(DEPTH)
        rig.store.release(second)  # fails while the head is still in flight
        assert rig.master.completed == [] and rig.thread.is_alive()
        rig.store.release(first)  # head folds; its successor then raises
        rig.store.open_all()  # whatever the dying worker has to absorb
        rig.join()
        handed = rig.master.handed
        assert rig.master.completed == handed[:1]
        assert rig.master.requeued == handed[1:] and len(handed) == 1 + DEPTH
        assert rig.scheduler.n_reassigned == DEPTH
        assert rig.wstats(0).failed and not rig.errors
        assert folded(rig) == rig.counts_of(rig.master.completed)
        self.drain(rig)
        rig.close()

    def test_fatal_error_abandons_the_window_and_stops_the_run(self, monkeypatch):
        rig = Rig(monkeypatch)
        rig.store.missing_arrivals = {1}
        rig.start()
        first, *rest = rig.store.wait_parked(DEPTH)
        rig.store.release(first)  # KeyError out of the head's fetch
        rig.store.release(*rest)  # cancelled fetches, absorbed
        with pytest.raises(KeyError):
            rig.result()
        (err,) = rig.errors
        assert isinstance(err, KeyError)
        assert not rig.entry.live  # the run is stopped; the worker lives on
        assert rig.thread.is_alive()
        assert rig.master.completed == [] and rig.master.requeued == []
        rig.close()
