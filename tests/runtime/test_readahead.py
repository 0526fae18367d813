"""The worker loop's read-ahead window, one interleaving at a time.

A real :class:`SlaveRuntime` over a real ``LockMaster``/``HeadScheduler``
and real ``ParallelFetcher``s; only the store is a double
(:class:`tests.gated.GatedStore`), so the test decides which fetch
finishes when.  One chunk per object, one connection per fetch: a parked
GET *is* a chunk fetch in flight.
"""

import threading
import time

import numpy as np

from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import write_dataset
from repro.data.generator import generate_tokens
from repro.runtime.core import (
    READAHEAD,
    ClusterConfig,
    EngineOptions,
    LockMaster,
    SlaveRuntime,
    make_cluster_fetchers,
)
from repro.runtime.jobs import jobs_from_index
from repro.runtime.scheduler import HeadScheduler
from repro.runtime.stats import WorkerStats
from repro.storage.retry import RetryPolicy
from tests.gated import WAIT_S, GatedStore

N_JOBS = 7
NO_RETRY = RetryPolicy(max_attempts=1)


class RecordingMaster(LockMaster):
    """Notes the order jobs were handed out, completed and requeued."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handed, self.completed, self.requeued = [], [], []

    def get_job(self, wait=True):
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
    """One single-worker cluster over a gated store."""

    def __init__(self, *, prefetch=True, gated=True, crash_after=None, retry=None,
                 spec=None):
        self.tokens = generate_tokens(N_JOBS * 300, 50, seed=21)
        self.store = GatedStore(gated=gated)
        self.spec = spec or WordCountSpec()
        self.index = write_dataset(
            self.tokens, self.spec.fmt, self.store, n_files=N_JOBS, chunk_units=300
        )
        assert len(self.index.chunks) == N_JOBS
        self.cluster = ClusterConfig("local", "local", 1, retrieval_threads=1)
        self.scheduler = HeadScheduler(jobs_from_index(self.index))
        self.stop = threading.Event()
        self.threads_before = set(threading.enumerate())
        options = EngineOptions(
            prefetch=prefetch, retry=retry,
            crash_plan={} if crash_after is None else {"local-w0": crash_after},
        )
        self.fetchers = make_cluster_fetchers({"local": self.store}, self.cluster, options)
        self.robjs, self.errors = [], []
        self.master = self.new_master()
        self.runtime = self.new_runtime("local-w0", self.master, options)
        self.thread = threading.Thread(target=self.runtime.run, daemon=True)

    def new_master(self):
        # batch_size=1: nothing pooled, so a requeue is exactly what the
        # worker itself was holding.
        return RecordingMaster(
            self.cluster, self.scheduler, threading.Lock(), 1, stop=self.stop
        )

    def new_runtime(self, name, master, options):
        return SlaveRuntime(
            name, cluster=self.cluster, port=master, spec=self.spec,
            index=self.index, group_units=1 << 20, fetchers=self.fetchers,
            wstats=WorkerStats(), robjs_out=self.robjs, options=options,
            t_start=time.monotonic(), errors=self.errors, stop=self.stop,
        )

    def join(self):
        self.thread.join(WAIT_S)
        assert not self.thread.is_alive()

    def counts_of(self, job_ids):
        """The exact word counts of just these chunks."""
        return wordcount_exact(
            np.concatenate([self.tokens[i * 300:(i + 1) * 300] for i in job_ids])
        )

    def close(self):
        for f in self.fetchers.values():
            f.close()
        leaked = set(threading.enumerate()) - self.threads_before - {self.thread}
        assert not leaked, leaked
        assert not self.runtime._window


def folded(rig):
    (robj,) = rig.robjs
    return rig.spec.finalize(robj)


class TestWindow:
    def test_retrieval_bound_worker_keeps_readahead_fetches_in_flight(self):
        rig = Rig()
        rig.thread.start()
        remaining = N_JOBS
        while remaining:
            expect = min(READAHEAD, remaining)
            parked = rig.store.wait_parked(expect)
            assert len(parked) == expect  # the steady state, never more
            # Newest first: a later fetch finishing early must not jump
            # the queue.
            rig.store.release(*reversed(parked))
            remaining -= expect
        rig.join()
        w = rig.runtime.wstats
        assert rig.store.max_parked == READAHEAD
        assert rig.master.completed == rig.master.handed  # fold order == reserve order
        assert len(rig.master.handed) == w.jobs_processed == N_JOBS
        assert w.prefetch_hits + w.prefetch_misses == N_JOBS  # every await counted
        assert folded(rig) == wordcount_exact(rig.tokens)
        assert rig.scheduler.all_done and not rig.errors
        rig.close()

    def test_compute_bound_worker_finds_every_chunk_waiting(self):
        """A fold that outlasts the fetches in flight: nothing is awaited
        twice, nothing beyond the window is ever reserved."""

        class SlowFold(WordCountSpec):
            def local_reduction_batch(self, robj, units):
                window = list(rig.runtime._window)
                sizes.append(len(window))
                for _, handle in window:
                    handle.result()  # the fold takes at least this long
                super().local_reduction_batch(robj, units)

        sizes = []
        rig = Rig(gated=False, spec=SlowFold())
        rig.thread.start()
        rig.join()
        w = rig.runtime.wstats
        # Only the run's very first await can find its fetch unfinished.
        assert w.prefetch_hits >= N_JOBS - 1
        assert w.prefetch_hits + w.prefetch_misses == N_JOBS
        assert w.retrieval_s >= 0.0 and w.overlap_s >= 0.0
        tail = list(range(READAHEAD - 1, -1, -1))
        assert sizes == [READAHEAD] * (N_JOBS - READAHEAD) + tail
        assert rig.store.max_parked <= READAHEAD
        assert rig.master.completed == rig.master.handed
        assert folded(rig) == wordcount_exact(rig.tokens)
        rig.close()

    def test_without_prefetch_nothing_is_fetched_in_the_background(self):
        rig = Rig(prefetch=False, gated=False)
        rig.thread.start()
        rig.join()
        w = rig.runtime.wstats
        assert rig.store.max_parked == 1
        assert (w.prefetch_hits, w.prefetch_misses, w.overlap_s) == (0, 0, 0.0)
        assert w.jobs_processed == N_JOBS
        assert all(f._prefetch_pool is None for f in rig.fetchers.values())
        assert folded(rig) == wordcount_exact(rig.tokens)
        rig.close()


class TestContainment:
    def drain(self, rig):
        """A second worker finishes what the dead one gave back."""
        rig.store.open_all()
        survivor = rig.new_runtime(
            "local-w1", rig.new_master(), EngineOptions(prefetch=True)
        )
        survivor.run()
        assert rig.scheduler.all_done
        merged = rig.spec.global_reduction(rig.robjs)
        assert rig.spec.finalize(merged) == wordcount_exact(rig.tokens)
        assert survivor.wstats.jobs_recovered == len(rig.master.requeued)

    def test_crash_with_a_full_window_requeues_all_of_it_once(self):
        rig = Rig(crash_after=2)
        rig.thread.start()
        rig.store.release(*rig.store.wait_parked(2))  # jobs 1, 2 fold
        rig.store.release(*rig.store.wait_parked(2))  # job 3 arrives: crash
        # The dying worker cancels the last fetch, or absorbs it if it
        # is already on the wire.
        rig.store.open_all()
        rig.join()
        handed = rig.master.handed
        assert len(handed) == 2 + 1 + READAHEAD
        assert rig.master.completed == handed[:2]
        assert rig.master.requeued == handed[2:]  # current + whole window, once
        assert rig.scheduler.n_reassigned == 1 + READAHEAD
        assert rig.scheduler.outstanding == 0
        assert rig.runtime.wstats.failed and not rig.errors
        assert not rig.stop.is_set()
        assert folded(rig) == rig.counts_of(rig.master.completed)  # partial robj kept
        self.drain(rig)
        rig.close()

    def test_exhausted_fetch_behind_the_head_surfaces_in_order(self):
        rig = Rig(retry=NO_RETRY)
        rig.store.fail_arrivals = {2}
        rig.thread.start()
        first, second = rig.store.wait_parked(2)
        rig.store.release(second)  # fails while the head is still in flight
        assert rig.master.completed == [] and rig.thread.is_alive()
        rig.store.release(first)  # head folds; its successor then raises
        rig.store.open_all()  # whatever the dying worker has to absorb
        rig.join()
        handed = rig.master.handed
        assert rig.master.completed == handed[:1]
        assert rig.master.requeued == handed[1:] and len(handed) == 1 + READAHEAD
        assert rig.scheduler.n_reassigned == READAHEAD
        assert rig.runtime.wstats.failed and not rig.errors
        assert folded(rig) == rig.counts_of(rig.master.completed)
        self.drain(rig)
        rig.close()

    def test_fatal_error_abandons_the_window_and_stops_the_run(self):
        rig = Rig()
        rig.store.missing_arrivals = {1}
        rig.thread.start()
        first, second = rig.store.wait_parked(2)
        rig.store.release(first)  # KeyError out of the head's fetch
        rig.store.release(second)  # cancelled fetch, absorbed
        rig.join()
        (err,) = rig.errors
        assert isinstance(err, KeyError)
        assert rig.stop.is_set()
        assert rig.master.completed == [] and rig.master.requeued == []
        rig.close()
