"""One fleet worker's read-ahead window holding jobs of several runs.

A single prefetching worker over a gated store (:mod:`tests.gated`), so
the test fixes what the window holds when a run is cancelled, poisoned
or hit by a fatal fetch error: that run's reserved jobs are dropped
unfolded, the other run's entries are folded exactly once, the worker
lives on, and shutdown leaves nothing behind.  The scripted datasets'
chunks are large enough for a two-entry window.
"""

import threading

import pytest

from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.generator import generate_tokens
from repro.runtime import ClusterConfig
from repro.runtime.core import window_depth
from repro.service import BurstingService, JobCancelledError, JobState
from repro.storage.local import MemoryStore
from tests.gated import GatedStore

UNIT_NBYTES = WordCountSpec().fmt.unit_nbytes
#: Tokens of each scripted dataset; four chunks of them are 1.44 MB each.
N_TOKENS = 4 * 180_000
assert window_depth(N_TOKENS // 4 * UNIT_NBYTES) == 2, (
    "the scripts below spell out a two-entry window"
)


class CountingSpec(WordCountSpec):
    """Counts its folds; ``poison`` makes every fold raise."""

    def __init__(self, poison=False):
        super().__init__()
        self.folds = 0
        self.poison = poison

    def local_reduction_batch(self, robj, units):
        self.folds += 1
        if self.poison:
            raise RuntimeError("poisoned fold")
        super().local_reduction_batch(robj, units)


class OneWorker:
    """A service with one prefetching worker and two datasets, A and B."""

    def __init__(self, n_a):
        self.before = set(threading.enumerate())
        self.store = GatedStore()
        self.tokens = generate_tokens(N_TOKENS, 40, seed=31)
        self.a_index = self.write("a", n_a)
        self.b_index = self.write("b", 4)
        self.service = BurstingService(
            [ClusterConfig("local", "local", 1, retrieval_threads=1)],
            {"local": self.store}, prefetch=True, batch_size=1,
        )

    def write(self, prefix, n_chunks):
        return write_dataset(
            self.tokens, WordCountSpec().fmt, self.store, n_files=n_chunks,
            chunk_units=len(self.tokens) // n_chunks, key_prefix=prefix,
        )

    def finish(self, handle_b, spec_b):
        """B is untouched by whatever happened to A."""
        self.store.open_all()
        rr = handle_b.result(timeout=30)
        assert rr.result == wordcount_exact(self.tokens)
        assert rr.stats.jobs_processed == spec_b.folds == 4  # each chunk once
        assert rr.stats.n_requeued_jobs == 0 and rr.stats.n_failed_workers == 0
        self.service.shutdown()
        assert set(threading.enumerate()) <= self.before  # fleet, finalizer, pools


@pytest.mark.parametrize("how", ["cancel", "poison"])
def test_dead_runs_reserved_jobs_are_dropped_unfolded(how):
    env = OneWorker(n_a=4)
    spec_a, spec_b = CountingSpec(poison=how == "poison"), CountingSpec()
    a = env.service.submit(spec_a, env.a_index, tenant="a")
    env.store.wait_parked(2)  # window: [A1, A2], the worker waits for A1
    b = env.service.submit(spec_b, env.b_index, tenant="b")
    if how == "cancel":
        assert a.cancel()
    env.finish(b, spec_b)
    if how == "cancel":
        # A1 folds if the worker was already waiting for it; A2, only
        # reserved, never does (nor A3, A4: drained at the head).
        assert spec_a.folds <= 1
        assert a.status() is JobState.CANCELLED
        with pytest.raises(JobCancelledError):
            a.result(timeout=30)
    else:
        assert spec_a.folds == 1  # A1 raised, failing A; A2 was never tried
        with pytest.raises(RuntimeError, match="poisoned fold"):
            a.result(timeout=30)
        assert a.status() is JobState.FAILED


def test_fatal_fetch_fails_its_run_only_and_the_window_survives():
    env = OneWorker(n_a=2)
    env.store.missing_arrivals = {2}  # A2's GET will raise KeyError
    spec_a, spec_b = CountingSpec(), CountingSpec()
    a = env.service.submit(spec_a, env.a_index, tenant="a")
    a1, a2 = env.store.wait_parked(2)
    b = env.service.submit(spec_b, env.b_index, tenant="b")
    env.store.release(a1)  # A1 folds; B1 takes its place behind A2
    assert len(env.store.wait_parked(2)) == 2  # window: [A2, B1]
    env.store.release(a2)  # fatal for A while B1's fetch is in flight
    with pytest.raises(KeyError):
        a.result(timeout=30)
    assert a.status() is JobState.FAILED and spec_a.folds == 1
    env.finish(b, spec_b)


def test_crash_with_two_runs_in_the_window_loses_nothing():
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    tokens = generate_tokens(6000, 80, seed=32)
    before = set(threading.enumerate())
    service = BurstingService(
        [ClusterConfig("local", "local", 1), ClusterConfig("cloud", "cloud", 1)],
        stores, prefetch=True, batch_size=1, crash_plan={"local-w0": 1},
    )
    handles = []
    for prefix in "ab":
        index = write_dataset(
            tokens, WordCountSpec().fmt, stores["local"], n_files=4,
            chunk_units=250, key_prefix=prefix,
        )
        index = distribute_dataset(
            index, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
        )
        handles.append((service.submit(CountingSpec(), index, tenant=prefix), index))
    results = []
    for handle, index in handles:
        rr = handle.result(timeout=30)
        assert rr.result == wordcount_exact(tokens)
        assert rr.stats.jobs_processed == len(index.chunks)
        results.append(rr.stats)
    # The job in hand and the whole window came back, each once; the
    # death shows in every run the worker was holding a job of.
    requeued = sum(s.n_requeued_jobs for s in results)
    assert 1 <= requeued <= 1 + window_depth(250 * UNIT_NBYTES)
    assert sum(s.jobs_recovered for s in results) == requeued
    assert 1 <= sum(s.n_failed_workers for s in results) <= 2
    service.shutdown()
    assert set(threading.enumerate()) <= before
