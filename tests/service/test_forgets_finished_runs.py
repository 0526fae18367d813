"""A long-lived service holds state for the runs in flight, not for every
run it ever served.

A run leaves the registry when its handle resolves; what the service
still says about it is one summary row in a ring of the last
``RECENT_RUNS``.  The handle owns the run's stats, progress and chunk
timestamps, so a caller that keeps it can still read them.  Counts
objects, never time or RSS.
"""

import gc
import sys
from contextlib import contextmanager

from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import write_dataset
from repro.data.generator import generate_tokens
from repro.runtime import ClusterConfig
from repro.service import BurstingService, JobState
from repro.service.service import RECENT_RUNS, _RunEntry
from repro.storage.local import MemoryStore
from tests.gated import GatedStore

N_JOBS = 200
CLUSTERS = [ClusterConfig("local", "local", 2, 1)]


@contextmanager
def collector_off():
    """Only reference counting frees a run: a cycle would stay countable."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def small_job():
    tokens = generate_tokens(2000, 50, seed=61)
    store = MemoryStore("local")
    index = write_dataset(tokens, WordCountSpec().fmt, store, n_files=2, chunk_units=250)
    return {"local": store}, index, wordcount_exact(tokens)


def entries_of(index):
    return sum(isinstance(o, _RunEntry) and o.index is index for o in gc.get_objects())


def test_a_soak_of_dropped_handles_leaves_no_run_behind():
    stores, index, expected = small_job()
    n_chunks = len(index.chunks)
    service = BurstingService(CLUSTERS, stores)
    try:
        with collector_off():
            held = service.submit(WordCountSpec(), index)
            held_rr = held.result(timeout=30)
            for _ in range(N_JOBS):
                assert service.submit(WordCountSpec(), index).result(timeout=30).result == expected
            assert service._runs == {}
            assert entries_of(index) == 0
        assert len(service._finished) == RECENT_RUNS
        status = service.status()
        assert len(status) == RECENT_RUNS
        assert all(row["state"] == "done" for row in status)
        assert [row["job"] for row in status][-1] == f"job-{N_JOBS:04d}"
        rows = service.service_rows()
        assert len(rows) == RECENT_RUNS + 1
        assert rows[-1]["chunks_done"] == RECENT_RUNS * n_chunks
    finally:
        service.shutdown()
    # The handle kept since the first job still serves everything.
    assert held.status() is JobState.DONE
    assert held.result() is held_rr and held_rr.result == expected
    assert held.stats is held_rr.stats
    assert held.stats.jobs_processed == n_chunks
    assert held.progress() == {"jobs_total": n_chunks, "jobs_done": n_chunks}
    assert len(held.chunk_done_times()) == n_chunks


def test_runs_resolving_while_others_fold_leave_nothing_registered():
    """More workers than cores and a short switch interval: runs leave the
    registry while other runs' chunks are being fetched and folded."""
    stores, index, expected = small_job()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    service = BurstingService([ClusterConfig("local", "local", 4, 1)], stores)
    try:
        handles = [
            service.submit(WordCountSpec(), index, tenant=f"t{i % 3}")
            for i in range(60)
        ]
        assert all(h.result(timeout=60).result == expected for h in handles)
        assert service._runs == {}
    finally:
        sys.setswitchinterval(interval)
        service.shutdown()


def test_live_and_finished_runs_list_in_submission_order():
    tokens = generate_tokens(2000, 50, seed=62)
    store = GatedStore()
    index = write_dataset(tokens, WordCountSpec().fmt, store, n_files=2, chunk_units=250)
    service = BurstingService(CLUSTERS, {"local": store}, max_concurrent_runs=1)
    try:
        handles = [service.submit(WordCountSpec(), index) for _ in range(3)]
        store.wait_parked(1)  # the first run is fetching, the others queued
        assert [row["state"] for row in service.status()] == [
            "running", "queued", "queued"
        ]
        assert handles[2].cancel()  # queued: resolved and dropped at once
        assert handles[2].run_id not in service._runs
        store.open_all()
        for h in handles[:2]:
            assert h.result(timeout=30).result == wordcount_exact(tokens)
        assert [row["job"] for row in service.status()] == [h.run_id for h in handles]
        assert [row["state"] for row in service.status()] == [
            "done", "done", "cancelled"
        ]
        assert service._runs == {}
    finally:
        store.open_all()
        service.shutdown()
