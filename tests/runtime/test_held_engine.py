"""The threaded engine holds one fleet across its runs.

A ``ThreadedEngine`` keeps one ``BurstingService`` the way a
``BurstingSession`` does: built on the first run, built afresh after a
run that lost a worker or once ``engine.stores`` changed, and shut down
by ``close()``, by ``with`` or when the engine is dropped.  A run that
fails (its fold raises) kills no worker, so the next run finds the same
fleet.  The process engine holds nothing, and takes ``with`` too.
"""

import gc
import threading
import time

import pytest

from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.generator import generate_tokens
from repro.runtime import ClusterConfig, make_engine
from repro.runtime.blas_budget import BLAS_BUDGET
from repro.runtime.engine import ThreadedEngine
from repro.storage.local import MemoryStore
from tests.runtime.test_process_engine import paced

CLUSTERS = [ClusterConfig("local", "local", 2, 2), ClusterConfig("cloud", "cloud", 2, 2)]


@pytest.fixture(scope="module")
def dataset():
    tokens = generate_tokens(8000, 200, seed=91)
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    index = write_dataset(tokens, WordCountSpec().fmt, stores["local"],
                          n_files=4, chunk_units=len(tokens) // 12)
    index = distribute_dataset(index, stores, {"local": 0.5, "cloud": 0.5},
                               stores["local"])
    return stores, index, wordcount_exact(tokens)


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started from now on."""
    names = []
    start = threading.Thread.start

    def spy(self):
        names.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return names


def fleet(names):
    return [n for n in names if n.startswith("svc-")]


def new_threads(before):
    return set(threading.enumerate()) - before


class FoldFails(WordCountSpec):
    def local_reduction_batch(self, robj, units):
        raise ValueError("fold blew up")


class CountingStore:
    """Delegates to ``inner``, counting GETs."""

    def __init__(self, inner):
        self.inner = inner
        self.n_gets = 0

    def get(self, *args, **kwargs):
        self.n_gets += 1
        return self.inner.get(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_runs_share_one_fleet(dataset, started):
    stores, index, expected = dataset
    with make_engine("threaded", CLUSTERS, stores) as engine:
        service = None
        for i in range(5):
            assert engine.run(WordCountSpec(), index).result == expected
            if i == 0:
                service = engine._held.service
                assert len(fleet(started)) == 4 + 1  # workers + finalizer
                started.clear()
            assert engine._held.service is service
        assert fleet(started) == []  # runs 2..5 started no fleet thread


def test_a_run_that_lost_a_worker_is_followed_by_a_fresh_fleet(dataset):
    stores, index, expected = dataset
    # The doomed worker must claim a job before the run drains: every GET
    # takes 3 ms, so all four workers hold a batch before one finishes.
    engine = ThreadedEngine(
        CLUSTERS, paced(stores, 0.003), batch_size=2, crash_plan={"cloud-w0": 0},
    )
    with engine:
        services = []
        for _ in range(2):
            rr = engine.run(WordCountSpec(), index)
            assert rr.result == expected
            assert rr.stats.n_failed_workers == 1
            assert rr.stats.jobs_processed == len(index.chunks)
            services.append(engine._held.service)
        assert services[1] is not services[0]  # reopened with a full fleet
        assert not any(t.is_alive() for t in services[0]._threads)


def test_a_failed_run_leaves_the_fleet_serving(dataset, started):
    stores, index, expected = dataset
    with make_engine("threaded", CLUSTERS, stores) as engine:
        assert engine.run(WordCountSpec(), index).result == expected
        service = engine._held.service
        started.clear()
        with pytest.raises(ValueError, match="fold blew up"):
            engine.run(FoldFails(), index)
        assert engine.run(WordCountSpec(), index).result == expected
        assert engine._held.service is service
        assert fleet(started) == []


def test_a_swapped_store_is_read_by_the_next_run(dataset):
    stores, index, expected = dataset
    with make_engine("threaded", CLUSTERS, stores) as engine:
        engine.run(WordCountSpec(), index)
        first = engine._held.service
        counting = CountingStore(engine.stores["cloud"])
        engine.stores["cloud"] = counting
        assert engine.run(WordCountSpec(), index).result == expected
        assert counting.n_gets > 0
        assert engine._held.service is not first


def test_close_stops_every_thread_and_gives_the_cap_back(dataset):
    stores, index, expected = dataset
    before = set(threading.enumerate())
    engine = make_engine("threaded", CLUSTERS, stores, min_part_nbytes=0)
    assert engine.run(WordCountSpec(), index).result == expected
    assert new_threads(before) and BLAS_BUDGET._holders == 1
    engine.close()
    assert new_threads(before) == set() and BLAS_BUDGET._holders == 0
    engine.close()  # idempotent
    with pytest.raises(RuntimeError, match="shut down"):
        engine.run(WordCountSpec(), index)


def test_closing_an_engine_that_never_ran_starts_nothing(dataset):
    stores, index, _ = dataset
    before = set(threading.enumerate())
    with make_engine("threaded", CLUSTERS, stores) as engine:
        pass
    assert engine._held.service is None
    assert new_threads(before) == set() and BLAS_BUDGET._holders == 0
    with pytest.raises(RuntimeError, match="shut down"):
        engine.run(WordCountSpec(), index)


@pytest.mark.parametrize("fails", [False, True], ids=["ok", "failed-run"])
def test_dropping_an_unclosed_engine_stops_its_fleet(dataset, fails):
    """Freed by reference counting (the collector is off): nothing the
    engine's runs leave behind, a failed run's error included, holds a
    cycle that would keep the fleet."""
    stores, index, expected = dataset
    before = set(threading.enumerate())
    gc.disable()
    try:
        engine = make_engine("threaded", CLUSTERS, stores, min_part_nbytes=0)
        if fails:
            try:
                engine.run(FoldFails(), index)
            except ValueError:
                pass
            else:
                pytest.fail("the run did not fail")
        else:
            assert engine.run(WordCountSpec(), index).result == expected
        assert new_threads(before)
        del engine
        # A fleet thread may let go of a failed run's error last, a moment
        # later; a cycle would keep the fleet for good.
        deadline = time.monotonic() + 10
        while new_threads(before) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert new_threads(before) == set()
        assert BLAS_BUDGET._holders == 0
    finally:
        gc.enable()


def test_the_process_engine_takes_with_too(dataset):
    stores, index, expected = dataset
    with make_engine("process", CLUSTERS, stores) as engine:
        assert engine.run(WordCountSpec(), index).result == expected
    engine.close()  # holds nothing, so closing does nothing
