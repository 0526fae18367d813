"""A session is one held service: what its passes share, and what they
still start fresh.

Every pass is one job on the session's ``BurstingService``, so the fleet,
the chunk cache and the store-health state outlive a pass.  A pass still
starts with a full fleet over the live store map: the session opens a
fresh service when the previous pass lost a worker or a store was
swapped.  Closing or dropping the session stops its fleet.
"""

import gc
import threading
import time

import numpy as np
import pytest

from repro.apps.kmeans import KMeansSpec, lloyd_step
from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.bursting.session import BurstingSession
from repro.data.formats import points_format, tokens_format
from repro.data.generator import generate_points, generate_tokens
from repro.storage.local import MemoryStore


def svc_threads(before=()):
    return {
        t for t in threading.enumerate()
        if t.name.startswith("svc-") and t not in before
    }


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


def token_session(**kwargs):
    tokens = generate_tokens(12_000, 100, seed=31)
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    session = BurstingSession.from_units(
        tokens, tokens_format(), stores, local_fraction=0.5, n_files=4, **kwargs
    )
    return session, wordcount_exact(tokens)


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


def test_a_store_swapped_between_passes_is_read_by_the_next():
    session, expected = token_session()
    with session:
        assert session.run(WordCountSpec()).result == expected
        first = session._service
        counting = CountingStore(session.stores["cloud"])
        session.stores["cloud"] = counting
        assert session.run(WordCountSpec()).result == expected
        assert counting.n_gets > 0
        second = session._service
        assert second is not first
        session.run(WordCountSpec())  # the swapped map is now the service's
        assert session._service is second


def test_a_crash_plan_fires_every_pass():
    points = generate_points(2000, 4, seed=11)
    centroids = generate_points(3, 4, seed=81)
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    # min_part_nbytes=0 splits every fetch over the retrieval threads, so
    # the cloud workers reliably claim jobs (as in the fault-tolerance
    # tests).
    with BurstingSession.from_units(
        points, points_format(4), stores, local_fraction=0.5,
        crash_plan={"cloud-w0": 1}, min_part_nbytes=0,
    ) as session:
        n_jobs = len(session.index.chunks)
        for _ in range(2):
            rr = session.run(KMeansSpec(centroids))
            assert rr.stats.n_failed_workers == 1
            assert rr.stats.jobs_processed == n_jobs
            np.testing.assert_allclose(
                rr.result.centroids, lloyd_step(points, centroids).centroids
            )


def test_the_shared_cache_warms_across_passes():
    session, expected = token_session(cache_mb=8)
    with session:
        cold = session.run(WordCountSpec())
        service = session._service
        warm = session.run(WordCountSpec())
        assert session._service is service
    assert cold.result == warm.result == expected
    assert cold.stats.cache_hits == 0
    assert warm.stats.cache_hits == len(session.index.chunks)


def test_a_held_sessions_second_pass_starts_no_fleet_thread(started):
    session, expected = token_session()
    with session:
        session.run(WordCountSpec())
        assert {n for n in started if n.startswith("svc-")}  # pass 1 starts it
        started.clear()
        assert session.run(WordCountSpec()).result == expected
        assert [n for n in started if n.startswith("svc-")] == []


def test_closing_or_dropping_a_session_stops_its_fleet():
    before = set(threading.enumerate())
    session, expected = token_session()
    assert session.run(WordCountSpec()).result == expected
    assert svc_threads(before)
    session.close()
    assert svc_threads(before) == set()
    session.close()  # idempotent
    with pytest.raises(RuntimeError, match="shut down"):
        session.run(WordCountSpec())

    dropped, expected = token_session()
    assert dropped.run(WordCountSpec()).result == expected
    assert svc_threads(before)
    del dropped  # never closed
    assert svc_threads(before) == set()


class FoldFails(WordCountSpec):
    def local_reduction_batch(self, robj, units):
        raise ValueError("fold blew up")


def test_a_session_dropped_after_a_failed_pass_stops_its_fleet():
    """The error a failed pass raises forms no cycle that would keep the
    session (and its fleet) alive once the caller lets go of both."""
    before = set(threading.enumerate())
    session, _ = token_session()
    gc.disable()
    try:
        try:
            session.run(FoldFails())
        except ValueError:
            pass
        else:
            pytest.fail("the pass did not fail")
        assert svc_threads(before)
        del session
        # A service thread may let go of the error last, a moment later;
        # a cycle would keep the fleet for good (the collector is off).
        deadline = time.monotonic() + 10
        while svc_threads(before) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert svc_threads(before) == set()
    finally:
        gc.enable()
