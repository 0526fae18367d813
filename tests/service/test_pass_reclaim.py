"""A finished pass is freed by reference counting alone.

Every pass used to leave its whole object graph -- spec, merged
reduction object, ``RunResult``, stats, fetchers, the one-shot service
behind a ``BurstingSession`` pass -- as *cyclic* garbage, which waits for
a generation-2 collection: the job handle held the service whose
registry held the handle, fleet masters and slaves held the service
that listed them, and every fetcher's sibling map held the fetcher.  On
the process engine each fork then copied the page tables of a parent
fat with dead passes.

These tests pin the three breaks: a resolved ``JobHandle`` keeps its
final stats instead of the service, ``shutdown()`` forgets the joined
fleet, a closed ``ParallelFetcher`` forgets its siblings.  They count
objects and pages, never time.
"""

import gc
import os
import weakref
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro import BurstingSession
from repro.apps.pagerank import PageRankSpec, out_degrees
from repro.data.formats import edges_format
from repro.runtime import make_engine
from repro.service import BurstingService, JobState
from repro.storage.local import MemoryStore

ENGINES = ("threaded", "process")


def edge_session(engine, n_pages=500, n_edges=20_000):
    rng = np.random.default_rng(23)
    edges = rng.integers(0, n_pages, (n_edges, 2))
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    session = BurstingSession.from_units(
        edges, edges_format(), stores, engine=engine, n_files=4,
        local_workers=1, cloud_workers=1, cache_mb=8,
    )
    return session, np.full(n_pages, 1.0 / n_pages), out_degrees(edges, n_pages)


@contextmanager
def saved_garbage():
    """Collect first, then keep whatever the next collection finds unreachable."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def repro_garbage(garbage):
    gc.collect()
    return Counter(
        type(o).__qualname__ for o in garbage
        if (type(o).__module__ or "").startswith("repro.")
    )


@contextmanager
def collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_session_pass(self, engine):
        session, ranks, outdeg = edge_session(engine)
        session.run(PageRankSpec(ranks, outdeg))  # cold: fills the cache
        with saved_garbage() as garbage:
            rr = session.run(PageRankSpec(ranks, outdeg))
            del rr
            assert repro_garbage(garbage) == Counter()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_run(self, engine):
        session, ranks, outdeg = edge_session(engine)
        session.run(PageRankSpec(ranks, outdeg))
        with saved_garbage() as garbage:
            eng = make_engine(engine, session._clusters, session.stores,
                              options=session.options)
            rr = eng.run(PageRankSpec(ranks, outdeg), session.index)
            del rr, eng
            assert repro_garbage(garbage) == Counter()

    def test_job_on_a_long_lived_service(self):
        session, ranks, outdeg = edge_session("threaded")
        with BurstingService(session._clusters, session.stores,
                             options=session.options) as service:
            service.submit(PageRankSpec(ranks, outdeg), session.index).result(timeout=30)
            with saved_garbage() as garbage:
                rr = service.submit(PageRankSpec(ranks, outdeg), session.index).result(
                    timeout=30
                )
                del rr
                assert repro_garbage(garbage) == Counter()


class TestFreedWhenTheResultIsDropped:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_reduction_object_and_spec_die_with_the_result(self, engine):
        session, ranks, outdeg = edge_session(engine)
        session.run(PageRankSpec(ranks, outdeg))
        with collector_off():
            spec = PageRankSpec(ranks, outdeg)
            spec_ref = weakref.ref(spec)
            rr = session.run(spec)
            del spec
            robj_ref = weakref.ref(rr.robj)
            del rr
            assert robj_ref() is None
            assert spec_ref() is None


class TestResolvedHandle:
    @pytest.mark.parametrize("engine", ["threaded", "process"])
    def test_reports_after_resolve_and_after_shutdown(self, engine):
        session, ranks, outdeg = edge_session(engine)
        service = BurstingService(session._clusters, session.stores, engine=engine,
                                  options=session.options)
        try:
            handle = service.submit(PageRankSpec(ranks, outdeg), session.index)
            rr = handle.result(timeout=30)
            n = len(session.index.chunks)

            def check():
                assert handle.status() is JobState.DONE
                assert handle.result() is rr
                assert handle.stats is rr.stats
                assert handle.progress() == {"jobs_total": n, "jobs_done": n}
                assert len(handle.chunk_done_times()) == n
                assert handle.cancel() is False

            check()
            assert handle._service is None  # a resolved job does not pin the service
        finally:
            service.shutdown()
        check()


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc")
def test_parent_rss_stays_flat_over_sixty_passes():
    """Process engine, collector off: only reference counting frees a pass."""

    def rss_mb():
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

    # 100 000 pages: spec, object and answer are 0.8 MB each, so a pass
    # that is not freed shows within a few passes.
    session, ranks, outdeg = edge_session("process", n_pages=100_000, n_edges=40_000)
    rss = {}
    with collector_off():
        for i in range(1, 61):
            ranks = session.run(PageRankSpec(ranks, outdeg)).result
            rss[i] = rss_mb()
    assert rss[60] <= 1.10 * rss[5], rss
