"""Every entry point reports the same worker set for the same run.

Two chunks (one per site) over 3 + 3 workers: at most two workers fold
anything, yet every run's stats list all six, each with a finish time.
Otherwise ``ClusterStats.n_workers`` and the per-worker-mean bars
(``processing_s``, ``retrieval_s``, ``sync_s``, ...) would depend on
whether the run came through a service, a session or an engine.
"""

import pytest

from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.bursting.session import BurstingSession
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.generator import generate_tokens
from repro.runtime import ClusterConfig, make_engine
from repro.service import BurstingService
from repro.storage.local import MemoryStore

CLUSTERS = [ClusterConfig("local", "local", 3), ClusterConfig("cloud", "cloud", 3)]


@pytest.fixture
def env():
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    tokens = generate_tokens(2000, 50, seed=41)
    index = write_dataset(
        tokens, WordCountSpec().fmt, stores["local"], n_files=2, chunk_units=1000
    )
    index = distribute_dataset(
        index, stores, {"local": 0.5, "cloud": 0.5}, stores["local"]
    )
    assert sorted(c.location for c in index.chunks) == ["cloud", "local"]
    return stores, index, tokens


def run_service(stores, index, engine):
    service = BurstingService(CLUSTERS, stores, engine=engine, batch_size=1)
    try:
        return service.submit(WordCountSpec(), index).result(timeout=30)
    finally:
        service.shutdown()


def run_session(stores, index, engine):
    session = BurstingSession(
        index, stores, engine=engine, local_workers=3, cloud_workers=3,
        batch_size=1,
    )
    return session.run(WordCountSpec())


def run_engine(stores, index, engine):
    return make_engine(engine, CLUSTERS, stores, batch_size=1).run(
        WordCountSpec(), index
    )


@pytest.mark.parametrize("engine", ["threaded", "process"])
@pytest.mark.parametrize("entry", [run_service, run_session, run_engine])
def test_every_entry_point_reports_every_worker(env, entry, engine):
    stores, index, tokens = env
    rr = entry(stores, index, engine)
    assert rr.result == wordcount_exact(tokens)
    stats = rr.stats
    assert {n: c.n_workers for n, c in stats.clusters.items()} == {
        "local": 3, "cloud": 3,
    }
    assert {n: c.workers_failed for n, c in stats.clusters.items()} == {
        "local": 0, "cloud": 0,
    }
    assert stats.jobs_processed == 2
    # An idle worker ran out of work when the run drained, not at its
    # start: a zero finish time would book the whole run as its sync.
    for cstats in stats.clusters.values():
        for w in cstats.workers:
            assert 0.0 < w.finished_at <= stats.total_s
            assert w.sync_s < stats.total_s
