"""Tests for the simulated prefetch pipeline and chunk-cache model."""

import pytest

from repro.bursting.config import EnvironmentConfig
from repro.bursting.driver import paper_index, simulate_environment
from repro.runtime.core import window_depth
from repro.sim import simrun
from repro.sim.calibration import APP_PROFILES, ResourceParams
from repro.sim.simrun import FailureSpec, StragglerSpec, simulate_run
from repro.sim.trace import Tracer


GB = 1 << 30


def env(local=4, cloud=4, frac=0.5):
    return EnvironmentConfig("test", frac, local, cloud)


def depth(app, environment):
    """The deepest read-ahead window a core opens over ``app``'s chunks."""
    index = paper_index(APP_PROFILES[app], environment)
    return max(window_depth(c.nbytes) for c in index.chunks)


def run_sim(app, environment, **kwargs):
    profile = APP_PROFILES[app]
    params = ResourceParams()
    return simulate_run(
        paper_index(profile, environment), environment.clusters(params),
        profile, params, **kwargs,
    )


class TestSimPrefetch:
    def test_prefetch_reduces_total(self):
        serial = simulate_environment("kmeans", env())
        pipelined = simulate_environment("kmeans", env(), prefetch=True)
        assert pipelined.total_s < serial.total_s
        assert pipelined.stats.jobs_processed == serial.stats.jobs_processed

    def test_stall_plus_overlap_recovers_serial_retrieval(self):
        """retrieval_s + overlap_s of the pipelined run tracks the serial
        engine's retrieval bar (same fetches, just hidden)."""
        serial = simulate_environment("kmeans", env())
        pipelined = simulate_environment("kmeans", env(), prefetch=True)
        for name, sc in serial.stats.clusters.items():
            pc = pipelined.stats.clusters[name]
            recovered = pc.retrieval_s + pc.overlap_s
            assert recovered == pytest.approx(sc.retrieval_s, rel=0.15)

    def test_prefetch_counters(self):
        res = simulate_environment("knn", env(), prefetch=True)
        for c in res.stats.clusters.values():
            # Every job, each worker's first included, is awaited out of
            # the window.
            assert c.prefetch_hits + c.prefetch_misses == c.jobs_processed

    def test_second_readahead_pays_when_wan_bound(self, monkeypatch):
        """All data behind the WAN, knn's fold a fraction of its fetch:
        one stream per core leaves the link idle, a second one fills it
        (the live engine's ``knn-hybrid-wan`` moves the same way).  The
        compute-bound app gains nothing from the second stream."""
        wan = env(local=4, cloud=0, frac=0.0)

        def total_s(app, window):
            monkeypatch.setattr(simrun, "window_has_room", lambda n, held: n < window)
            return simulate_environment(app, wan, prefetch=True).total_s

        assert total_s("knn", 2) < 0.75 * total_s("knn", 1)
        assert total_s("kmeans", 2) == pytest.approx(total_s("kmeans", 1), rel=0.01)

    def test_window_never_exceeds_readahead(self, monkeypatch):
        """Instrumented fetches: a core never has more than its window's
        depth in flight, and consumes them in the order it reserved them."""
        live: dict[str, int] = {}
        peak: dict[str, int] = {}
        started: dict[str, list[int]] = {}
        real_fetch = simrun._fetch_gen

        def counting_fetch(env_, net, topo, cluster, job, cache, wstats, info,
                           tracer, worker_name, *rest):
            live[worker_name] = live.get(worker_name, 0) + 1
            peak[worker_name] = max(peak.get(worker_name, 0), live[worker_name])
            started.setdefault(worker_name, []).append(job.job_id)
            yield from real_fetch(env_, net, topo, cluster, job, cache, wstats,
                                  info, tracer, worker_name, *rest)
            live[worker_name] -= 1

        monkeypatch.setattr(simrun, "_fetch_gen", counting_fetch)
        tracer = Tracer()
        environment = env(local=2, cloud=2)
        res = run_sim("knn", environment, prefetch=True, tracer=tracer)
        assert max(peak.values()) == depth("knn", environment)
        assert sum(len(ids) for ids in started.values()) == res.stats.jobs_processed
        for worker, ids in started.items():
            computed = [s.job_id for s in tracer.spans
                        if s.worker == worker and s.kind == "compute"]
            assert computed == ids  # FIFO: fold order == reserve order

    def test_prefetch_deterministic(self):
        a = simulate_environment("knn", env(), seed=4, prefetch=True)
        b = simulate_environment("knn", env(), seed=4, prefetch=True)
        assert a.total_s == b.total_s

    def test_prefetch_composes_with_failures(self):
        """Pipelined workers die cleanly: their in-flight job and their
        whole window are reassigned and every job still completes
        exactly once."""
        baseline = run_sim("knn", env())
        res = run_sim(
            "knn", env(), prefetch=True,
            failures=[FailureSpec("local", 1, 10.0)],
        )
        assert res.stats.jobs_processed == baseline.stats.jobs_processed
        assert res.stats.n_failed_workers == 1
        # the job in hand, if any, plus everything the core had reserved
        assert 1 <= res.stats.n_requeued_jobs <= 1 + depth("knn", env())
        assert res.stats.jobs_recovered == res.stats.n_requeued_jobs

    def test_prefetch_failures_deterministic(self):
        kwargs = dict(
            prefetch=True, failures=[FailureSpec("cloud", 2, 20.0)], seed=3
        )
        a = run_sim("knn", env(), **kwargs)
        b = run_sim("knn", env(), **kwargs)
        assert a.total_s == b.total_s
        assert a.stats.n_requeued_jobs == b.stats.n_requeued_jobs

    def test_prefetch_rejects_speculation(self):
        with pytest.raises(ValueError, match="prefetch.*speculation"):
            run_sim("knn", env(), prefetch=True, speculation=True)

    def test_prefetch_composes_with_stragglers(self):
        res = run_sim(
            "knn", env(), prefetch=True,
            stragglers=[StragglerSpec("cloud", 1, 0.5)],
        )
        assert res.stats.jobs_processed > 0


class TestSimCache:
    def test_cache_created_and_returned(self):
        res = simulate_environment("kmeans", env(), cache_nbytes=16 * GB)
        assert res.caches is not None
        assert set(res.caches) == set(res.stats.clusters)
        assert all(len(c) > 0 for c in res.caches.values())

    def test_no_cache_by_default(self):
        res = simulate_environment("kmeans", env())
        assert res.caches is None
        assert res.stats.cache_hits == 0

    def test_warmed_cache_speeds_up_second_iteration(self):
        it1 = simulate_environment("kmeans", env(), cache_nbytes=16 * GB)
        it2 = simulate_environment("kmeans", env(), caches=it1.caches)
        assert it1.stats.cache_hits == 0
        assert it2.stats.cache_hit_rate > 0.8
        assert it2.total_s < it1.total_s

    def test_cache_hits_skip_links(self):
        """A fully warmed cache leaves (almost) no retrieval time."""
        it1 = simulate_environment("kmeans", env(), prefetch=True,
                                   cache_nbytes=16 * GB)
        it2 = simulate_environment("kmeans", env(), prefetch=True,
                                   caches=it1.caches)
        for name, c2 in it2.stats.clusters.items():
            c1 = it1.stats.clusters[name]
            assert c2.retrieval_s + c2.overlap_s < 0.25 * (
                c1.retrieval_s + c1.overlap_s
            )

    def test_budgeted_cache_evicts(self):
        """A cache smaller than the working set keeps evicting."""
        res = simulate_environment("kmeans", env(), cache_nbytes=1 * GB)
        assert any(c.evictions > 0 for c in res.caches.values())
        assert all(
            c.current_nbytes <= c.capacity_nbytes for c in res.caches.values()
        )
