"""Fault-tolerance tests: worker failures and job reassignment."""

import pytest

from repro.bursting.config import EnvironmentConfig
from repro.bursting.driver import paper_index
from repro.sim.calibration import APP_PROFILES, PAPER_N_JOBS, ResourceParams
from repro.sim.simrun import FailureSpec, simulate_run


def run(app="knn", env=None, failures=None, seed=0):
    env = env or EnvironmentConfig("h", 0.5, 8, 8)
    profile = APP_PROFILES[app]
    params = ResourceParams()
    return simulate_run(
        paper_index(profile, env), env.clusters(params), profile, params,
        seed=seed, failures=failures,
    )


class TestFailureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailureSpec("local", 0, 10.0)
        with pytest.raises(ValueError):
            FailureSpec("local", 1, -1.0)

    def test_unknown_cluster_rejected(self):
        with pytest.raises(ValueError):
            run(failures=[FailureSpec("mars", 1, 10.0)])

    def test_too_many_failures_rejected(self):
        with pytest.raises(ValueError):
            run(failures=[FailureSpec("local", 9, 10.0)])


class TestRecovery:
    def test_all_jobs_still_processed(self):
        baseline = run()
        failed = run(failures=[FailureSpec("local", 2, baseline.total_s / 3)])
        assert failed.stats.jobs_processed == PAPER_N_JOBS

    def test_failed_workers_recorded(self):
        baseline = run()
        failed = run(failures=[FailureSpec("local", 2, baseline.total_s / 3)])
        assert failed.stats.clusters["local"].workers_failed == 2
        assert failed.stats.clusters["cloud"].workers_failed == 0

    def test_failures_slow_the_run(self):
        baseline = run()
        failed = run(failures=[FailureSpec("local", 4, baseline.total_s / 4)])
        assert failed.total_s > baseline.total_s

    def test_more_failures_slower(self):
        baseline = run()
        t = baseline.total_s / 4
        one = run(failures=[FailureSpec("local", 1, t)])
        four = run(failures=[FailureSpec("local", 4, t)])
        assert four.total_s > one.total_s

    def test_dead_worker_stops_processing(self):
        baseline = run()
        t = baseline.total_s / 3
        failed = run(failures=[FailureSpec("local", 2, t)])
        dead = [w for w in failed.stats.clusters["local"].workers if w.failed]
        assert len(dead) == 2
        for w in dead:
            assert w.finished_at <= t + 1e-9
        # Survivors picked up the slack.
        alive = [w for w in failed.stats.clusters["local"].workers if not w.failed]
        assert max(w.jobs_processed for w in alive) >= max(
            w.jobs_processed for w in dead
        )

    def test_cross_cluster_takeover(self):
        """Killing the whole local cluster early shifts work to the cloud."""
        baseline = run()
        t = baseline.total_s / 4
        failed = run(failures=[FailureSpec("local", 8, t)])
        assert failed.stats.jobs_processed == PAPER_N_JOBS
        # The cloud cluster ends up stealing the local-resident jobs the
        # dead cluster never processed.
        assert failed.stats.clusters["cloud"].jobs_stolen > 0

    def test_late_failure_after_the_other_cluster_drained_is_recovered(self):
        """Every local core dies once the cloud cluster has run out of
        work.  Its idle cores wait for the run's end instead of
        exiting, so they take the lost jobs and ship again."""
        baseline = run()
        t = 0.99 * baseline.total_s
        assert baseline.stats.clusters["cloud"].finished_at < t
        failed = run(failures=[FailureSpec("local", 8, t)])
        assert failed.stats.jobs_processed == PAPER_N_JOBS
        assert failed.stats.clusters["local"].workers_failed == 8
        cloud = failed.stats.clusters["cloud"]
        assert cloud.jobs_recovered == failed.stats.n_requeued_jobs > 0
        assert cloud.finished_at > t > baseline.stats.clusters["cloud"].finished_at

    def test_a_core_that_died_idle_takes_no_lost_job(self):
        """Half the cloud cores die while idle, after the cloud cluster
        drained; a later local failure wakes them.  They die on waking
        without asking the head, so every lost job is handed back once."""
        baseline = run()
        t = 0.99 * baseline.total_s
        idle_since = baseline.stats.clusters["cloud"].finished_at
        failed = run(failures=[
            FailureSpec("cloud", 4, (idle_since + t) / 2),
            FailureSpec("local", 8, t),
        ])
        assert failed.stats.jobs_processed == PAPER_N_JOBS
        assert failed.stats.clusters["cloud"].workers_failed == 4
        recovered = failed.stats.clusters["cloud"].jobs_recovered
        assert recovered == failed.stats.n_requeued_jobs > 0

    def test_early_single_cluster_total_failure_raises(self):
        env = EnvironmentConfig("solo", 1.0, 4, 0)
        with pytest.raises(RuntimeError):
            run(env=env, failures=[FailureSpec("local", 4, 1.0)])

    def test_failure_after_completion_is_noop(self):
        baseline = run()
        failed = run(failures=[FailureSpec("local", 2, baseline.total_s * 10)])
        assert failed.total_s == pytest.approx(baseline.total_s)
        assert failed.stats.clusters["local"].workers_failed == 0


class TestSchedulerReassign:
    def test_reassign_returns_job_to_front(self):
        from repro.data.formats import tokens_format
        from repro.data.index import build_index
        from repro.runtime.jobs import jobs_from_index
        from repro.runtime.scheduler import HeadScheduler

        jobs = jobs_from_index(build_index(tokens_format(), [8], chunk_units=2))
        sched = HeadScheduler(jobs)
        batch = sched.request_jobs("local", 2)
        sched.reassign(batch[0])
        sched.complete(batch[1])
        # The reassigned job comes back first (front of its file queue).
        again = sched.request_jobs("local", 1)
        assert again[0].job_id == batch[0].job_id
        sched.complete(again[0])

    def test_reassign_without_outstanding_raises(self):
        from repro.data.formats import tokens_format
        from repro.data.index import build_index
        from repro.runtime.jobs import jobs_from_index
        from repro.runtime.scheduler import HeadScheduler

        jobs = jobs_from_index(build_index(tokens_format(), [4], chunk_units=2))
        sched = HeadScheduler(jobs)
        with pytest.raises(RuntimeError):
            sched.reassign(jobs[0])

    def test_reassign_exactly_once_overall(self):
        from repro.data.formats import tokens_format
        from repro.data.index import build_index
        from repro.runtime.jobs import jobs_from_index
        from repro.runtime.scheduler import HeadScheduler

        jobs = jobs_from_index(build_index(tokens_format(), [12], chunk_units=2))
        sched = HeadScheduler(jobs)
        processed = []
        first = True
        while True:
            batch = sched.request_jobs("local", 3)
            if not batch:
                break
            for j in batch:
                if first:
                    sched.reassign(j)  # simulate one lost job
                    first = False
                else:
                    sched.complete(j)
                    processed.append(j.job_id)
        assert sorted(processed) == [j.job_id for j in jobs]
        assert sched.all_done


class TestRecoveryAccounting:
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_recovered_job_books_only_its_processing_time(self, prefetch):
        """``recovery_s`` is compute only: a recovered job's re-fetch
        lands in ``retrieval_s``, as in the live worker, whether the core
        fetched it inline or out of its read-ahead window."""
        from repro.runtime.scheduler import HeadScheduler
        from repro.sim.trace import Tracer

        env = EnvironmentConfig("h", 0.5, 8, 8)
        profile = APP_PROFILES["kmeans"]
        params = ResourceParams()
        schedulers, tracer = [], Tracer()

        def factory(jobs):
            schedulers.append(HeadScheduler(jobs))
            return schedulers[-1]

        res = simulate_run(
            paper_index(profile, env), env.clusters(params), profile, params,
            failures=[FailureSpec("local", 4, 20.0)], prefetch=prefetch,
            tracer=tracer, scheduler_factory=factory,
        )
        requeued = schedulers[0].requeued_ids
        assert res.stats.jobs_recovered == len(requeued) > 0
        for name, cluster in res.stats.clusters.items():
            for wid, w in enumerate(cluster.workers):
                computed = [
                    s.duration for s in tracer.spans
                    if s.worker == f"{name}/{wid}" and s.kind == "compute"
                    and s.job_id in requeued
                ]
                assert w.jobs_recovered == len(computed)
                assert w.recovery_s == pytest.approx(sum(computed))
