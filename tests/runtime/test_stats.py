"""Unit tests for execution-time accounting."""

from repro.runtime.stats import ClusterStats, RunStats, WorkerStats


def make_cluster():
    c = ClusterStats("local", "local")
    c.workers.append(WorkerStats(processing_s=10.0, retrieval_s=4.0, sync_s=1.0,
                                 jobs_processed=3, jobs_stolen=1))
    c.workers.append(WorkerStats(processing_s=14.0, retrieval_s=6.0, sync_s=3.0,
                                 jobs_processed=5, jobs_stolen=0))
    return c


class TestClusterStats:
    def test_means_are_per_worker(self):
        c = make_cluster()
        assert c.processing_s == 12.0
        assert c.retrieval_s == 5.0
        assert c.sync_s == 2.0
        assert c.total_s == 19.0

    def test_job_counts_sum(self):
        c = make_cluster()
        assert c.jobs_processed == 8
        assert c.jobs_stolen == 1

    def test_empty_cluster_zeroes(self):
        c = ClusterStats("x", "local")
        assert c.processing_s == 0.0
        assert c.total_s == 0.0
        assert c.n_workers == 0

    def test_worker_busy(self):
        w = WorkerStats(processing_s=2.0, retrieval_s=3.0)
        assert w.busy_s == 5.0


class TestRunStats:
    def test_aggregates_across_clusters(self):
        rs = RunStats()
        rs.clusters["a"] = make_cluster()
        rs.clusters["b"] = make_cluster()
        assert rs.jobs_processed == 16
        assert rs.jobs_stolen == 2

    def test_breakdown_rows(self):
        rs = RunStats()
        rs.clusters["a"] = make_cluster()
        rows = rs.breakdown_rows()
        assert rows == [
            {
                "cluster": "local",
                "processing_s": 12.0,
                "retrieval_s": 5.0,
                "sync_s": 2.0,
                "ipc_s": 0.0,
                "ser_s": 0.0,
                "total_s": 19.0,
                "n_retries": 0,
                "n_errors": 0,
                "bytes_retried": 0,
                "finalize_s": 0.0,
            }
        ]

    def test_ipc_rows_and_aggregates(self):
        rs = RunStats()
        c = make_cluster()
        c.workers[0].ipc_s = 0.2
        c.workers[0].ser_s = 0.4
        c.workers[0].shm_nbytes = 1000
        c.workers[1].ipc_s = 0.6
        c.workers[1].ser_s = 0.0
        c.workers[1].shm_nbytes = 3000
        rs.clusters["a"] = c
        assert c.ipc_s == 0.4    # mean per worker, like the other bars
        assert c.ser_s == 0.2
        assert c.shm_nbytes == 4000
        assert rs.shm_nbytes == 4000
        assert c.total_s == 19.0 + 0.4 + 0.2
        assert rs.ipc_rows() == [
            {"cluster": "local", "ipc_s": 0.4, "ser_s": 0.2, "shm_nbytes": 4000,
             "shm_segments": 0}
        ]

    def test_fault_rows_and_aggregates(self):
        rs = RunStats()
        c = make_cluster()
        # The fetch counters are the workers', booked from their fetches.
        c.workers[0].n_retries = 2
        c.workers[1].n_retries = 1
        c.workers[1].n_errors = 1
        c.workers[0].bytes_retried = 512
        c.workers[0].failed = True
        c.workers[1].jobs_recovered = 2
        c.workers[1].recovery_s = 1.5
        rs.clusters["a"] = c
        rs.n_requeued_jobs = 2
        assert (c.n_retries, c.n_errors, c.bytes_retried) == (3, 1, 512)
        assert rs.n_retries == 3
        assert rs.n_errors == 1
        assert rs.bytes_retried == 512
        assert rs.n_failed_workers == 1
        assert rs.jobs_recovered == 2
        assert rs.recovery_s == 1.5
        rows = rs.fault_rows()
        assert rows == [
            {
                "cluster": "local",
                "n_retries": 3,
                "n_errors": 1,
                "bytes_retried": 512,
                "workers_failed": 1,
                "jobs_recovered": 2,
                "recovery_s": 1.5,
                "n_failovers": 0,
                "n_hedges": 0,
                "hedge_wins": 0,
                "n_breaker_skips": 0,
                "n_abandoned": 0,
                "n_parity_decodes": 0,
                "wasted_frag_bytes": 0,
                "fetch_p95_ms": 0.0,
            }
        ]
