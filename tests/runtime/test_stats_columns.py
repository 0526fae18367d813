"""Golden columns: the key names *and order* of every stats table.

``bursting/report.py``, the CLI and the benchmark ledger print these
rows as they come, so a renamed or reordered column is a visible change
of the product, not a refactor detail.
"""

import json

from repro.apps.wordcount import WordCountSpec
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.generator import generate_tokens
from repro.runtime import ClusterConfig
from repro.runtime.stats import ClusterStats, RunStats, WorkerStats
from repro.service import BurstingService
from repro.storage.local import MemoryStore

GOLDEN = {
    "breakdown_rows": [
        "cluster", "processing_s", "retrieval_s", "sync_s", "ipc_s", "ser_s",
        "total_s", "n_retries", "n_errors", "bytes_retried", "finalize_s",
    ],
    "ipc_rows": ["cluster", "ipc_s", "ser_s", "shm_nbytes", "shm_segments"],
    "fault_rows": [
        "cluster", "n_retries", "n_errors", "bytes_retried", "workers_failed",
        "jobs_recovered", "recovery_s", "n_failovers", "n_hedges", "hedge_wins",
        "n_breaker_skips", "n_abandoned", "n_parity_decodes",
        "wasted_frag_bytes", "fetch_p95_ms",
    ],
    "breaker_rows": ["store", "state", "n_opened"],
    "transfer_rows": [
        "cluster", "bytes_logical", "bytes_wire", "compress_ratio", "decode_s",
        "fetches_single", "fetches_split", "s_per_byte",
    ],
    "pushdown_rows": [
        "mode", "n_pruned_chunks", "bytes_pruned", "bytes_wire",
        "pruned_fraction", "n_reordered",
    ],
    "pipeline_rows": [
        "cluster", "retrieval_s", "overlap_s", "prefetch_hits",
        "prefetch_misses", "cache_hits", "cache_misses", "cache_hit_rate",
        "fold_s", "fold_ns_per_byte", "n_fold_calls", "n_copies",
    ],
}

SERVICE_COLUMNS = [
    "job", "tenant", "state", "chunks", "chunks_done", "total_s", "stolen",
    "workers_failed", "recovered", "requeued", "retries",
]


def populated_run() -> RunStats:
    """Two clusters with awkward (unrounded, non-zero) values everywhere."""
    rs = RunStats(total_s=3.14159265, finalize_s=0.0123456,
                  pushdown_mode="prune", n_pruned_chunks=3, bytes_pruned=3000,
                  n_reordered=2)
    rs.breakers = {"cloud": {"state": "closed", "n_opened": 1}}
    for name, scale in (("local", 1), ("cloud", 3)):
        c = ClusterStats(name, name)
        for i in range(2):
            k = scale * (i + 1)
            c.workers.append(WorkerStats(
                processing_s=1.23456789 * k, retrieval_s=0.98765432 * k,
                sync_s=0.11111111 * k, overlap_s=0.22222222 * k,
                ipc_s=0.33333333 * k, ser_s=0.44444444 * k,
                jobs_processed=5 * k, jobs_stolen=k, failed=(i == 1),
                prefetch_hits=2 * k, prefetch_misses=k, cache_hits=k,
                cache_misses=4 * k, jobs_recovered=k, recovery_s=0.55555555 * k,
                shm_nbytes=1000 * k, shm_segments=k,
                bytes_wire=700 * k, bytes_logical=900 * k,
                decode_s=0.66666666 * k, fold_s=0.77777777 * k,
                bytes_folded=900 * k, n_fold_calls=5 * k, n_copies=5 * k,
                n_failovers=k, n_hedges=2 * k, hedge_wins=k, n_fragments=4 * k,
                n_parity_decodes=k, fragments_wasted_bytes=10 * k,
            ))
        # The fetch counters are the first worker's, the latency samples
        # split between both: the cluster reads their sums and pool.
        w = c.workers[0]
        w.n_retries, w.n_errors, w.bytes_retried = 3 * scale, scale, 300 * scale
        w.n_breaker_skips, w.n_abandoned = 2 * scale, scale
        w.n_single_fetches, w.n_split_fetches = 7 * scale, 2 * scale
        for i, w in enumerate(c.workers):
            w.fetch_latencies = [0.001234567 * j * scale for j in range(1 + 10 * i, 11 + 10 * i)]
        c.get_s_per_byte = {"local": 1.5e-9, "cloud": None}
        rs.clusters[name] = c
    return rs


def test_every_table_has_its_golden_columns_in_order():
    rs = populated_run()
    for table, columns in GOLDEN.items():
        rows = getattr(rs, table)()
        assert rows, table
        for row in rows:
            assert list(row) == columns, table


def test_tables_are_one_row_per_cluster_or_store():
    rs = populated_run()
    for table in ("breakdown_rows", "ipc_rows", "fault_rows", "transfer_rows",
                  "pipeline_rows"):
        assert [r["cluster"] for r in getattr(rs, table)()] == ["local", "cloud"]
    assert [r["store"] for r in rs.breaker_rows()] == ["cloud"]
    assert len(rs.pushdown_rows()) == 1


def test_cell_values_and_rounding_are_pinned():
    """The exact rendered cells of the first cluster, rounding included."""
    rs = populated_run()
    assert json.dumps(rs.breakdown_rows()[0]) == json.dumps({
        "cluster": "local", "processing_s": 1.8519, "retrieval_s": 1.4815,
        "sync_s": 0.1667, "ipc_s": 0.5, "ser_s": 0.6667, "total_s": 4.6667,
        "n_retries": 3, "n_errors": 1, "bytes_retried": 300,
        "finalize_s": 0.0123,
    })
    assert json.dumps(rs.ipc_rows()[0]) == json.dumps({
        "cluster": "local", "ipc_s": 0.5, "ser_s": 0.6667, "shm_nbytes": 3000,
        "shm_segments": 3,
    })
    assert json.dumps(rs.fault_rows()[0]) == json.dumps({
        "cluster": "local", "n_retries": 3, "n_errors": 1, "bytes_retried": 300,
        "workers_failed": 1, "jobs_recovered": 3, "recovery_s": 1.6667,
        "n_failovers": 3, "n_hedges": 6, "hedge_wins": 3, "n_breaker_skips": 2,
        "n_abandoned": 1, "n_parity_decodes": 3, "wasted_frag_bytes": 30,
        "fetch_p95_ms": 24.691,
    })
    assert json.dumps(rs.transfer_rows()[0]) == json.dumps({
        "cluster": "local", "bytes_logical": 2700, "bytes_wire": 2100,
        "compress_ratio": 0.7778, "decode_s": 2.0, "fetches_single": 7,
        "fetches_split": 2,
        "s_per_byte": {"cloud": None, "local": 1.5e-9},
    })
    assert json.dumps(rs.pushdown_rows()) == json.dumps([{
        "mode": "prune", "n_pruned_chunks": 3, "bytes_pruned": 3000,
        "bytes_wire": 8400, "pruned_fraction": 0.2632, "n_reordered": 2,
    }])
    assert json.dumps(rs.pipeline_rows()[0]) == json.dumps({
        "cluster": "local", "retrieval_s": 1.4815, "overlap_s": 0.3333,
        "prefetch_hits": 6, "prefetch_misses": 3, "cache_hits": 3,
        "cache_misses": 12, "cache_hit_rate": 0.2, "fold_s": 2.3333,
        "fold_ns_per_byte": 864197.522, "n_fold_calls": 15, "n_copies": 15,
    })
    assert rs.breaker_rows() == [{"store": "cloud", "state": "closed",
                                  "n_opened": 1}]


def test_empty_run_renders_zero_rows():
    rs = RunStats()
    rs.clusters["x"] = ClusterStats("x", "local")
    assert json.dumps(rs.pipeline_rows()) == json.dumps([{
        "cluster": "x", "retrieval_s": 0.0, "overlap_s": 0.0,
        "prefetch_hits": 0, "prefetch_misses": 0, "cache_hits": 0,
        "cache_misses": 0, "cache_hit_rate": 0.0, "fold_s": 0,
        "fold_ns_per_byte": 0.0, "n_fold_calls": 0, "n_copies": 0,
    }])
    assert json.dumps(rs.transfer_rows()) == json.dumps([{
        "cluster": "x", "bytes_logical": 0, "bytes_wire": 0,
        "compress_ratio": 1.0, "decode_s": 0, "fetches_single": 0,
        "fetches_split": 0, "s_per_byte": None,
    }])
    assert json.dumps(rs.pushdown_rows()) == json.dumps([{
        "mode": "off", "n_pruned_chunks": 0, "bytes_pruned": 0,
        "bytes_wire": 0, "pruned_fraction": 0.0, "n_reordered": 0,
    }])
    assert rs.breaker_rows() == []


class TestServiceRows:
    def test_columns_order_and_all_row(self):
        stores = {"local": MemoryStore("local")}
        toks = generate_tokens(6000, 100, seed=3)
        spec = WordCountSpec()
        index = write_dataset(toks, spec.fmt, stores["local"], n_files=2,
                              chunk_units=500)
        index = distribute_dataset(index, stores, {"local": 1.0}, stores["local"])
        service = BurstingService([ClusterConfig("local", "local", 2, 2)], stores)
        try:
            assert json.dumps(service.service_rows()) == json.dumps([{
                "job": "ALL", "tenant": "-", "state": "-", "chunks": 0,
                "chunks_done": 0, "total_s": 0.0, "stolen": 0,
                "workers_failed": 0, "recovered": 0, "requeued": 0,
                "retries": 0,
            }])
            handles = [service.submit(spec, index, tenant=t) for t in "ab"]
            results = [h.result(timeout=30) for h in handles]
            rows = service.service_rows()
        finally:
            service.shutdown()
        assert [list(r) for r in rows] == [SERVICE_COLUMNS] * 3
        assert [r["job"] for r in rows] == [h.run_id for h in handles] + ["ALL"]
        for row, rr in zip(rows, results):
            assert row["total_s"] == round(rr.stats.total_s, 4)
            assert row["chunks"] == row["chunks_done"] == len(index.chunks)
        total = rows[-1]
        assert (total["tenant"], total["state"]) == ("-", "-")
        # The ALL row rounds the sum, not sums the rounded rows.
        assert total["total_s"] == round(
            sum(rr.stats.total_s for rr in results), 4
        )
        for col in SERVICE_COLUMNS[3:]:
            if col != "total_s":
                assert total[col] == sum(r[col] for r in rows[:-1]), col
