"""Execution-time accounting.

The paper reports, per cluster, the decomposition of overall execution
time into **processing**, **data retrieval**, and **sync** (barrier wait
plus global-reduction exchange), and additionally tracks per-cluster job
counts (Table I) and idle/global-reduction overheads (Table II).  Both
execution engines populate these structures.

The counter set is data: :class:`WorkerStats`' field list is its only
declaration.  Every numeric field rolls up to :class:`ClusterStats` and
on to :class:`RunStats` without being named again (a list pools), and
the ``*_rows()`` tables are column lists over those names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable

__all__ = ["WorkerStats", "ClusterStats", "RunStats"]


def _percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def _counters(cls: Any) -> frozenset[str]:
    """Names of ``cls``'s ``int``/``float`` fields: the counters that roll up.
    The timestamp ``finished_at`` is state, not a counter (as is the flag ``failed``)."""
    return frozenset(
        f.name
        for f in fields(cls)
        if f.type in ("int", "float") and f.name != "finished_at"
    )


class _Ratios:
    """The derived ratios, written once: every level has these counters."""

    cache_hits: int
    cache_misses: int
    bytes_wire: int
    bytes_logical: int
    fold_s: float
    bytes_folded: int
    fetch_latencies: list

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of fetches served by the chunk cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def compress_ratio(self) -> float:
        """Wire bytes per logical byte (1.0 = uncompressed, <1 = shrunk)."""
        return self.bytes_wire / self.bytes_logical if self.bytes_logical else 1.0

    @property
    def fold_ns_per_byte(self) -> float:
        """Fold-kernel nanoseconds per unit byte (the per-byte fold cost)."""
        return self.fold_s * 1e9 / self.bytes_folded if self.bytes_folded else 0.0

    @property
    def fetch_p95_s(self) -> float:
        """95th-percentile fetch latency of the pooled samples (0 with none)."""
        return _percentile(self.fetch_latencies, 0.95)


@dataclass
class WorkerStats(_Ratios):
    """Timers accumulated by one worker (one core in the simulator)."""

    processing_s: float = 0.0
    retrieval_s: float = 0.0
    sync_s: float = 0.0
    jobs_processed: int = 0
    jobs_stolen: int = 0        # jobs whose data lived at another site
    finished_at: float = 0.0    # when this worker ran out of work
    failed: bool = False        # worker died before the run finished
    # Pipelined-retrieval accounting.  With prefetching, ``retrieval_s``
    # counts only the *stall* (time the worker actually waited for data);
    # ``overlap_s`` is the fetch time that ran hidden -- under processing
    # or, with more than one fetch in flight, under another fetch: it is
    # hidden *fetch-seconds* and may exceed wall time.  retrieval_s +
    # overlap_s recovers the sum of fetch times (the serial engine's
    # retrieval bar when fetches do not contend).
    overlap_s: float = 0.0
    prefetch_hits: int = 0      # prefetched data ready before it was needed
    prefetch_misses: int = 0    # worker stalled waiting for the prefetch
    cache_hits: int = 0         # fetches served from the chunk cache
    cache_misses: int = 0       # fetches that went to the store
    # Fault-recovery accounting: jobs this worker re-executed after a
    # failed worker returned them to the head, and the compute time
    # those re-executions cost (the re-fetch lands in ``retrieval_s``).
    jobs_recovered: int = 0
    recovery_s: float = 0.0
    # Cross-process accounting (ProcessEngine).  ``ipc_s`` is time spent
    # moving data across the process boundary (copying chunk bytes into
    # shared memory, queue round-trips); ``ser_s`` is reduction-object
    # serialize/deserialize time; ``shm_nbytes`` counts payload bytes
    # handed over through shared-memory segments and ``shm_segments``
    # the segments that had to be *created* for them (a run recycles its
    # segments, so this stays near one per chunk in flight however many
    # chunks there are).  All zero for in-process engines.
    ipc_s: float = 0.0
    ser_s: float = 0.0
    shm_nbytes: int = 0
    shm_segments: int = 0
    # Transfer-layer accounting.  ``bytes_wire`` is what this worker's
    # fetches actually pulled over store connections (encoded size for
    # compressed chunks, zero on cache hits); ``bytes_logical`` the
    # decoded payload handed to the fold; ``decode_s`` codec decode time
    # (kept separate from retrieval stall).
    bytes_wire: int = 0
    bytes_logical: int = 0
    decode_s: float = 0.0
    # Hot-path accounting.  ``fold_s`` is time inside local-reduction
    # kernels only (a subset of ``processing_s``, which also covers
    # decode and verify); ``bytes_folded`` the unit bytes those kernels
    # consumed; ``n_fold_calls`` how many kernel invocations they took
    # (1 per chunk on the batch path, chunk/group on the loop path);
    # ``n_copies`` whole-chunk buffer copies made after wire reassembly
    # (codec inflations, shm copies, cache-hit copies -- 0 is the
    # zero-copy ideal).
    fold_s: float = 0.0
    bytes_folded: int = 0
    n_fold_calls: int = 0
    n_copies: int = 0
    # Replica-aware retrieval: sources that failed before a fetch
    # succeeded elsewhere, hedged duplicate launches, and hedges whose
    # backup beat the primary.
    n_failovers: int = 0
    n_hedges: int = 0
    hedge_wins: int = 0
    # Erasure-striped retrieval: fragments that fed reassemblies (k per
    # striped fetch) and reconstructions that needed a parity decode.
    # Multi-source races: bytes of losing legs (fragments, replica
    # sources) fetched or requested for nothing, booked by the fetch's
    # FetchInfo when its race is won -- or by the DES, the same way.
    n_fragments: int = 0
    n_parity_decodes: int = 0
    fragments_wasted_bytes: int = 0
    # Fetch-path faults and fan-out, named as in each fetch's ledger
    # (``FetchInfo``): ``n_errors`` counts fetches that gave up.
    n_retries: int = 0
    n_errors: int = 0
    bytes_retried: int = 0
    n_abandoned: int = 0
    n_breaker_skips: int = 0
    n_single_fetches: int = 0
    n_split_fetches: int = 0
    fetch_latencies: list = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return self.processing_s + self.retrieval_s


#: The stacked-bar components: a cluster reports their per-worker *mean*
#: (Figure 3's bars); every other worker counter is a sum.
_MEANS = frozenset("processing_s retrieval_s sync_s overlap_s ipc_s ser_s".split())
_WORKER_COUNTERS = _counters(WorkerStats)
_WORKER_LISTS = frozenset(f.name for f in fields(WorkerStats) if f.type == "list")


@dataclass
class ClusterStats(_Ratios):
    """Aggregated view of one cluster's workers: every :class:`WorkerStats`
    counter reads here under its own name, as the sum over ``workers`` or
    (``_MEANS``, the stacked-bar timers) the per-worker mean."""

    name: str
    location: str
    workers: list[WorkerStats] = field(default_factory=list)
    robj_nbytes: int = 0            # size of the reduction object it shipped
    robj_transfer_s: float = 0.0    # time to send it to the head
    finished_at: float = 0.0        # when the last worker finished jobs
    idle_s: float = 0.0             # waiting for the other cluster, unable to steal
    # Per data location, the fastest recent GET (s/byte, None before
    # any) the fan-out decision read at run end: why it went unsplit.
    get_s_per_byte: dict = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        # Reached only for names that are neither a field nor a property:
        # the worker counters and lists, rolled up on read.
        if name in _WORKER_LISTS:
            return [s for w in self.workers for s in getattr(w, name)]
        if name not in _WORKER_COUNTERS:
            raise AttributeError(name)
        total = sum(getattr(w, name) for w in self.workers)
        if name in _MEANS:
            return total / len(self.workers) if self.workers else 0.0
        return total

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def total_s(self) -> float:
        """Stacked-bar total: all per-worker mean components."""
        bars = self.processing_s + self.retrieval_s + self.sync_s
        return bars + self.ipc_s + self.ser_s

    @property
    def workers_failed(self) -> int:
        return sum(1 for w in self.workers if w.failed)


_CLUSTER_COUNTERS = _WORKER_COUNTERS | _counters(ClusterStats)


@dataclass
class RunStats(_Ratios):
    """Complete accounting for one execution: every counter readable on
    :class:`ClusterStats` (the workers' and its own) reads here under the
    same name, as the sum over ``clusters``, and every list pooled."""

    clusters: dict[str, ClusterStats] = field(default_factory=dict)
    total_s: float = 0.0              # wall-clock (sim or real) of the run
    global_reduction_s: float = 0.0   # robj exchange + final merge
    finalize_s: float = 0.0           # spec.finalize(), run after total_s is stamped
    processing_end_s: float = 0.0     # when the last cluster finished jobs
    n_requeued_jobs: int = 0          # jobs returned to the head by reassign()
    # Per-store health/breaker snapshot at run end (location -> dict of
    # state, EWMAs, transition counters), filled when a health registry
    # was active (hedge or breaker configured).
    breakers: dict = field(default_factory=dict)
    # Metadata-first retrieval (predicate pushdown).  Pruning happens at
    # the head before any job is assigned, so these are run-level
    # counters, not per-worker sums: mode that ran (None = off), chunks
    # pruned by relevant(), wire bytes those chunks would have cost, and
    # surviving jobs the priority() hint moved off chunk-id order.
    pushdown_mode: str | None = None
    n_pruned_chunks: int = 0
    bytes_pruned: int = 0
    n_reordered: int = 0

    def __getattr__(self, name: str) -> Any:
        if name in _WORKER_LISTS:
            return [s for c in self.clusters.values() for s in getattr(c, name)]
        if name not in _CLUSTER_COUNTERS:
            raise AttributeError(name)
        return sum(getattr(c, name) for c in self.clusters.values())

    @property
    def n_failed_workers(self) -> int:
        return sum(c.workers_failed for c in self.clusters.values())

    @property
    def n_breaker_transitions(self) -> int:
        """Total breaker state transitions across every store."""
        keys = ("n_opened", "n_half_opened", "n_closed")
        return sum(b.get(k, 0) for b in self.breakers.values() for k in keys)

    def _cluster_rows(self, columns: str, run_columns: str = "") -> list[dict]:
        """One row per cluster; ``run_columns`` repeat a run-level value."""
        shared = _cells(self, run_columns)
        return [
            {"cluster": c.name, **_cells(c, columns), **shared}
            for c in self.clusters.values()
        ]

    def breakdown_rows(self) -> list[dict]:
        """Rows for the Figure-3-style stacked breakdown.

        ``ipc_s``/``ser_s`` decompose the cross-process overheads of the
        process engine next to processing and retrieval, so the overlap
        of fetch, IPC, and compute is visible in one table (both are
        zero for the in-process engines).  ``finalize_s`` is the head's
        ``spec.finalize()`` call, which every cluster waits through
        after its bar ends: run-level, so it repeats on each row and is
        in neither ``total_s`` here nor ``RunStats.total_s``.
        """
        return self._cluster_rows(
            "processing_s retrieval_s sync_s ipc_s ser_s total_s "
            "n_retries n_errors bytes_retried",
            run_columns="finalize_s",
        )

    def ipc_rows(self) -> list[dict]:
        """Rows decomposing cross-process data movement per cluster.

        Only the process engine populates these: ``ipc_s`` is shared-
        memory copy plus queue round-trip time, ``ser_s`` the pickle-5
        out-of-band (de)serialization of reduction objects,
        ``shm_nbytes`` the bytes that crossed process boundaries through
        shared segments instead of pipes, and ``shm_segments`` how many
        segments were created to carry them.
        """
        return self._cluster_rows("ipc_s ser_s shm_nbytes shm_segments")

    def fault_rows(self) -> list[dict]:
        """Rows decomposing fault injection and recovery per cluster.

        ``n_retries``/``n_errors``/``bytes_retried`` come off the fetch
        path; ``workers_failed``/``jobs_recovered``/``recovery_s``
        account the crash-containment protocol (dead workers, requeued
        jobs re-executed by survivors, and the compute those
        re-executions cost).  The replica-aware columns prove each rung
        of the robustness ladder fired: ``n_failovers`` (sources
        exhausted and routed around), ``n_hedges``/``hedge_wins``
        (latency-triggered duplicates and how often the backup won),
        ``n_breaker_skips`` (sources skipped behind an open breaker),
        ``n_abandoned`` (stuck attempts the timeout walked away from),
        and ``fetch_p95_ms``.  The erasure columns do the same for the
        coding rung: ``n_parity_decodes`` (reassemblies that needed a
        GF/XOR decode because a data fragment lost its race or store)
        and ``wasted_frag_bytes`` (bytes of race losers, booked when
        their race was won).
        """
        return self._cluster_rows(
            "n_retries n_errors bytes_retried workers_failed jobs_recovered "
            "recovery_s n_failovers n_hedges hedge_wins n_breaker_skips "
            "n_abandoned n_parity_decodes wasted_frag_bytes fetch_p95_ms"
        )

    def breaker_rows(self) -> list[dict]:
        """Rows for the per-store health/breaker snapshot."""
        return [{"store": loc, **snap} for loc, snap in sorted(self.breakers.items())]

    def transfer_rows(self) -> list[dict]:
        """Rows decomposing the WAN transfer layer per cluster.

        ``bytes_wire``/``bytes_logical``/``compress_ratio`` show what
        compression saved on the wire; ``decode_s`` its CPU cost;
        ``fetches_single``/``fetches_split`` how many ranges went out as
        one GET vs over the range pool, and ``s_per_byte`` the observed
        per-store GET rate that decided it.
        """
        return self._cluster_rows(
            "bytes_logical bytes_wire compress_ratio decode_s fetches_single "
            "fetches_split s_per_byte"
        )

    def pushdown_rows(self) -> list[dict]:
        """One row summarizing metadata-first retrieval for the run.

        ``bytes_pruned`` is wire bytes the head proved it never needed
        (encoded size when the dataset is coded); ``pruned_fraction``
        relates that to the total the run would otherwise have fetched
        (``bytes_wire + bytes_pruned``).  ``n_reordered`` counts
        surviving jobs the ``priority()`` hint moved off chunk-id order.
        """
        columns = "mode n_pruned_chunks bytes_pruned bytes_wire pruned_fraction n_reordered"
        return [_cells(self, columns)]

    def pipeline_rows(self) -> list[dict]:
        """Rows decomposing the prefetch/cache pipeline per cluster.

        ``retrieval_s`` is the residual stall, ``overlap_s`` the
        fetch-seconds hidden under computation or under each other;
        their sum is the run's total fetch time, what a serial
        (non-pipelined) run would have shown as its retrieval bar.
        ``fold_ns_per_byte``/``n_fold_calls``/``n_copies`` expose the
        decode-to-fold hot path: per-byte kernel cost, kernel dispatch
        count (1/chunk on the batch path), and whole-chunk buffer copies
        made after wire reassembly (0 is the zero-copy ideal).
        """
        return self._cluster_rows(
            "retrieval_s overlap_s prefetch_hits prefetch_misses cache_hits "
            "cache_misses cache_hit_rate fold_s fold_ns_per_byte n_fold_calls n_copies"
        )


#: Table columns that are not the attribute of the same name.  Every float
#: cell is rounded to 4 places unless its column rounds tighter here.
_COMPUTED: dict[str, Callable[[Any], Any]] = {
    "wasted_frag_bytes": lambda c: c.fragments_wasted_bytes,
    "fetch_p95_ms": lambda c: round(c.fetch_p95_s * 1e3, 3),
    "fold_ns_per_byte": lambda c: round(c.fold_ns_per_byte, 3),
    "fetches_single": lambda c: c.n_single_fetches,
    "fetches_split": lambda c: c.n_split_fetches,
    "s_per_byte": lambda c: dict(sorted(c.get_s_per_byte.items())) or None,
    "mode": lambda run: run.pushdown_mode or "off",
    "pruned_fraction": lambda run: (
        run.bytes_pruned / (run.bytes_wire + run.bytes_pruned)
        if run.bytes_pruned else 0.0
    ),
}


def _cells(source: Any, columns: str) -> dict:
    """Render the space-separated ``columns`` of one stats object as a row."""
    row = {}
    for col in columns.split():
        compute = _COMPUTED.get(col)
        value = compute(source) if compute else getattr(source, col)
        row[col] = round(value, 4) if isinstance(value, float) else value
    return row
