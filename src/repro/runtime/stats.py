"""Execution-time accounting.

The paper reports, per cluster, the decomposition of overall execution
time into **processing**, **data retrieval**, and **sync** (barrier wait
plus global-reduction exchange), and additionally tracks per-cluster job
counts (Table I) and idle/global-reduction overheads (Table II).  Both
execution engines populate these structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["WorkerStats", "ClusterStats", "RunStats"]


def _percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[rank]


@dataclass
class WorkerStats:
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
    # ``overlap_s`` is the fetch time hidden under processing, so
    # retrieval_s + overlap_s recovers the serial engine's retrieval bar.
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
    # serialize/deserialize time; ``shm_nbytes`` counts bytes that
    # crossed through shared-memory segments.  All zero for in-process
    # engines.
    ipc_s: float = 0.0
    ser_s: float = 0.0
    shm_nbytes: int = 0
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
    # striped fetch), reconstructions that needed a parity decode, and
    # -- in the DES, where losers are observable synchronously -- bytes
    # of losing fragments fetched but unused.  Real engines account
    # wasted bytes on the fetcher instead (losers land after the fetch
    # returns); ClusterStats sums both.
    n_fragments: int = 0
    n_parity_decodes: int = 0
    fragments_wasted_bytes: int = 0

    @property
    def busy_s(self) -> float:
        return self.processing_s + self.retrieval_s

    @property
    def fold_ns_per_byte(self) -> float:
        """Fold-kernel nanoseconds per unit byte (the per-byte fold cost)."""
        return self.fold_s * 1e9 / self.bytes_folded if self.bytes_folded else 0.0


@dataclass
class ClusterStats:
    """Aggregated view of one cluster's workers."""

    name: str
    location: str
    workers: list[WorkerStats] = field(default_factory=list)
    robj_nbytes: int = 0            # size of the reduction object it shipped
    robj_transfer_s: float = 0.0    # time to send it to the head
    finished_at: float = 0.0        # when the last worker finished jobs
    idle_s: float = 0.0             # waiting for the other cluster, unable to steal
    # Fetch-path fault counters, filled from this cluster's fetchers.
    n_retries: int = 0              # sub-range retries issued
    n_errors: int = 0               # fetches that failed past the retry policy
    bytes_retried: int = 0          # bytes re-requested by those retries
    n_breaker_skips: int = 0        # replica sources skipped (breaker open)
    n_abandoned: int = 0            # attempts abandoned by per-attempt timeouts
    # Bytes of losing striped fragments fetched but unused, rolled up
    # from this cluster's fetchers (see WorkerStats for the DES path).
    fragments_wasted_bytes: int = 0
    # Per-successful-fetch wall seconds (cache hits excluded), pooled
    # from this cluster's fetchers -- the p95 latency sample set.
    fetch_latencies: list = field(default_factory=list)
    # Transfer-layer state per data location, filled from this cluster's
    # autotuners when adaptive fetch is on: location -> snapshot dict
    # (parts, effective_bw, trajectory, ...).
    autotune: dict = field(default_factory=dict)
    # Fan-out accounting, rolled up from this cluster's fetchers: ranges
    # fetched with one GET vs split over the range pool, and per data
    # location the fastest recent GET (seconds per byte, None before any)
    # that the split decision read -- why a store is fetched unsplit.
    n_single_fetches: int = 0
    n_split_fetches: int = 0
    get_s_per_byte: dict = field(default_factory=dict)

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def _mean(self, attr: str) -> float:
        if not self.workers:
            return 0.0
        return sum(getattr(w, attr) for w in self.workers) / len(self.workers)

    @property
    def processing_s(self) -> float:
        """Mean per-worker processing time (the stacked-bar component)."""
        return self._mean("processing_s")

    @property
    def retrieval_s(self) -> float:
        return self._mean("retrieval_s")

    @property
    def sync_s(self) -> float:
        return self._mean("sync_s")

    @property
    def total_s(self) -> float:
        """Stacked-bar total: all per-worker mean components."""
        return (
            self.processing_s + self.retrieval_s + self.sync_s
            + self.ipc_s + self.ser_s
        )

    @property
    def jobs_processed(self) -> int:
        return sum(w.jobs_processed for w in self.workers)

    @property
    def jobs_stolen(self) -> int:
        return sum(w.jobs_stolen for w in self.workers)

    @property
    def workers_failed(self) -> int:
        return sum(1 for w in self.workers if w.failed)

    @property
    def overlap_s(self) -> float:
        """Mean per-worker fetch time hidden under processing."""
        return self._mean("overlap_s")

    @property
    def prefetch_hits(self) -> int:
        return sum(w.prefetch_hits for w in self.workers)

    @property
    def prefetch_misses(self) -> int:
        return sum(w.prefetch_misses for w in self.workers)

    @property
    def cache_hits(self) -> int:
        return sum(w.cache_hits for w in self.workers)

    @property
    def cache_misses(self) -> int:
        return sum(w.cache_misses for w in self.workers)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of this cluster's fetches served by the chunk cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def jobs_recovered(self) -> int:
        return sum(w.jobs_recovered for w in self.workers)

    @property
    def recovery_s(self) -> float:
        """Total compute time spent re-executing requeued jobs."""
        return sum(w.recovery_s for w in self.workers)

    @property
    def ipc_s(self) -> float:
        """Mean per-worker cross-process data-movement time."""
        return self._mean("ipc_s")

    @property
    def ser_s(self) -> float:
        """Mean per-worker reduction-object (de)serialization time."""
        return self._mean("ser_s")

    @property
    def shm_nbytes(self) -> int:
        """Total bytes this cluster moved through shared memory."""
        return sum(w.shm_nbytes for w in self.workers)

    @property
    def bytes_wire(self) -> int:
        """Total bytes this cluster's fetches pulled over connections."""
        return sum(w.bytes_wire for w in self.workers)

    @property
    def bytes_logical(self) -> int:
        """Total decoded chunk bytes this cluster's workers consumed."""
        return sum(w.bytes_logical for w in self.workers)

    @property
    def compress_ratio(self) -> float:
        """Wire bytes per logical byte (1.0 = uncompressed, <1 = shrunk)."""
        return self.bytes_wire / self.bytes_logical if self.bytes_logical else 1.0

    @property
    def decode_s(self) -> float:
        """Total codec decode time across this cluster's workers."""
        return sum(w.decode_s for w in self.workers)

    @property
    def fold_s(self) -> float:
        """Total fold-kernel time across this cluster's workers."""
        return sum(w.fold_s for w in self.workers)

    @property
    def bytes_folded(self) -> int:
        return sum(w.bytes_folded for w in self.workers)

    @property
    def n_fold_calls(self) -> int:
        return sum(w.n_fold_calls for w in self.workers)

    @property
    def n_copies(self) -> int:
        """Total post-reassembly buffer copies across this cluster."""
        return sum(w.n_copies for w in self.workers)

    @property
    def fold_ns_per_byte(self) -> float:
        """Cluster-wide fold-kernel nanoseconds per unit byte."""
        return self.fold_s * 1e9 / self.bytes_folded if self.bytes_folded else 0.0

    @property
    def effective_bw(self) -> float:
        """Best EWMA path bandwidth (bytes/s) the autotuners measured."""
        return max(
            (snap.get("effective_bw", 0.0) for snap in self.autotune.values()),
            default=0.0,
        )

    @property
    def n_failovers(self) -> int:
        return sum(w.n_failovers for w in self.workers)

    @property
    def n_hedges(self) -> int:
        return sum(w.n_hedges for w in self.workers)

    @property
    def hedge_wins(self) -> int:
        return sum(w.hedge_wins for w in self.workers)

    @property
    def n_fragments(self) -> int:
        return sum(w.n_fragments for w in self.workers)

    @property
    def n_parity_decodes(self) -> int:
        return sum(w.n_parity_decodes for w in self.workers)

    @property
    def wasted_fragment_bytes(self) -> int:
        """Losing-fragment bytes: fetcher rollup plus DES worker counts."""
        return self.fragments_wasted_bytes + sum(
            w.fragments_wasted_bytes for w in self.workers
        )

    @property
    def fetch_p95_s(self) -> float:
        """95th-percentile successful-fetch latency (0 with no samples)."""
        return _percentile(self.fetch_latencies, 0.95)


@dataclass
class RunStats:
    """Complete accounting for one execution."""

    clusters: dict[str, ClusterStats] = field(default_factory=dict)
    total_s: float = 0.0              # wall-clock (sim or real) of the run
    global_reduction_s: float = 0.0   # robj exchange + final merge
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

    @property
    def jobs_processed(self) -> int:
        return sum(c.jobs_processed for c in self.clusters.values())

    @property
    def jobs_stolen(self) -> int:
        return sum(c.jobs_stolen for c in self.clusters.values())

    @property
    def prefetch_hits(self) -> int:
        return sum(c.prefetch_hits for c in self.clusters.values())

    @property
    def cache_hits(self) -> int:
        return sum(c.cache_hits for c in self.clusters.values())

    @property
    def cache_misses(self) -> int:
        return sum(c.cache_misses for c in self.clusters.values())

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def n_retries(self) -> int:
        return sum(c.n_retries for c in self.clusters.values())

    @property
    def n_errors(self) -> int:
        return sum(c.n_errors for c in self.clusters.values())

    @property
    def bytes_retried(self) -> int:
        return sum(c.bytes_retried for c in self.clusters.values())

    @property
    def n_failed_workers(self) -> int:
        return sum(c.workers_failed for c in self.clusters.values())

    @property
    def n_failovers(self) -> int:
        return sum(c.n_failovers for c in self.clusters.values())

    @property
    def n_hedges(self) -> int:
        return sum(c.n_hedges for c in self.clusters.values())

    @property
    def hedge_wins(self) -> int:
        return sum(c.hedge_wins for c in self.clusters.values())

    @property
    def n_breaker_skips(self) -> int:
        return sum(c.n_breaker_skips for c in self.clusters.values())

    @property
    def n_abandoned(self) -> int:
        return sum(c.n_abandoned for c in self.clusters.values())

    @property
    def n_fragments(self) -> int:
        return sum(c.n_fragments for c in self.clusters.values())

    @property
    def n_parity_decodes(self) -> int:
        return sum(c.n_parity_decodes for c in self.clusters.values())

    @property
    def fragments_wasted_bytes(self) -> int:
        return sum(c.wasted_fragment_bytes for c in self.clusters.values())

    @property
    def n_breaker_transitions(self) -> int:
        """Total breaker state transitions across every store."""
        return sum(
            b.get("n_opened", 0) + b.get("n_half_opened", 0) + b.get("n_closed", 0)
            for b in self.breakers.values()
        )

    @property
    def fetch_p95_s(self) -> float:
        """Run-wide 95th-percentile successful-fetch latency."""
        pooled: list = []
        for c in self.clusters.values():
            pooled.extend(c.fetch_latencies)
        return _percentile(pooled, 0.95)

    @property
    def jobs_recovered(self) -> int:
        return sum(c.jobs_recovered for c in self.clusters.values())

    @property
    def recovery_s(self) -> float:
        return sum(c.recovery_s for c in self.clusters.values())

    @property
    def shm_nbytes(self) -> int:
        return sum(c.shm_nbytes for c in self.clusters.values())

    @property
    def bytes_wire(self) -> int:
        return sum(c.bytes_wire for c in self.clusters.values())

    @property
    def bytes_logical(self) -> int:
        return sum(c.bytes_logical for c in self.clusters.values())

    @property
    def compress_ratio(self) -> float:
        return self.bytes_wire / self.bytes_logical if self.bytes_logical else 1.0

    @property
    def decode_s(self) -> float:
        return sum(c.decode_s for c in self.clusters.values())

    @property
    def fold_s(self) -> float:
        return sum(c.fold_s for c in self.clusters.values())

    @property
    def bytes_folded(self) -> int:
        return sum(c.bytes_folded for c in self.clusters.values())

    @property
    def n_fold_calls(self) -> int:
        return sum(c.n_fold_calls for c in self.clusters.values())

    @property
    def n_copies(self) -> int:
        return sum(c.n_copies for c in self.clusters.values())

    @property
    def fold_ns_per_byte(self) -> float:
        """Run-wide fold-kernel nanoseconds per unit byte."""
        return self.fold_s * 1e9 / self.bytes_folded if self.bytes_folded else 0.0

    def breakdown_rows(self) -> list[dict]:
        """Rows for the Figure-3-style stacked breakdown.

        ``ipc_s``/``ser_s`` decompose the cross-process overheads of the
        process engine next to processing and retrieval, so the overlap
        of fetch, IPC, and compute is visible in one table (both are
        zero for the in-process engines).
        """
        return [
            {
                "cluster": c.name,
                "processing_s": round(c.processing_s, 4),
                "retrieval_s": round(c.retrieval_s, 4),
                "sync_s": round(c.sync_s, 4),
                "ipc_s": round(c.ipc_s, 4),
                "ser_s": round(c.ser_s, 4),
                "total_s": round(c.total_s, 4),
                "n_retries": c.n_retries,
                "n_errors": c.n_errors,
                "bytes_retried": c.bytes_retried,
            }
            for c in self.clusters.values()
        ]

    def ipc_rows(self) -> list[dict]:
        """Rows decomposing cross-process data movement per cluster.

        Only the process engine populates these: ``ipc_s`` is shared-
        memory copy plus queue round-trip time, ``ser_s`` the pickle-5
        out-of-band (de)serialization of reduction objects, and
        ``shm_nbytes`` the bytes that crossed process boundaries through
        shared segments instead of pipes.
        """
        return [
            {
                "cluster": c.name,
                "ipc_s": round(c.ipc_s, 4),
                "ser_s": round(c.ser_s, 4),
                "shm_nbytes": c.shm_nbytes,
            }
            for c in self.clusters.values()
        ]

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
        and ``wasted_frag_bytes`` (losing fragments fetched anyway).
        """
        return [
            {
                "cluster": c.name,
                "n_retries": c.n_retries,
                "n_errors": c.n_errors,
                "bytes_retried": c.bytes_retried,
                "workers_failed": c.workers_failed,
                "jobs_recovered": c.jobs_recovered,
                "recovery_s": round(c.recovery_s, 4),
                "n_failovers": c.n_failovers,
                "n_hedges": c.n_hedges,
                "hedge_wins": c.hedge_wins,
                "n_breaker_skips": c.n_breaker_skips,
                "n_abandoned": c.n_abandoned,
                "n_parity_decodes": c.n_parity_decodes,
                "wasted_frag_bytes": c.wasted_fragment_bytes,
                "fetch_p95_ms": round(c.fetch_p95_s * 1e3, 3),
            }
            for c in self.clusters.values()
        ]

    def breaker_rows(self) -> list[dict]:
        """Rows for the per-store health/breaker snapshot."""
        return [
            {"store": loc, **snap} for loc, snap in sorted(self.breakers.items())
        ]

    def transfer_rows(self) -> list[dict]:
        """Rows decomposing the WAN transfer layer per cluster.

        ``bytes_wire``/``bytes_logical``/``compress_ratio`` show what
        compression saved on the wire; ``decode_s`` its CPU cost;
        ``effective_bw``/``parts``/``tuner`` report what the AIMD
        autotuner learned about each path (current fan-out per data
        location, grow/backoff decision counts);
        ``fetches_single``/``fetches_split`` how many ranges went out as
        one GET vs over the range pool, and ``s_per_byte`` the observed
        per-store GET rate that decided it.
        """
        rows = []
        for c in self.clusters.values():
            parts = {
                loc: snap.get("parts") for loc, snap in sorted(c.autotune.items())
            }
            rows.append(
                {
                    "cluster": c.name,
                    "bytes_logical": c.bytes_logical,
                    "bytes_wire": c.bytes_wire,
                    "compress_ratio": round(c.compress_ratio, 4),
                    "decode_s": round(c.decode_s, 4),
                    "effective_bw_mbps": round(c.effective_bw / 1e6, 3),
                    "parts": parts or None,
                    "tuner_grows": sum(
                        s.get("n_grow", 0) for s in c.autotune.values()
                    ),
                    "tuner_backoffs": sum(
                        s.get("n_backoff", 0) for s in c.autotune.values()
                    ),
                    "fetches_single": c.n_single_fetches,
                    "fetches_split": c.n_split_fetches,
                    "s_per_byte": dict(sorted(c.get_s_per_byte.items())) or None,
                }
            )
        return rows

    def pushdown_rows(self) -> list[dict]:
        """One row summarizing metadata-first retrieval for the run.

        ``bytes_pruned`` is wire bytes the head proved it never needed
        (encoded size when the dataset is coded); ``pruned_fraction``
        relates that to the total the run would otherwise have fetched
        (``bytes_wire + bytes_pruned``).  ``n_reordered`` counts
        surviving jobs the ``priority()`` hint moved off chunk-id order.
        """
        would_fetch = self.bytes_wire + self.bytes_pruned
        return [
            {
                "mode": self.pushdown_mode or "off",
                "n_pruned_chunks": self.n_pruned_chunks,
                "bytes_pruned": self.bytes_pruned,
                "bytes_wire": self.bytes_wire,
                "pruned_fraction": (
                    round(self.bytes_pruned / would_fetch, 4) if would_fetch else 0.0
                ),
                "n_reordered": self.n_reordered,
            }
        ]

    def pipeline_rows(self) -> list[dict]:
        """Rows decomposing the prefetch/cache pipeline per cluster.

        ``retrieval_s`` is the residual stall, ``overlap_s`` the fetch
        time hidden under computation; their sum is what a serial
        (non-pipelined) run would have shown as its retrieval bar.
        ``fold_ns_per_byte``/``n_fold_calls``/``n_copies`` expose the
        decode-to-fold hot path: per-byte kernel cost, kernel dispatch
        count (1/chunk on the batch path), and whole-chunk buffer copies
        made after wire reassembly (0 is the zero-copy ideal).
        """
        return [
            {
                "cluster": c.name,
                "retrieval_s": round(c.retrieval_s, 4),
                "overlap_s": round(c.overlap_s, 4),
                "prefetch_hits": c.prefetch_hits,
                "prefetch_misses": c.prefetch_misses,
                "cache_hits": c.cache_hits,
                "cache_misses": c.cache_misses,
                "cache_hit_rate": round(c.cache_hit_rate, 4),
                "fold_s": round(c.fold_s, 4),
                "fold_ns_per_byte": round(c.fold_ns_per_byte, 3),
                "n_fold_calls": c.n_fold_calls,
                "n_copies": c.n_copies,
            }
            for c in self.clusters.values()
        ]
