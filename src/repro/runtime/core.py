"""Shared runtime core: the pieces both engines are built from.

The paper describes a single protocol -- a head pool, per-cluster
masters, multi-threaded slaves folding into reduction objects -- and the
two live engines (threaded, process) are two *transports* for that
protocol, not two protocols.  The threaded engine runs every job on
the :class:`~repro.service.BurstingService` it holds, whose fleet
worker is the only in-process worker loop; the process engine feeds child
processes from per-worker feeder threads.  This module holds what the
two share:

* :class:`EngineOptions` -- the frozen, validated configuration surface
  shared by every engine, the session, the driver, and the CLI.  One
  validation path (cluster-name uniqueness, crash-plan targets,
  index-vs-stores coverage) replaces the per-engine copies.
* :class:`ClusterMaster` -- the one live per-cluster master, over a
  :class:`~repro.runtime.jobs.ClusterPool` (the refill and tail rules
  the simulator asks too); its head is the service or a one-run
  :class:`RunHead` (the process engine's).
* :func:`decode_and_fold` -- the one fold step (decode a chunk's bytes,
  fold them into a reduction object, time both), and the fetch
  accounting helpers that book each fetch's ledger into its worker's
  :class:`WorkerStats`.
* :func:`finalize_run` -- the shared run epilogue: per-cluster combine,
  serialized reduction-object shipping, and idle/sync accounting.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable

from repro.core.api import (
    GeneralizedReductionSpec,
    uses_default_global_reduction,
)
from repro.core.reduction_object import ReductionObject
from repro.core.serialization import serialized_nbytes
from repro.data.chunks import ChunkInfo
from repro.data.formats import RecordFormat
from repro.data.index import DataIndex
from repro.data.redundancy import normalize_stripe
from repro.data.units import iter_unit_groups
from repro.runtime.jobs import ASK, STOP, WAIT, ClusterPool, Job
from repro.runtime.pushdown import normalize_pushdown
from repro.runtime.scheduler import HeadScheduler
from repro.runtime.stats import RunStats, WorkerStats
from repro.storage.base import StorageBackend
from repro.storage.cache import ChunkCache
from repro.storage.codecs import Buffer
from repro.storage.health import BreakerPolicy, HealthRegistry, HedgePolicy
from repro.storage.retry import RetryPolicy
from repro.storage.transfer import (
    DEFAULT_MIN_PART_NBYTES,
    HEDGE_POOL_WIDTH,
    FetchInfo,
    FetchPools,
    ParallelFetcher,
    decode_frame,
    legs_on_pool,
)

if TYPE_CHECKING:
    from repro.service.service import BurstingService

__all__ = [
    "READAHEAD",
    "READAHEAD_MAX",
    "READAHEAD_NBYTES",
    "ClusterConfig",
    "RunResult",
    "EngineOptions",
    "EngineBase",
    "ClusterMaster",
    "RunHead",
    "account_fetch_info",
    "account_overlap",
    "decode_and_fold",
    "fetch_pools",
    "make_cluster_fetcher",
    "make_cluster_fetchers",
    "window_depth",
    "window_has_room",
    "window_limit",
    "finalize_timing",
    "finalize_run",
    "snapshot_get_rates",
    "finalize_result",
]


#: The fewest chunk fetches a reading-ahead worker keeps in flight while
#: it folds.  One (a double buffer) hides retrieval only under a fold
#: that takes at least as long; a retrieval-bound worker then still
#: idles through every fetch, one stream at a time.  Two keep the link
#: busy while the worker waits on the older one; more measured no faster
#: on the suite's WAN with 1.6 MB chunks (the aggregate cap is the
#: floor) and each costs another decoded chunk of memory per worker, so
#: the window is sized in bytes (:func:`window_depth`).
READAHEAD = 2

#: Decoded bytes a reading-ahead worker reserves against: past
#: ``READAHEAD`` fetches it reserves another only while the chunk it
#: folds and the fetches in flight hold no more than two 2 MiB chunks.
#: Smaller chunks so get more entries, and a window of short races
#: still spans a stalled store's hedge delay.
READAHEAD_NBYTES = READAHEAD * (2 << 20)

#: The deepest a read-ahead window grows, however small its chunks.
READAHEAD_MAX = 4 * READAHEAD


def window_has_room(n: int, held_nbytes: int) -> bool:
    """Whether a reading-ahead worker with ``n`` fetches in flight
    reserves another, short of its window's depth (:func:`window_limit`).

    ``held_nbytes`` is what the worker holds: the chunk it folds plus
    those ``n``.  It always keeps :data:`READAHEAD` in flight, and past
    that reserves while it holds no more than :data:`READAHEAD_NBYTES`,
    up to :data:`READAHEAD_MAX` fetches.  The bound is on the bytes
    held, not on the chunk that opened the window, so a small chunk (a
    file's ragged tail, another run's stripe) cannot fill it with large
    ones.  The live fleet worker and the DES both reserve by it.
    """
    return n < READAHEAD or (n < READAHEAD_MAX and held_nbytes <= READAHEAD_NBYTES)


def window_depth(nbytes: int) -> int:
    """How deep :func:`window_has_room` lets the window grow over chunks
    of ``nbytes`` each.

    ``READAHEAD`` for chunks of ``READAHEAD_NBYTES / 3`` (1.4 MB) or
    more, as many as fit in ``READAHEAD_NBYTES`` below that, and never
    more than :data:`READAHEAD_MAX` (an empty chunk included).
    """
    return max(READAHEAD, min(READAHEAD_MAX, READAHEAD_NBYTES // max(1, nbytes)))


def window_limit(
    chunk: ChunkInfo,
    prefetch: bool,
    hedge: HedgePolicy | None,
    n_workers: int,
    alive: int,
    stripe: tuple[int, int] | None = None,
) -> int:
    """The deepest read-ahead window a job fetching ``chunk`` may ride
    in; 0 when it opens none.

    The one read-ahead policy: the live fleet worker and the DES both
    reserve by it and :func:`window_has_room`.  A job opens the window
    with ``prefetch``, or when it is striped and its legs race on the
    leg pools (:func:`~repro.storage.transfer.legs_on_pool`); a job
    reserved behind it rides the window either way, so the worker asks
    for a rider's depth with ``prefetch`` set.  For plain chunks and
    hedged replicas the window cost CPU without shortening the pass, so
    they open it only with ``prefetch``.  A raced job's legs share each
    store's leg pool with the fleet: on a cluster of ``n_workers`` > 1 a
    window deeper than :data:`READAHEAD` measured slower, and a lone
    worker's legs (the most of its data fragments on one store) must
    fit its share of a pool
    (:data:`~repro.storage.transfer.HEDGE_POOL_WIDTH` over the
    ``alive`` workers), or a queued leg counts as late and draws a
    hedge.  ``stripe`` stripes a chunk the index places no fragments
    for (the DES's model): all ``k`` legs then read its own store.
    """
    fragments = chunk.fragments
    if fragments:
        k = chunk.stripe[0]
    else:
        k = stripe[0] if stripe else 0
    if not (k or prefetch):
        return 0
    on_pool = bool(k or chunk.replicas) and legs_on_pool(k, hedge)
    if not (prefetch or on_pool):
        return 0
    if not on_pool:
        return READAHEAD_MAX
    if n_workers > 1:
        return READAHEAD
    legs = k or 1
    if fragments:
        data = [f.location for f in fragments if f.frag_index < k]
        legs = max(map(data.count, data), default=1)
    return max(READAHEAD, min(READAHEAD_MAX, HEDGE_POOL_WIDTH // alive // legs))


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of one compute cluster."""

    name: str
    location: str               # the storage site this cluster is co-located with
    n_workers: int
    retrieval_threads: int = 2  # parallel connections per chunk fetch
    link_latency_s: float = 0.0  # master <-> head round-trip latency


@dataclass
class RunResult:
    """Outcome of one engine run."""

    result: Any
    stats: RunStats
    robj: ReductionObject


@dataclass(frozen=True)
class EngineOptions:
    """The unified engine configuration surface.

    The one place an engine option is declared: every execution engine
    accepts every field, and the session, the driver, the service and
    the CLI pass fields through by name.
    """

    batch_size: int = 4
    group_nbytes: int = 1 << 20
    scheduler_factory: Callable[[list[Job]], HeadScheduler] = HeadScheduler
    #: Fold each chunk with one ``local_reduction_batch`` call when the
    #: spec provides it (the array-native hot path); off forces the
    #: per-unit-group loop (the ablation baseline).
    batch_fold: bool = True
    verify_chunks: bool = False
    #: Read ahead (:func:`window_has_room`: two fetches in flight per
    #: worker, up to eight while they hold no more than
    #: :data:`READAHEAD_NBYTES`) for every job.  Off, a threaded worker
    #: still does behind raced stripes (:func:`window_limit`); the
    #: process engine double-buffers only when on.
    prefetch: bool = False
    chunk_cache: ChunkCache | None = None
    retry: RetryPolicy | None = None
    #: Worker name -> jobs it completes before an injected crash.  Fires
    #: every pass of a session: a pass after a lost worker runs on a
    #: fresh fleet.
    crash_plan: dict[str, int] = field(default_factory=dict)
    min_part_nbytes: int = DEFAULT_MIN_PART_NBYTES
    # Replica-aware retrieval: hedge duplicate slow fetches against the
    # next replica (HedgePolicy), and/or run every store behind a
    # circuit breaker (BreakerPolicy) that orders/skips replica sources
    # and deprioritizes chunks stranded behind open breakers.  Failover
    # itself needs no option -- chunks carrying replicas always fail
    # over when a source is exhausted.
    hedge: HedgePolicy | None = None
    breaker: BreakerPolicy | None = None
    # Erasure-coded striping, ``(k, m)``: validated, but no engine reads
    # it -- each chunk's own ``stripe`` in the index (written by
    # ``stripe_dataset``) is what makes the fetch race fragments.
    stripe: tuple[int, int] | None = None
    # Metadata-first retrieval: apply the spec's pushdown contract
    # (relevant/priority over index ChunkStats) before job-pool
    # creation.  None/False = off; True/"prune" = prune irrelevant
    # chunks and order survivors by priority; "verify" = prune, but
    # also fetch every pruned chunk and assert its fold contribution is
    # the identity (the soundness guard -- debug only, spends the bytes
    # pruning saved).
    pushdown: str | bool | None = None

    def __post_init__(self) -> None:
        # Normalize crash_plan=None (the historical kwarg default) to {}.
        object.__setattr__(self, "crash_plan", dict(self.crash_plan or {}))
        # Canonicalize pushdown to None/"prune"/"verify" (raises on junk).
        object.__setattr__(self, "pushdown", normalize_pushdown(self.pushdown))
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.group_nbytes <= 0:
            raise ValueError("group_nbytes must be positive")
        if self.min_part_nbytes < 0:
            raise ValueError("min_part_nbytes must be non-negative")
        if any(n < 0 for n in self.crash_plan.values()):
            raise ValueError("crash_plan job counts must be non-negative")
        # One wording for stripe-shape errors everywhere (engine options,
        # driver, dataset organizer): repro.data.redundancy.
        object.__setattr__(self, "stripe", normalize_stripe(self.stripe))

    # -- the one validation path ---------------------------------------------

    def validate_clusters(self, clusters: list[ClusterConfig]) -> None:
        """Engine-construction checks, identical for every engine."""
        if not clusters:
            raise ValueError("need at least one cluster")
        names = [c.name for c in clusters]
        if len(set(names)) != len(names):
            raise ValueError("cluster names must be unique")
        if self.crash_plan:
            worker_names = {
                f"{c.name}-w{wid}" for c in clusters for wid in range(c.n_workers)
            }
            unknown = set(self.crash_plan) - worker_names
            if unknown:
                raise ValueError(
                    f"crash_plan targets unknown workers: {sorted(unknown)}"
                )

    @staticmethod
    def validate_index(index: DataIndex, stores: dict[str, StorageBackend]) -> None:
        """Run-time check that every chunk's location has a store.

        Covers replica sources and erasure fragments too: a striped
        chunk whose fragments name a location without a store would
        otherwise only fail deep inside the fetch race.
        """
        missing = set(index.locations) - set(stores)
        for c in index.chunks:
            missing.update(
                r.location for r in c.replicas if r.location not in stores
            )
            missing.update(
                f.location for f in c.fragments if f.location not in stores
            )
        if missing:
            raise ValueError(f"index references unknown stores: {sorted(missing)}")


class EngineBase:
    """Shared construction and option plumbing for every engine.

    Subclasses receive either a prebuilt :class:`EngineOptions` or the
    historical keyword surface (``batch_size=...``, ``prefetch=...``,
    ...), which is folded into one options object and validated through
    the single shared path.
    """

    def __init__(
        self,
        clusters: list[ClusterConfig],
        stores: dict[str, StorageBackend],
        *,
        options: EngineOptions | None = None,
        **kwargs: Any,
    ) -> None:
        if options is None:
            options = EngineOptions(**kwargs)
        elif kwargs:
            raise TypeError(
                "pass either options= or individual option keywords, not both"
            )
        options.validate_clusters(clusters)
        self.clusters = list(clusters)
        self.stores = dict(stores)
        self.options = options

    def close(self) -> None:
        """Stop what the engine holds between runs (nothing here)."""

    def __enter__(self) -> "EngineBase":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def make_health(self) -> HealthRegistry | None:
        """One shared health registry per service (a process-engine run
        builds its own), or ``None`` when neither hedging nor breakers
        are configured (zero overhead path)."""
        if self.options.hedge is None and self.options.breaker is None:
            return None
        return HealthRegistry(self.options.breaker)


def fetch_pools(clusters: list[ClusterConfig]) -> FetchPools:
    """Fetch threads for every chunk fetch ``clusters``' workers can
    have in flight (:data:`READAHEAD_MAX` each, the deepest window,
    opened or not) at ``retrieval_threads`` connections, so none queues
    behind another: summed over the clusters, ``n_workers x
    READAHEAD_MAX`` read-ahead threads and, per store, that many x
    (``retrieval_threads`` - 1) range threads (a fetch runs its first
    sub-range itself)."""
    in_flight = [max(1, c.n_workers) * READAHEAD_MAX for c in clusters]
    ranges = sum(n * (c.retrieval_threads - 1) for n, c in zip(in_flight, clusters))
    return FetchPools(ranges, sum(in_flight))


def make_cluster_fetcher(
    stores: dict[str, StorageBackend],
    cluster: ClusterConfig,
    options: EngineOptions = EngineOptions(),
    *,
    health: HealthRegistry | None = None,
    pools: FetchPools | None = None,
) -> ParallelFetcher:
    """One cluster's fetcher over every store of ``stores``, closed by
    its owner: the service builds it with its fleet, the process engine
    per run (it forks before it starts a thread).

    It borrows its threads from ``pools`` (a service's) or from private
    ones (:func:`fetch_pools` for this cluster) that its ``close()``
    shuts down.  ``health`` flows to it; the cache, retry policy,
    fan-out and hedge come from ``options``.
    """
    return ParallelFetcher(
        stores,
        cluster.retrieval_threads,
        cache=options.chunk_cache,
        pools=fetch_pools([cluster]) if pools is None else pools,
        retry=options.retry,
        min_part_nbytes=options.min_part_nbytes,
        health=health,
        hedge=options.hedge,
    )


def make_cluster_fetchers(stores, cluster, *args, **kwargs) -> dict[str, ParallelFetcher]:
    """:func:`make_cluster_fetcher` under every location of ``stores``:
    one fetcher, the same at each key.  No engine calls this; it keeps
    callers that index a cluster's fetchers by location working (closing
    each value closes the one fetcher, once)."""
    return dict.fromkeys(stores, make_cluster_fetcher(stores, cluster, *args, **kwargs))


class ClusterMaster:
    """One cluster's live master: its :class:`ClusterPool`, asked under
    its head's condition variable, with the round trip to the head
    (``link_latency_s``) paid outside the lock.  The head is a
    :class:`~repro.service.BurstingService` or a one-run
    :class:`RunHead`; both answer ``halted``, ``_holds_nothing``,
    ``_request_jobs`` (under ``_cond``), ``_job_live``, ``_discard_job``,
    ``_complete`` and ``_requeue``."""

    def __init__(
        self, head: RunHead | BurstingService, cluster: ClusterConfig, batch_size: int
    ) -> None:
        self.head = head
        self.cluster = cluster
        self.batch_size = batch_size
        self.pool = ClusterPool(cluster.n_workers)

    def get_job(self, wait: bool = True) -> Job | None:
        """The next live job, or ``None`` once the head holds nothing
        more or is halted (then only pooled jobs still go out) -- or,
        with ``wait=False`` (the read-ahead reserve path, whose caller
        holds a job), once the pool is drained.  A stale pooled job (its
        run ended since the refill) is consumed."""
        head, pool = self.head, self.pool
        while True:
            with head._cond:
                while True:
                    if not pool and head.halted:
                        return None
                    got = pool.next(head._holds_nothing())
                    if got is not WAIT or (pool.drained and not wait):
                        break
                    head._cond.wait()
            if got is ASK:
                if self.cluster.link_latency_s > 0:
                    time.sleep(self.cluster.link_latency_s)
                with head._cond:
                    jobs: list[Job] = []
                    try:
                        jobs = head._request_jobs(self.cluster.location, self.batch_size)
                    finally:
                        pool.refilled(jobs)
                        head._cond.notify_all()
            elif got is WAIT or got is STOP:
                return None
            elif head._job_live(got):
                return got
            else:
                head._discard_job(got)

    def reserve_next(self) -> Job | None:
        """The job a worker reads ahead, after its current one: never
        waits for more work (the caller's own job is outstanding)."""
        return self.get_job(wait=False)

    def complete(self, job: Job) -> bool:
        """Report one job processed; True if it recovered a requeued job."""
        return self.head._complete(job)

    def requeue(self, jobs: list[Job]) -> None:
        """Return assigned-but-unfinished jobs to the head."""
        self.head._requeue(jobs)

    def worker_died(self) -> list[Job]:
        """Count one worker dead; the last death surrenders the pool."""
        with self.head._cond:
            return self.pool.worker_died()


class RunHead:
    """One run's head for the live masters: its :class:`HeadScheduler`
    behind a condition variable (the process engine's; the service is
    the other head).  :meth:`halt` stops every worker, waiting or not."""

    def __init__(self, scheduler: HeadScheduler) -> None:
        self.scheduler = scheduler
        self._cond = threading.Condition()
        self._request_jobs = scheduler.request_jobs
        self.halted = False
        #: Every master's pool; the head holds no master, so no cycle.
        self._pools: list[ClusterPool] = []

    def master(self, cluster: ClusterConfig, batch_size: int) -> ClusterMaster:
        """A new master of ``cluster`` asking this head."""
        master = ClusterMaster(self, cluster, batch_size)
        self._pools.append(master.pool)
        return master

    def halt(self) -> None:
        with self._cond:
            self.halted = True
            self._cond.notify_all()

    def _holds_nothing(self) -> bool:
        # Nothing outstanding: no job can come back to a drained pool.
        return self.scheduler.outstanding == 0

    def _job_live(self, job: Job) -> bool:
        return True  # one run: no pooled job goes stale

    def _complete(self, job: Job) -> bool:
        with self._cond:
            recovered = self.scheduler.complete(job)
            if self._holds_nothing():
                self._cond.notify_all()  # nothing can come back: drained pools stop
        return recovered

    def _requeue(self, jobs: list[Job]) -> None:
        with self._cond:
            for job in jobs:
                self.scheduler.reassign(job)
            for pool in self._pools:
                pool.reopen()
            self._cond.notify_all()

    _discard_job = _complete


# -- shared fetch accounting --------------------------------------------------


#: What a worker books of a fetch's ledger by name: all but ``cache_hit``
#: (a hit or a miss) and ``fetch_s`` (the worker times its own wait).
_BOOKED = tuple(f.name for f in fields(FetchInfo) if f.name not in ("cache_hit", "fetch_s"))


def account_fetch_info(wstats: WorkerStats, info: FetchInfo) -> None:
    """Book one fetch's ledger (a fetch that raised too) into a worker's
    counters, field by field."""
    for name in _BOOKED:
        value = getattr(info, name)
        if isinstance(value, list):
            getattr(wstats, name).extend(value)
        else:
            setattr(wstats, name, getattr(wstats, name) + value)
    if info.cache_hit:
        wstats.cache_hits += 1
    else:
        wstats.cache_misses += 1


def account_overlap(
    wstats: WorkerStats, fetch_s: float, overlapped: bool, prefetching: bool
) -> None:
    """Attribute one fetch's wall time to overlap or stall.

    A fetch that ran while the worker was computing hid under
    processing (``overlap_s``); one the worker had to wait for is a
    stall (``retrieval_s``).  Used by the process engine's feeder,
    whose pipelining happens across the process boundary rather than
    through a :class:`PrefetchHandle`.
    """
    if overlapped:
        wstats.overlap_s += fetch_s
        wstats.prefetch_hits += 1
    else:
        wstats.retrieval_s += fetch_s
        if prefetching:
            wstats.prefetch_misses += 1


def decode_and_fold(
    spec: GeneralizedReductionSpec,
    fmt: RecordFormat,
    robj: ReductionObject,
    payload: Buffer,
    *,
    group_units: int,
    batch_fold: bool,
    frame_of: tuple[int, int] | None = None,
) -> tuple[float, float, int, int]:
    """Decode one chunk's bytes and fold them into ``robj``.

    ``frame_of`` is ``(chunk_id, logical nbytes)`` when ``payload`` is
    the chunk's codec frame, inflated here first by the fetch path's own
    :func:`~repro.storage.transfer.decode_frame` (its size check
    included).  The unit decode is a zero-copy ``np.frombuffer`` view;
    the fold is one ``local_reduction_batch`` call over the whole chunk when
    ``batch_fold`` (the spec provides it and the options allow it), else
    the per-unit-group loop.  Shared by the fleet worker and the process
    engine's child, which passes a view of its mapped segment.

    Returns ``(decode_s, fold_s, bytes_folded, n_fold_calls)``.
    """
    t0 = time.monotonic()
    if frame_of is not None:
        payload = decode_frame(payload, *frame_of)
    units = fmt.decode(payload)
    t1 = time.monotonic()
    if batch_fold:
        spec.local_reduction_batch(robj, units)
        n_fold_calls = 1
    else:
        n_fold_calls = 0
        for group in iter_unit_groups(units, group_units):
            spec.local_reduction(robj, group)
            n_fold_calls += 1
    return t1 - t0, time.monotonic() - t1, units.nbytes, n_fold_calls


# -- shared run epilogue ------------------------------------------------------


def finalize_timing(stats: RunStats) -> None:
    """Fill idle/sync accounting from per-worker finish times.

    Requires ``stats.total_s`` and each cluster's ``finished_at`` to be
    set; computes ``processing_end_s``, per-cluster ``idle_s`` (waiting
    for the other cluster, unable to steal), and per-worker ``sync_s``
    (barrier wait plus global-reduction exchange).
    """
    processing_end = max(
        (c.finished_at for c in stats.clusters.values()), default=0.0
    )
    stats.processing_end_s = processing_end
    for cstats in stats.clusters.values():
        cstats.idle_s = max(0.0, processing_end - cstats.finished_at)
        for w in cstats.workers:
            w.sync_s = max(0.0, stats.total_s - w.finished_at)


def snapshot_get_rates(stats: RunStats, stores: dict[str, StorageBackend]) -> None:
    """Each store's observed GET rate, into every cluster's ``get_s_per_byte``."""
    for cstats in stats.clusters.values():
        cstats.get_s_per_byte = {loc: s.stats.s_per_byte for loc, s in stores.items()}


def finalize_run(
    *,
    spec: GeneralizedReductionSpec,
    clusters: list[ClusterConfig],
    stats: RunStats,
    scheduler: HeadScheduler,
    stores: dict[str, StorageBackend],
    cluster_robjs: dict[str, list[ReductionObject]],
    errors: list[BaseException],
    t_start: float,
    combine: Callable[[list[ReductionObject]], ReductionObject] | None = None,
    health: HealthRegistry | None = None,
) -> RunResult:
    """The shared run epilogue for scheduler-owning engines.

    Snapshots each store's observed GET rate (:func:`snapshot_get_rates`),
    surfaces worker errors and undrained schedulers, performs the per-cluster
    combine, charges each cluster's upload (its real serialized size
    and the cluster's link latency), runs the global reduction, fills
    the idle/sync accounting and times ``spec.finalize``.  ``combine``
    overrides the merge (the process engine's tree); the default is the
    spec's own ``global_reduction``.

    What is copied when -- the engines and the head share one address
    space, so the reduction object is only *moved* where the answer
    needs it: a cluster whose single surviving worker holds its whole
    object uploads that object as it is; a cluster of several merges
    them into one fresh object; the head merges the uploads into one
    more fresh object, which is the only one handed out.  The upload is
    sized by streaming the pickle through a counting writer (the bytes a
    wire would carry, and an unpicklable object still raises here)
    without materializing it.  Three ownership rules follow: a worker's
    object is never written to; ``RunResult.robj`` shares no memory with
    any worker's object (nor with the shared memory behind it); a spec
    that overrides ``global_reduction`` is called for every cluster and
    once at the head, exactly as written, and its answer stands.
    """
    snapshot_get_rates(stats, stores)
    stats.n_requeued_jobs = scheduler.n_reassigned
    if health is not None:
        stats.breakers = health.snapshot()
    if errors:
        raise errors[0]
    if not scheduler.all_done:
        failed = stats.n_failed_workers
        raise RuntimeError(
            f"run ended with {scheduler.remaining} unassigned / "
            f"{scheduler.outstanding} outstanding jobs"
            + (f" ({failed} workers failed, none left to recover)"
               if failed else "")
        )
    if combine is None:
        combine = spec.global_reduction
    # Only the default merge is known to be the identity on one input.
    lone_is_whole = uses_default_global_reduction(spec)

    # Per-cluster combination, then inter-cluster global reduction.
    for cstats in stats.clusters.values():
        cstats.finished_at = max(
            (w.finished_at for w in cstats.workers), default=0.0
        )
    t_reduce0 = time.monotonic()
    uploads: list[ReductionObject] = []
    for cluster in clusters:
        cstats = stats.clusters[cluster.name]
        robjs = cluster_robjs[cluster.name]
        if len(robjs) == 1 and lone_is_whole:
            merged = robjs[0]
        else:
            merged = combine(robjs) if robjs else spec.create_reduction_object()
        t0 = time.monotonic()
        cstats.robj_nbytes = serialized_nbytes(merged)
        if cluster.link_latency_s > 0:
            time.sleep(cluster.link_latency_s)
        uploads.append(merged)
        cstats.robj_transfer_s = time.monotonic() - t0
    final = combine(uploads)
    t_end = time.monotonic()

    stats.total_s = t_end - t_start
    stats.global_reduction_s = t_end - t_reduce0
    finalize_timing(stats)
    return finalize_result(spec, final, stats)


def finalize_result(
    spec: GeneralizedReductionSpec, final: ReductionObject, stats: RunStats
) -> RunResult:
    """Run ``spec.finalize`` on the merged object, timed as ``finalize_s``.

    It runs after ``total_s`` is stamped (the run's wall ends with the
    global reduction), so this is the only place its cost is recorded.
    """
    t0 = time.monotonic()
    result = spec.finalize(final)
    stats.finalize_s = time.monotonic() - t0
    return RunResult(result, stats, final)
