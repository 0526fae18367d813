"""Simulated cloud-bursting execution.

Drives the *same* head-scheduler policy as the live engines
(:class:`repro.runtime.scheduler.HeadScheduler`) over the discrete-event
kernel, modelling every core, link, and reduction-object exchange.  This
is the engine behind all Figure-3/4 and Table-I/II reproductions.  Each
cluster's master is the live masters' own
:class:`~repro.runtime.jobs.ClusterPool`, asked from a generator
(:meth:`_SimRun.next_job`) instead of under a condition variable.

The accounting mirrors the paper exactly:

* per-worker **retrieval** and **processing** timers (serial per job,
  matching the paper's stacked bars that sum to total execution time);
* **sync** = time from a worker running out of jobs until the head
  finishes the global reduction (intra-cluster barrier skew +
  inter-cluster wait + reduction-object exchange);
* per-cluster **idle time** and the run's **global reduction time** for
  Table II.

The threaded engine's data-pipeline optimizations are modelled here with
the same policies and accounting (so sweeps can quantify the win):

* the read-ahead window: each core asks the live worker's own policy
  (:func:`~repro.runtime.core.window_limit`, then
  :func:`~repro.runtime.core.window_has_room`) whether and how deep to
  read ahead -- behind every job with ``prefetch=True``, behind raced
  stripes without it.  An open window's fetches proceed as their own
  simulated flows while job *N* computes, and ``retrieval_s`` records
  only the residual stall (``overlap_s`` the hidden fetch time); a
  closed one (every paper run) fetches inline, one job at a time;
* ``cache_nbytes``/``caches`` give each cluster a byte-budgeted
  :class:`~repro.storage.cache.ChunkCache` (size-only placeholders): a
  hit skips the storage/WAN links entirely, so a warmed cache makes
  iteration 2+ of an iterative workload cheaper, exactly as in the
  threaded engine.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.data.index import DataIndex
from repro.runtime.core import window_has_room, window_limit
from repro.runtime.jobs import ASK, STOP, WAIT, ClusterPool
from repro.runtime.jobs import Job, jobs_from_index  # noqa: F401 (re-export)
from repro.runtime.pushdown import plan_jobs
from repro.runtime.scheduler import HeadScheduler
from repro.runtime.stats import ClusterStats, RunStats, WorkerStats
from repro.sim.calibration import AppSimProfile, ResourceParams
from repro.sim.events import Event, SimEnv, all_of
from repro.sim.flows import FlowNetwork
from repro.sim.topology import Topology, TransferSimModel
from repro.sim.variability import VariabilityModel, VariabilityParams
from repro.storage.cache import ChunkCache
from repro.storage.transfer import legs_on_pool

__all__ = [
    "SimClusterConfig",
    "FailureSpec",
    "StragglerSpec",
    "SimRunResult",
    "simulate_run",
]


@dataclass(frozen=True)
class SimClusterConfig:
    """One simulated cluster."""

    name: str
    location: str          # "local" or "cloud"
    n_cores: int
    core_speed: float = 1.0
    retrieval_threads: int = 8


@dataclass(frozen=True)
class FailureSpec:
    """Kill ``n_workers`` cores of ``cluster`` at simulated time ``at_s``.

    A worker whose in-flight job has not completed by ``at_s`` loses
    that job; the head reassigns it (possibly to the other cluster) and
    the dead core never requests work again.  Cores that ran out of work
    wait until the run is over (one woken for work after ``at_s`` dies), so they
    recover a job lost late, and only a run whose every core died raises.

    Jobs a core completed *before* dying keep contributing to the final
    result: this models the checkpointed reduction object of the
    authors' fault-tolerance follow-up work, where the small robj is
    periodically persisted so only the in-flight chunk is lost.
    """

    cluster: str
    n_workers: int
    at_s: float

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")


@dataclass(frozen=True)
class StragglerSpec:
    """Slow ``n_workers`` cores of ``cluster`` down to ``slowdown`` speed.

    Models the persistent stragglers of heterogeneous/virtualized
    environments (Zaharia et al.'s motivation for LATE): the affected
    cores run at ``slowdown`` times their normal speed for the whole
    run.  Combine with ``speculation=True`` to let idle workers back up
    the stragglers' in-flight jobs.
    """

    cluster: str
    n_workers: int
    slowdown: float

    def __post_init__(self) -> None:
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if not 0 < self.slowdown < 1:
            raise ValueError("slowdown must be in (0, 1)")


class _SpeculationContext:
    """Shared bookkeeping for speculative (backup) execution.

    Tracks in-flight jobs; once the head pool is empty, idle workers
    pick the in-flight job that started earliest (the likeliest
    straggler victim), run a backup copy, and whichever copy finishes
    first completes the job -- the other is discarded as wasted work.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.in_flight: dict[int, tuple[Job, float]] = {}
        self.backed_up: set[int] = set()
        self.completed: set[int] = set()
        self.wasted_executions = 0

    def start(self, job: Job, now: float) -> None:
        self.in_flight.setdefault(job.job_id, (job, now))

    def try_complete(self, job: Job) -> bool:
        """First finisher wins; returns False for the redundant copy."""
        if job.job_id in self.completed:
            self.wasted_executions += 1
            return False
        self.completed.add(job.job_id)
        self.in_flight.pop(job.job_id, None)
        return True

    def pick_backup(self) -> Job | None:
        """Oldest in-flight job not yet backed up (None if nothing left)."""
        if not self.enabled:
            return None
        candidates = [
            (started, job)
            for job_id, (job, started) in self.in_flight.items()
            if job_id not in self.backed_up
        ]
        if not candidates:
            return None
        candidates.sort(key=lambda t: t[0])
        job = candidates[0][1]
        self.backed_up.add(job.job_id)
        return job


@dataclass
class SimRunResult:
    """Statistics of one simulated run (simulated seconds)."""

    stats: RunStats
    end_time_s: float
    #: Redundant speculative executions whose primary won the race.
    wasted_executions: int = 0
    #: Per-cluster chunk caches (when caching was enabled); pass them
    #: back into the next ``simulate_run`` call to model iteration 2+ of
    #: an iterative workload against a warmed cache.
    caches: dict[str, ChunkCache] | None = None

    @property
    def total_s(self) -> float:
        return self.end_time_s


def _fragment_gen(env, net, path, frag_nbytes: float, stall_s: float):
    """One fragment leg: seeded stall, link latency, then the flow."""
    if stall_s > 0:
        yield stall_s
    if path.latency_s > 0:
        yield path.latency_s
    yield net.transfer(path.links, frag_nbytes, path.per_flow_cap)


def _k_of_n(env: SimEnv, events: list[Event], k: int) -> Event:
    """Event triggering at the ``k``-th completion; value = winner indices.

    The order statistic behind fastest-k-of-n retrieval: losers keep
    draining their links (their processes are not cancelled), as the
    live fetcher's losers do once booked at the win and detached.
    """
    gate = env.event()
    order: list[int] = []

    def arm(idx: int) -> None:
        def cb(_value) -> None:
            order.append(idx)
            if len(order) == k and not gate.triggered:
                gate.succeed(tuple(order))

        events[idx].add_callback(cb)

    for i in range(len(events)):
        arm(i)
    return gate


def _fetch_gen(
    env: SimEnv,
    net: FlowNetwork,
    topo: Topology,
    cluster: SimClusterConfig,
    job: Job,
    cache: ChunkCache | None,
    wstats: WorkerStats,
    info: dict,
    tracer=None,
    worker_name: str = "",
    transfer: TransferSimModel | None = None,
    stripe: tuple[int, int] | None = None,
    store_stalls: dict | None = None,
):
    """Fetch one job's bytes (cache first, then links); fills ``info``.

    ``info["fetch_s"]`` is the simulated duration, ``info["cache_hit"]``
    whether the cluster's chunk cache served it (in which case no link
    is touched at all -- the bytes are already resident at the site).

    ``transfer`` models the codec of a pre-compressed dataset: only the
    *encoded* size crosses the links (and is charged to the cache, which
    stores encoded bytes exactly like the real
    :class:`~repro.storage.transfer.ParallelFetcher`), and the frame
    decode costs CPU time after the transfer -- on cache hits too, since
    the cache holds frames.  ``info["decode_s"]`` separates that cost.

    ``stripe=(k, m)`` models erasure-coded fastest-k-of-n retrieval: the
    wire frame becomes ``k`` fragment flows of ``ceil(wire/k)`` bytes
    racing over the links, and the fetch completes at the *k*-th
    fragment completion (an order statistic, so one stalled leg no
    longer gates the chunk).  ``store_stalls`` (location ->
    :class:`~repro.storage.faults.FaultSpec`) injects the same seeded
    per-request stalls the live chaos stores use: a stalled data leg
    immediately gets a parity backup (modelling the EWMA hedge firing on
    it), losers keep draining their links, and the wasted/parity
    accounting matches the live fetcher's counters.
    """
    t0 = env.now
    chunk = job.chunk
    wire_nbytes = (
        transfer.wire_nbytes(job.nbytes) if transfer is not None else job.nbytes
    )
    decode_s = transfer.decode_s(job.nbytes) if transfer is not None else 0.0
    hit = cache is not None and cache.get(
        job.location, chunk.key, chunk.offset, chunk.nbytes
    ) is not None
    if hit:
        wstats.cache_hits += 1
    else:
        parts = cluster.retrieval_threads
        spec = store_stalls.get(job.location) if store_stalls else None
        if stripe is not None:
            k, m = stripe
            frag_nbytes = -(-wire_nbytes // k)
            frag_path = topo.fetch_path(
                cluster.location, job.location, max(1, parts // k)
            )
            stalls = [
                (spec.stall_duration_s(chunk.key, chunk.offset + j, 1) or 0.0)
                if spec is not None
                else 0.0
                for j in range(k + m)
            ]
            # Launch the k data fragments; a stalled data leg gets its
            # parity backup at launch (the seeded stall is exactly what
            # trips the live fetcher's EWMA hedge threshold).
            launched = list(range(k))
            parity_next = k
            for j in range(k):
                if stalls[j] > 0 and parity_next < k + m:
                    launched.append(parity_next)
                    parity_next += 1
            frag_events = [
                env.process(
                    _fragment_gen(env, net, frag_path, frag_nbytes, stalls[j])
                )
                for j in launched
            ]
            winners = yield _k_of_n(env, frag_events, k)
            wstats.n_fragments += k
            wstats.n_parity_decodes += int(
                any(launched[i] >= k for i in winners)
            )
            wstats.fragments_wasted_bytes += (len(launched) - k) * frag_nbytes
            wire_nbytes = k * frag_nbytes
        else:
            if spec is not None:
                stall = spec.stall_duration_s(chunk.key, chunk.offset, 1)
                if stall:
                    yield stall
            path = topo.fetch_path(cluster.location, job.location, parts)
            if path.latency_s > 0:
                yield path.latency_s
            yield net.transfer(path.links, wire_nbytes, path.per_flow_cap)
        if cache is not None:
            # The simulator never materializes bytes: charge the cache
            # at the chunk's *stored* (encoded) size with a placeholder
            # value, so a byte budget holds as many chunks as the real
            # encoded cache would.
            cache.put(
                job.location, chunk.key, chunk.offset, chunk.nbytes,
                b"", charge_nbytes=wire_nbytes,
            )
        wstats.cache_misses += 1
        wstats.bytes_wire += wire_nbytes
        if tracer is not None:
            tracer.record(worker_name, "fetch", t0, env.now, job.job_id,
                          job.location, job.location != cluster.location)
    if decode_s > 0:
        yield decode_s
    wstats.bytes_logical += job.nbytes
    wstats.decode_s += decode_s
    info["fetch_s"] = env.now - t0
    info["decode_s"] = decode_s
    info["cache_hit"] = hit


class _SimCluster:
    """One simulated cluster's pool, the event its waiting cores wake
    on, and its barrier: per core an event triggered while the core has
    nothing to do (waiting on a drained pool, stopped or dead)."""

    def __init__(
        self, env: SimEnv, config: SimClusterConfig, cstats: ClusterStats,
        refill_rtt_s: float,
    ) -> None:
        self.env = env
        self.config = config
        self.cstats = cstats
        self.refill_rtt_s = refill_rtt_s
        self.pool = ClusterPool(config.n_cores)
        self.wake = env.event()
        self.idle = [env.event() for _ in range(config.n_cores)]
        #: Fires when a core takes work again after going idle (counted
        #: in ``revivals``) and at the final drain.
        self.stirred = env.event()
        self.revivals = 0

    def notify(self) -> None:
        ev, self.wake = self.wake, self.env.event()
        ev.succeed()

    def stir(self) -> None:
        ev, self.stirred = self.stirred, self.env.event()
        ev.succeed()


@dataclass
class _SimRun:
    """What every simulated core of one run shares."""

    env: SimEnv
    net: FlowNetwork
    topo: Topology
    profile: AppSimProfile
    spec_ctx: _SpeculationContext
    tracer: Any
    transfer: TransferSimModel | None
    stripe: tuple[int, int] | None
    store_stalls: dict | None
    prefetch: bool
    #: Cores not yet dead, over every cluster.
    alive: int
    scheduler: HeadScheduler
    batch_size: int
    clusters: list[_SimCluster] = field(default_factory=list)

    def next_job(self, cl: _SimCluster):
        """The DES master (a process generator): a job from ``cl``'s
        pool, or the drained pool's ``WAIT`` or ``STOP``."""
        pool = cl.pool
        while True:
            got = pool.next(self.scheduler.outstanding == 0)
            if got is ASK:
                if cl.refill_rtt_s > 0:
                    yield cl.refill_rtt_s
                pool.refilled(
                    self.scheduler.request_jobs(cl.config.location, self.batch_size)
                )
                cl.notify()
            elif got is WAIT and not pool.drained:
                yield cl.wake  # another core's refill is in flight
            else:
                return got

    def complete(self, job: Job, wstats: WorkerStats, compute_s: float) -> None:
        """Report ``job`` done; a recovered job books its compute as
        recovery (its re-fetch is in ``retrieval_s``, as live).  The
        last outstanding one wakes every waiting core and cluster to
        stop: no job can come back to a drained pool."""
        if self.scheduler.complete(job):
            wstats.jobs_recovered += 1
            wstats.recovery_s += compute_s
        if self.scheduler.outstanding == 0:
            for cl in self.clusters:
                if cl.pool.drained:
                    cl.notify()
                cl.stir()

    def requeue(self, jobs: list[Job]) -> None:
        """Hand ``jobs`` back to the head; every drained pool asks again."""
        for job in jobs:
            self.scheduler.reassign(job)
        if jobs:
            for cl in self.clusters:
                if cl.pool.reopen():
                    cl.notify()

    def depth(self, job: Job, cluster: SimClusterConfig, riding: bool = False) -> int:
        """The live worker's window depth for ``job`` (:func:`window_limit`)."""
        return window_limit(
            job.chunk, self.prefetch or riding, None, cluster.n_cores,
            self.alive, self.stripe,
        )


def _worker_proc(
    run: _SimRun,
    cl: _SimCluster,
    wid: int,
    cache: ChunkCache | None,
    wstats: WorkerStats,
    speed_factor: float,
    varmodel: VariabilityModel,
    fail_at_s: float,
    worker_name: str,
    start_at: float = 0.0,
):
    """One simulated core: pull, fetch, compute, repeat.

    Mirrors the live :class:`~repro.service.service.ServiceSlave` loop
    on the same policy (:func:`~repro.runtime.core.window_limit` and
    :func:`~repro.runtime.core.window_has_room`).  With the window
    closed the core fetches each job itself, then computes it.  With it
    open the core reserves jobs from its master while the window has
    room -- each fetch its own simulated process, occupying the
    storage/WAN links while the core occupies its CPU -- computes the
    current job, then waits for the *oldest* reserved fetch;
    ``retrieval_s`` then records only the residual stall and
    ``overlap_s`` the fetch-seconds hidden under computation or under
    each other.

    A core whose pool is drained goes idle (stamps ``finished_at``,
    counts in its cluster's barrier) and waits for a requeue or the
    final drain.

    The core boots at ``start_at``.  A finite ``fail_at_s`` kills it at
    that instant, noticed when it next acts: every job it holds
    uncompleted (the one being computed and every reserved one) returns
    to the head for reassignment, and the cluster's last death hands
    back its pool too; completed jobs stay folded into the preserved
    reduction object.  With speculation enabled (the window is then
    always closed), a core that finds the pool empty backs up the
    oldest in-flight job instead of idling.
    """
    env, spec_ctx, cluster = run.env, run.spec_ctx, cl.config
    # Reserved jobs, oldest first: (job, fetch-done event, fetch info).
    window: deque[tuple[Job, Event, dict]] = deque()

    def fetch(job: Job, info: dict):
        return _fetch_gen(env, run.net, run.topo, cluster, job, cache, wstats,
                          info, run.tracer, worker_name, run.transfer,
                          run.stripe, run.store_stalls)

    def start_fetch(job: Job) -> None:
        info: dict = {}
        window.append((job, env.process(fetch(job, info)), info))

    def read_ahead(cur: Job):
        limit = run.depth(cur, cluster)
        if not limit:
            return
        # ``cur`` counts twice on the first fill, as in the live worker.
        held = cur.chunk.nbytes
        for job, _, _ in window:
            held += job.chunk.nbytes
            limit = min(limit, run.depth(job, cluster, True))
        while len(window) < limit and window_has_room(len(window), held):
            job = yield from run.next_job(cl)
            if not isinstance(job, Job):
                return
            start_fetch(job)
            held += job.chunk.nbytes
            limit = min(limit, run.depth(job, cluster, True))

    def rest() -> None:
        """Nothing to do: stamp the time, once, and tell the barrier."""
        if not cl.idle[wid].triggered:
            wstats.finished_at = env.now
            cl.idle[wid].succeed()

    def die(job: Job | None = None, is_backup: bool = False) -> None:
        # The orphaned fetch processes keep draining their links; they
        # never touch the scheduler, so reassigning their jobs is safe.
        # A job some backup copy finished or is running stays with it.
        jobs = [j for j, _, _ in window]
        if (
            job is not None and not is_backup
            and job.job_id not in spec_ctx.completed
            and job.job_id not in spec_ctx.backed_up
        ):
            spec_ctx.in_flight.pop(job.job_id, None)
            jobs.insert(0, job)
        run.requeue(jobs + cl.pool.worker_died())
        wstats.failed = True
        rest()
        wstats.finished_at = fail_at_s
        run.alive -= 1

    def compute(job: Job, is_backup: bool):
        """Returns True if the core lives on, False if it died."""
        t0 = env.now
        base = job.n_units * run.profile.compute_s_per_unit
        base /= cluster.core_speed * speed_factor
        base /= varmodel.effective_speed(base)
        if spec_ctx.enabled:
            # Process in quanta so a copy that lost the race is killed
            # promptly instead of grinding to the end (LATE semantics).
            n_slices = 8
            for _ in range(n_slices):
                yield base / n_slices
                if job.job_id in spec_ctx.completed:
                    spec_ctx.wasted_executions += 1
                    wstats.processing_s += env.now - t0
                    if env.now > fail_at_s:
                        die()
                        return False
                    return True
        else:
            yield base
        if env.now > fail_at_s:
            die(job, is_backup)
            return False
        wstats.processing_s += env.now - t0
        stolen = job.location != cluster.location
        if run.tracer is not None:
            run.tracer.record(worker_name, "compute", t0, env.now, job.job_id,
                              job.location, stolen)
        if spec_ctx.try_complete(job):
            wstats.jobs_processed += 1
            if stolen:
                wstats.jobs_stolen += 1
            run.complete(job, wstats, env.now - t0)
        return True

    if start_at > 0:
        yield start_at  # instance boot / lease delay
    while True:
        is_backup = False
        idle = cl.idle[wid].triggered
        if not window:
            if env.now >= fail_at_s:
                if not idle or run.scheduler.all_done:
                    break
                die()  # woken after it died idle: hand back, take nothing
                return
            got = yield from run.next_job(cl)
            if isinstance(got, Job):
                job = got
                spec_ctx.start(job, env.now)
            else:
                backup = spec_ctx.pick_backup()
                if backup is None:
                    if got is STOP:
                        break
                    rest()
                    yield cl.wake
                    continue
                job, is_backup = backup, True
            if idle:  # work again after going idle
                if env.now >= fail_at_s:  # it died during the refill
                    die(job, is_backup)
                    return
                cl.idle[wid] = env.event()
                cl.revivals += 1
                cl.stir()
            if run.depth(job, cluster):
                start_fetch(job)
                yield from read_ahead(job)
        if window:
            job, fetched, info = window[0]
            if fetched.triggered:
                wstats.prefetch_hits += 1
                stall = 0.0
            else:
                wstats.prefetch_misses += 1
                t_wait = env.now
                yield fetched
                stall = env.now - t_wait
            if env.now > fail_at_s:
                die()
                return
            window.popleft()
            wstats.retrieval_s += stall
            wstats.overlap_s += max(0.0, info["fetch_s"] - stall)
            yield from read_ahead(job)
        else:
            info = {}
            yield from fetch(job, info)
            # Decode time is tracked separately (wstats.decode_s),
            # matching the live engines' retrieval/decode split.
            wstats.retrieval_s += info["fetch_s"] - info["decode_s"]
        alive = yield from compute(job, is_backup)
        if not alive:
            return
    if env.now >= fail_at_s and not idle:
        die()
    else:
        rest()


def _cluster_proc(
    run: _SimRun, cl: _SimCluster, robj_nbytes: int, params: ResourceParams
):
    """Cluster coordinator: barrier, combine, ship the reduction object.

    Intra-cluster combination merges the workers' reduction-object
    copies in a binary tree (``ceil(log2(n))`` sequential merge steps),
    so large objects (pagerank) charge a combination cost that grows
    with the core count -- one of the two effects capping pagerank's
    scalability in the paper (the other is the fixed WAN exchange).  A
    core that takes a requeued job after the barrier makes the cluster
    ship again once it is idle again.
    """
    env, cluster, cstats = run.env, cl.config, cl.cstats
    while True:
        yield all_of(env, cl.idle)
        if not all(ev.triggered for ev in cl.idle):
            continue  # a core took work again before the barrier resolved
        revivals = cl.revivals
        cstats.finished_at = env.now
        if cluster.n_cores > 1 and robj_nbytes > 0:
            depth = math.ceil(math.log2(cluster.n_cores))
            yield depth * robj_nbytes * params.merge_s_per_byte
        path = run.topo.robj_path(cluster.location)
        t0 = env.now
        if path.latency_s > 0:
            yield path.latency_s
        if path.links:
            yield run.net.transfer(path.links, robj_nbytes, path.per_flow_cap)
        cstats.robj_transfer_s += env.now - t0
        cstats.robj_nbytes = robj_nbytes
        while cl.revivals == revivals:
            if run.scheduler.all_done:
                return
            yield cl.stirred


def simulate_run(
    index: DataIndex,
    clusters: list[SimClusterConfig],
    profile: AppSimProfile,
    params: ResourceParams = ResourceParams(),
    *,
    seed: int = 0,
    scheduler_factory=HeadScheduler,
    failures: list[FailureSpec] | None = None,
    stragglers: list[StragglerSpec] | None = None,
    speculation: bool = False,
    topology=None,
    site_sigmas: dict[str, float] | None = None,
    tracer=None,
    prefetch: bool = False,
    cache_nbytes: int = 0,
    caches: dict[str, ChunkCache] | None = None,
    transfer: TransferSimModel | None = None,
    pushdown=None,
    stripe: tuple[int, int] | None = None,
    store_stalls: dict | None = None,
) -> SimRunResult:
    """Simulate one complete cloud-bursting execution.

    The default two-site topology puts the head node at the local
    cluster when one exists, matching the paper's deployment; an
    all-cloud configuration hosts it in the cloud (so env-cloud pays no
    WAN for its global reduction).  Pass ``topology`` (any object with
    the :class:`~repro.sim.topology.Topology` interface, e.g. a
    :class:`~repro.sim.multisite.MultiSiteTopology`) for other layouts,
    and ``site_sigmas`` to override per-site variability.

    Each core reads ahead exactly when the live fleet worker would
    (:func:`~repro.runtime.core.window_limit`): behind every job with
    ``prefetch=True``, and behind raced stripes (``stripe`` with
    ``k > 1``) without it -- the next jobs' fetches, as many as
    :func:`~repro.runtime.core.window_has_room` admits, run under the
    compute of job N.  ``cache_nbytes`` gives each cluster a
    byte-budgeted chunk cache, or pass ``caches`` (e.g. the previous
    iteration's :attr:`SimRunResult.caches`) to start warmed.  The
    window composes with ``failures`` (a dying core returns its current
    and every reserved job to the head, matching the live engine's crash
    containment) and with ``stragglers``.  ``speculation`` composes only
    with a closed window, so it cannot be combined with ``prefetch`` or
    a raced ``stripe``: a reserved job is owned by exactly one core, so
    LATE-style redundant execution does not apply to it.

    ``transfer`` (a :class:`~repro.sim.topology.TransferSimModel`)
    models a pre-compressed dataset: only encoded bytes cross the links
    and each chunk charges a decode cost on its worker.

    ``pushdown`` models metadata-first retrieval: pass the app's
    :class:`~repro.core.api.GeneralizedReductionSpec` (or any object
    with ``relevant``/``priority`` over
    :class:`~repro.data.chunks.ChunkStats`) and the simulator applies
    the identical :func:`~repro.runtime.pushdown.plan_jobs` planning
    the live engines use before job-pool creation, so simulated and
    real runs agree on which chunks are pruned and on the wire bytes
    saved (``stats.bytes_pruned`` / ``pushdown_rows()``).

    ``stripe=(k, m)`` models erasure-coded chunk striping with
    fastest-k-of-n fragment retrieval (the counterpart of the live
    engines' ``EngineOptions(stripe=...)``): each chunk fetch becomes
    ``k`` racing fragment flows and completes at the *k*-th finish, so
    a seeded stall on one leg (``store_stalls``, mapping location ->
    :class:`~repro.storage.faults.FaultSpec`) is masked by a parity
    backup instead of gating the chunk.  The same counters the live
    fetcher keeps (``n_fragments``, ``n_parity_decodes``,
    ``fragments_wasted_bytes``) land in the worker stats so ablation
    rows line up across simulated and real runs.
    """
    return _simulate(
        index, clusters, profile, params, seed=seed,
        scheduler_factory=scheduler_factory, failures=failures,
        stragglers=stragglers, speculation=speculation, topology=topology,
        site_sigmas=site_sigmas, tracer=tracer, prefetch=prefetch,
        cache_nbytes=cache_nbytes, caches=caches, transfer=transfer,
        pushdown=pushdown, stripe=stripe, store_stalls=store_stalls,
    )


def _simulate(
    index: DataIndex,
    clusters: list[SimClusterConfig],
    profile: AppSimProfile,
    params: ResourceParams,
    *,
    seed: int = 0,
    scheduler_factory=HeadScheduler,
    failures: list[FailureSpec] | None = None,
    stragglers: list[StragglerSpec] | None = None,
    speculation: bool = False,
    topology=None,
    site_sigmas: dict[str, float] | None = None,
    tracer=None,
    prefetch: bool = False,
    cache_nbytes: int = 0,
    caches: dict[str, ChunkCache] | None = None,
    transfer: TransferSimModel | None = None,
    pushdown=None,
    stripe: tuple[int, int] | None = None,
    store_stalls: dict | None = None,
    start_at: dict[str, float] | None = None,
) -> SimRunResult:
    """:func:`simulate_run`, whose clusters' cores boot at ``start_at``
    (cluster name -> simulated seconds; elastic leases)."""
    if not clusters:
        raise ValueError("need at least one cluster")
    if stripe is not None:
        stripe = tuple(int(v) for v in stripe)  # type: ignore[assignment]
        if len(stripe) != 2 or stripe[0] < 1 or stripe[1] < 0 or sum(stripe) < 2:
            raise ValueError(
                f"stripe must be (k >= 1, m >= 0) with k + m >= 2, got {stripe}"
            )
    if speculation and (prefetch or (stripe and legs_on_pool(stripe[0], None))):
        opener = "prefetch" if prefetch else f"stripe={stripe}"
        raise ValueError(
            f"{opener} cannot be combined with speculation: a core reading "
            "ahead has no backup-copy protocol (failures are supported)"
        )
    run_caches: dict[str, ChunkCache] | None = None
    if caches is not None:
        run_caches = caches
        if cache_nbytes > 0:
            for c in clusters:
                run_caches.setdefault(c.name, ChunkCache(cache_nbytes))
    elif cache_nbytes > 0:
        run_caches = {c.name: ChunkCache(cache_nbytes) for c in clusters}
    env = SimEnv()
    if topology is None:
        head_location = (
            Topology.LOCAL
            if any(c.location == Topology.LOCAL for c in clusters)
            else Topology.CLOUD
        )
        topology = Topology(params, head_location)
    pushdown_plan = plan_jobs(
        index, pushdown, "prune" if pushdown is not None else None
    )
    scheduler = scheduler_factory(pushdown_plan.jobs)

    # Map each failure spec to per-worker kill times (first n cores).
    fail_times: dict[str, list[float]] = {}
    for spec in failures or []:
        if spec.cluster not in {c.name for c in clusters}:
            raise ValueError(f"failure targets unknown cluster {spec.cluster!r}")
        fail_times.setdefault(spec.cluster, []).extend([spec.at_s] * spec.n_workers)

    # Map straggler specs to per-worker slowdown factors (last n cores,
    # so failures and stragglers target disjoint cores by default).
    slow_factors: dict[str, list[float]] = {}
    for sspec in stragglers or []:
        if sspec.cluster not in {c.name for c in clusters}:
            raise ValueError(f"straggler targets unknown cluster {sspec.cluster!r}")
        slow_factors.setdefault(sspec.cluster, []).extend(
            [sspec.slowdown] * sspec.n_workers
        )
    run = _SimRun(
        env, FlowNetwork(env), topology, profile,
        _SpeculationContext(enabled=speculation), tracer, transfer, stripe,
        store_stalls, prefetch, sum(c.n_cores for c in clusters), scheduler,
        params.batch_size,
    )

    stats = RunStats()
    pushdown_plan.apply_to(stats)
    cluster_events: list[Event] = []
    for ci, cluster in enumerate(clusters):
        if site_sigmas is not None and cluster.location in site_sigmas:
            sigma = site_sigmas[cluster.location]
        elif cluster.location == Topology.LOCAL:
            sigma = params.local_speed_sigma
        else:
            sigma = params.cloud_speed_sigma
        varmodel = VariabilityModel(VariabilityParams(sigma=sigma), seed=seed * 1009 + ci)
        cstats = ClusterStats(cluster.name, cluster.location)
        stats.clusters[cluster.name] = cstats
        cl = _SimCluster(env, cluster, cstats, topology.refill_rtt(cluster.location))
        run.clusters.append(cl)
        kill_times = fail_times.get(cluster.name, [])
        if len(kill_times) > cluster.n_cores:
            raise ValueError(
                f"cannot fail {len(kill_times)} workers of {cluster.name!r} "
                f"({cluster.n_cores} cores)"
            )
        slows = slow_factors.get(cluster.name, [])
        if len(slows) > cluster.n_cores:
            raise ValueError(
                f"cannot slow {len(slows)} workers of {cluster.name!r} "
                f"({cluster.n_cores} cores)"
            )
        cache = run_caches.get(cluster.name) if run_caches is not None else None
        for wid in range(cluster.n_cores):
            wstats = WorkerStats()
            cstats.workers.append(wstats)
            speed = varmodel.core_speed_factor()
            slow_idx = wid - (cluster.n_cores - len(slows))
            if slow_idx >= 0:
                speed *= slows[slow_idx]
            fail_at = kill_times[wid] if wid < len(kill_times) else math.inf
            env.process(_worker_proc(
                run, cl, wid, cache, wstats, speed, varmodel, fail_at,
                f"{cluster.name}/{wid}", (start_at or {}).get(cluster.name, 0.0),
            ))
        cluster_events.append(
            env.process(_cluster_proc(run, cl, profile.robj_nbytes, params))
        )

    # Head: wait for every cluster's object, then merge them.
    def _head_proc():
        yield all_of(env, cluster_events)
        merge = params.merge_fixed_s
        merge += len(clusters) * profile.robj_nbytes * params.merge_s_per_byte
        yield merge

    env.process(_head_proc())
    env.run()

    if not scheduler.all_done:
        raise RuntimeError(
            "simulation ended with unprocessed jobs (did every worker fail?)"
        )

    end = env.now
    stats.total_s = end
    stats.n_requeued_jobs = scheduler.n_reassigned
    processing_end = max(c.finished_at for c in stats.clusters.values())
    stats.processing_end_s = processing_end
    stats.global_reduction_s = end - processing_end
    for cstats in stats.clusters.values():
        cstats.idle_s = max(0.0, processing_end - cstats.finished_at)
        for w in cstats.workers:
            w.sync_s = max(0.0, end - w.finished_at)
    return SimRunResult(
        stats=stats, end_time_s=end,
        wasted_executions=run.spec_ctx.wasted_executions, caches=run_caches,
    )
