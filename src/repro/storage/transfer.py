"""Multi-threaded ranged retrieval.

"Each slave retrieves jobs using multiple retrieval threads, to
capitalize on the fast network interconnects."  Per-connection caps make
a single GET stream slow; splitting a chunk's byte range across parallel
sub-range GETs recovers the aggregate bandwidth.

On top of the ranged fetch this module provides the two mechanisms of
the engines' data pipeline:

* an optional :class:`~repro.storage.cache.ChunkCache` consulted before
  any store traffic (cross-iteration reuse);
* :meth:`ParallelFetcher.fetch_async`, which runs a whole fetch on a
  background thread so a worker can overlap the retrieval of the jobs it
  has reserved with the processing of the current one (read-ahead).
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

from repro.storage.base import StorageBackend
from repro.storage.cache import ChunkCache
from repro.storage.codecs import Buffer, CodecError, decode_chunk
from repro.storage.faults import PermanentStorageError
from repro.storage.health import HealthRegistry, HedgePolicy
from repro.storage.retry import RetryExhausted, RetryPolicy

__all__ = [
    "split_range",
    "FAILOVER_ERRORS",
    "FetchInfo",
    "PrefetchHandle",
    "ParallelFetcher",
]

#: Errors that exhaust one replica source and send the fetch to the
#: next one.  Anything else (bugs, corruption) still fails fast.
FAILOVER_ERRORS: tuple[type[BaseException], ...] = (
    RetryExhausted,
    PermanentStorageError,
    KeyError,
    ConnectionError,
    TimeoutError,
)

#: Default floor on parallel sub-range size: below this a GET is all
#: request overhead, so ranges are coalesced rather than shattered.
DEFAULT_MIN_PART_NBYTES = 4096


def split_range(
    offset: int, nbytes: int, n_parts: int, min_part_nbytes: int = 0
) -> list[tuple[int, int]]:
    """Split byte range ``[offset, offset+nbytes)`` into ``n_parts`` slices.

    Returns ``(offset, nbytes)`` pairs; sizes differ by at most one byte
    and empty slices are dropped (when ``n_parts > nbytes``).

    ``min_part_nbytes`` puts a floor under the slice size: the part
    count is reduced (coalescing neighbours) until every emitted slice
    holds at least that many bytes -- except when the whole range is
    smaller than the floor, which yields the single full range.
    """
    if n_parts <= 0:
        raise ValueError("n_parts must be positive")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if min_part_nbytes < 0:
        raise ValueError("min_part_nbytes must be non-negative")
    if min_part_nbytes > 0 and nbytes > 0:
        n_parts = min(n_parts, max(1, nbytes // min_part_nbytes))
    base, extra = divmod(nbytes, n_parts)
    parts: list[tuple[int, int]] = []
    pos = offset
    for i in range(n_parts):
        size = base + (1 if i < extra else 0)
        if size:
            parts.append((pos, size))
        pos += size
    return parts


@dataclass
class FetchInfo:
    """Accounting for one chunk fetch through :meth:`ParallelFetcher.fetch_chunk`.

    ``bytes_wire`` is what actually crossed the store connection (the
    encoded size for compressed chunks, zero on a cache hit);
    ``bytes_logical`` the decoded chunk size handed to the worker;
    ``decode_s`` the frame-decode time, kept separate from fetch time.
    ``n_copies`` counts whole-chunk buffer copies made *after* wire
    reassembly -- codec inflations that materialize new bytes, copies
    into shared-memory segments, cache-hit copies into caller buffers.
    Zero means the fold kernel aliased the fetched (or cached, or
    mapped) bytes directly; the hot-path work drives this to zero for
    the identity codec on every engine.
    """

    cache_hit: bool = False
    bytes_wire: int = 0
    bytes_logical: int = 0
    decode_s: float = 0.0
    n_copies: int = 0
    # Replica-aware retrieval: wall seconds the winning source's fetch
    # took (excluding decode), how many sources failed before it, how
    # many hedged duplicates were launched, and whether a hedge won.
    fetch_s: float = 0.0
    n_failovers: int = 0
    n_hedges: int = 0
    hedge_wins: int = 0
    # Erasure-striped retrieval: how many fragments fed the reassembly
    # (k for a striped chunk, 0 otherwise) and whether reconstruction
    # needed a parity decode (some data fragment lost the race or its
    # store).
    n_fragments: int = 0
    n_parity_decodes: int = 0


class PrefetchHandle:
    """One in-flight asynchronous fetch.

    ``info`` is the fetch's own :class:`FetchInfo` -- the same record a
    synchronous :meth:`ParallelFetcher.fetch_chunk` returns, so a
    prefetched chunk is accounted exactly like a serial one -- and
    ``fetch_s`` the wall seconds the background fetch ran, decode
    excluded (what overlap accounting needs).  Both are written by the
    background thread and valid once ``done()`` returns True or
    ``result()`` has returned.
    """

    __slots__ = ("_future", "fetch_s", "info")

    def __init__(self) -> None:
        self._future: Future = Future()
        self.fetch_s = 0.0
        self.info = FetchInfo()

    @property
    def cache_hit(self) -> bool:
        return self.info.cache_hit

    def done(self) -> bool:
        return self._future.done()

    def result(self) -> bytes:
        """Block until the fetch completes; re-raises fetch errors."""
        return self._future.result()

    def cancel(self) -> None:
        """Cancel if not started; otherwise absorb the outcome."""
        if not self._future.cancel():
            try:
                self._future.result()
            except BaseException:
                pass


class ParallelFetcher:
    """Fetch byte ranges from a store with up to ``n_threads`` connections.

    ``n_threads`` is the ceiling on connections *per fetch*: every store
    GET is timed into the store's :class:`~repro.storage.base.StorageStats`,
    and a range is split only while that evidence says splitting pays
    (:meth:`_plan_parts`).  ``cache`` (a shared :class:`ChunkCache`)
    short-circuits fetches of ranges already resident.

    ``chunks_in_flight`` is how many fetches the owner drives at once
    (workers sharing the fetcher x each worker's read-ahead).  Both
    pools are sized from it, so one fetch never queues behind another:
    the background pool serving :meth:`fetch_async` holds that many
    threads, and the range pool that many x (``n_threads`` - 1) --
    the thread driving a fetch runs the first sub-range itself.  Both
    spawn threads on demand, so an idle allowance costs nothing.

    ``retry`` (a :class:`~repro.storage.retry.RetryPolicy`) makes every
    store ``get`` -- including each parallel sub-range -- retry
    transient errors with backoff instead of failing the whole fetch.
    A failing sub-range therefore no longer cancels its siblings unless
    it exhausts the policy.  Retries are counted on the fetcher
    (``n_retries``/``n_giveups``/``bytes_retried``) and mirrored into
    the backend's :class:`~repro.storage.base.StorageStats`.

    Replica-aware retrieval: when chunks carry extra sources
    (:attr:`~repro.data.chunks.ChunkInfo.replicas`) and ``siblings``
    maps the other locations' fetchers, :meth:`fetch_chunk` **fails
    over** to the next replica when a source exhausts its retry policy
    (or is permanently gone), ordering candidates by breaker state and
    latency EWMA when a shared :class:`~repro.storage.health.HealthRegistry`
    is attached, and skipping open-breakered stores while alternatives
    remain.  With a :class:`~repro.storage.health.HedgePolicy` a fetch
    still in flight past the adaptive threshold is duplicated against
    the next replica and the first result wins.
    """

    def __init__(
        self,
        store: StorageBackend,
        n_threads: int = 1,
        *,
        cache: ChunkCache | None = None,
        chunks_in_flight: int = 1,
        retry: RetryPolicy | None = None,
        min_part_nbytes: int = DEFAULT_MIN_PART_NBYTES,
        health: HealthRegistry | None = None,
        hedge: HedgePolicy | None = None,
    ) -> None:
        if n_threads <= 0:
            raise ValueError("n_threads must be positive")
        if chunks_in_flight <= 0:
            raise ValueError("chunks_in_flight must be positive")
        self.store = store
        self.n_threads = n_threads
        self.cache = cache
        self.chunks_in_flight = chunks_in_flight
        self.retry = retry
        self.min_part_nbytes = min_part_nbytes
        self.health = health
        self.hedge = hedge
        #: location -> fetcher for the run's other stores; set by
        #: ``make_cluster_fetchers`` so replica sources route to the
        #: fetcher that owns their store (with its own pool).
        self.siblings: dict[str, "ParallelFetcher"] = {store.location: self}
        self.n_retries = 0
        self.n_giveups = 0
        self.bytes_retried = 0
        self.bytes_wire = 0
        self.bytes_logical = 0
        self.decode_s = 0.0
        self.n_copies = 0
        self.n_failovers = 0
        self.n_hedges = 0
        self.hedge_wins = 0
        self.n_breaker_skips = 0
        self.n_abandoned = 0
        #: Ranges fetched with one GET / split over the range pool.
        self.n_single_fetches = 0
        self.n_split_fetches = 0
        #: Bytes of losing striped fragments that completed anyway
        #: (fetched but unused); fetcher-level only, rolled up after
        #: close() since losers land after their fetch returns.
        self.fragments_wasted_bytes = 0
        #: per-successful-fetch wall seconds (decode excluded, cache
        #: hits excluded) -- the sample pool for p95 fetch latency.
        self.fetch_latencies: list[float] = []
        self._counter_lock = threading.Lock()
        self._hedge_pool: ThreadPoolExecutor | None = None
        self._pool = (
            ThreadPoolExecutor(
                max_workers=chunks_in_flight * (n_threads - 1),
                thread_name_prefix="fetch",
            )
            if n_threads > 1
            else None
        )
        self._prefetch_pool: ThreadPoolExecutor | None = None

    def _plan_parts(self, nbytes: int) -> int:
        """Sub-range fan-out for a fetch of ``nbytes``.

        ``n_threads`` is the ceiling.  Below it the range is split only
        when the store's best recently observed GET rate says the split
        can save at least one GIL switch interval -- what each hand-off
        to a pool thread may wait beside a computing thread.  A store
        nobody has timed yet gets the full fan-out.
        """
        n = self.n_threads
        if self.min_part_nbytes > 0 and nbytes > 0:
            n = min(n, max(1, nbytes // self.min_part_nbytes))
        if n > 1:
            rate = self.store.stats.s_per_byte
            if rate is not None and nbytes * rate * (1 - 1 / n) < sys.getswitchinterval():
                n = 1
        return n

    def fetch(self, key: str, offset: int = 0, nbytes: int | None = None) -> Buffer:
        """Retrieve ``[offset, offset+nbytes)`` of ``key``, reassembled in order.

        Returns a bytes-like buffer: ``bytes`` for single-connection
        fetches, a ``bytearray`` assembled in place for parallel ones
        (no join copy), or a read-only ``memoryview`` on a cache hit.
        """
        data, _ = self.fetch_with_info(key, offset, nbytes)
        return data

    def fetch_with_info(
        self, key: str, offset: int = 0, nbytes: int | None = None
    ) -> tuple[Buffer, bool]:
        """Like :meth:`fetch`, also reporting whether the cache served it."""
        if nbytes is None:
            nbytes = self.store.size(key) - offset
        location = self.store.location
        if self.cache is not None:
            cached = self.cache.get(location, key, offset, nbytes)
            if cached is not None:
                return cached, True
        data = self._fetch_parts_into(key, offset, nbytes)
        if self.cache is not None:
            self.cache.put(location, key, offset, nbytes, data)
        return data, False

    def fetch_chunk(self, chunk) -> tuple[Buffer, FetchInfo]:
        """Fetch one index chunk's *logical* bytes, decoding if encoded.

        ``chunk`` is a :class:`~repro.data.chunks.ChunkInfo`.  For
        chunks the organizer wrote pre-compressed the *encoded* range is
        what travels the wire (sub-range splitting, retries, and the
        cache all operate on encoded bytes -- so the same ``cache_mb``
        budget holds more chunks and a retry re-requests encoded
        ranges); the frame is decoded after reassembly and checked
        against the index's logical size.  Returns the decoded bytes
        plus a :class:`FetchInfo` with wire/logical/decode/copy
        accounting.

        Chunks carrying replica sources route through the failover (and
        optionally hedged) path; single-source chunks take the direct
        path below, with health outcomes still recorded when a registry
        is attached.

        Zero-copy: the returned buffer aliases the fetched (or cached)
        bytes whenever the codec allows -- identity-codec frames decode
        to a read-only view over the frame itself, so ``n_copies`` is 0;
        only transforms that inflate (zlib/lz4/shuffle) materialize one
        new buffer (``n_copies`` 1).
        """
        if getattr(chunk, "fragments", None):
            return self._fetch_chunk_striped(chunk)
        sources = getattr(chunk, "sources", None)
        if sources is None or len(sources) <= 1:
            single = None if sources is None else sources[0]
            t0 = time.monotonic()
            try:
                data, info = self._fetch_chunk_source(chunk, single)
            except FAILOVER_ERRORS:
                if self.health is not None:
                    self.health.record_failure(self.store.location)
                raise
            self._record_win(self.store.location, time.monotonic() - t0, info)
            return data, info
        if self.hedge is not None:
            return self._fetch_chunk_hedged(chunk, list(sources))
        return self._fetch_chunk_failover(chunk, list(sources))

    def _route(self, src) -> "ParallelFetcher":
        """The fetcher owning ``src``'s store (self for the primary)."""
        try:
            return self.siblings[src.location]
        except KeyError:
            raise KeyError(
                f"no fetcher for replica location {src.location!r} "
                f"(have {sorted(self.siblings)})"
            ) from None

    def _order_sources(self, sources: list) -> list:
        """Sources healthiest-first (stable: ties keep primary first)."""
        if self.health is None:
            return sources
        ranked = self.health.order([s.location for s in sources])
        rank = {loc: i for i, loc in enumerate(ranked)}
        return sorted(sources, key=lambda s: rank[s.location])

    def _record_win(self, location: str, fetch_s: float, info: FetchInfo) -> None:
        """Account the winning source's latency and health outcome."""
        latency = max(0.0, fetch_s - info.decode_s)
        info.fetch_s = latency
        if self.health is not None:
            self.health.record_success(
                location, None if info.cache_hit else latency
            )
        if not info.cache_hit:
            with self._counter_lock:
                self.fetch_latencies.append(latency)

    def _fetch_chunk_failover(self, chunk, sources: list) -> tuple[Buffer, FetchInfo]:
        """Try sources in health order until one yields the chunk."""
        sources = self._order_sources(sources)
        last_exc: BaseException | None = None
        failovers = 0
        skips = 0
        for i, src in enumerate(sources):
            remaining = len(sources) - 1 - i
            if (
                self.health is not None
                and remaining > 0  # the last candidate is always attempted
                and not self.health.health(src.location).allow()
            ):
                skips += 1
                continue
            t0 = time.monotonic()
            try:
                data, info = self._route(src)._fetch_chunk_source(chunk, src)
            except FAILOVER_ERRORS as exc:
                last_exc = exc
                if self.health is not None:
                    self.health.record_failure(src.location)
                if remaining > 0:
                    failovers += 1
                continue
            info.n_failovers = failovers
            with self._counter_lock:
                self.n_failovers += failovers
                self.n_breaker_skips += skips
            self._record_win(src.location, time.monotonic() - t0, info)
            return data, info
        with self._counter_lock:
            self.n_breaker_skips += skips
        assert last_exc is not None  # the last source is always attempted
        raise last_exc

    def _hedge_pool_lazy(self) -> ThreadPoolExecutor:
        if self._hedge_pool is None:
            # Legs must never queue behind one another: a stalled
            # primary holding the last slot would block the very
            # duplicate launched to escape it, making hedging *worse*
            # than not hedging.  The executor spawns threads on demand
            # (never while one sits idle), so the generous cap costs
            # nothing on quiet runs.
            self._hedge_pool = ThreadPoolExecutor(
                max_workers=32, thread_name_prefix="hedge"
            )
        return self._hedge_pool

    def _fetch_chunk_hedged(self, chunk, sources: list) -> tuple[Buffer, FetchInfo]:
        """First-result-wins fetch with latency-triggered duplicates.

        The healthiest source is launched first; if it is still in
        flight after the hedge threshold (``multiplier`` x that store's
        latency EWMA, floored), the next source is launched too, up to
        ``max_hedges`` duplicates.  A source that *fails* immediately
        triggers the next launch (failover).  Losing fetches are
        cancelled when still queued, otherwise absorbed by a callback
        that records their health outcome.
        """
        assert self.hedge is not None
        ordered = self._order_sources(sources)
        if self.health is not None and len(ordered) > 1:
            # Put open-breakered stores last without reserving half-open
            # probe slots for launches that may never happen.
            open_locs = self.health.open_locations()
            skipped = [s for s in ordered if s.location in open_locs]
            ordered = [s for s in ordered if s.location not in open_locs] + skipped
            if skipped and len(skipped) < len(sources):
                with self._counter_lock:
                    self.n_breaker_skips += len(skipped)
        pool = self._hedge_pool_lazy()
        health = self.health
        t_start = time.monotonic()

        def task(src):
            fetcher = self._route(src)
            t0 = time.monotonic()
            try:
                data, info = fetcher._fetch_chunk_source(chunk, src)
            except FAILOVER_ERRORS:
                if health is not None:
                    health.record_failure(src.location)
                raise
            elapsed = time.monotonic() - t0
            if health is not None:
                latency = max(0.0, elapsed - info.decode_s)
                health.record_success(
                    src.location, None if info.cache_hit else latency
                )
            return data, info, elapsed

        inflight: dict[Future, object] = {}
        next_i = 0
        launched = 0
        n_hedges = 0
        failovers = 0
        last_exc: BaseException | None = None

        def launch() -> None:
            nonlocal next_i, launched
            src = ordered[next_i]
            next_i += 1
            launched += 1
            inflight[pool.submit(task, src)] = src

        launch()
        while True:
            # Threshold keyed to the oldest in-flight source's EWMA (no
            # health registry -> the policy floor alone applies).
            oldest = next(iter(inflight.values()))
            ewma = (
                self.health.health(oldest.location).latency_ewma_s
                if self.health is not None
                else 0.0
            )
            can_hedge = next_i < len(ordered) and n_hedges < self.hedge.max_hedges
            timeout = self.hedge.threshold_s(ewma) if can_hedge else None
            done, _pending = wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            winner: Future | None = None
            for f in done:
                exc = f.exception()
                if exc is None:
                    winner = f
                    break
                if not isinstance(exc, FAILOVER_ERRORS):
                    # Bugs/corruption fail fast; absorb the other legs.
                    for g in inflight:
                        if g is not f and not g.cancel():
                            g.add_done_callback(lambda fut: fut.exception())
                    raise exc
                last_exc = exc
                del inflight[f]
                failovers += 1
            if winner is not None:
                data, info, _elapsed = winner.result()
                win_src = inflight.pop(winner)
                info.n_failovers = failovers
                info.n_hedges = n_hedges
                info.hedge_wins = int(win_src is not ordered[0])
                # Chunk-level latency: from first launch to first result,
                # hedge-wait included (the leg's own elapsed time already
                # fed the per-store EWMA inside ``task``).
                latency = max(0.0, time.monotonic() - t_start - info.decode_s)
                info.fetch_s = latency
                with self._counter_lock:
                    self.n_failovers += failovers
                    self.n_hedges += n_hedges
                    self.hedge_wins += info.hedge_wins
                    if not info.cache_hit:
                        self.fetch_latencies.append(latency)
                for f in inflight:  # absorb the losers
                    if not f.cancel():
                        f.add_done_callback(lambda fut: fut.exception())
                return data, info
            if not inflight and next_i >= len(ordered):
                with self._counter_lock:
                    self.n_failovers += failovers
                    self.n_hedges += n_hedges
                assert last_exc is not None
                raise last_exc
            if not inflight:
                launch()  # pure failover after a failure
            elif done:
                if next_i < len(ordered):
                    launch()  # replace a failed in-flight source
            elif can_hedge:
                n_hedges += 1  # threshold expired: duplicate the range
                launch()

    def _fetch_chunk_striped(self, chunk) -> tuple[Buffer, FetchInfo]:
        """Fastest-k-of-n fetch of an erasure-striped chunk.

        The ``k`` cheapest fragments -- data before parity, then breaker
        rank, so a half-open data store still gets its recovery probe
        and the common case needs no GF decode -- launch immediately on
        the shared hedge pool.  A fragment that *fails* triggers the
        next backup (failover); one still in flight past the
        :class:`HedgePolicy` threshold launches a backup too (hedge, up
        to ``max_hedges``).  The first ``k`` completions win; losers are
        cancelled when still queued, otherwise absorbed by a callback
        that credits their bytes to ``fragments_wasted_bytes``.  The
        winners reassemble into one contiguous buffer
        (:func:`repro.storage.erasure.reassemble`) that feeds the normal
        frame-decode path, so identity-codec chunks still hand the
        worker a view over that single buffer.
        """
        from repro.storage.erasure import ErasureError, reassemble

        k, m = chunk.stripe
        ordered = sorted(chunk.fragments, key=lambda f: f.frag_index)
        skips = 0
        rank: dict[str, int] = {}
        if self.health is not None:
            locs = list(dict.fromkeys(f.location for f in ordered))
            rank = {loc: i for i, loc in enumerate(self.health.order(locs))}
            open_locs = self.health.open_locations()
            healthy = [f for f in ordered if f.location not in open_locs]
            if len(healthy) >= k and len(healthy) < len(ordered):
                # Enough healthy sources: open-breakered stores go last,
                # used only if the healthy ones fail.
                skips = len(ordered) - len(healthy)
                ordered = healthy + [
                    f for f in ordered if f.location in open_locs
                ]
        ordered.sort(
            key=lambda f: (f.frag_index >= k, rank.get(f.location, 0), f.frag_index)
        )
        if len(ordered) < k:
            raise ErasureError(
                f"chunk {chunk.chunk_id}: {len(ordered)} fragments recorded, "
                f"need at least k={k}"
            )
        pool = self._hedge_pool_lazy()
        health = self.health
        t_start = time.monotonic()

        def task(frag):
            fetcher = self._route(frag)
            t0 = time.monotonic()
            try:
                data, hit = fetcher.fetch_with_info(frag.key, 0, frag.nbytes)
            except FAILOVER_ERRORS:
                if health is not None:
                    health.record_failure(frag.location)
                raise
            elapsed = time.monotonic() - t0
            if health is not None:
                health.record_success(frag.location, None if hit else elapsed)
            return data, hit, elapsed

        inflight: dict[Future, object] = {}
        hedge_launched: set[int] = set()
        next_i = 0
        n_hedges = 0
        failovers = 0
        wasted = 0
        last_exc: BaseException | None = None
        wins: dict[int, tuple[Buffer, bool, float]] = {}

        def launch(as_hedge: bool = False) -> None:
            nonlocal next_i
            frag = ordered[next_i]
            next_i += 1
            if as_hedge:
                hedge_launched.add(frag.frag_index)
            inflight[pool.submit(task, frag)] = frag

        def absorb_losers() -> None:
            for f, frag in list(inflight.items()):
                if f.cancel():
                    continue

                def credit(fut, nb=frag.nbytes):
                    if fut.cancelled() or fut.exception() is not None:
                        return
                    with self._counter_lock:
                        self.fragments_wasted_bytes += nb

                f.add_done_callback(credit)

        def flush_counters() -> None:
            with self._counter_lock:
                self.n_failovers += failovers
                self.n_hedges += n_hedges
                self.n_breaker_skips += skips
                self.fragments_wasted_bytes += wasted

        for _ in range(k):
            launch()
        while len(wins) < k:
            ewma = 0.0
            if health is not None:
                # A leg is late relative to what a healthy *sibling*
                # fragment takes, not to its own store's (possibly
                # degraded) history: the stripe completes at the k-th
                # order statistic, so the fastest expected leg sets the
                # clock the laggards are judged against.
                ewma = min(
                    (
                        e
                        for f in ordered
                        if (e := health.health(f.location).latency_ewma_s) > 0.0
                    ),
                    default=0.0,
                )
            can_hedge = (
                self.hedge is not None
                and next_i < len(ordered)
                and n_hedges < self.hedge.max_hedges
            )
            timeout = self.hedge.threshold_s(ewma) if can_hedge else None
            done, _pending = wait(
                set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            for f in done:
                frag = inflight.pop(f)
                exc = f.exception()
                if exc is None:
                    data, hit, elapsed = f.result()
                    if len(wins) < k:
                        wins[frag.frag_index] = (data, hit, elapsed)
                    else:
                        wasted += frag.nbytes
                elif isinstance(exc, FAILOVER_ERRORS):
                    last_exc = exc
                    failovers += 1
                else:
                    absorb_losers()
                    flush_counters()
                    raise exc
            if len(wins) >= k:
                break
            # Backfill failed legs so k completions stay reachable.
            while len(inflight) + len(wins) < k and next_i < len(ordered):
                launch()
            if len(inflight) + len(wins) < k:
                absorb_losers()
                flush_counters()
                if last_exc is not None:
                    raise last_exc
                raise ErasureError(
                    f"chunk {chunk.chunk_id}: ran out of fragment sources "
                    f"with {len(wins)} of {k} fetched"
                )
            if not done and can_hedge:
                n_hedges += 1
                launch(as_hedge=True)
        t_k = time.monotonic()
        absorb_losers()

        info = FetchInfo(bytes_logical=chunk.nbytes)
        info.n_fragments = k
        info.n_failovers = failovers
        info.n_hedges = n_hedges
        info.hedge_wins = int(any(i in hedge_launched for i in wins))
        info.cache_hit = all(hit for _, hit, _ in wins.values())
        info.bytes_wire = sum(
            memoryview(data).nbytes
            for data, hit, _ in wins.values()
            if not hit
        )
        t0 = time.monotonic()
        frame = bytearray(chunk.wire_nbytes)
        _, used_parity = reassemble(
            {i: data for i, (data, _, _) in wins.items()},
            k, m, chunk.wire_nbytes, out=frame,
        )
        info.n_copies += 1  # fragments gathered into one contiguous frame
        info.n_parity_decodes = int(used_parity)
        if chunk.codec is None:
            data_out: Buffer = frame
            info.decode_s = time.monotonic() - t0
        else:
            data_out = decode_chunk(frame)
            info.decode_s = time.monotonic() - t0
            if chunk.codec != "identity":
                info.n_copies += 1  # the inflate materialized new bytes
            n = memoryview(data_out).nbytes
            if n != chunk.nbytes:
                raise CodecError(
                    f"chunk {chunk.chunk_id}: decoded {n} bytes, "
                    f"index says {chunk.nbytes}"
                )
        info.fetch_s = max(0.0, t_k - t_start)
        frag_latencies = [
            elapsed for _, hit, elapsed in wins.values() if not hit
        ]
        with self._counter_lock:
            self.bytes_wire += info.bytes_wire
            self.bytes_logical += info.bytes_logical
            self.decode_s += info.decode_s
            self.n_copies += info.n_copies
            self.n_failovers += failovers
            self.n_hedges += n_hedges
            self.hedge_wins += info.hedge_wins
            self.n_breaker_skips += skips
            self.fragments_wasted_bytes += wasted
            self.fetch_latencies.extend(frag_latencies)
        return data_out, info

    def _fetch_chunk_source(self, chunk, src=None) -> tuple[Buffer, FetchInfo]:
        """Fetch the chunk's bytes from one concrete source (no routing).

        ``src`` (a :class:`~repro.data.chunks.ChunkSource`) overrides the
        key and encoded range; ``None`` means the chunk's own primary.
        Runs on the fetcher owning the source's store.
        """
        key = chunk.key if src is None else src.key
        info = FetchInfo(bytes_logical=chunk.nbytes)
        if chunk.codec is None:
            data, hit = self.fetch_with_info(key, chunk.offset, chunk.nbytes)
            info.cache_hit = hit
            if not hit:
                info.bytes_wire = chunk.nbytes
        else:
            enc_offset = chunk.enc_offset
            enc_nbytes = chunk.enc_nbytes
            if src is not None and src.enc_offset is not None:
                enc_offset = src.enc_offset
            if src is not None and src.enc_nbytes is not None:
                enc_nbytes = src.enc_nbytes
            frame, hit = self.fetch_with_info(key, enc_offset, enc_nbytes)
            info.cache_hit = hit
            if not hit:
                info.bytes_wire = enc_nbytes
            t0 = time.monotonic()
            data = decode_chunk(frame)
            info.decode_s = time.monotonic() - t0
            if chunk.codec != "identity":
                info.n_copies += 1  # the inflate materialized new bytes
            n = memoryview(data).nbytes
            if n != chunk.nbytes:
                raise CodecError(
                    f"chunk {chunk.chunk_id}: decoded {n} bytes, "
                    f"index says {chunk.nbytes}"
                )
        with self._counter_lock:
            self.bytes_wire += info.bytes_wire
            self.bytes_logical += info.bytes_logical
            self.decode_s += info.decode_s
            self.n_copies += info.n_copies
        return data, info

    def _get_with_retry(self, key: str, offset: int, nbytes: int) -> bytes:
        """One store ``get`` under the retry policy, with accounting."""

        def get() -> bytes:
            # Every successful attempt is one rate sample, unless it is
            # so small that it is all request overhead; a failed one
            # raises before it is recorded.
            t0 = time.monotonic()
            data = self.store.get(key, offset, nbytes)
            if nbytes >= max(self.min_part_nbytes, DEFAULT_MIN_PART_NBYTES):
                self.store.stats.record_get_time(nbytes, time.monotonic() - t0)
            return data

        if self.retry is None:
            return get()

        def on_retry(_exc: BaseException, _attempt: int) -> None:
            with self._counter_lock:
                self.n_retries += 1
                self.bytes_retried += nbytes
            self.store.stats.record_retry(nbytes)

        def on_abandon() -> None:
            with self._counter_lock:
                self.n_abandoned += 1
            self.store.stats.record_abandoned()

        try:
            return self.retry.call(
                get, token=f"{key}@{offset}+{nbytes}",
                on_retry=on_retry, on_abandon=on_abandon,
            )
        except RetryExhausted:
            with self._counter_lock:
                self.n_giveups += 1
            self.store.stats.record_error()
            raise
        except Exception:
            self.store.stats.record_error()
            raise

    def _fetch_parts_into(
        self, key: str, offset: int, nbytes: int, view: memoryview | None = None
    ) -> Buffer:
        """Fetch one range over as many GETs as :meth:`_plan_parts` allows.

        With ``view`` (a writable byte view) the bytes land there;
        without it the store's own ``bytes`` are returned for a single
        GET and a fresh ``bytearray`` for a split one.  Each sub-range
        GET writes its slice in place, so there is no reassembly
        ``join`` -- a full extra copy of every parallel fetch.  The
        calling thread fetches the first sub-range itself and only the
        others go to the range pool.
        """
        n_parts = self._plan_parts(nbytes)
        if self._pool is None or n_parts <= 1 or nbytes < n_parts:
            n_parts = 1
            out: Buffer = self._get_with_retry(key, offset, nbytes)
            if view is not None:
                view[:nbytes] = out
        else:
            out = view
            if view is None:
                out = bytearray(nbytes)
                view = memoryview(out)
            parts = split_range(offset, nbytes, n_parts, self.min_part_nbytes)
            n_parts = len(parts)
            futures = [
                self._pool.submit(
                    self._get_part_into, key, off, n,
                    view[off - offset : off - offset + n],
                )
                for off, n in parts[1:]
            ]
            error: BaseException | None = None
            # Each sub-range retries transient errors internally (when a
            # policy is set), so only an *exhausted or non-retryable*
            # part reaches this collection loop.  Collect in part order
            # (this thread's own part is the first) so such a failure
            # surfaces the earliest failing sub-range deterministically;
            # once one part fails, cancel the queued siblings and absorb
            # the running ones rather than leaving them racing against
            # the pool shutdown.
            off, n = parts[0]
            try:
                self._get_part_into(key, off, n, view[:n])
            except BaseException as exc:
                error = exc
            for f in futures:
                if error is not None:
                    f.cancel()
                    continue
                try:
                    f.result()
                except BaseException as exc:
                    error = exc
            if error is not None:
                for f in futures:
                    if not f.cancelled():
                        try:
                            f.result()
                        except BaseException:
                            pass
                raise error
        with self._counter_lock:
            if n_parts > 1:
                self.n_split_fetches += 1
            else:
                self.n_single_fetches += 1
        return out

    def fetch_into(
        self, key: str, offset: int, nbytes: int, out
    ) -> tuple[int, FetchInfo]:
        """Fetch a range directly into a writable buffer; returns
        ``(nbytes, FetchInfo)``.

        This is the shared-memory handoff path: ``out`` is typically a
        :class:`~repro.storage.shm.SharedSegment` buffer, and each
        parallel sub-range GET writes into its slice of ``out`` -- the
        reassembly ``join`` (a full extra copy of the chunk) never
        happens.  With a cache attached the cached/evictable value must
        remain an independent buffer, so that path copies once from the
        cache entry into ``out`` (counted in ``FetchInfo.n_copies``).
        """
        view = memoryview(out).cast("B")
        if view.readonly:
            raise ValueError("fetch_into needs a writable buffer")
        if view.nbytes < nbytes:
            raise ValueError(
                f"buffer of {view.nbytes} bytes cannot hold {nbytes}-byte fetch"
            )
        info = FetchInfo(bytes_wire=nbytes, bytes_logical=nbytes)
        if self.cache is not None:
            data, info.cache_hit = self.fetch_with_info(key, offset, nbytes)
            view[:nbytes] = data
            info.n_copies = 1
            if info.cache_hit:
                info.bytes_wire = 0
        else:
            self._fetch_parts_into(key, offset, nbytes, view)
        with self._counter_lock:
            self.bytes_wire += info.bytes_wire
            self.bytes_logical += info.bytes_logical
            self.n_copies += info.n_copies
        return nbytes, info

    def _get_part_into(self, key: str, offset: int, nbytes: int, dest) -> None:
        dest[:] = self._get_with_retry(key, offset, nbytes)

    def fetch_async(
        self, key: str, offset: int = 0, nbytes: int | None = None
    ) -> PrefetchHandle:
        """Start a fetch on a background thread and return its handle.

        The handle's ``result()`` blocks until the bytes are available;
        ``fetch_s``/``cache_hit`` record how long the fetch actually ran
        and whether the cache served it, which the engine uses to
        account overlapped (hidden) retrieval time.
        """

        def fetch() -> tuple[Buffer, FetchInfo]:
            data, hit = self.fetch_with_info(key, offset, nbytes)
            return data, FetchInfo(cache_hit=hit)

        return self._submit_prefetch(fetch)

    def fetch_chunk_async(self, chunk) -> PrefetchHandle:
        """Chunk-aware :meth:`fetch_async`: decodes on the background
        thread and hands over the fetch's whole :class:`FetchInfo`, so
        decode time of prefetched chunks is overlapped (and reported) too."""
        return self._submit_prefetch(lambda: self.fetch_chunk(chunk))

    def _submit_prefetch(
        self, fetch: Callable[[], tuple[Buffer, FetchInfo]]
    ) -> PrefetchHandle:
        if self._prefetch_pool is None:
            self._prefetch_pool = ThreadPoolExecutor(
                max_workers=self.chunks_in_flight, thread_name_prefix="prefetch"
            )
        handle = PrefetchHandle()

        def work() -> None:
            if not handle._future.set_running_or_notify_cancel():
                return
            t0 = time.monotonic()
            try:
                data, info = fetch()
            except BaseException as exc:
                handle.fetch_s = time.monotonic() - t0
                handle._future.set_exception(exc)
                return
            handle.fetch_s = time.monotonic() - t0 - info.decode_s
            handle.info = info
            handle._future.set_result(data)

        self._prefetch_pool.submit(work)
        return handle

    def close(self) -> None:
        if self._prefetch_pool is not None:
            self._prefetch_pool.shutdown(wait=True)
            self._prefetch_pool = None
        if self._hedge_pool is not None:
            self._hedge_pool.shutdown(wait=True)
            self._hedge_pool = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        # The sibling map holds this fetcher too: drop it, so a closed
        # fetcher set is freed by reference counting, not left as a cycle.
        self.siblings = {}

    def __enter__(self) -> "ParallelFetcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
