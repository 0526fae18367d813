"""Multi-threaded ranged retrieval.

"Each slave retrieves jobs using multiple retrieval threads, to
capitalize on the fast network interconnects."  Per-connection caps make
a single GET stream slow; splitting a chunk's byte range across parallel
sub-range GETs recovers the aggregate bandwidth.

On top of the ranged fetch this module provides the engines' data
pipeline, in two layers: :meth:`ParallelFetcher.fetch_frame` sources a
chunk's wire frame, the one way any engine fetches a chunk, and
:func:`decode_frame` is the one decode after it.  Its mechanisms:

* an optional :class:`~repro.storage.cache.ChunkCache` consulted before
  any store traffic (cross-iteration reuse);
* one k-of-n source race (:meth:`ParallelFetcher._race`) behind every
  multi-source fetch: replica failover and hedging are its k = 1 case
  over a chunk's ``sources``, erasure-striped retrieval its k-of-(k+m)
  case over a stripe's ``fragments``.  A won race books its running
  losers and detaches them (:meth:`FetchPools.detach`), as a
  timeout-guarded GET does its attempt past the timeout, so nothing --
  not the fetch, not :meth:`ParallelFetcher.close` -- waits on a
  straggler;
* :meth:`ParallelFetcher.fetch_chunk_async`, which runs a whole chunk
  fetch on a background thread so a worker can overlap the retrieval of
  the jobs it has reserved with the processing of the current one
  (read-ahead).

All of them run on the threads of one :class:`FetchPools`, which may
outlive the fetchers that borrow it.  A fetcher holds no run state: each
fetch books what it did in its own :class:`FetchInfo`, its one ledger.
One fetcher serves a whole cluster: it holds the run's store map and
sends every GET -- a primary's, a replica's, a stripe fragment's -- to
the store at that source's location.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

from repro.storage.base import StorageBackend
from repro.storage.cache import ChunkCache
from repro.storage.codecs import Buffer, CodecError, decode_chunk
from repro.storage.erasure import ErasureError, reassemble
from repro.storage.faults import PermanentStorageError
from repro.storage.health import BREAKER_CLOSED, HealthRegistry, HedgePolicy
from repro.storage.retry import RetryExhausted, RetryPolicy

__all__ = [
    "split_range",
    "FAILOVER_ERRORS",
    "FetchInfo",
    "FetchPools",
    "PrefetchHandle",
    "ParallelFetcher",
    "decode_frame",
    "legs_on_pool",
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

#: Threads in each store's race-leg and attempt pools (no leg queues
#: behind a stalled one), and the most detached legs alive per store
#: (:meth:`FetchPools.detach`).
HEDGE_POOL_WIDTH = 32


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
    """The ledger of one fetch: a chunk's (:meth:`ParallelFetcher.fetch_frame`,
    and :meth:`~ParallelFetcher.fetch_chunk`'s decode), a range's, or a part's.

    ``bytes_wire`` is what actually crossed the store connection (the
    encoded size for compressed chunks, zero on a cache hit);
    ``bytes_logical`` the decoded chunk size handed to the worker;
    ``decode_s`` the frame-decode time (a stripe's reassembly
    included), kept separate from fetch time.
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
    # Multi-source retrieval: wall seconds the fetch took (excluding
    # decode), how many of its race's legs failed, how many legs were
    # launched as hedges, and how many of the winners were hedge legs.
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
    # Bytes of the race's losing legs: the wire bytes each loser still
    # running at the win had requested, and what losers that finished
    # alongside the winners fetched.  Final when the fetch returns.
    fragments_wasted_bytes: int = 0
    # What a part hands back (:meth:`take`), booked for a fetch that
    # raised too: retries and their bytes, giveups, attempts abandoned at
    # the timeout, breaker skips, ranges fetched with one GET vs split.
    n_retries: int = 0
    n_errors: int = 0
    bytes_retried: int = 0
    n_abandoned: int = 0
    n_breaker_skips: int = 0
    n_single_fetches: int = 0
    n_split_fetches: int = 0
    # The p95 samples: ``fetch_s`` unless the cache served the fetch, or
    # each winning stripe leg's seconds the store served.
    fetch_latencies: list = field(default_factory=list)

    def take(self, part: FetchInfo) -> None:
        """Add the counts ``part``, an ended sub-range or race leg, hands back."""
        for name in _HANDED_BACK:
            setattr(self, name, getattr(self, name) + getattr(part, name))


_HANDED_BACK = ("n_retries", "n_errors", "bytes_retried", "n_abandoned",
                "n_breaker_skips", "n_single_fetches", "n_split_fetches")


class PrefetchHandle:
    """One in-flight asynchronous fetch.

    ``info`` is the fetch's own :class:`FetchInfo` -- the ledger a
    synchronous :meth:`ParallelFetcher.fetch_chunk` books in, so a
    prefetched chunk is accounted exactly like a serial one -- and
    ``fetch_s`` the wall seconds the background fetch ran, decode
    excluded (what overlap accounting needs).  Both are written by the
    background thread and final once ``done()`` returns True, or
    ``result()`` has returned or raised.
    """

    __slots__ = ("_future", "fetch_s", "info")
    _future: Future  # the read-ahead pool's, set as the fetch is submitted

    def __init__(self) -> None:
        self.fetch_s = 0.0
        self.info = FetchInfo()

    @property
    def cache_hit(self) -> bool:
        return self.info.cache_hit

    def done(self) -> bool:
        return self._future.done()

    def result(self) -> bytes:
        """Block until the fetch completes; re-raises fetch errors."""
        try:
            return self._future.result()
        finally:
            del self  # a fetch error's traceback holds this frame

    def cancel(self) -> bool:
        """Cancel if not started; otherwise wait out the outcome (True)."""
        if self._future.cancel():
            return False
        self._future.exception()
        return True


def _inline(kind: str, fn: Callable, *args, at: str = "") -> Future:
    """Runs a race leg on the calling thread (:meth:`FetchPools.submit`'s stand-in)."""
    fut: Future = Future()
    fut.set_running_or_notify_cancel()
    try:
        fut.set_result(fn(*args))
    except BaseException as exc:
        fut.set_exception(exc)
    try:
        return fut
    finally:
        del fut  # the leg's error holds this frame, and the race's above it


def _source_range(chunk, src) -> tuple[int, int]:
    """The byte range a fetch of ``chunk`` from ``src`` requests: the
    logical range of a plain chunk, the encoded one of a coded chunk
    (``src``'s, or the primary's where ``src`` records none)."""
    if chunk.codec is None:
        return chunk.offset, chunk.nbytes
    offset, nbytes = chunk.enc_offset, chunk.enc_nbytes
    if src is not None and src.enc_offset is not None:
        offset = src.enc_offset
    if src is not None and src.enc_nbytes is not None:
        nbytes = src.enc_nbytes
    return offset, nbytes


def decode_frame(frame: Buffer, chunk_id: int, nbytes: int) -> Buffer:
    """Decode chunk ``chunk_id``'s wire frame and check it against the
    index's logical size ``nbytes``: the fetch path's one decode, run by
    :meth:`ParallelFetcher.fetch_chunk` and by the process engine's
    child on the frame its parent fetched."""
    data = decode_chunk(frame)
    n = memoryview(data).nbytes
    if n != nbytes:
        raise CodecError(f"chunk {chunk_id}: decoded {n} bytes, index says {nbytes}")
    return data


def _land(out, data: Buffer, info: FetchInfo) -> memoryview:
    """Copy ``data`` into the head of ``out`` once, booking the copy."""
    view = memoryview(out)[: memoryview(data).nbytes]
    view[:] = data
    info.n_copies += 1
    return view


def _book_latency(info: FetchInfo, latency: float) -> None:
    """Set ``info.fetch_s``, a latency sample unless the cache served it."""
    info.fetch_s = latency
    if not info.cache_hit:
        info.fetch_latencies.append(latency)


def legs_on_pool(k: int, hedge: HedgePolicy | None) -> bool:
    """Whether a k-of-n race runs its legs on the leg pools, not inline."""
    return k > 1 or hedge is not None


class FetchPools:
    """Every fetch thread of one owner, lent to the fetchers built over it:
    per store a ``"range"`` pool (``range_width`` threads, for sub-range
    GETs), a ``"leg"`` pool (:data:`HEDGE_POOL_WIDTH`, for race legs
    reading that store, so a stalled store's detached legs fill only
    its own) and an ``"attempt"`` pool (as wide, for timeout-guarded
    GETs, which nothing on the other two may wait on), and one
    ``"readahead"`` pool (``readahead_width``).  Pools start on first
    use, threads on demand.  The owner (a service), each fetcher and
    each detached leg :meth:`hold` it; once only detached legs do, every
    pool but their stores' shuts down, and a store's last leg shuts down
    the rest."""

    def __init__(self, range_width: int, readahead_width: int) -> None:
        self._widths = dict(
            range=range_width, leg=HEDGE_POOL_WIDTH, attempt=HEDGE_POOL_WIDTH,
            readahead=readahead_width,
        )
        self._pools: dict[tuple[str, str], ThreadPoolExecutor] = {}
        self._lock = threading.Lock()
        #: Holders by the store they keep ("" for all of them).
        self._holds: Counter[str] = Counter()

    def submit(self, kind: str, fn: Callable, *args, at: str = "") -> Future:
        """Run ``fn(*args)`` on the ``kind`` pool of store ``at``."""
        with self._lock:
            pool = self._pools.get((kind, at))
            if pool is None:
                name = f"{kind}-{at}" if at else kind
                pool = ThreadPoolExecutor(self._widths[kind], name)
                self._pools[kind, at] = pool
        return pool.submit(fn, *args)

    def hold(self, at: str = "") -> None:
        """Keep every pool, or (a detached leg) only store ``at``'s."""
        with self._lock:
            self._holds[at] += 1

    def release(self, at: str = "") -> None:
        """Drop a :meth:`hold`, shutting down every pool nobody holds any
        more: joined, unless the caller is a leg on one of them."""
        with self._lock:
            self._holds[at] -= 1
            if self._holds[""]:
                return
            done = [key for key in self._pools if not self._holds[key[1]]]
            pools = [self._pools.pop(key) for key in done]
        for pool in pools:
            pool.shutdown(wait=not at)

    def detach(self, fut: Future, store: StorageBackend) -> bool:
        """Let the running ``fut``, a GET on ``store`` whose caller walks
        away from it, end on its own, holding that store's pools till
        then: the one thing that may outlive a run.  False, and nothing
        changes, when the store's stats already count
        :data:`HEDGE_POOL_WIDTH` detached legs alive: a store that never
        answers cannot grow threads without bound."""
        at, stats = store.location, store.stats
        if not stats.try_detach(HEDGE_POOL_WIDTH):
            return False
        self.hold(at)

        def ended(_: Future) -> None:
            stats.release_detached()
            self.release(at)

        fut.add_done_callback(ended)
        return True


class ParallelFetcher:
    """Fetch byte ranges from the stores of ``stores`` (location ->
    :class:`~repro.storage.base.StorageBackend`, one cluster's view of a
    run's data) with up to ``n_threads`` connections.

    Every source a chunk names -- its primary (``chunk.location``), a
    replica, a stripe fragment -- is read from the store at the source's
    location, and everything kept per store is that store's: its GET-rate
    evidence, its retries' and abandoned attempts' counts in its
    :class:`~repro.storage.base.StorageStats`, its pools, its cache
    entries, its cap of detached legs.  A source whose location has no
    store in the map is a setup bug and raises :class:`LookupError`
    before any GET (never ``KeyError``, which would fail over).

    ``n_threads`` is the ceiling on connections *per fetch*: every store
    GET is timed into the store's stats, and a range is split only while
    that evidence says splitting pays (:meth:`_plan_parts`).  ``cache``
    (a shared :class:`ChunkCache`) short-circuits fetches of ranges
    already resident.

    A fetcher owns no thread and holds no run state: its sub-range GETs,
    race legs, guarded GET attempts and read-aheads run on ``pools`` (a
    :class:`FetchPools`, private ones for one fetch at a time if none),
    held until :meth:`close`.

    ``retry`` (a :class:`~repro.storage.retry.RetryPolicy`) makes every
    store ``get`` -- including each parallel sub-range -- retry
    transient errors with backoff instead of failing the whole fetch.
    A failing sub-range therefore no longer cancels the other parts
    unless it exhausts the policy.  Retries are counted in the fetch's ledger
    (``n_retries``/``n_errors``/``bytes_retried``, and ``n_abandoned``
    for attempts left running past the policy's ``attempt_timeout_s``)
    and mirrored into the backend's :class:`~repro.storage.base.StorageStats`.

    Chunks are sourced one way, :meth:`fetch_frame`, which returns the
    wire frame; :meth:`fetch_chunk` is that plus the decode.

    Multi-source retrieval: a chunk carrying replica sources
    (:attr:`~repro.data.chunks.ChunkInfo.replicas`) or erasure-coded
    fragments is fetched by one k-of-n race (:meth:`_race`) -- the
    first success among its sources, or the first ``k`` among its
    fragments, each leg on its store's leg pool.  A shared
    :class:`~repro.storage.health.HealthRegistry` orders the candidates
    and learns from every leg; a :class:`~repro.storage.health.HedgePolicy`
    launches a backup for a leg still in flight past its threshold.
    Each fetch's :class:`FetchInfo` is its only ledger; sub-range parts
    and race legs hand theirs back to it (:meth:`FetchInfo.take`).
    """

    def __init__(
        self,
        stores: Mapping[str, StorageBackend],
        n_threads: int = 1,
        *,
        cache: ChunkCache | None = None,
        pools: FetchPools | None = None,
        retry: RetryPolicy | None = None,
        min_part_nbytes: int = DEFAULT_MIN_PART_NBYTES,
        health: HealthRegistry | None = None,
        hedge: HedgePolicy | None = None,
    ) -> None:
        if n_threads <= 0:
            raise ValueError("n_threads must be positive")
        self._stores = dict(stores)
        self.n_threads = n_threads
        self.cache = cache
        self.pools = FetchPools(n_threads - 1, 1) if pools is None else pools
        self.pools.hold()
        self.retry = retry
        self.min_part_nbytes = min_part_nbytes
        self.health = health
        self.hedge = hedge
        self._closed = False

    def _store(self, location: str) -> StorageBackend:
        """The store at ``location``: a source with none is a setup bug,
        not an outage to fail over from, so this is no ``KeyError``."""
        store = self._stores.get(location)
        if store is None:
            raise LookupError(f"no store for location {location!r}")
        return store

    def _plan_parts(self, store: StorageBackend, nbytes: int) -> int:
        """Sub-range fan-out for a fetch of ``nbytes`` from ``store``.

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
            rate = store.stats.s_per_byte
            if rate is not None and nbytes * rate * (1 - 1 / n) < sys.getswitchinterval():
                n = 1
        return n

    def fetch(self, location: str, key: str, offset: int = 0,
              nbytes: int | None = None, info: FetchInfo | None = None) -> Buffer:
        """Retrieve ``[offset, offset+nbytes)`` of ``key`` from the store at
        ``location``, reassembled in order.

        Returns a bytes-like buffer: ``bytes`` for single-connection
        fetches, a ``bytearray`` assembled in place for parallel ones
        (no join copy), or a read-only ``memoryview`` on a cache hit,
        booked in the ledger ``info``.
        """
        store = self._store(location)
        info = info or FetchInfo()
        if nbytes is None:
            nbytes = store.size(key) - offset
        if self.cache is not None:
            cached = self.cache.get(store.location, key, offset, nbytes)
            if cached is not None:
                info.cache_hit = True
                return cached
        data = self._fetch_parts_into(store, key, offset, nbytes, info)
        if self.cache is not None:
            self.cache.put(store.location, key, offset, nbytes, data)
        return data

    def fetch_chunk(self, chunk, info: FetchInfo | None = None) -> Buffer:
        """Fetch one index chunk's *logical* bytes: :meth:`fetch_frame`,
        then the one :func:`decode_frame` of a coded chunk, which checks
        the index's logical size.  The fetch books in ``info``,
        ``decode_s`` and the inflate copy included.

        Zero-copy: the returned buffer aliases the fetched (or cached)
        bytes whenever the codec allows -- identity-codec frames decode
        to a read-only view over the frame itself, so ``n_copies`` is 0;
        only transforms that inflate (zlib/lz4/shuffle) materialize one
        new buffer (``n_copies`` 1).
        """
        info = info or FetchInfo()
        data = self.fetch_frame(chunk, info=info)
        if chunk.codec is not None:
            t0 = time.monotonic()
            data = decode_frame(data, chunk.chunk_id, chunk.nbytes)
            info.decode_s += time.monotonic() - t0
            if chunk.codec != "identity":
                info.n_copies += 1  # the inflate materialized new bytes
        return data

    def fetch_frame(self, chunk, out=None, info: FetchInfo | None = None) -> Buffer:
        """Source one index chunk's wire frame: the encoded bytes of a
        coded chunk, the logical bytes of a plain one.  The only way a
        chunk is fetched; no part of it decodes.

        ``chunk`` is a :class:`~repro.data.chunks.ChunkInfo`.  What
        travels the wire is the frame, so sub-range splitting, retries
        and the cache all operate on encoded bytes (the same
        ``cache_mb`` budget holds more chunks, and a retry re-requests
        encoded ranges).  Chunks carrying replica sources race them
        (:meth:`_race`, k = 1); striped chunks race their fragments and
        reassemble the ``k`` winners (booked as ``decode_s``);
        single-source chunks take the direct path, with health outcomes
        still recorded when a registry is attached.

        Without ``out`` the frame is the buffer its fetch produced (the
        store's, a split fetch's ``bytearray``, the cache's view, the
        reassembly).  With ``out`` (a writable buffer holding at least
        the frame) it lands there and a view of it is returned: sub-range
        GETs, the legs of an unhedged replica race (they run one at a
        time) and a stripe's reassembly write into ``out``; a cache entry
        or a concurrent race's winner is copied in once (``n_copies``).
        The fetch books in ``info``, also when it raises.
        """
        info = info or FetchInfo()
        if getattr(chunk, "fragments", None):
            return self._fetch_striped(chunk, out, info)
        sources = getattr(chunk, "sources", None)
        if sources is None or len(sources) <= 1:
            src = None if sources is None else sources[0]
            data, latency = self._timed(
                chunk.location, partial(self._fetch_source, chunk, src, out), info
            )
            _book_latency(info, latency)
            return data
        # A k = 1 race: ``fetch_s`` is the winning leg's own time, or from
        # first launch to the win when hedged (the hedge's wait counts).
        # Legs run one at a time only off the leg pools, so only then share ``out``.
        shared = None if legs_on_pool(1, self.hedge) else out
        t0 = time.monotonic()
        ((_, data, won, latency),) = self._race(
            list(sources), 1,
            lambda s, part: self._fetch_source(chunk, s, shared, part),
            info, self.hedge, wire=lambda s: _source_range(chunk, s)[1],
        )
        info.cache_hit, info.bytes_wire = won.cache_hit, won.bytes_wire
        info.bytes_logical = won.bytes_logical
        info.n_copies += won.n_copies
        _book_latency(info, latency if self.hedge is None else time.monotonic() - t0)
        if out is not None and shared is None:
            data = _land(out, data, info)
        return data

    def _timed(self, location: str, fetch: Callable[[FetchInfo], Buffer],
               info: FetchInfo) -> tuple[Buffer, float]:
        """``fetch(info)`` from ``location`` and its wall seconds, the
        outcome recorded in the health registry."""
        t0 = time.monotonic()
        try:
            data = fetch(info)
        except FAILOVER_ERRORS:
            if self.health is not None:
                self.health.record_failure(location)
            raise
        latency = time.monotonic() - t0
        if self.health is not None:
            self.health.record_success(location, None if info.cache_hit else latency)
        return data, latency

    def _race(
        self,
        cands: list,
        k: int,
        leg: Callable[[object, FetchInfo], Buffer],
        books: FetchInfo,
        hedge: HedgePolicy | None,
        *,
        n_data: int | None = None,
        wire: Callable[[object], int] | None = None,
    ) -> list[tuple[object, Buffer, FetchInfo, float]]:
        """Fetch from the first ``k`` of ``cands`` to succeed.

        ``cands`` are in placement order, each with a ``location``;
        ``leg(cand, part)`` fetches one, books it in its own ledger
        ``part`` and returns the bytes.
        Candidates launch data first (the leading ``n_data``, default
        all -- a stripe's data fragments before its parity), then by
        breaker rank, then in placement order; one the race can pass
        over with ``k`` still in reach launches only if its breaker's
        ``allow()`` admits it.  The first ``k`` launch at once; a leg
        that fails with one of :data:`FAILOVER_ERRORS` launches the next
        candidate, and a leg still in flight past ``hedge``'s threshold
        launches one as a hedge, up to ``max_hedges``.  The threshold's
        EWMA is the fastest candidate store's for ``k`` > 1, the oldest
        in-flight leg's store's for ``k`` = 1.  With no hedge a k = 1
        race runs its legs one at a time on the calling thread.

        Returns the winners ``(cand, data, part, latency)`` in
        completion order, ``latency`` being the leg's own wall seconds.
        ``books`` receives, on every exit, ``n_failovers`` (failed
        legs), ``n_hedges`` (hedge launches), ``hedge_wins`` (winners
        that were hedge launches), ``fragments_wasted_bytes``,
        ``n_breaker_skips`` (open stores demoted behind ``k`` healthy
        candidates, and breaker refusals) and every ended leg's ledger
        (a failed-over giveup included).  A winning race cancels its
        queued losers and books each one still running by the wire
        bytes it requested (``wire(cand)``; nothing without ``wire``),
        then detaches it (:meth:`FetchPools.detach`), taking nothing
        more from it.  Past its store's cap of detached legs the race
        waits for that loser before returning.

        A race is lost on any other error (a bug, which propagates) or
        once ``k`` is out of reach (the last failover error propagates;
        :class:`ErasureError` when there are fewer than ``k``
        candidates, :class:`LookupError` before any leg when one has no
        store).  A lost race cancels its queued legs and waits for
        the running ones, so none outlives it.
        """
        n = len(cands)
        if n < k:
            raise ErasureError(f"{n} candidates cannot yield k={k}")
        stores = {c.location: self._store(c.location) for c in cands}
        health = self.health
        rank: dict[str, int] = {}
        demoted: set[str] = set()
        skips = 0
        if health is not None:
            locs = list(dict.fromkeys(c.location for c in cands))
            rank = {loc: i for i, loc in enumerate(health.order(locs))}
            open_locs = health.open_locations()
            n_open = sum(c.location in open_locs for c in cands)
            if n_open and n - n_open >= k:
                demoted = open_locs  # behind k healthy candidates
                skips = n_open
        n_data = n if n_data is None else n_data
        ordered = [
            cands[i]
            for i in sorted(
                range(n), key=lambda i: (i >= n_data, rank.get(cands[i].location, 0), i)
            )
        ]
        submit = self.pools.submit if legs_on_pool(k, hedge) else _inline

        # Each leg: its candidate, whether it was a hedge launch, whether
        # it holds a half-open probe slot (never cancelled, so its
        # outcome always releases the slot), and its own ledger.
        inflight: dict[Future, tuple[object, bool, bool, FetchInfo]] = {}
        wins: list[tuple[object, Buffer, FetchInfo, float]] = []
        next_i = failovers = n_hedges = hedge_wins = wasted = 0
        last_exc: BaseException | None = None
        bug: BaseException | None = None
        done: set[Future] = set()
        f: Future | None = None

        def launch(as_hedge: bool = False) -> bool:
            """Launch the next candidate the breakers admit, if any."""
            nonlocal next_i, skips
            while next_i < n:
                cand = ordered[next_i]
                next_i += 1
                probe = False
                if health is not None and n - next_i >= k - len(wins) - len(inflight):
                    store = health.health(cand.location)
                    if store.state != BREAKER_CLOSED:
                        if not store.allow():
                            skips += cand.location not in demoted
                            continue
                        probe = True
                part = FetchInfo()
                inflight[submit(
                    "leg", self._timed, cand.location, partial(leg, cand), part,
                    at=cand.location,
                )] = (cand, as_hedge, probe, part)
                return True
            return False

        def drop(f: Future) -> bool:
            """Cancel a queued leg unless it holds a probe slot."""
            return not inflight[f][2] and f.cancel()

        def tally(f: Future, closing: bool = False) -> None:
            """Book one finished leg (``closing``: the race has failed)."""
            nonlocal failovers, hedge_wins, wasted, last_exc, bug
            cand, as_hedge, _, part = inflight.pop(f)
            if f.cancelled():
                return
            books.take(part)
            exc = f.exception()
            if exc is None:
                if closing or len(wins) >= k:
                    wasted += part.bytes_wire
                else:
                    data, latency = f.result()
                    wins.append((cand, data, part, latency))
                    hedge_wins += as_hedge
            elif isinstance(exc, FAILOVER_ERRORS):
                last_exc = exc
                failovers += 1
            elif bug is None:
                bug = exc

        try:
            while len(wins) < k and bug is None:
                while len(inflight) + len(wins) < k and next_i < n:
                    launch()
                if len(inflight) + len(wins) < k:
                    break  # out of candidates
                timeout = None
                if hedge is not None and next_i < n and n_hedges < hedge.max_hedges:
                    # A fragment is late against its fastest sibling; a
                    # replica leg against its own store (judged by the
                    # fastest replica, every chunk would leave its placement).
                    basis = ordered if k > 1 else [next(iter(inflight.values()))[0]]
                    ewmas = [
                        health.health(c.location).latency_ewma_s for c in basis
                    ] if health is not None else []
                    timeout = hedge.threshold_s(
                        min((e for e in ewmas if e > 0.0), default=0.0)
                    )
                done, _ = wait(inflight, timeout=timeout, return_when=FIRST_COMPLETED)
                if not done:
                    n_hedges += launch(as_hedge=True)
                for f in done:
                    tally(f)
            if bug is None and len(wins) >= k:
                return wins
            # A failed race collects its legs: none outlives it, and a
            # bug among them outranks running out of candidates.
            for f in inflight:
                drop(f)
            wait(inflight)
            for f in list(inflight):
                tally(f, closing=True)
            if bug is not None:
                raise bug
            assert last_exc is not None  # only a failed leg puts k out of reach
            raise last_exc
        finally:
            # The race's losers: booked now, left to finish on their own.
            over_cap = []
            for f, (cand, _, _, _) in inflight.items():
                if drop(f):
                    continue
                if wire is not None:
                    wasted += wire(cand)
                if not f.done() and not self.pools.detach(f, stores[cand.location]):
                    over_cap.append(f)
            if over_cap:
                wait(over_cap)
            books.n_failovers = failovers
            books.n_hedges = n_hedges
            books.hedge_wins = hedge_wins
            books.fragments_wasted_bytes = wasted
            books.n_breaker_skips += skips
            # A raised error's traceback holds this frame: let go of it.
            bug = last_exc = f = None
            done.clear()

    def _fetch_striped(self, chunk, out, info: FetchInfo) -> Buffer:
        """Fastest-k-of-n fetch of an erasure-striped chunk's frame.

        The fragments race (:meth:`_race`) with data before parity, so
        the common case needs no GF decode and a half-open data store
        still gets its recovery probe.  The ``k`` winners reassemble
        into one contiguous frame (:func:`repro.storage.erasure.reassemble`),
        ``out`` or a new ``bytearray``, so identity-codec chunks still
        hand the worker a view over that single buffer.
        """
        k, m = chunk.stripe
        frags = sorted(chunk.fragments, key=lambda f: f.frag_index)
        if len(frags) < k:
            raise ErasureError(
                f"chunk {chunk.chunk_id}: {len(frags)} fragments recorded, "
                f"need at least k={k}"
            )

        def leg(frag, part: FetchInfo) -> Buffer:
            data = self.fetch(frag.location, frag.key, 0, frag.nbytes, part)
            part.bytes_wire = 0 if part.cache_hit else frag.nbytes
            return data

        t_start = time.monotonic()
        wins = self._race(
            frags, k, leg, info, self.hedge, n_data=k, wire=lambda f: f.nbytes
        )
        info.fetch_s = max(0.0, time.monotonic() - t_start)
        info.bytes_logical = chunk.nbytes
        info.n_fragments = k
        info.cache_hit = all(w.cache_hit for _, _, w, _ in wins)
        info.bytes_wire = sum(w.bytes_wire for _, _, w, _ in wins)
        t0 = time.monotonic()
        n = chunk.wire_nbytes
        frame = bytearray(n) if out is None else memoryview(out)[:n]
        _, used_parity = reassemble(
            {frag.frag_index: data for frag, data, _, _ in wins}, k, m, n, out=frame
        )
        info.n_copies += 1  # fragments gathered into one contiguous frame
        info.n_parity_decodes = int(used_parity)
        info.decode_s = time.monotonic() - t0
        info.fetch_latencies += [lat for _, _, w, lat in wins if not w.cache_hit]
        return frame

    def _fetch_source(self, chunk, src, out, info: FetchInfo) -> Buffer:
        """Fetch the chunk's frame from one concrete source.

        ``src`` (a :class:`~repro.data.chunks.ChunkSource`) names the
        store, key and encoded range; ``None`` means the chunk's own
        primary.  With ``out`` the GETs write into it, unless a cache is
        attached: its entry must stay an independent buffer, so it is
        copied in once.
        """
        location = chunk.location if src is None else src.location
        key = chunk.key if src is None else src.key
        offset, nbytes = _source_range(chunk, src)
        if out is not None and self.cache is None:
            data = self._fetch_parts_into(
                self._store(location), key, offset, nbytes, info, memoryview(out)
            )
        else:
            data = self.fetch(location, key, offset, nbytes, info)
            if out is not None:
                data = _land(out, data, info)
        info.bytes_wire = 0 if info.cache_hit else nbytes
        info.bytes_logical = chunk.nbytes
        return data

    def _get_with_retry(self, store: StorageBackend, key: str, offset: int, nbytes: int,
                        info: FetchInfo) -> bytes:
        """One ``store.get`` under the retry policy, booked in ``info``."""

        def get() -> bytes:
            # Every successful attempt is one rate sample, unless it is
            # so small that it is all request overhead; a failed one
            # raises before it is recorded.
            t0 = time.monotonic()
            data = store.get(key, offset, nbytes)
            if nbytes >= max(self.min_part_nbytes, DEFAULT_MIN_PART_NBYTES):
                store.stats.record_get_time(nbytes, time.monotonic() - t0)
            return data

        if self.retry is None:
            return get()

        def on_retry(_exc: BaseException, _attempt: int) -> None:
            info.n_retries += 1
            info.bytes_retried += nbytes
            store.stats.record_retry(nbytes)

        if self.retry.attempt_timeout_s is not None:
            get = partial(self._guarded, store, get, info)
        try:
            return self.retry.call(
                get, token=f"{key}@{offset}+{nbytes}", on_retry=on_retry
            )
        except RetryExhausted:
            info.n_errors += 1
            store.stats.record_error()
            raise
        except Exception:
            store.stats.record_error()
            raise

    def _guarded(self, store: StorageBackend, get: Callable[[], bytes],
                 info: FetchInfo) -> bytes:
        """Run one GET attempt on ``store``'s attempt pool for at most
        ``retry.attempt_timeout_s``, then walk away from it: a queued
        attempt is cancelled, a running one detached like a race loser
        (:meth:`FetchPools.detach`, counted in ``n_abandoned``), and
        either raises a retryable ``TimeoutError``.  So does an attempt
        the store's cap of detached legs leaves no room for, unstarted."""
        at, stats = store.location, store.stats
        timeout_s = self.retry.attempt_timeout_s
        if stats.n_detached >= HEDGE_POOL_WIDTH:
            raise TimeoutError(f"{at}: {HEDGE_POOL_WIDTH} detached GETs still running")
        fut = self.pools.submit("attempt", get, at=at)
        try:
            if not wait((fut,), timeout_s).done:
                if not fut.cancel():  # a queued attempt never runs
                    if not self.pools.detach(fut, store):
                        return fut.result()  # the cap filled meanwhile
                    info.n_abandoned += 1
                    stats.record_abandoned()
                raise TimeoutError(f"{at}: GET outlived its {timeout_s}s timeout")
            return fut.result()
        finally:
            del fut  # an attempt's error holds this frame

    def _fetch_parts_into(
        self, store: StorageBackend, key: str, offset: int, nbytes: int,
        info: FetchInfo, view: memoryview | None = None,
    ) -> Buffer:
        """Fetch one range of ``store`` over as many GETs as
        :meth:`_plan_parts` allows.

        With ``view`` (a writable byte view) the bytes land in its head,
        which is returned; without it the store's own ``bytes`` are
        returned for a single GET and a fresh ``bytearray`` for a split
        one.  Each sub-range GET writes its slice in place, so there is
        no reassembly ``join`` -- a full extra copy of every parallel
        fetch.  The calling thread fetches the first sub-range itself
        and only the others go to the store's range pool, each with a
        ledger of its own.
        """
        if view is not None:
            view = view[:nbytes]
        n_parts = self._plan_parts(store, nbytes)
        if n_parts <= 1 or nbytes < n_parts:
            n_parts = 1
            out: Buffer = self._get_with_retry(store, key, offset, nbytes, info)
            if view is not None:
                view[:] = out
                out = view
        else:
            out = view
            if view is None:
                out = bytearray(nbytes)
                view = memoryview(out)
            parts = split_range(offset, nbytes, n_parts, self.min_part_nbytes)
            n_parts = len(parts)
            ledgers = [FetchInfo() for _ in parts[1:]]
            futures = [
                self.pools.submit(
                    "range", self._get_part_into, store, key, off, n,
                    view[off - offset : off - offset + n], part, at=store.location,
                )
                for (off, n), part in zip(parts[1:], ledgers)
            ]
            # Sub-ranges retry transient errors themselves, so only an
            # exhausted or non-retryable part raises here.  Collect in part
            # order (this thread's own first), so the earliest failing part
            # surfaces; then cancel the queued rest and wait out the running.
            off, n = parts[0]
            f: Future | None = None
            try:
                self._get_part_into(store, key, off, n, view[:n], info)
                for f in futures:
                    f.result()
            except BaseException:
                for f in futures:
                    f.cancel()
                wait(futures)
                futures, f = [], None  # the error's traceback holds this frame
                raise
            finally:
                for part in ledgers:  # every part has ended (or never ran)
                    info.take(part)
        if n_parts > 1:
            info.n_split_fetches += 1
        else:
            info.n_single_fetches += 1
        return out

    def _get_part_into(self, store: StorageBackend, key: str, offset: int, nbytes: int,
                       dest, info: FetchInfo) -> None:
        dest[:] = self._get_with_retry(store, key, offset, nbytes, info)

    def fetch_chunk_async(self, chunk) -> PrefetchHandle:
        """Start :meth:`fetch_chunk` on a background thread; return its handle.

        The fetch decodes on the background thread and books in the
        handle's :class:`FetchInfo`, so decode time of prefetched chunks
        is overlapped (and reported) too.  The handle's ``result()`` blocks
        until the bytes are available; ``fetch_s`` records how long the
        fetch actually ran, which the engine uses to account overlapped
        (hidden) retrieval time.
        """
        def work(handle: PrefetchHandle) -> Buffer:
            t0 = time.monotonic()
            try:
                data = self.fetch_chunk(chunk, handle.info)
            finally:
                handle.fetch_s = time.monotonic() - t0 - handle.info.decode_s
                del handle  # a fetch error's traceback holds this frame
            return data

        handle = PrefetchHandle()
        handle._future = self.pools.submit("readahead", work, handle)
        return handle

    def close(self) -> None:
        """Give back this fetcher's hold on its pools (idempotent).  A
        race loser or a timed-out GET attempt, detached by
        :meth:`FetchPools.detach`, may outlive this, holding its store's
        pools; nothing else of the fetcher runs after it.
        """
        if not self._closed:
            self._closed = True
            self.pools.release()

    def __enter__(self) -> "ParallelFetcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
