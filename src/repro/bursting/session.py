"""BurstingSession: a long-lived handle on a distributed dataset.

Iterative applications (k-means, PageRank) run many passes over the
*same* geographically split data.  A session writes and distributes the
dataset once, then executes any number of specs -- each pass reuses the
placed files, the cluster configuration and one long-lived
:class:`~repro.service.BurstingService` (its fleet, store health and
chunk cache), which is how the paper's middleware amortizes data
organization and its head/master/slave set-up across runs.

Example::

    with BurstingSession.from_units(points, points_format(8), stores,
                                    local_fraction=1/3) as session:
        for _ in range(20):
            result = session.run(KMeansSpec(centroids))
            centroids = result.result.centroids
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from repro.core.api import GeneralizedReductionSpec
from repro.data.dataset import distribute_dataset, write_dataset
from repro.data.formats import RecordFormat
from repro.data.index import DataIndex
from repro.runtime.core import ClusterConfig, EngineOptions, RunResult
from repro.service import BurstingService
from repro.service.service import HeldService
from repro.storage.base import StorageBackend
from repro.storage.cache import ChunkCache

__all__ = ["BurstingSession"]

_MB = 1 << 20


def place_units(
    units: np.ndarray,
    fmt: RecordFormat,
    stores: dict[str, StorageBackend],
    *,
    local_fraction: float,
    n_files: int,
    chunk_units: int | None,
    codec: str | None,
) -> DataIndex:
    """Write ``units`` to the local store, then move ``1 - local_fraction``
    of the bytes to the cloud store."""
    if "local" not in stores or "cloud" not in stores:
        raise ValueError('stores must provide "local" and "cloud" backends')
    if chunk_units is None:
        chunk_units = max(1, len(units) // (n_files * 3))
    index = write_dataset(
        units, fmt, stores["local"], n_files=n_files, chunk_units=chunk_units,
        codec=codec,
    )
    fractions: dict[str, float] = {}
    if local_fraction > 0:
        fractions["local"] = local_fraction
    if local_fraction < 1:
        fractions["cloud"] = 1.0 - local_fraction
    return distribute_dataset(index, stores, fractions, stores["local"])


class BurstingSession:
    """Holds a distributed dataset, its cluster configuration and one
    :class:`~repro.service.BurstingService`, for repeated passes.

    Every pass is one job on that service, so the fleet, store health and
    chunk cache outlive the pass; :meth:`close` (or ``with``, or dropping
    the session) stops the fleet.

    Every keyword beyond the ones named here is an
    :class:`~repro.runtime.core.EngineOptions` field (``prefetch``,
    ``retry``, ``crash_plan``, ``hedge``, ``pushdown``, ...; see the
    field docs there) and applies to every pass.  ``cache_mb`` adds a
    session-wide byte-budgeted :class:`ChunkCache`, so an iterative
    workload fetches each remote chunk once and every later pass hits
    the cache (see :attr:`cache` / :meth:`cache_stats`); pass
    ``chunk_cache=`` instead to share a cache you own.

    ``engine`` selects the execution engine: ``"threaded"`` (default,
    worker threads) or ``"process"`` (one OS process per slave with
    shared-memory data handoff -- see
    :class:`~repro.runtime.process_engine.ProcessEngine`).  Both
    engines accept every option.
    """

    def __init__(
        self,
        index: DataIndex,
        stores: dict[str, StorageBackend],
        *,
        engine: str = "threaded",
        local_workers: int = 2,
        cloud_workers: int = 2,
        # Not EngineOptions' 4: 4 here read +3.5-7 % pagerank-process-iter
        # pass_s, 2 there -5-13 % service-mixed jobs_per_s (ROADMAP).
        batch_size: int = 2,
        retrieval_threads: int = 2,
        cache_mb: float | None = None,
        **fields: Any,
    ) -> None:
        EngineOptions.validate_index(index, stores)
        if cache_mb and "chunk_cache" in fields:
            raise TypeError("pass cache_mb or chunk_cache, not both")
        self.index = index
        self.stores = stores
        self.cache = (
            ChunkCache(int(cache_mb * _MB)) if cache_mb
            else fields.pop("chunk_cache", None)
        )
        sizes = {"local": local_workers, "cloud": cloud_workers}
        self._clusters = [  # a site with no workers has no cluster
            ClusterConfig(site, site, n, retrieval_threads)
            for site, n in sizes.items() if n > 0
        ]
        if not self._clusters:
            raise ValueError("session needs at least one worker")
        self.engine_name = engine
        self.options = EngineOptions(
            batch_size=batch_size, chunk_cache=self.cache, **fields
        )
        self.passes_run = 0
        self._held = HeldService(self._clusters, engine=engine, options=self.options)
        self._held.open(stores)  # validates the engine name and the options

    @property
    def _service(self) -> BurstingService:
        """The service the last pass ran on (or the next one will)."""
        return self._held.service

    @classmethod
    def from_units(
        cls,
        units: np.ndarray,
        fmt: RecordFormat,
        stores: dict[str, StorageBackend],
        *,
        local_fraction: float = 0.5,
        n_files: int = 8,
        chunk_units: int | None = None,
        codec: str | None = None,
        **engine_kwargs: Any,
    ) -> "BurstingSession":
        """Write, chunk, and distribute a dataset, then open a session.

        ``codec`` makes the organizer write the files pre-compressed
        (see :func:`repro.data.dataset.write_dataset`); every fetch then
        moves encoded bytes and decodes after reassembly.
        """
        index = place_units(
            units, fmt, stores, local_fraction=local_fraction, n_files=n_files,
            chunk_units=chunk_units, codec=codec,
        )
        return cls(index, stores, **engine_kwargs)

    def run(self, spec: GeneralizedReductionSpec) -> RunResult:
        """Execute one pass of ``spec`` over the session's dataset.

        Every pass starts with a full fleet over the session's *live*
        store map: after a pass that lost a worker (a crash plan, retry
        exhaustion), or once ``stores`` no longer holds the stores the
        service was built from, the session opens a fresh service first.
        """
        result = self._held.open(self.stores).submit(spec, self.index).result()
        self.passes_run += 1
        return result

    def close(self) -> None:
        """Stop the session's service: its fleet, finalizer and BLAS cap.
        Idempotent; a closed session runs no more passes."""
        self._held.close()

    def __enter__(self) -> "BurstingSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def cache_stats(self) -> dict | None:
        """Snapshot of the session chunk cache (None when disabled)."""
        return self.cache.snapshot() if self.cache is not None else None

    def iterate(
        self,
        make_spec: Callable[[Any], GeneralizedReductionSpec],
        state: Any,
        *,
        max_iters: int = 100,
        converged: Callable[[Any, Any], bool] | None = None,
    ) -> Iterator[tuple[int, RunResult, Any]]:
        """Drive an iterative computation to convergence.

        ``make_spec(state)`` builds the pass's spec; each pass's
        ``result.result`` becomes the next state.  Yields
        ``(iteration, run_result, new_state)`` after every pass and
        stops when ``converged(old_state, new_state)`` returns True (or
        after ``max_iters``).
        """
        if max_iters <= 0:
            raise ValueError("max_iters must be positive")
        for it in range(1, max_iters + 1):
            rr = self.run(make_spec(state))
            new_state = rr.result
            yield it, rr, new_state
            if converged is not None and converged(state, new_state):
                return
            state = new_state
