"""BurstingSession: a long-lived handle on a distributed dataset.

Iterative applications (k-means, PageRank) run many passes over the
*same* geographically split data.  A session writes and distributes the
dataset once, then executes any number of specs -- each pass reuses the
placed files and cluster configuration, which is exactly how the paper's
middleware amortizes data organization across runs.

Example::

    session = BurstingSession.from_units(points, points_format(8), stores,
                                         local_fraction=1/3)
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
from repro.runtime import make_engine
from repro.runtime.core import EngineOptions
from repro.runtime.engine import ClusterConfig, RunResult
from repro.storage.autotune import AutotuneParams
from repro.storage.base import StorageBackend
from repro.storage.cache import ChunkCache
from repro.storage.retry import RetryPolicy
from repro.storage.transfer import DEFAULT_MIN_PART_NBYTES

__all__ = ["BurstingSession"]

_MB = 1 << 20


class BurstingSession:
    """Holds a distributed dataset plus an engine, for repeated passes.

    ``prefetch=True`` makes every worker read ahead (the next two jobs'
    fetches overlap the processing of job N); ``cache_mb`` adds a session-
    wide byte-budgeted :class:`ChunkCache`, so an iterative workload
    fetches each remote chunk once and every later pass hits the cache
    (see :attr:`cache` / :meth:`cache_stats`).

    ``retry`` (a :class:`~repro.storage.retry.RetryPolicy`) makes the
    fetch path survive transient store errors, and ``crash_plan``
    (worker name -> jobs processed before dying, e.g.
    ``{"cloud-w0": 2}``) injects worker crashes that the engine
    contains and recovers from -- see
    :class:`~repro.runtime.engine.ThreadedEngine`.

    ``adaptive_fetch=True`` replaces the fixed ``retrieval_threads``
    fan-out with one AIMD autotuner per (cluster, data location) path
    (see :mod:`repro.storage.autotune`); ``min_part_nbytes`` floors the
    sub-range size so small chunks travel as a single GET.

    ``engine`` selects the execution engine: ``"threaded"`` (default,
    worker threads), ``"process"`` (one OS process per slave with
    shared-memory data handoff -- see
    :class:`~repro.runtime.process_engine.ProcessEngine`), or
    ``"actor"`` (message-passing over explicit channels).  Every engine
    accepts every option -- they all run the same
    :class:`~repro.runtime.core.SlaveRuntime` worker loop.

    ``pushdown`` (``"prune"`` or ``"verify"``) turns on metadata-first
    retrieval for every pass: specs declaring ``relevant``/``priority``
    hooks skip chunks the index statistics rule out.  Iterative
    workloads whose filter narrows each pass (e.g. top-k candidate
    windows) prune more chunks every iteration with no re-organization.
    """

    def __init__(
        self,
        index: DataIndex,
        stores: dict[str, StorageBackend],
        *,
        engine: str = "threaded",
        local_workers: int = 2,
        cloud_workers: int = 2,
        batch_size: int = 2,
        retrieval_threads: int = 2,
        scheduler_factory=None,
        prefetch: bool = False,
        cache_mb: float | None = None,
        retry: RetryPolicy | None = None,
        crash_plan: dict[str, int] | None = None,
        adaptive_fetch: bool = False,
        min_part_nbytes: int = DEFAULT_MIN_PART_NBYTES,
        autotune_params: AutotuneParams | None = None,
        pushdown: str | bool | None = None,
    ) -> None:
        missing = set(index.locations) - set(stores)
        if missing:
            raise ValueError(f"index references unknown stores: {sorted(missing)}")
        self.index = index
        self.stores = stores
        self.cache = ChunkCache(int(cache_mb * _MB)) if cache_mb else None
        clusters = []
        if local_workers > 0:
            clusters.append(
                ClusterConfig("local", "local", local_workers, retrieval_threads)
            )
        if cloud_workers > 0:
            clusters.append(
                ClusterConfig("cloud", "cloud", cloud_workers, retrieval_threads)
            )
        if not clusters:
            raise ValueError("session needs at least one worker")
        kwargs: dict[str, Any] = {
            "batch_size": batch_size,
            "adaptive_fetch": adaptive_fetch,
            "min_part_nbytes": min_part_nbytes,
            "autotune_params": autotune_params,
            "prefetch": prefetch,
            "chunk_cache": self.cache,
            "retry": retry,
            "crash_plan": crash_plan,
            "pushdown": pushdown,
        }
        if scheduler_factory is not None:
            kwargs["scheduler_factory"] = scheduler_factory
        self.engine_name = engine
        self._clusters = clusters
        self._options = EngineOptions(**kwargs)
        self.engine = make_engine(engine, clusters, stores, options=self._options)
        self.passes_run = 0

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
        index = distribute_dataset(index, stores, fractions, stores["local"])
        return cls(index, stores, **engine_kwargs)

    def run(self, spec: GeneralizedReductionSpec) -> RunResult:
        """Execute one pass of ``spec`` over the session's dataset.

        The session is now a thin compatibility wrapper over the
        multi-tenant :class:`~repro.service.BurstingService`: each pass
        spins up a one-shot single-tenant service over the session's
        *live* store map, submits one job, blocks on its result, and
        shuts the service down -- so per-pass semantics (crash plans,
        store swaps between passes, the shared chunk cache) are exactly
        the historical one-shot engine run.
        """
        from repro.service import BurstingService

        service = BurstingService(
            self._clusters,
            self.stores,
            engine=self.engine_name,
            options=self._options,
        )
        try:
            result = service.submit(spec, self.index).result()
        finally:
            service.shutdown()
        self.passes_run += 1
        return result

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
