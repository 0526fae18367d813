"""High-level drivers: the public entry points for bursting experiments.

``simulate_environment`` runs one paper configuration through the
discrete-event simulator at the paper's true dataset scale (12 GB, 32
files, 96 jobs -- the simulator only costs O(jobs), not O(bytes));
``run_paper_sweep`` runs all five Figure-3 configurations;
``run_scalability_sweep`` the four Figure-4 core counts.

``run_threaded_bursting`` executes a *real* (scaled-down) dataset through
the threaded middleware across a local store and a simulated S3 store,
returning actual results plus measured stats -- the functional
counterpart used by examples and integration tests.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.bursting.config import (
    EnvironmentConfig,
    paper_environments,
    scalability_environments,
)
from repro.bursting.session import BurstingSession, place_units
from repro.core.api import GeneralizedReductionSpec
from repro.data.formats import RecordFormat
from repro.data.index import DataIndex, build_index
from repro.data.redundancy import validate_redundancy
from repro.runtime.core import RunResult
from repro.sim.calibration import (
    APP_PROFILES,
    PAPER_N_FILES,
    PAPER_N_JOBS,
    AppSimProfile,
    ResourceParams,
)
from repro.sim.simrun import SimRunResult, simulate_run
from repro.sim.topology import TransferSimModel
from repro.storage.base import StorageBackend

__all__ = [
    "paper_index",
    "simulate_environment",
    "run_paper_sweep",
    "run_scalability_sweep",
    "run_threaded_bursting",
]


def paper_index(profile: AppSimProfile, env: EnvironmentConfig) -> DataIndex:
    """Metadata-only index at the paper's dataset scale, placed per ``env``.

    The simulator never touches bytes, so the index carries sizes and
    placement only: 32 files, 96 chunks of ~128 MB.
    """
    fmt = RecordFormat(f"{profile.name}-sim", np.uint8, (profile.unit_nbytes,))
    units_per_file = profile.dataset_units // PAPER_N_FILES
    chunks_per_file = PAPER_N_JOBS // PAPER_N_FILES
    # Ceil so each file splits into exactly ``chunks_per_file`` chunks.
    chunk_units = -(-units_per_file // chunks_per_file)
    index = build_index(
        fmt,
        [units_per_file] * PAPER_N_FILES,
        chunk_units=chunk_units,
        location="local",
        meta={"app": profile.name, "scale": "paper"},
    )
    fractions = env.data_fractions
    if list(fractions) == ["local"]:
        return index
    return index.with_placement(fractions)


def simulate_environment(
    app: str,
    env: EnvironmentConfig,
    params: ResourceParams | None = None,
    *,
    seed: int = 0,
    scheduler_factory=None,
    prefetch: bool = False,
    cache_nbytes: int = 0,
    caches=None,
    failures=None,
    codec: str | None = None,
    transfer=None,
    pushdown=None,
) -> SimRunResult:
    """Simulate one application under one environment configuration.

    ``prefetch``/``cache_nbytes``/``caches`` model the engines' data
    pipeline (see :func:`repro.sim.simrun.simulate_run`); pass the
    previous result's ``.caches`` as ``caches`` to model iteration 2+
    of an iterative workload against warmed per-cluster caches.
    ``failures`` (a list of :class:`~repro.sim.simrun.FailureSpec`)
    kills workers mid-run; the head reassigns their in-flight jobs.
    ``codec`` selects the calibrated transfer model for that codec
    (:meth:`~repro.sim.topology.TransferSimModel.for_codec`), or pass an
    explicit ``transfer`` model.  ``pushdown`` (a
    spec or query object with ``relevant``/``priority`` hooks) models
    metadata-first pruning -- note :func:`paper_index` carries no chunk
    stats, so this only has an effect on indexes from
    :func:`~repro.data.dataset.write_dataset`.
    """
    profile = APP_PROFILES[app]
    params = params or ResourceParams()
    index = paper_index(profile, env)
    if transfer is None and codec is not None:
        transfer = TransferSimModel.for_codec(codec)
    kwargs: dict[str, Any] = {"seed": seed}
    if scheduler_factory is not None:
        kwargs["scheduler_factory"] = scheduler_factory
    return simulate_run(
        index, env.clusters(params), profile, params,
        prefetch=prefetch, cache_nbytes=cache_nbytes, caches=caches,
        failures=failures, transfer=transfer, pushdown=pushdown, **kwargs,
    )


def run_paper_sweep(
    app: str,
    params: ResourceParams | None = None,
    *,
    seed: int = 0,
) -> dict[str, SimRunResult]:
    """All five Figure-3 environments for one application."""
    profile = APP_PROFILES[app]
    return {
        env.name: simulate_environment(app, env, params, seed=seed)
        for env in paper_environments(profile)
    }


def run_scalability_sweep(
    app: str,
    params: ResourceParams | None = None,
    *,
    seed: int = 0,
) -> dict[str, SimRunResult]:
    """The four Figure-4 core-doubling configurations (all data in S3)."""
    return {
        env.name: simulate_environment(app, env, params, seed=seed)
        for env in scalability_environments()
    }


def run_threaded_bursting(
    spec: GeneralizedReductionSpec,
    units: np.ndarray,
    stores: dict[str, StorageBackend],
    *,
    engine: str = "threaded",
    local_fraction: float = 0.5,
    local_workers: int = 2,
    cloud_workers: int = 2,
    n_files: int = 8,
    chunk_units: int | None = None,
    # Not EngineOptions' 4, as on BurstingSession (sized in ROADMAP).
    batch_size: int = 2,
    retrieval_threads: int = 2,
    codec: str | None = None,
    replicas: int = 0,
    stripe: tuple[int, int] | None = None,
    **fields: Any,
) -> RunResult:
    """Run a real dataset through the middleware, split across sites: a
    one-pass :class:`~repro.bursting.BurstingSession`.

    ``stores`` must contain ``"local"`` and ``"cloud"`` backends.  The
    dataset is written to the local store, distributed according to
    ``local_fraction``, and processed by workers at both sites with the
    full scheduling/stealing protocol.  ``engine`` selects the executor
    (see :data:`repro.runtime.ENGINES`); every other keyword not named
    here is an :class:`~repro.runtime.core.EngineOptions` field
    (``prefetch``, ``retry``, ``crash_plan``, ``hedge``, ``breaker``,
    ``pushdown``, ...; see the field docs there).

    The rest shape the dataset.  ``codec`` writes it pre-compressed so
    fetches move encoded bytes.  ``replicas`` copies every chunk to that
    many additional stores after placement, so the fetch path can fail
    over (and, with ``hedge``, race) replica sources.  ``stripe=(k, m)``
    erasure-codes every chunk after placement
    (:func:`~repro.data.dataset.stripe_dataset`): the wire frame is
    split into ``k`` data + ``m`` parity fragments spread round-robin
    over *all* the stores (extra spare stores widen the spread), the
    originals are deleted (storage overhead ``(k+m)/k``), and the fetch
    path races the fragments fastest-k-of-n -- hedging parity fragments
    under the same ``hedge`` policy and masking up to ``m`` lost
    fragments per chunk.  Mutually exclusive with ``replicas``.
    """
    index = place_units(
        units, spec.fmt, stores, local_fraction=local_fraction, n_files=n_files,
        chunk_units=chunk_units, codec=codec,
    )
    stripe = validate_redundancy(
        replicas=replicas, stripe=stripe, n_stores=len(stores)
    )
    if replicas > 0:
        from repro.data.dataset import replicate_dataset

        index = replicate_dataset(index, stores, n_replicas=replicas)
    if stripe is not None:
        from repro.data.dataset import stripe_dataset

        k, m = stripe
        index = stripe_dataset(index, stores, k=k, m=m)
    # Dataset preparation is done; fault injectors constructed dormant
    # (``armed=False``) model a store failing after placement -- arm
    # them now so the chaos hits the run's retrieval path only.
    for store in stores.values():
        arm = getattr(store, "arm", None)
        if callable(arm):
            arm()
    with BurstingSession(
        index, stores, engine=engine, local_workers=local_workers,
        cloud_workers=cloud_workers, batch_size=batch_size,
        retrieval_threads=retrieval_threads, **fields,
    ) as session:
        return session.run(spec)
