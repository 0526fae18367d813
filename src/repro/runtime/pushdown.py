"""Metadata-first retrieval: predicate pushdown at the head.

The organizer's index carries per-chunk statistics
(:class:`~repro.data.chunks.ChunkStats`); applications declare a
pushdown contract on :class:`~repro.core.api.GeneralizedReductionSpec`
(``relevant(stats)`` pruning predicate, ``priority(stats)`` ordering
hint).  This module turns both into the job pool the scheduler sees:

* chunks whose stats prove they cannot affect the reduction object are
  **pruned** -- never fetched, never decoded, never folded;
* surviving jobs carry a priority that the
  :class:`~repro.runtime.scheduler.HeadScheduler` composes with its
  locality/contention/breaker ordering.

Pruning happens *before job-pool creation*, identically for both
engines and the simulator, so live runs and the DES agree on bytes
saved.  ``pushdown="verify"`` is the soundness guard: pruned chunks are
fetched anyway and their fold contribution is asserted to be the
identity (a lying ``relevant()`` raises
:class:`PushdownSoundnessError` instead of silently corrupting the
answer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.api import (
    has_pushdown_predicate,
    has_pushdown_priority,
    supports_pushdown,
)
from repro.data.index import DataIndex
from repro.runtime.jobs import Job, jobs_from_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.stats import RunStats
    from repro.storage.base import StorageBackend

__all__ = [
    "PUSHDOWN_MODES",
    "PushdownPlan",
    "PushdownSoundnessError",
    "normalize_pushdown",
    "plan_jobs",
    "verify_pruned",
]

#: Valid (normalized) pushdown modes: off, prune, or prune-and-verify.
PUSHDOWN_MODES = (None, "prune", "verify")


class PushdownSoundnessError(AssertionError):
    """A pruned chunk's fold contribution was not the identity.

    Raised by ``pushdown="verify"``: the app's ``relevant()`` predicate
    returned False for a chunk that would actually have changed the
    reduction object, i.e. the predicate violates its soundness
    contract.
    """


def normalize_pushdown(mode: str | bool | None) -> str | None:
    """Canonicalize a user-facing pushdown setting to a mode string.

    Accepts ``None``/``False``/``"off"`` (disabled), ``True``/``"on"``/
    ``"prune"`` (prune), and ``"verify"`` (prune + soundness guard).
    """
    if mode is None or mode is False:
        return None
    if mode is True:
        return "prune"
    if isinstance(mode, str):
        low = mode.lower()
        if low in ("off", "none", ""):
            return None
        if low in ("on", "prune"):
            return "prune"
        if low == "verify":
            return "verify"
    raise ValueError(
        f"invalid pushdown mode {mode!r}: expected None/'prune'/'verify'"
    )


@dataclass
class PushdownPlan:
    """Outcome of planning the job pool through the pushdown contract."""

    #: Jobs that survive pruning, carrying their priority hints.
    jobs: list[Job]
    #: Jobs pruned by the ``relevant()`` predicate.
    pruned: list[Job] = field(default_factory=list)
    #: Normalized mode that produced this plan (None = pushdown off).
    mode: str | None = None
    #: Surviving jobs whose priority moved them off pure chunk-id order.
    n_reordered: int = 0

    @property
    def n_pruned_chunks(self) -> int:
        return len(self.pruned)

    @property
    def bytes_pruned(self) -> int:
        """Wire bytes that will never be fetched (encoded size if coded)."""
        return sum(j.chunk.wire_nbytes for j in self.pruned)

    def apply_to(self, stats: "RunStats") -> None:
        """Record the plan's counters on a run's stats."""
        stats.pushdown_mode = self.mode
        stats.n_pruned_chunks = self.n_pruned_chunks
        stats.bytes_pruned = self.bytes_pruned
        stats.n_reordered = self.n_reordered


def _count_reordered(jobs: list[Job]) -> int:
    """Jobs whose priority displaces them from chunk-id order (per file)."""
    by_file: dict[int, list[Job]] = {}
    for job in jobs:
        by_file.setdefault(job.file_id, []).append(job)
    moved = 0
    for file_jobs in by_file.values():
        id_order = sorted(file_jobs, key=lambda j: j.job_id)
        prio_order = sorted(file_jobs, key=lambda j: (-j.priority, j.job_id))
        moved += sum(1 for a, b in zip(id_order, prio_order) if a.job_id != b.job_id)
    return moved


def plan_jobs(
    index: DataIndex,
    spec: Any,
    pushdown: str | bool | None,
    *,
    stores: dict[str, "StorageBackend"] | None = None,
) -> PushdownPlan:
    """Build the job pool, applying the spec's pushdown contract.

    With ``pushdown`` off, a spec that declares no contract, or an index
    without stats, this is exactly ``jobs_from_index`` -- every chunk
    becomes a job, in order, at priority 0.0.  Otherwise chunks with
    stats are pruned when ``spec.relevant(stats)`` is False and
    surviving jobs get ``spec.priority(stats)``; chunks *without* stats
    are always kept (pruning only on proof).

    ``pushdown="verify"`` additionally runs :func:`verify_pruned`
    (requires ``stores``), fetching every pruned chunk and asserting its
    fold contribution is the identity.
    """
    mode = normalize_pushdown(pushdown)
    all_jobs = jobs_from_index(index)
    if mode is None or spec is None or not supports_pushdown(spec):
        return PushdownPlan(jobs=all_jobs)
    has_rel = has_pushdown_predicate(spec)
    has_prio = has_pushdown_priority(spec)
    kept: list[Job] = []
    pruned: list[Job] = []
    for job in all_jobs:
        st = job.chunk.stats
        if st is None:
            kept.append(job)
            continue
        if has_rel and not spec.relevant(st):
            pruned.append(job)
            continue
        if has_prio:
            prio = float(spec.priority(st))
            job = Job(job.job_id, job.chunk, priority=prio) if prio else job
        kept.append(job)
    plan = PushdownPlan(
        jobs=kept,
        pruned=pruned,
        mode=mode,
        n_reordered=_count_reordered(kept) if has_prio else 0,
    )
    if mode == "verify" and pruned:
        if stores is None:
            raise ValueError("pushdown='verify' requires the stores mapping")
        verify_pruned(spec, index, pruned, stores)
    return plan


def _values_equal(a: Any, b: Any) -> bool:
    """Deep equality across the reduction-object value zoo."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _values_equal(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _values_equal(x, y) for x, y in zip(a, b)
        )
    return bool(a == b)


def verify_pruned(
    spec: Any,
    index: DataIndex,
    pruned: list[Job],
    stores: dict[str, "StorageBackend"],
) -> None:
    """Soundness guard: assert every pruned chunk folds to the identity.

    Fetches each pruned chunk (the debug mode deliberately spends the
    bytes pruning saved), folds it into a fresh reduction object, and
    compares against an untouched identity object.  Any difference means
    ``relevant()`` pruned a chunk that mattered ->
    :class:`PushdownSoundnessError`.
    """
    from repro.data.dataset import read_chunk

    identity = spec.create_reduction_object().value()
    for job in pruned:
        units = read_chunk(index, job.chunk.chunk_id, stores)
        robj = spec.create_reduction_object()
        spec.local_reduction_batch(robj, units)
        if not _values_equal(robj.value(), identity):
            raise PushdownSoundnessError(
                f"relevant() pruned chunk {job.chunk.chunk_id} "
                f"(file {job.file_id}, {job.n_units} units) whose fold "
                "contribution is not the identity -- the pushdown "
                "predicate is unsound for this query"
            )
