"""The Generalized Reduction processing API.

An application implements three pieces (Section III-A of the paper):

* **Reduction Object** -- the accumulator, declared via
  :meth:`GeneralizedReductionSpec.create_reduction_object`;
* **Local Reduction** -- ``proc(e)``: process a group of data units and
  fold them into the object immediately.  The result must be independent
  of the order in which units are processed (the runtime decides order);
* **Global Reduction** -- merge the per-worker/per-cluster objects into
  one, by default via pairwise :meth:`ReductionObject.merge`.

Compared to MapReduce-with-combine this fuses map, combine, and reduce
per element, avoiding intermediate (key, value) buffers, sorting,
grouping, and shuffling -- critical under scarce inter-cluster bandwidth.
"""

from __future__ import annotations

import abc
from typing import Iterable, Sequence

import numpy as np

from repro.core.reduction_object import ReductionObject
from repro.data.chunks import ChunkStats
from repro.data.formats import RecordFormat

__all__ = [
    "GeneralizedReductionSpec",
    "has_pushdown_predicate",
    "has_pushdown_priority",
    "run_local_pass",
    "supports_batch_fold",
    "supports_pushdown",
    "tree_global_reduction",
    "uses_default_global_reduction",
]


class GeneralizedReductionSpec(abc.ABC):
    """User-facing specification of a generalized-reduction computation."""

    #: Binary layout of the data units this application consumes.
    fmt: RecordFormat

    @abc.abstractmethod
    def create_reduction_object(self) -> ReductionObject:
        """Declare a fresh (identity-valued) reduction object."""

    @abc.abstractmethod
    def local_reduction(self, robj: ReductionObject, unit_group: np.ndarray) -> None:
        """Process one group of data units, updating ``robj`` in place.

        Implementations must be vectorized over the group and
        order-independent across groups.
        """

    def local_reduction_batch(
        self, robj: ReductionObject, units: np.ndarray
    ) -> None:
        """Fold a *whole chunk* of data units into ``robj`` in one call.

        Optional fast path: when an application overrides this, the
        runtimes fold each chunk with one call instead of iterating
        cache-sized unit groups -- one Python-level dispatch per chunk,
        with the kernel free to vectorize over the full unit array
        (which may be a read-only zero-copy view into a fetch buffer or
        shared-memory pages; implementations must not write to it).

        Must compute the same result as applying
        :meth:`local_reduction` group-by-group -- up to floating-point
        summation order, which batching may change.  The base
        implementation is a sentinel used by :func:`supports_batch_fold`
        detection; it delegates to one whole-chunk
        :meth:`local_reduction` call so direct invocation still works.
        """
        self.local_reduction(robj, units)

    def global_reduction(self, robjs: Sequence[ReductionObject]) -> ReductionObject:
        """Merge reduction objects from all workers into one.

        The default pairwise-merge suits any commutative/associative
        ``merge``; applications may override (e.g. to renormalize).

        Contract, for the default and for every override: the inputs
        are **read-only** and the result is a **fresh** object that
        shares no memory with any of them.  The runtimes hand worker
        objects in as they are -- no defensive copy, possibly aliasing
        shared memory that is unlinked right after -- and read them
        again afterwards (the stats and fault-recovery paths inspect
        worker objects), and ``RunResult.robj`` outlives them all.
        """
        result = self.create_reduction_object()
        for other in robjs:
            result.merge(other)
        return result

    def finalize(self, robj: ReductionObject):
        """Turn the merged object into the user-facing result."""
        return robj.value()

    # -- pushdown contract (metadata-first retrieval) ------------------------

    def relevant(self, stats: ChunkStats) -> bool:
        """Pruning predicate over a chunk's index statistics.

        The head calls this before job-pool creation with each chunk's
        :class:`~repro.data.chunks.ChunkStats`; returning False prunes
        the chunk -- it is never fetched and never folded.

        **Soundness contract**: return False only when the statistics
        *prove* the chunk's fold contribution is the identity (it cannot
        change the reduction object).  When unsure, return True.  Stats
        bounds may be ``None`` (unknown); helpers like
        :meth:`ChunkStats.overlaps` already keep-on-unknown.  Chunks
        with no stats at all are always kept and never reach this hook.
        ``EngineOptions(pushdown="verify")`` checks the contract at run
        time by fetching pruned chunks anyway.
        """
        return True

    def priority(self, stats: ChunkStats) -> float:
        """Ordering hint for surviving chunks; higher runs earlier.

        Purely a performance hint -- it reorders jobs within the
        scheduler's per-file queues (composing with locality, contention
        and breaker ordering) and never changes the result.  Useful to
        front-load chunks that dominate the answer, e.g. by estimated
        selectivity from :meth:`ChunkStats.sample_fraction`.
        """
        return 0.0

    # -- cost hints for the performance model -------------------------------
    #: Seconds of CPU per data unit on the reference core (calibrated).
    compute_s_per_unit: float = 1e-6

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} fmt={getattr(self, 'fmt', None)!r}>"


def uses_default_global_reduction(spec: GeneralizedReductionSpec) -> bool:
    """True when ``spec`` inherits the default pairwise global reduction.

    The parallel tree merge below is only valid for the default
    commutative/associative pairwise merge; a spec that overrides
    :meth:`GeneralizedReductionSpec.global_reduction` (e.g. to
    renormalize) must be called through its own implementation.
    """
    return (
        type(spec).global_reduction is GeneralizedReductionSpec.global_reduction
    )


def supports_batch_fold(spec: GeneralizedReductionSpec) -> bool:
    """True when ``spec`` overrides :meth:`local_reduction_batch`.

    The runtimes use this to pick the one-call-per-chunk fold path;
    specs that only implement the per-group ``local_reduction`` keep
    the unit-group loop.
    """
    return (
        type(spec).local_reduction_batch
        is not GeneralizedReductionSpec.local_reduction_batch
    )


def has_pushdown_predicate(spec) -> bool:
    """True when ``spec`` overrides :meth:`GeneralizedReductionSpec.relevant`.

    Accepts duck-typed objects too (the simulator passes query objects
    that are not full specs): any ``relevant`` other than the base-class
    default counts.
    """
    fn = getattr(type(spec), "relevant", None)
    return fn is not None and fn is not GeneralizedReductionSpec.relevant


def has_pushdown_priority(spec) -> bool:
    """True when ``spec`` overrides :meth:`GeneralizedReductionSpec.priority`."""
    fn = getattr(type(spec), "priority", None)
    return fn is not None and fn is not GeneralizedReductionSpec.priority


def supports_pushdown(spec) -> bool:
    """True when ``spec`` declares any part of the pushdown contract."""
    return has_pushdown_predicate(spec) or has_pushdown_priority(spec)


def tree_global_reduction(
    spec: GeneralizedReductionSpec,
    robjs: Sequence[ReductionObject],
    max_workers: int = 4,
) -> ReductionObject:
    """Tree-merge of reduction objects (default merge only).

    Where the sequential left-fold performs ``n-1`` dependent merges,
    the tree performs ``ceil(log2 n)`` rounds of independent pairwise
    merges.  The first round merges each pair into a fresh identity
    object, so the inputs are never mutated (they may alias read-only
    shared memory) and the result never aliases one of them -- not even
    for 0 or 1 inputs; every round above it merges into its left
    operand, which by then is an object this function made.  A large
    object pays for its pages once: ``n`` inputs cost ``n // 2`` fresh
    objects, not ``n - 1``.

    A round with several pairs runs them on a thread pool -- the heavy
    merges are numpy ufuncs that release the GIL; a round with one pair
    (every round of a two-input merge) runs on the calling thread.

    Callers should check :func:`uses_default_global_reduction` first and
    defer to ``spec.global_reduction`` when it is overridden.
    """
    if len(robjs) <= 1:
        result = spec.create_reduction_object()
        for other in robjs:
            result.merge(other)
        return result

    owned = False  # are this round's left operands ours to merge into?

    def merge_pair(pair: Sequence[ReductionObject]) -> ReductionObject:
        left, right = pair
        if not owned:
            fresh = spec.create_reduction_object()
            fresh.merge(left)
            left = fresh
        left.merge(right)
        return left

    from concurrent.futures import ThreadPoolExecutor

    level = list(robjs)
    # The pool starts a thread only when something is submitted to it.
    with ThreadPoolExecutor(
        max_workers=max(1, max_workers), thread_name_prefix="tree-merge"
    ) as pool:
        while len(level) > 1:
            pairs = [level[i : i + 2] for i in range(0, len(level) - 1, 2)]
            # The odd one out stays rightmost, so a caller's object is
            # only ever a right operand.
            carry = level[2 * len(pairs) :]
            run_round = pool.map if len(pairs) > 1 else map
            level = list(run_round(merge_pair, pairs)) + carry
            owned = True
    return level[0]


def run_local_pass(
    spec: GeneralizedReductionSpec,
    unit_groups: Iterable[np.ndarray],
    robj: ReductionObject | None = None,
) -> ReductionObject:
    """Sequentially apply local reduction over an iterable of groups.

    This is the single-worker reference executor; the threaded runtime
    and the simulator both reduce to many concurrent invocations of this
    loop followed by a global reduction.
    """
    if robj is None:
        robj = spec.create_reduction_object()
    for group in unit_groups:
        spec.local_reduction(robj, group)
    return robj
