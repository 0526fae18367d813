"""Head-node job assignment policy.

This is the paper's scheduling heart, factored as a pure (lock-free)
data structure so the threaded runtime and the discrete-event simulator
execute the *identical* policy:

* **Locality first** -- a requesting cluster receives jobs whose chunks
  are stored at its own site while any remain;
* **Consecutive jobs** -- assigned jobs are consecutive chunks of one
  file, "because it allows the compute units to sequentially read jobs
  from the files";
* **Work stealing** -- once a cluster's local jobs are exhausted, it is
  handed remote jobs, "chosen from files which the minimum number of
  nodes are currently processing", minimizing file contention;
* **On-demand pull** -- masters request batches when their pool runs
  low, so faster clusters naturally process more jobs;
* **Pushdown priority** -- when an app declares a
  ``priority(chunk_stats)`` hint (metadata-first retrieval), jobs with
  higher priority are ordered first within each file and steer file
  selection, composing with (not overriding) locality and breaker
  deprioritization.

Callers must serialize access (the threaded engine wraps calls in a
lock; the simulator is single-threaded by construction).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.runtime.jobs import Job

__all__ = ["HeadScheduler", "RandomScheduler", "StaticScheduler"]


class HeadScheduler:
    """Locality-aware, contention-minimizing job assignment."""

    def __init__(self, jobs: list[Job]) -> None:
        # Per-file queue of unassigned jobs: chunk order so batches are
        # consecutive byte ranges, except that pushdown priority (when
        # an app declares one) runs higher-priority jobs first within
        # each file.  With all priorities 0.0 -- the default -- this is
        # exactly the historical chunk-id FIFO.
        self._by_file: dict[int, deque[Job]] = {}
        self._file_location: dict[int, str] = {}
        # Every location a file's chunks can be fetched from (primary
        # plus replicas) -- the health deprioritization input.
        self._file_sources: dict[int, frozenset[str]] = {}
        for job in sorted(jobs, key=lambda j: (-j.priority, j.job_id)):
            self._by_file.setdefault(job.file_id, deque()).append(job)
            self._file_location[job.file_id] = job.location
            if job.file_id not in self._file_sources:
                self._file_sources[job.file_id] = frozenset(
                    s.location for s in job.chunk.sources
                )
        self._active_readers: dict[int, int] = {fid: 0 for fid in self._by_file}
        self._unassigned = len(jobs)
        self._outstanding = 0  # assigned but not yet completed
        self._open_locations: Callable[[], set[str]] | None = None
        #: Tenant fair-share deficit of the run this scheduler serves
        #: (served work / tenant weight).  The multi-job service sets it
        #: before every assignment; 0.0 -- the single-job default -- is
        #: a constant term and preserves the historical order exactly.
        self.tenant_bias = 0.0
        self.assigned_counts: dict[str, int] = {}
        self.stolen_counts: dict[str, int] = {}
        self.n_reassigned = 0          # reassign() calls (requeued jobs)
        self.requeued_ids: set[int] = set()  # job ids ever requeued

    def attach_health(self, open_locations: Callable[[], set[str]]) -> None:
        """Wire store-health feedback into file selection.

        ``open_locations`` returns the set of store locations whose
        circuit breaker is currently open.  Files whose *every* source
        location sits behind an open breaker are deprioritized: they are
        still assigned (the fetch path's last-resort attempt may find
        the store recovered), but only after every file with a healthy
        source, which gives the open breakers time to half-open.
        """
        self._open_locations = open_locations

    def _blocked(self, fid: int, open_locs: set[str]) -> int:
        """1 when every source of ``fid`` is behind an open breaker."""
        sources = self._file_sources.get(fid)
        if not sources:
            return 0
        return int(sources <= open_locs)

    # -- queries -------------------------------------------------------------

    @property
    def remaining(self) -> int:
        """Jobs not yet assigned."""
        return self._unassigned

    @property
    def outstanding(self) -> int:
        """Jobs assigned but not yet reported complete."""
        return self._outstanding

    @property
    def all_done(self) -> bool:
        return self._unassigned == 0 and self._outstanding == 0

    # -- policy --------------------------------------------------------------

    def _files_with_jobs(self, location: str | None) -> list[int]:
        """File ids that still hold unassigned jobs, optionally at ``location``."""
        return [
            fid
            for fid, q in self._by_file.items()
            if q and (location is None or self._file_location[fid] == location)
        ]

    def _open_locs(self) -> set[str]:
        """Currently-open breaker locations ({} when health not wired)."""
        return self._open_locations() if self._open_locations is not None else set()

    def _head_priority(self, fid: int) -> float:
        """Pushdown priority of the file's next unassigned job (0.0 default)."""
        q = self._by_file[fid]
        return q[0].priority if q else 0.0

    def assignment_key(
        self, fid: int, open_locs: set[str]
    ) -> tuple[int, float, float, int, int]:
        """The one sort key every assignment decision minimizes.

        Terms, most significant first: breaker blocking (healthy files
        before ones stranded behind open breakers), tenant fair-share
        deficit (the multi-job service's weighted-fair term -- constant
        0.0 within a single run), pushdown priority (higher first),
        active-reader contention, then file id as the deterministic
        tiebreak.  Extracted so the tenant-weight term is added in
        exactly one place instead of being rebuilt inline per call site.
        """
        return (
            self._blocked(fid, open_locs) if open_locs else 0,
            self.tenant_bias,
            -self._head_priority(fid),
            self._active_readers[fid],
            fid,
        )

    def _pick_file(self, files: list[int]) -> int:
        """Least-contended file, deprioritizing breaker-blocked ones.

        Pushdown priority slots between breaker blocking and contention:
        among equally-(un)blocked candidates the file whose next job has
        the highest priority wins, then fewest active readers.  All
        priorities 0.0 (no pushdown) reduces to the historical order.
        Note ``reassign()`` requeues at the front of its file regardless
        of priority -- recovery keeps sequential batches contiguous.
        """
        open_locs = self._open_locs()
        return min(files, key=lambda f: self.assignment_key(f, open_locs))

    def _take_from_file(self, fid: int, max_jobs: int) -> list[Job]:
        q = self._by_file[fid]
        batch = [q.popleft() for _ in range(min(max_jobs, len(q)))]
        self._unassigned -= len(batch)
        self._outstanding += len(batch)
        self._active_readers[fid] += len(batch)
        return batch

    def request_jobs(self, cluster_location: str, max_jobs: int) -> list[Job]:
        """Assign up to ``max_jobs`` consecutive jobs to a requesting cluster.

        Returns an empty list when no unassigned jobs remain anywhere, in
        which case the requesting master should enter global reduction.
        """
        if max_jobs <= 0:
            raise ValueError("max_jobs must be positive")
        # Locality: consecutive jobs from a local file, preferring the
        # file already being read the least to spread sequential streams.
        local_files = self._files_with_jobs(cluster_location)
        if local_files:
            fid = self._pick_file(local_files)
            open_locs = self._open_locs()
            if open_locs and self._blocked(fid, open_locs):
                # Every local candidate is stranded behind open breakers
                # (the pick above already prefers unblocked files).
                # Steal a healthy remote file instead, buying the open
                # breakers their cooldown; the blocked files are still
                # assigned once nothing healthy remains.
                healthy_remote = [
                    f
                    for f in self._files_with_jobs(None)
                    if not self._blocked(f, open_locs)
                ]
                if healthy_remote:
                    fid = self._pick_file(healthy_remote)
                    batch = self._take_from_file(fid, max_jobs)
                    self.assigned_counts[cluster_location] = (
                        self.assigned_counts.get(cluster_location, 0) + len(batch)
                    )
                    stolen = sum(
                        1 for j in batch if j.location != cluster_location
                    )
                    if stolen:
                        self.stolen_counts[cluster_location] = (
                            self.stolen_counts.get(cluster_location, 0) + stolen
                        )
                    return batch
            batch = self._take_from_file(fid, max_jobs)
            self.assigned_counts[cluster_location] = (
                self.assigned_counts.get(cluster_location, 0) + len(batch)
            )
            return batch
        # Stealing: remote file with the minimum number of active readers.
        remote_files = self._files_with_jobs(None)
        if remote_files:
            fid = self._pick_file(remote_files)
            batch = self._take_from_file(fid, max_jobs)
            self.assigned_counts[cluster_location] = (
                self.assigned_counts.get(cluster_location, 0) + len(batch)
            )
            self.stolen_counts[cluster_location] = (
                self.stolen_counts.get(cluster_location, 0) + len(batch)
            )
            return batch
        return []

    def complete(self, job: Job) -> bool:
        """Report one assigned job processed (releases file contention).

        True when it was a recovered requeue: a failed worker had
        handed the job back, so this execution replaced a lost one.
        """
        if self._outstanding <= 0:
            raise RuntimeError("complete() called with no outstanding jobs")
        self._outstanding -= 1
        readers = self._active_readers[job.file_id]
        if readers <= 0:
            raise RuntimeError(f"file {job.file_id} has no active readers")
        self._active_readers[job.file_id] = readers - 1
        return job.job_id in self.requeued_ids

    def reassign(self, job: Job) -> None:
        """Return an assigned-but-unfinished job to the pool.

        Called when a worker dies mid-job (fault tolerance): the job
        becomes available again and a surviving worker -- possibly at
        the other cluster -- will pick it up.  Requeued at the front of
        its file so sequential-read batches stay contiguous.
        """
        if self._outstanding <= 0:
            raise RuntimeError("reassign() called with no outstanding jobs")
        self._outstanding -= 1
        self._unassigned += 1
        readers = self._active_readers[job.file_id]
        if readers <= 0:
            raise RuntimeError(f"file {job.file_id} has no active readers")
        self._active_readers[job.file_id] = readers - 1
        self._by_file[job.file_id].appendleft(job)
        self.n_reassigned += 1
        self.requeued_ids.add(job.job_id)

    def drain_unassigned(self) -> list[Job]:
        """Withdraw every not-yet-assigned job (cancellation path).

        Outstanding jobs are untouched -- workers already hold them and
        will still report ``complete()``, after which ``all_done``
        becomes true and the run can be finalized.  Returns the drained
        jobs (callers may log or reuse them).
        """
        drained: list[Job] = []
        for q in self._by_file.values():
            drained.extend(q)
            q.clear()
        self._unassigned -= len(drained)
        return drained


class StaticScheduler(HeadScheduler):
    """Ablation baseline: strict co-location, no work stealing.

    Each cluster only ever receives jobs whose data lives at its own
    site -- the co-location constraint of conventional MapReduce
    deployments.  With skewed data placement the data-poor cluster
    idles once its share is exhausted; the stealing ablation benchmark
    quantifies the cost.
    """

    def request_jobs(self, cluster_location: str, max_jobs: int) -> list[Job]:
        if max_jobs <= 0:
            raise ValueError("max_jobs must be positive")
        local_files = self._files_with_jobs(cluster_location)
        if not local_files:
            return []
        fid = self._pick_file(local_files)
        batch = self._take_from_file(fid, max_jobs)
        self.assigned_counts[cluster_location] = (
            self.assigned_counts.get(cluster_location, 0) + len(batch)
        )
        return batch


class RandomScheduler(HeadScheduler):
    """Ablation baseline: ignores locality and contention.

    Assigns jobs in a seeded random order regardless of where their data
    lives, so batches are neither local nor consecutive.  Used by the
    scheduling ablation benchmark.
    """

    def __init__(self, jobs: list[Job], seed: int = 0) -> None:
        import random

        super().__init__(jobs)
        rng = random.Random(seed)
        self._order: deque[Job] = deque()
        shuffled = sorted(jobs, key=lambda j: j.job_id)
        rng.shuffle(shuffled)
        self._order.extend(shuffled)

    def request_jobs(self, cluster_location: str, max_jobs: int) -> list[Job]:
        if max_jobs <= 0:
            raise ValueError("max_jobs must be positive")
        batch: list[Job] = []
        while self._order and len(batch) < max_jobs:
            job = self._order.popleft()
            # Keep the bookkeeping of the parent class coherent.
            self._by_file[job.file_id].remove(job)
            self._unassigned -= 1
            self._outstanding += 1
            self._active_readers[job.file_id] += 1
            batch.append(job)
        if batch:
            self.assigned_counts[cluster_location] = (
                self.assigned_counts.get(cluster_location, 0) + len(batch)
            )
            stolen = sum(1 for j in batch if j.location != cluster_location)
            if stolen:
                self.stolen_counts[cluster_location] = (
                    self.stolen_counts.get(cluster_location, 0) + stolen
                )
        return batch

    def reassign(self, job: Job) -> None:
        super().reassign(job)
        # Keep the random draw order in sync with the per-file queues.
        self._order.appendleft(job)

    def drain_unassigned(self) -> list[Job]:
        drained = super().drain_unassigned()
        # The draw order only ever holds unassigned jobs; empty it too.
        self._order.clear()
        return drained
