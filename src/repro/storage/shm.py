"""Shared-memory segments for cross-process data handoff.

The process engine moves chunk bytes and reduction-object payloads
between the parent (which owns the stores) and its worker processes
through POSIX shared memory: the parent writes fetched bytes into a
segment once, and a worker maps the same physical pages and decodes
them with a zero-copy ``np.frombuffer`` -- no per-chunk pickling through
a pipe, no second copy of the payload.

Lifecycle discipline -- the part that actually matters:

* **only the parent creates and unlinks segments.**  Workers attach and
  close.  This keeps every ``/dev/shm`` entry owned by exactly one
  process, so a single :class:`SharedSegmentPool` can assert at the end
  of a run that nothing leaked, and the multiprocessing resource
  tracker never has to clean up after us (its "leaked shared_memory
  objects" warning is the symptom this module is designed to prevent);
* ``unlink`` is independent of ``close``: removing the ``/dev/shm``
  name succeeds even while mappings are still open, and the memory is
  returned once the last mapping drops.  :meth:`SharedSegment.release`
  therefore always unlinks, and tolerates a still-exported buffer view
  by deferring only the local ``close``;
* **a run reuses its segments.**  The pool parks a released segment and
  leases it again for the next request it is large enough for, so a run
  creates about one segment per chunk in flight instead of one per
  chunk, and both sides write and read pages that are already mapped.
  The parent still owns every name: workers keep their mapping of a
  name open for the run and close them all when they exit.
"""

from __future__ import annotations

import os
import threading
from multiprocessing import shared_memory

__all__ = ["SharedSegment", "SharedSegmentPool", "attach_segment", "close_quietly"]


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment by name (worker side).

    The caller must ``close()`` the returned object when done -- and
    must *not* ``unlink()`` it; the creating process owns the name.
    """
    return shared_memory.SharedMemory(name=name)


def close_quietly(shm: shared_memory.SharedMemory) -> None:
    """Close a mapping even while numpy views still alias it.

    ``SharedMemory.close`` raises ``BufferError`` when any exported view
    is alive (CPython bpo-39959), and -- worse -- ``__del__`` retries the
    close and spams the same error at garbage collection.  When that
    happens we abandon the mapping to the surviving views instead: the
    ``mmap`` object unmaps itself when the last view dies, the fd is
    closed here, and the neutralized object's ``__del__`` has nothing
    left to re-raise on.

    ``_buf``/``_mmap``/``_fd`` are CPython implementation privates; every
    touch is guarded so an interpreter that renames them degrades to a
    plain (possibly noisy-at-GC) close rather than an ``AttributeError``
    on this cleanup path.
    """
    try:
        shm.close()
    except BufferError:
        if hasattr(shm, "_buf"):
            shm._buf = None
        if hasattr(shm, "_mmap"):
            shm._mmap = None  # the last surviving view's destructor unmaps
        fd = getattr(shm, "_fd", -1)
        if isinstance(fd, int) and fd >= 0:
            os.close(fd)
            shm._fd = -1


class SharedSegment:
    """One parent-owned shared-memory block.

    ``capacity`` is what was allocated and never changes; ``nbytes`` is
    what the current holder asked for (a recycled segment may be leased
    for fewer bytes than it holds) and is all :attr:`buf` exposes.
    """

    __slots__ = ("shm", "capacity", "nbytes", "leases", "_released")

    def __init__(self, nbytes: int) -> None:
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self.shm = shared_memory.SharedMemory(create=True, size=nbytes)
        # The kernel may round the mapping up to a page; remember the
        # requested size so views never expose trailing slack.
        self.capacity = nbytes
        self.nbytes = nbytes
        self.leases = 1  # times handed out; > 1 means it was recycled
        self._released = False

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def buf(self) -> memoryview:
        """Writable view of exactly the leased bytes."""
        return memoryview(self.shm.buf)[: self.nbytes]

    def write(self, data) -> int:
        """Copy ``data`` (bytes-like) into the segment from offset 0."""
        view = memoryview(data).cast("B")
        if view.nbytes > self.nbytes:
            raise ValueError(
                f"data of {view.nbytes} bytes exceeds segment size {self.nbytes}"
            )
        self.shm.buf[: view.nbytes] = view
        return view.nbytes

    def release(self) -> None:
        """Unlink the ``/dev/shm`` name and drop this mapping.

        Safe to call more than once.  If a numpy view over the buffer is
        still alive the local ``close`` is skipped (the mapping is freed
        when the view goes away), but the name is removed regardless --
        unlink is what prevents a leak.
        """
        if self._released:
            return
        self._released = True
        close_quietly(self.shm)
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class SharedSegmentPool:
    """Owns every segment of one engine run, and recycles them.

    A fresh segment costs a ``shm_open`` + ``ftruncate`` + ``mmap`` and
    then a page fault on every first write (and another in the worker
    that maps it), so a run does not buy one per chunk: :meth:`release`
    *parks* a segment instead of unlinking it and :meth:`create` leases
    the smallest parked one that is large enough, with ``buf`` cut to
    the new request so a stale tail is never visible.  When none is
    large enough the smallest is unlinked to make way for the new one,
    so the pool never holds more segments than were leased at once.
    The caller must release a segment only once nobody will read it
    again.

    All creation goes through :meth:`create` and all cleanup through
    :meth:`release` / :meth:`close_all`, so the engine can both verify
    clean teardown (``active_count == 0``: nothing still *leased*) and
    guarantee it on error paths (``close_all`` in a ``finally`` unlinks
    leased and parked alike; a ``release`` arriving after it unlinks at
    once, as does the release of a segment this pool never issued).
    """

    def __init__(self) -> None:
        self._leased: dict[str, SharedSegment] = {}
        self._parked: dict[str, SharedSegment] = {}
        self._closed = False
        self._lock = threading.Lock()
        self.created = 0        # segments actually allocated
        self.bytes_through = 0  # bytes leased, recycled or not

    def create(self, nbytes: int) -> SharedSegment:
        """Lease a segment exposing exactly ``nbytes`` writable bytes."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        too_small = None
        with self._lock:
            self.bytes_through += nbytes
            by_capacity = sorted(self._parked.values(), key=lambda s: s.capacity)
            seg = next((s for s in by_capacity if s.capacity >= nbytes), None)
            if seg is not None:
                del self._parked[seg.name]
                seg.nbytes = nbytes
                seg.leases += 1
                self._leased[seg.name] = seg
                return seg
            if by_capacity:
                # Nothing parked is large enough, so the smallest makes
                # way: requests that keep growing replace segments, they
                # do not pile them up, and a run holds at most as many
                # as it ever had leased at once.
                too_small = self._parked.pop(by_capacity[0].name)
        if too_small is not None:
            too_small.release()
        seg = SharedSegment(nbytes)
        with self._lock:
            self._leased[seg.name] = seg
            self.created += 1
        return seg

    def release(self, seg: SharedSegment) -> None:
        """Give ``seg`` back: parked for reuse while the pool is open."""
        with self._lock:
            if seg.name in self._parked:
                return  # already given back
            ours = self._leased.pop(seg.name, None) is not None
            if ours and not self._closed:
                self._parked[seg.name] = seg
                return
        seg.release()

    def close_all(self) -> None:
        """Unlink everything, leased or parked; later releases unlink too."""
        with self._lock:
            self._closed = True
            leftovers = [*self._leased.values(), *self._parked.values()]
            self._leased.clear()
            self._parked.clear()
        for seg in leftovers:
            seg.release()

    @property
    def active_count(self) -> int:
        """Segments currently leased (parked ones are not live data)."""
        with self._lock:
            return len(self._leased)

    @property
    def active_names(self) -> list[str]:
        with self._lock:
            return sorted(self._leased)

    @property
    def parked_names(self) -> list[str]:
        with self._lock:
            return sorted(self._parked)
