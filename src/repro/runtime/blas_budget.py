"""BLAS thread budget for in-process fold fleets.

``n`` folding threads that each call into an OpenBLAS running its own
``cores`` threads put ``n * cores`` runnable threads on ``cores`` cores.
While a fleet is alive, :data:`BLAS_BUDGET` caps every OpenBLAS mapped
into the process at ``max(1, usable_cores // n)`` threads -- only ever
lowering, ref-counted, restored when the last fleet leaves.

The libraries are found through ``/proc/self/maps`` and driven through
``ctypes``, calling only OpenBLAS's C entry points (the names
threadpoolctl probes).  Names outside that list are never tried: e.g.
``scipy_openblas_set_num_threads_64_`` is the Fortran binding, takes its
argument by reference, and segfaults when handed an int.  Where there is
no ``/proc`` or no controllable OpenBLAS the budget is a silent no-op.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
import threading
from typing import Callable, Iterator

__all__ = ["BlasBudget", "BLAS_BUDGET", "find_openblas"]

#: ``(get, set)`` thread-count entry points of one loaded BLAS.
Control = tuple[Callable[[], int], Callable[[int], object]]

_SYMBOLS = [
    f"{prefix}openblas_{{}}_num_threads{suffix}"
    for prefix in ("", "scipy_")
    for suffix in ("", "64_", "_64")
]


def find_openblas() -> list[Control]:
    """Controls of every OpenBLAS shared object mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return []
    controls: list[Control] = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SYMBOLS:
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


class BlasBudget:
    """Process-wide, ref-counted cap on BLAS threads (see module docstring)."""

    def __init__(self, find: Callable[[], list[Control]] = find_openblas) -> None:
        self._find = find
        self._lock = threading.Lock()
        self._holders = 0
        #: ``(len(sys.modules), controls)`` of the last scan.  A shared
        #: object gets mapped by importing something (scipy's OpenBLAS
        #: arrives with the first ``KMeansSpec``), so the scan -- a full
        #: read of ``/proc/self/maps`` and a ``dlopen`` per hit -- is
        #: repeated only once the module table has changed.
        self._scan: tuple[int, list[Control]] | None = None
        #: per library: its control and its thread count before the first holder
        self._saved: list[tuple[Control, int]] = []

    def acquire(self, n_fold_threads: int) -> None:
        """Cap BLAS for ``n_fold_threads`` concurrent folders; pair with
        :meth:`release`."""
        cap = max(1, usable_cores() // max(1, n_fold_threads))
        with self._lock:
            if self._holders == 0:
                n_modules = len(sys.modules)
                if self._scan is None or self._scan[0] != n_modules:
                    self._scan = (n_modules, self._find())
                self._saved = [((get, set_), get()) for get, set_ in self._scan[1]]
            self._holders += 1
            for (get, set_), before in self._saved:
                if get() > cap:
                    set_(cap)
                    if get() != cap:  # the library ignored us: leave it be
                        set_(before)

    def release(self) -> None:
        with self._lock:
            self._holders -= 1
            if self._holders == 0:
                for (_get, set_), before in self._saved:
                    set_(before)
                self._saved = []

    @contextlib.contextmanager
    def threads(self, n_fold_threads: int) -> Iterator[None]:
        self.acquire(n_fold_threads)
        try:
            yield
        finally:
            self.release()


#: The process's one budget: BLAS thread counts are process-global state.
BLAS_BUDGET = BlasBudget()
