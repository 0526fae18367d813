"""Storage backend interface.

Both the local cluster's storage node and the cloud object store expose
the same minimal API: whole-object ``put`` and ranged ``get``.  Ranged
reads matter because one job is a byte range (a chunk) of a larger file,
and remote jobs are "retrieved in chunks" via range requests.
"""

from __future__ import annotations

import abc
import threading
from collections import deque
from dataclasses import dataclass, field, fields

__all__ = ["StorageStats", "StorageBackend"]


@dataclass
class StorageStats:
    """Counters a backend maintains about the traffic it served."""

    n_puts: int = 0
    n_gets: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    # Fault-path counters: retries the fetch layer issued against this
    # backend, bytes those retries re-requested, and errors that
    # surfaced past the retry policy (gave up or not retryable).
    n_errors: int = 0
    n_retries: int = 0
    bytes_retried: int = 0
    # GET attempts walked away from at a per-attempt timeout: each was
    # left running as a detached leg and its result discarded.
    n_abandoned: int = 0
    # Race losers and timed-out attempts still reading this backend
    # after their caller returned (a gauge; see ``FetchPools.detach``).
    n_detached: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    # Seconds per byte of the last few GETs the fetch layer timed against
    # this backend: the evidence its fan-out decision reads.  It lives
    # here, not on a fetcher, so it outlives a run and is shared by
    # wrappers that share ``stats``.
    _get_rates: deque = field(
        default_factory=lambda: deque(maxlen=8), repr=False, compare=False
    )

    def record_put(self, nbytes: int) -> None:
        with self._lock:
            self.n_puts += 1
            self.bytes_written += nbytes

    def record_get(self, nbytes: int) -> None:
        with self._lock:
            self.n_gets += 1
            self.bytes_read += nbytes

    def record_retry(self, nbytes: int) -> None:
        with self._lock:
            self.n_retries += 1
            self.bytes_retried += nbytes

    def record_error(self) -> None:
        with self._lock:
            self.n_errors += 1

    def record_abandoned(self) -> None:
        with self._lock:
            self.n_abandoned += 1

    def try_detach(self, cap: int) -> bool:
        """Count one more detached leg, unless ``cap`` are live."""
        with self._lock:
            if self.n_detached >= cap:
                return False
            self.n_detached += 1
            return True

    def release_detached(self) -> None:
        with self._lock:
            self.n_detached -= 1

    def record_get_time(self, nbytes: int, seconds: float) -> None:
        """One successful GET of ``nbytes`` (> 0) took ``seconds``."""
        with self._lock:
            self._get_rates.append(seconds / nbytes)

    @property
    def s_per_byte(self) -> float | None:
        """Fastest recent GET in seconds per byte, ``None`` before any.

        The fastest of the window, not its mean: a GIL spike or an
        injected stall beside seven ordinary GETs must not change what
        the store is taken to be.
        """
        with self._lock:
            return min(self._get_rates, default=None)

    def snapshot(self) -> dict:
        """The counters plus the GET-rate evidence, for reports."""
        with self._lock:
            snap = {
                f.name: getattr(self, f.name)
                for f in fields(self)
                if not f.name.startswith("_")
            }
            snap["s_per_byte"] = min(self._get_rates, default=None)
            snap["n_rate_samples"] = len(self._get_rates)
        return snap


class StorageBackend(abc.ABC):
    """Abstract object store holding named byte blobs.

    Concrete backends must be safe for concurrent ``get`` from multiple
    threads (slaves use several retrieval threads per chunk) and for
    concurrent ``put``/``delete`` of distinct keys (the organizer places
    several objects at once).
    """

    #: Site label ("local", "cloud", ...) used for locality decisions.
    location: str = "local"

    def __init__(self) -> None:
        self.stats = StorageStats()

    @abc.abstractmethod
    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key``, replacing any existing object."""

    @abc.abstractmethod
    def get(self, key: str, offset: int = 0, nbytes: int | None = None) -> bytes:
        """Read ``nbytes`` bytes of object ``key`` starting at ``offset``.

        ``nbytes=None`` reads to the end of the object.  Reading past the
        end raises ``ValueError``; a missing key raises ``KeyError``.
        """

    @abc.abstractmethod
    def size(self, key: str) -> int:
        """Size in bytes of object ``key`` (``KeyError`` if missing)."""

    @abc.abstractmethod
    def list_keys(self) -> list[str]:
        """All object keys, sorted."""

    @abc.abstractmethod
    def delete(self, key: str) -> None:
        """Remove object ``key`` (``KeyError`` if missing)."""

    def exists(self, key: str) -> bool:
        try:
            self.size(key)
            return True
        except KeyError:
            return False

    def _check_range(self, key: str, total: int, offset: int, nbytes: int | None) -> int:
        """Validate a range request; returns the resolved byte count."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if nbytes is None:
            nbytes = total - offset
        if nbytes < 0:
            raise ValueError(f"negative read size {nbytes}")
        if offset + nbytes > total:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) exceeds size {total} of {key!r}"
            )
        return nbytes
