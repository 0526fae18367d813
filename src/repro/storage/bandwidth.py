"""Bandwidth shaping for the threaded (real-execution) path.

The simulated S3 store throttles reads and writes with two mechanisms
that mirror the measured behaviour of the real service circa the paper:

* a **per-connection rate cap** -- one GET or PUT stream cannot exceed
  a fixed throughput, which is why slaves retrieve each chunk "using
  multiple retrieval threads" and the organizer places several objects
  at once (``repro.data.dataset.PLACEMENT_CONNECTIONS``);
* an **aggregate token bucket** shared by all connections -- total
  service bandwidth is finite, so concurrent readers contend.

Both are implemented against an injectable clock so tests can run on
virtual time.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Callable

__all__ = ["Clock", "TokenBucket", "RateCap"]


class Clock:
    """Wall clock with injectable time/sleep, for deterministic tests."""

    def __init__(
        self,
        now: Callable[[], float] = _time.monotonic,
        sleep: Callable[[float], None] = _time.sleep,
    ) -> None:
        self.now = now
        self.sleep = sleep


class FakeClock(Clock):
    """Virtual clock: ``sleep`` advances time instantly.

    Not thread-accurate (concurrent sleepers serialize), but sufficient
    for unit-testing shaping arithmetic without real delays.
    """

    def __init__(self) -> None:
        self._t = 0.0
        self._lock = threading.Lock()
        super().__init__(now=self._now, sleep=self._sleep)

    def _now(self) -> float:
        with self._lock:
            return self._t

    def _sleep(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot sleep a negative duration")
        with self._lock:
            self._t += dt


class TokenBucket:
    """Thread-safe token bucket metering aggregate bytes per second.

    ``acquire(n)`` reserves ``n`` tokens and returns the duration the
    caller should sleep before proceeding, implementing a fluid
    approximation of fair sharing: concurrent acquirers are serialized in
    arrival order and each pushes the virtual availability time forward.
    """

    def __init__(self, rate: float, clock: Clock | None = None) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.clock = clock or Clock()
        self._available_at = self.clock.now()
        self._lock = threading.Lock()

    def acquire(self, nbytes: int) -> float:
        """Reserve capacity for ``nbytes``; return seconds to wait."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        duration = nbytes / self.rate
        with self._lock:
            now = self.clock.now()
            start = max(now, self._available_at)
            self._available_at = start + duration
            return max(0.0, self._available_at - now)

    def throttle(self, nbytes: int) -> float:
        """Acquire and sleep; returns the time actually waited."""
        wait = self.acquire(nbytes)
        if wait > 0:
            self.clock.sleep(wait)
        return wait


class RateCap:
    """Stateless per-connection cap: time to move ``nbytes`` at ``rate``."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)

    def duration(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return nbytes / self.rate
