"""Store health tracking: latency EWMAs, circuit breakers, hedge policy.

A bursting deployment reads the same dataset through paths with wildly
different reliability: the local storage node rarely fails, the WAN link
to S3 stalls and times out routinely.  Retrying a dead store wastes the
retry budget; hammering a stalled one turns a latency blip into a run
stall.  This module gives the fetch path the two signals it needs to do
better when chunks carry replicas:

* :class:`StoreHealth` -- one store's rolling view: a latency EWMA fed
  by every completed fetch and an error-rate EWMA fed by every outcome,
  driving a closed / open / half-open **circuit breaker**
  (:class:`BreakerPolicy`).  Consecutive failures or a high error rate
  open the breaker; after a cooldown it admits a limited number of
  half-open probes, and enough probe successes close it again.  All
  transitions are counted, so a run can prove its breakers fired.
* :class:`HealthRegistry` -- the per-run map ``location -> StoreHealth``
  shared by every cluster's fetchers and by the head scheduler.  It
  orders replica sources (healthy before half-open before open, faster
  EWMA first) and reports the set of open locations so the scheduler
  can deprioritize chunks stranded behind them.
* :class:`HedgePolicy` -- when to launch a **hedged fetch**: if the
  fetch of a chunk exceeds ``multiplier`` times the store's latency EWMA
  (floored at ``min_threshold_s``), the same range is requested from the
  next replica and the first result wins.

The clock is injectable so breaker cooldown tests never sleep.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.storage.retry import check_numbers

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "BreakerPolicy",
    "HedgePolicy",
    "StoreHealth",
    "HealthRegistry",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: EWMA smoothing factor for latency and error-rate tracking.
EWMA_ALPHA = 0.2


def _parse_kv(text: str, fields: dict[str, tuple[str, type]], what: str) -> dict:
    """Shared ``k=v,k=v`` parser for the policy CLI string forms."""
    kwargs: dict = {}
    for pair in filter(None, (p.strip() for p in text.split(","))):
        k, sep, v = pair.partition("=")
        if not sep or k.strip() not in fields:
            raise ValueError(
                f"malformed {what} option {pair!r} "
                f"(expected one of {sorted(fields)})"
            )
        field, conv = fields[k.strip()]
        kwargs[field] = conv(v.strip())
    return kwargs


@dataclass(frozen=True)
class BreakerPolicy:
    """When a store's circuit breaker opens, cools down, and closes.

    The breaker opens when ``fail_threshold`` consecutive failures land
    *or* the error-rate EWMA exceeds ``error_rate`` (whichever first).
    After ``recovery_s`` it admits up to ``probes`` concurrent half-open
    probe fetches; ``close_after`` probe successes close it, any probe
    failure re-opens it (restarting the cooldown).

    String form (for ``--breaker``)::

        fails=3,recovery=1.0,probes=1,close=1,error=0.5
    """

    fail_threshold: int = 3
    recovery_s: float = 1.0
    probes: int = 1
    close_after: int = 1
    error_rate: float = 0.75

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.fail_threshold <= 0:
            raise ValueError("fail_threshold must be positive")
        if self.recovery_s <= 0:
            raise ValueError("recovery_s must be positive")
        if self.probes <= 0:
            raise ValueError("probes must be positive")
        if self.close_after <= 0:
            raise ValueError("close_after must be positive")
        if not 0.0 < self.error_rate <= 1.0:
            raise ValueError("error_rate must be in (0, 1]")

    _FIELDS = {
        "fails": ("fail_threshold", int),
        "recovery": ("recovery_s", float),
        "probes": ("probes", int),
        "close": ("close_after", int),
        "error": ("error_rate", float),
    }

    @classmethod
    def parse(cls, text: str) -> "BreakerPolicy":
        """Parse the CLI string form (empty string = defaults)."""
        return cls(**_parse_kv(text, cls._FIELDS, "breaker"))


@dataclass(frozen=True)
class HedgePolicy:
    """When to launch a duplicate fetch against another replica.

    A fetch still in flight after ``multiplier`` times the store's
    latency EWMA (never less than ``min_threshold_s``; before the EWMA
    warms up the floor alone applies) is *hedged*: the same chunk is
    requested from up to ``max_hedges`` further replicas and the first
    successful result wins, the losers being cancelled or detached.

    String form (for ``--hedge``)::

        mult=3,min=0.05,max=1
    """

    multiplier: float = 3.0
    min_threshold_s: float = 0.05
    max_hedges: int = 1

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.multiplier <= 0:
            raise ValueError("multiplier must be positive")
        if self.min_threshold_s <= 0:
            raise ValueError("min_threshold_s must be positive")
        if self.max_hedges <= 0:
            raise ValueError("max_hedges must be positive")

    _FIELDS = {
        "mult": ("multiplier", float),
        "min": ("min_threshold_s", float),
        "max": ("max_hedges", int),
    }

    @classmethod
    def parse(cls, text: str) -> "HedgePolicy":
        """Parse the CLI string form (empty string = defaults)."""
        return cls(**_parse_kv(text, cls._FIELDS, "hedge"))

    def threshold_s(self, latency_ewma_s: float) -> float:
        """Hedge trigger for a store currently averaging that latency."""
        return max(self.min_threshold_s, self.multiplier * latency_ewma_s)


class StoreHealth:
    """Rolling health of one store: latency/error EWMAs plus a breaker.

    Thread-safe; every method may be called concurrently from all of a
    run's fetch threads.  With ``policy=None`` the health record still
    tracks EWMAs (used for replica ordering and hedge thresholds) but
    the breaker never opens.
    """

    def __init__(
        self,
        location: str,
        policy: BreakerPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.location = location
        self.policy = policy
        self.clock = clock
        self.latency_ewma_s = 0.0
        self.error_ewma = 0.0
        self.n_successes = 0
        self.n_failures = 0
        # Breaker transition counters (the proof the ladder's top rung
        # fired): closed->open, open->half-open, half-open->closed.
        self.n_opened = 0
        self.n_half_opened = 0
        self.n_closed = 0
        self.n_rejected = 0  # fetches skipped because the breaker was open
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_inflight = 0
        self._probe_successes = 0
        self._lock = threading.Lock()

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> str:
        """Current breaker state, advancing open -> half-open on cooldown."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if (
            self._state == BREAKER_OPEN
            and self.policy is not None
            and self.clock() - self._opened_at >= self.policy.recovery_s
        ):
            self._state = BREAKER_HALF_OPEN
            self._probe_successes = 0
            self._probes_inflight = 0
            self.n_half_opened += 1
        return self._state

    def order_rank(self) -> int:
        """Sort key for replica ordering: closed < half-open < open."""
        return {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}[
            self.state
        ]

    def allow(self) -> bool:
        """May a fetch be sent to this store right now?

        Closed always allows.  Open rejects (counted) until the cooldown
        elapses; half-open admits at most ``policy.probes`` concurrent
        probe fetches.  Callers holding a granted half-open probe must
        report the outcome via :meth:`record_success` /
        :meth:`record_failure` (which release the probe slot).
        """
        with self._lock:
            state = self._state_locked()
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_HALF_OPEN:
                assert self.policy is not None
                if self._probes_inflight < self.policy.probes:
                    self._probes_inflight += 1
                    return True
            self.n_rejected += 1
            return False

    # -- outcome recording ---------------------------------------------------

    def record_success(self, latency_s: float | None = None) -> None:
        """One fetch from this store completed in ``latency_s`` seconds.

        ``None`` records the success (resetting failure streaks and
        releasing any half-open probe slot) without a latency sample --
        used for cache hits, which never touched the store's wire.
        """
        with self._lock:
            self.n_successes += 1
            self._consecutive_failures = 0
            if latency_s is not None:
                if self.latency_ewma_s == 0.0:
                    self.latency_ewma_s = latency_s
                else:
                    self.latency_ewma_s += EWMA_ALPHA * (
                        latency_s - self.latency_ewma_s
                    )
            self.error_ewma *= 1.0 - EWMA_ALPHA
            if self._state_locked() == BREAKER_HALF_OPEN:
                assert self.policy is not None
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self.policy.close_after:
                    self._state = BREAKER_CLOSED
                    self.n_closed += 1

    def record_failure(self) -> None:
        """One fetch from this store failed past its retry policy."""
        with self._lock:
            self.n_failures += 1
            self._consecutive_failures += 1
            self.error_ewma += EWMA_ALPHA * (1.0 - self.error_ewma)
            if self.policy is None:
                return
            state = self._state_locked()
            if state == BREAKER_HALF_OPEN:
                # The probe failed: straight back to open, new cooldown.
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._open_locked()
            elif state == BREAKER_CLOSED and (
                self._consecutive_failures >= self.policy.fail_threshold
                or self.error_ewma >= self.policy.error_rate
            ):
                self._open_locked()

    def _open_locked(self) -> None:
        self._state = BREAKER_OPEN
        self._opened_at = self.clock()
        self._consecutive_failures = 0
        self.n_opened += 1

    def snapshot(self) -> dict:
        """Counters and state for stats rollup (JSON-friendly)."""
        with self._lock:
            return {
                "state": self._state_locked(),
                "latency_ewma_ms": round(self.latency_ewma_s * 1e3, 3),
                "error_ewma": round(self.error_ewma, 4),
                "n_successes": self.n_successes,
                "n_failures": self.n_failures,
                "n_opened": self.n_opened,
                "n_half_opened": self.n_half_opened,
                "n_closed": self.n_closed,
                "n_rejected": self.n_rejected,
            }


class HealthRegistry:
    """Per-run map of store location -> :class:`StoreHealth`.

    One registry is shared by every cluster's fetchers (and handed to
    the head scheduler), so all observations of a store pool into one
    breaker -- a store that died for one cluster is dead for all.
    """

    def __init__(
        self,
        breaker: BreakerPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.breaker = breaker
        self.clock = clock
        self._stores: dict[str, StoreHealth] = {}
        self._lock = threading.Lock()

    def health(self, location: str) -> StoreHealth:
        with self._lock:
            h = self._stores.get(location)
            if h is None:
                h = StoreHealth(location, self.breaker, self.clock)
                self._stores[location] = h
            return h

    def record_success(self, location: str, latency_s: float | None = None) -> None:
        self.health(location).record_success(latency_s)

    def record_failure(self, location: str) -> None:
        self.health(location).record_failure()

    def order(self, locations: list[str]) -> list[str]:
        """Locations sorted healthiest-first.

        Sorts by breaker state rank only (closed < half-open < open);
        the sort is stable, so among equally-healthy stores the input
        order -- primary placement first -- is preserved.  Latency is
        deliberately *not* a sort key: routing every fetch to the
        momentarily-fastest store would defeat the placement's locality
        and pile all load on one replica.  Slowness is handled by the
        hedge policy (whose threshold does use the latency EWMA), not
        by abandoning the primary.
        """
        return sorted(locations, key=lambda loc: self.health(loc).order_rank())

    def open_locations(self) -> set[str]:
        """Locations whose breaker is currently open (not half-open)."""
        with self._lock:
            stores = list(self._stores.values())
        return {h.location for h in stores if h.state == BREAKER_OPEN}

    def snapshot(self) -> dict[str, dict]:
        """Per-location health snapshots, for ``RunStats.breakers``."""
        with self._lock:
            stores = dict(self._stores)
        return {loc: h.snapshot() for loc, h in sorted(stores.items())}

    @property
    def n_transitions(self) -> int:
        """Total breaker transitions across every store."""
        with self._lock:
            stores = list(self._stores.values())
        return sum(h.n_opened + h.n_half_opened + h.n_closed for h in stores)
