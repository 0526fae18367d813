"""Retry policy for the fetch path: exponential backoff with full jitter.

Transient errors are the norm on a WAN fetch path, and the cheapest
recovery is to retry the failed range -- not to cancel the whole fetch,
and certainly not to abort the run.  :class:`RetryPolicy` encodes the
standard discipline (exponential backoff, full jitter, a per-attempt
timeout, and an overall deadline) as a small immutable value threaded
through :class:`~repro.storage.transfer.ParallelFetcher` and the
engines.

Jitter is deterministic: each delay is a pure hash of
``(seed, token, attempt)`` (see
:func:`~repro.storage.faults.seeded_uniform`), so a seeded chaos run
replays exactly, backoff included.

Only *retryable* errors are retried: :class:`TransientStorageError`,
``ConnectionError``, and ``TimeoutError``.  Anything else --
``KeyError`` for a missing object,
:class:`~repro.storage.faults.PermanentStorageError` for a dead one --
propagates immediately, because retrying a deterministic failure only
delays the inevitable.  When retries run out,
:class:`RetryExhausted` wraps the last error so callers can tell a
gave-up fetch from a fail-fast one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.storage.faults import TransientStorageError, seeded_uniform

__all__ = ["RETRYABLE_ERRORS", "RetryExhausted", "RetryPolicy", "AbandonGuard"]

#: Error types a retry may fix.  Everything else fails fast.
RETRYABLE_ERRORS = (TransientStorageError, ConnectionError, TimeoutError)

#: Default cap on attempt threads abandoned by per-attempt timeouts
#: that are still running.  Hitting the cap back-pressures new
#: timeout-guarded attempts instead of accumulating stuck threads.
DEFAULT_MAX_ABANDONED = 32


class AbandonGuard:
    """Bounds the number of live abandoned attempt threads.

    A per-attempt timeout abandons a stuck call: its daemon thread keeps
    running until the underlying operation returns, but nobody consumes
    the result.  Unbounded, a pathological store (every call hangs
    forever) would leak one thread per attempt.  The guard admits a new
    timeout-guarded attempt only while fewer than ``max_abandoned``
    abandoned threads are still live, blocking (briefly) otherwise --
    back-pressure instead of leak.

    One process-wide instance (:data:`_ABANDON_GUARD`) serves every
    :class:`RetryPolicy`; tests may swap it for a smaller one.
    """

    def __init__(self, max_abandoned: int = DEFAULT_MAX_ABANDONED) -> None:
        if max_abandoned <= 0:
            raise ValueError("max_abandoned must be positive")
        self.max_abandoned = max_abandoned
        self.live = 0            # abandoned threads still running
        self.total_abandoned = 0  # ever abandoned (monotonic)
        self._cond = threading.Condition()

    def wait_for_slot(self, timeout_s: float) -> None:
        """Block until a new abandonment would stay under the cap.

        Gives up after ``timeout_s`` (the attempt then proceeds anyway:
        the cap is back-pressure, not a hard ceiling, so a wedged store
        cannot deadlock the fetch path).
        """
        with self._cond:
            self._cond.wait_for(
                lambda: self.live < self.max_abandoned, timeout=timeout_s
            )

    def mark_abandoned(self) -> None:
        with self._cond:
            self.live += 1
            self.total_abandoned += 1

    def release(self) -> None:
        """An abandoned thread finally finished."""
        with self._cond:
            self.live = max(0, self.live - 1)
            self._cond.notify_all()


#: Process-wide guard shared by all retry policies.
_ABANDON_GUARD = AbandonGuard()


class RetryExhausted(IOError):
    """A retryable operation kept failing past the policy's limits."""

    def __init__(self, message: str, last_error: BaseException, attempts: int):
        super().__init__(message)
        self.last_error = last_error
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff discipline for one logical operation.

    ``max_attempts`` bounds tries (first call included);
    ``base_delay_s``/``max_delay_s`` shape the exponential backoff,
    with *full jitter*: the ``n``-th delay is uniform in
    ``[0, min(max_delay_s, base_delay_s * 2**n))``.  ``deadline_s``
    caps the total elapsed time across attempts, and
    ``attempt_timeout_s`` (optional) bounds one attempt -- a stuck call
    is abandoned on a daemon thread and counted as a retryable timeout.

    String form (for ``--retry``)::

        max=5,base=0.01,cap=1.0,deadline=30,timeout=2,seed=0
    """

    max_attempts: int = 5
    base_delay_s: float = 0.01
    max_delay_s: float = 1.0
    deadline_s: float | None = 30.0
    attempt_timeout_s: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if self.attempt_timeout_s is not None and self.attempt_timeout_s <= 0:
            raise ValueError("attempt_timeout_s must be positive (or None)")

    _FIELDS = {
        "max": ("max_attempts", int),
        "base": ("base_delay_s", float),
        "cap": ("max_delay_s", float),
        "deadline": ("deadline_s", float),
        "timeout": ("attempt_timeout_s", float),
        "seed": ("seed", int),
    }

    @classmethod
    def parse(cls, text: str) -> "RetryPolicy":
        """Parse the CLI string form (see class docstring)."""
        kwargs: dict = {}
        for pair in filter(None, (p.strip() for p in text.split(","))):
            k, sep, v = pair.partition("=")
            if not sep or k.strip() not in cls._FIELDS:
                raise ValueError(
                    f"malformed retry option {pair!r} "
                    f"(expected one of {sorted(cls._FIELDS)})"
                )
            field, conv = cls._FIELDS[k.strip()]
            kwargs[field] = None if v.strip() == "none" else conv(v)
        return cls(**kwargs)

    def backoff_s(self, attempt: int, token: str = "") -> float:
        """Full-jitter delay before retry number ``attempt`` (1-based)."""
        ceiling = min(self.max_delay_s, self.base_delay_s * (2 ** attempt))
        return seeded_uniform(self.seed, "backoff", token, attempt) * ceiling

    def _attempt(
        self,
        fn: Callable[[], bytes],
        on_abandon: Callable[[], None] | None = None,
    ):
        if self.attempt_timeout_s is None:
            return fn()
        guard = _ABANDON_GUARD
        # Back-pressure: while the cap's worth of abandoned threads are
        # still live, hold new timeout-guarded attempts briefly instead
        # of stacking more stuck threads on top.
        guard.wait_for_slot(self.attempt_timeout_s)
        box: dict = {}
        state_lock = threading.Lock()
        state = {"abandoned": False, "done": False}

        def runner() -> None:
            try:
                box["value"] = fn()
            except BaseException as exc:
                box["error"] = exc
            with state_lock:
                state["done"] = True
                was_abandoned = state["abandoned"]
            if was_abandoned:
                guard.release()

        th = threading.Thread(target=runner, daemon=True)
        th.start()
        th.join(self.attempt_timeout_s)
        with state_lock:
            finished = state["done"]
            if not finished:
                # The attempt is abandoned: its thread keeps running to
                # completion, but nobody consumes the result.  Exactly
                # one side accounts it -- the handshake above makes the
                # runner release the guard slot when it finally ends.
                state["abandoned"] = True
        if not finished:
            guard.mark_abandoned()
            if on_abandon is not None:
                on_abandon()
            raise TimeoutError(
                f"attempt exceeded per-attempt timeout {self.attempt_timeout_s}s"
            )
        if "error" in box:
            raise box.pop("error")  # the error's traceback holds this frame
        return box["value"]

    def call(
        self,
        fn: Callable[[], bytes],
        *,
        token: str = "",
        on_retry: Callable[[BaseException, int], None] | None = None,
        on_abandon: Callable[[], None] | None = None,
    ):
        """Run ``fn`` under this policy, returning its result.

        ``token`` namespaces the deterministic jitter (use the range
        being fetched).  ``on_retry(error, attempt)`` is invoked before
        each backoff sleep -- the accounting hook.  ``on_abandon()`` is
        invoked each time a per-attempt timeout abandons a still-running
        attempt thread.  Raises :class:`RetryExhausted` when attempts or
        the deadline run out, chaining the last underlying error.
        """
        t0 = time.monotonic()
        attempt = 0
        while True:
            try:
                return self._attempt(fn, on_abandon)
            except RETRYABLE_ERRORS as exc:
                attempt += 1
                if attempt >= self.max_attempts:
                    raise RetryExhausted(
                        f"gave up after {attempt} attempts ({token or 'op'}): {exc}",
                        exc, attempt,
                    ) from exc
                delay = self.backoff_s(attempt, token)
                elapsed = time.monotonic() - t0
                if self.deadline_s is not None and elapsed + delay >= self.deadline_s:
                    raise RetryExhausted(
                        f"retry deadline {self.deadline_s}s exceeded after "
                        f"{attempt} attempts ({token or 'op'}): {exc}",
                        exc, attempt,
                    ) from exc
                if on_retry is not None:
                    on_retry(exc, attempt)
                if delay > 0:
                    time.sleep(delay)
