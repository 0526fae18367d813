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

import time
from dataclasses import dataclass, fields
from typing import Callable

from repro.storage.faults import TransientStorageError, seeded_uniform

__all__ = ["RETRYABLE_ERRORS", "RetryExhausted", "RetryPolicy", "check_numbers"]

#: Error types a retry may fix.  Everything else fails fast.
RETRYABLE_ERRORS = (TransientStorageError, ConnectionError, TimeoutError)


def check_numbers(policy, optional: tuple[str, ...] = ()) -> None:
    """Raise ``ValueError`` naming the first field of the dataclass
    ``policy`` that is NaN, or ``None`` where it is not ``optional``.

    Comparisons with NaN are all false, so a range check alone would
    let it through; ``None`` would fail one with a ``TypeError``.
    """
    for f in fields(policy):
        value = getattr(policy, f.name)
        if value is None and f.name in optional:
            continue
        if value is None or value != value:
            raise ValueError(f"{f.name} must be a number, not {value}")


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
    ``attempt_timeout_s`` (optional) bounds one store GET: the fetcher
    runs a guarded GET on its :class:`~repro.storage.transfer.FetchPools`
    and, past the timeout, walks away from it the way a race walks away
    from a loser, raising a retryable ``TimeoutError``.  The policy
    itself starts no thread.

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
        check_numbers(self, optional=("deadline_s", "attempt_timeout_s"))
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

    def call(
        self,
        fn: Callable[[], bytes],
        *,
        token: str = "",
        on_retry: Callable[[BaseException, int], None] | None = None,
    ):
        """Run ``fn`` under this policy, returning its result.

        ``token`` namespaces the deterministic jitter (use the range
        being fetched).  ``on_retry(error, attempt)`` is invoked before
        each backoff sleep -- the accounting hook.  Raises
        :class:`RetryExhausted` when attempts or the deadline run out,
        chaining the last underlying error.
        """
        t0 = time.monotonic()
        attempt = 0
        while True:
            try:
                return fn()
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
