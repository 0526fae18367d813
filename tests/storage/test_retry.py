"""Unit tests for the retry policy and the retrying fetch path."""

import pytest

from repro.storage.base import StorageStats
from repro.storage.faults import (
    FaultInjectingStore,
    FaultSpec,
    PermanentStorageError,
    TransientStorageError,
)
from repro.storage.local import MemoryStore
from repro.storage.retry import RetryExhausted, RetryPolicy
from repro.storage.transfer import FetchInfo, ParallelFetcher

FAST = RetryPolicy(max_attempts=5, base_delay_s=0.0, max_delay_s=0.0)


class TestRetryPolicyParse:
    def test_parse_full(self):
        p = RetryPolicy.parse("max=3,base=0.5,cap=2.0,deadline=10,timeout=1,seed=4")
        assert p == RetryPolicy(
            max_attempts=3, base_delay_s=0.5, max_delay_s=2.0,
            deadline_s=10.0, attempt_timeout_s=1.0, seed=4,
        )

    def test_parse_none_deadline(self):
        assert RetryPolicy.parse("deadline=none").deadline_s is None

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="malformed retry option"):
            RetryPolicy.parse("tries=3")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=0)

    @pytest.mark.parametrize("text, field", [
        ("max=none", "max_attempts"),
        ("base=none", "base_delay_s"),
        ("cap=none", "max_delay_s"),
        ("seed=none", "seed"),
        ("base=nan", "base_delay_s"),
        ("cap=nan", "max_delay_s"),
        ("deadline=nan", "deadline_s"),
        ("timeout=nan", "attempt_timeout_s"),
    ])
    def test_rejects_nan_and_missing_numbers(self, text, field):
        with pytest.raises(ValueError, match=field):
            RetryPolicy.parse(text)

    def test_none_still_means_no_limit(self):
        p = RetryPolicy.parse("deadline=none,timeout=none")
        assert (p.deadline_s, p.attempt_timeout_s) == (None, None)


class TestBackoff:
    def test_bounded_by_exponential_ceiling(self):
        p = RetryPolicy(base_delay_s=0.01, max_delay_s=1.0, seed=2)
        for attempt in range(1, 10):
            ceiling = min(1.0, 0.01 * 2**attempt)
            d = p.backoff_s(attempt, "tok")
            assert 0.0 <= d < ceiling

    def test_deterministic_per_token(self):
        p = RetryPolicy(seed=5)
        assert p.backoff_s(3, "a") == p.backoff_s(3, "a")
        assert p.backoff_s(3, "a") != p.backoff_s(3, "b")


class TestCall:
    def test_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientStorageError("boom")
            return b"ok"

        retries = []
        out = FAST.call(flaky, token="t", on_retry=lambda e, a: retries.append(a))
        assert out == b"ok"
        assert calls["n"] == 3
        assert retries == [1, 2]

    def test_exhaustion_raises_retry_exhausted(self):
        def always():
            raise TransientStorageError("boom")

        with pytest.raises(RetryExhausted) as ei:
            FAST.call(always, token="t")
        assert ei.value.attempts == 5
        assert isinstance(ei.value.last_error, TransientStorageError)

    def test_non_retryable_passes_through_immediately(self):
        calls = {"n": 0}

        def dead():
            calls["n"] += 1
            raise PermanentStorageError("gone")

        with pytest.raises(PermanentStorageError):
            FAST.call(dead)
        assert calls["n"] == 1

    def test_deadline_stops_retrying(self):
        p = RetryPolicy(max_attempts=100, base_delay_s=0.05,
                        max_delay_s=0.05, deadline_s=0.05)

        def always():
            raise ConnectionError("down")

        with pytest.raises(RetryExhausted, match="deadline"):
            p.call(always)

    def test_policy_runs_each_attempt_on_the_calling_thread(self):
        """The per-attempt timeout is the fetcher's to enforce: the policy
        starts no thread and times nothing out itself."""
        import threading

        p = RetryPolicy(max_attempts=1, attempt_timeout_s=0.001)
        seen = []

        def slow():
            seen.append(threading.current_thread())
            threading.Event().wait(0.01)
            return b"late"

        assert p.call(slow) == b"late"
        assert seen == [threading.current_thread()]


def make_faulty_fetcher(spec, *, n_threads=4, retry=FAST):
    inner = MemoryStore("cloud")
    inner.put("obj", bytes(range(256)) * 4)  # 1024 bytes
    store = FaultInjectingStore(inner, spec)
    return ParallelFetcher(store, n_threads=n_threads, retry=retry), store


class TestFetcherRetry:
    def test_subrange_retry_preserves_siblings(self):
        """Transient sub-range failures are retried in place; the fetch
        returns the correct bytes and records the retries."""
        fetcher, store = make_faulty_fetcher(FaultSpec(transient_p=0.5, seed=9))
        info = FetchInfo()
        with fetcher:
            data = fetcher.fetch("obj", 0, 1024, info)
        assert data == bytes(range(256)) * 4
        assert info.n_retries > 0
        assert info.n_errors == 0
        assert info.bytes_retried > 0
        # The parts' ledgers came back to the fetch's, every retry once.
        assert info.n_retries == store.stats.n_retries == store.n_transient
        assert store.stats.bytes_retried == info.bytes_retried

    def test_retry_counters_deterministic(self):
        def run():
            fetcher, _ = make_faulty_fetcher(
                FaultSpec(transient_p=0.5, seed=9), n_threads=1
            )
            info = FetchInfo()
            with fetcher:
                fetcher.fetch("obj", 0, 1024, info)
            return info.n_retries, info.bytes_retried

        assert run() == run()

    def test_exhausted_range_raises_retry_exhausted(self):
        fetcher, store = make_faulty_fetcher(
            FaultSpec(permanent_keys=()),  # no hash faults ...
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0),
        )
        # ... but a schedule that fails every call.
        store.spec = FaultSpec(fail_nth=tuple(range(1, 50)))
        info = FetchInfo()
        with fetcher:
            with pytest.raises(RetryExhausted):
                fetcher.fetch("obj", 0, 1024, info)
        # The ledger of a fetch that raised still holds every part's giveup.
        assert info.n_errors == store.stats.n_errors >= 1
        assert info.n_retries + info.n_errors == store.n_transient

    def test_permanent_fault_fails_fast(self):
        fetcher, store = make_faulty_fetcher(FaultSpec(permanent_keys=("obj",)))
        info = FetchInfo()
        with fetcher:
            with pytest.raises(PermanentStorageError):
                fetcher.fetch("obj", 0, 1024, info)
        assert info.n_retries == info.n_errors == 0

    def test_no_policy_behaves_as_before(self):
        inner = MemoryStore("cloud")
        inner.put("obj", b"x" * 64)
        store = FaultInjectingStore(inner, FaultSpec(fail_nth=(1,)))
        with ParallelFetcher(store, n_threads=1) as fetcher:
            with pytest.raises(TransientStorageError):
                fetcher.fetch("obj", 0, 64)


class TestStorageStats:
    def test_retry_and_error_recording(self):
        s = StorageStats()
        s.record_retry(100)
        s.record_retry(50)
        s.record_error()
        assert s.n_retries == 2
        assert s.bytes_retried == 150
        assert s.n_errors == 1

    def test_abandoned_recording(self):
        s = StorageStats()
        s.record_abandoned()
        s.record_abandoned()
        assert s.n_abandoned == 2


class TestGuardedAttempt:
    """A timeout-guarded GET runs on the fetcher's attempt pool and is
    walked away from at its deadline."""

    def test_attempt_timeout_is_retryable(self):
        from tests.gated import GatedStore, wait_for

        store = GatedStore("cloud")
        store.put("obj", b"x" * 64)
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0,
                             max_delay_s=0.0, attempt_timeout_s=0.01)
        info = FetchInfo()
        try:
            with ParallelFetcher(store, retry=policy) as fetcher:
                with pytest.raises(RetryExhausted) as ei:
                    fetcher.fetch("obj", 0, 64, info)
            assert ei.value.attempts == 2
            assert isinstance(ei.value.last_error, TimeoutError)
            assert (info.n_retries, info.n_errors) == (1, 1)
        finally:
            store.open_all()
        wait_for(lambda: store.stats.n_detached == 0)

    def test_fast_attempt_detaches_nothing(self):
        store = MemoryStore("cloud")
        store.put("obj", b"x" * 64)
        policy = RetryPolicy(max_attempts=1, attempt_timeout_s=1.0)
        info = FetchInfo()
        with ParallelFetcher(store, retry=policy) as fetcher:
            assert fetcher.fetch("obj", 0, 64, info) == b"x" * 64
            pools = fetcher.pools
            assert set(pools._pools) == {("attempt", "cloud")}
        assert info.n_abandoned == 0
        assert (store.stats.n_abandoned, store.stats.n_detached) == (0, 0)
        assert pools._pools == {}

    def test_unguarded_get_stays_on_the_calling_thread(self):
        store = MemoryStore("cloud")
        store.put("obj", b"x" * 64)
        with ParallelFetcher(store, retry=FAST) as fetcher:
            fetcher.fetch("obj", 0, 64)
            assert fetcher.pools._pools == {}


class TestFetcherAbandonAccounting:
    def test_abandoned_attempts_surface_in_stats(self):
        """A store whose reads hang past the per-attempt timeout yields
        RetryExhausted and a nonzero n_abandoned on fetcher and store."""
        import threading

        class HangingStore(MemoryStore):
            def __init__(self):
                super().__init__("cloud")
                self.release = threading.Event()

            def get(self, key, offset=0, nbytes=None):
                self.release.wait(5.0)
                return super().get(key, offset, nbytes)

        store = HangingStore()
        store.put("obj", b"x" * 64)
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0,
                             max_delay_s=0.0, attempt_timeout_s=0.01)
        info = FetchInfo()
        try:
            with ParallelFetcher(store, n_threads=1, retry=policy) as fetcher:
                with pytest.raises(RetryExhausted):
                    fetcher.fetch("obj", 0, 64, info)
                assert info.n_abandoned == 2  # both attempts timed out
                assert store.stats.n_abandoned == 2
        finally:
            store.release.set()
