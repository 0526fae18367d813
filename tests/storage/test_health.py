"""Unit tests for store health tracking: breakers, hedge policy, registry.

Breaker cooldowns advance on an injected fake clock, so no test here
ever sleeps.
"""

import pytest

from repro.storage.health import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerPolicy,
    HealthRegistry,
    HedgePolicy,
    StoreHealth,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, s: float) -> None:
        self.now += s


def make_health(policy=None, **kw):
    clock = FakeClock()
    policy = policy or BreakerPolicy(**kw)
    return StoreHealth("cloud", policy, clock=clock), clock


class TestPolicyParse:
    def test_breaker_full(self):
        p = BreakerPolicy.parse("fails=5,recovery=2.5,probes=2,close=3,error=0.9")
        assert p == BreakerPolicy(
            fail_threshold=5, recovery_s=2.5, probes=2, close_after=3,
            error_rate=0.9,
        )

    def test_breaker_empty_is_defaults(self):
        assert BreakerPolicy.parse("") == BreakerPolicy()

    def test_breaker_rejects_unknown(self):
        with pytest.raises(ValueError, match="malformed breaker option"):
            BreakerPolicy.parse("failures=3")

    def test_breaker_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(fail_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(error_rate=0.0)

    def test_hedge_full(self):
        p = HedgePolicy.parse("mult=2,min=0.1,max=3")
        assert p == HedgePolicy(multiplier=2.0, min_threshold_s=0.1, max_hedges=3)

    def test_hedge_empty_is_defaults(self):
        assert HedgePolicy.parse("") == HedgePolicy()

    @pytest.mark.parametrize("parse, text, field", [
        (HedgePolicy.parse, "mult=nan", "multiplier"),
        (HedgePolicy.parse, "min=nan", "min_threshold_s"),
        (BreakerPolicy.parse, "recovery=nan", "recovery_s"),
        (BreakerPolicy.parse, "error=nan", "error_rate"),
    ])
    def test_rejects_nan(self, parse, text, field):
        with pytest.raises(ValueError, match=field):
            parse(text)

    def test_rejects_none_by_name(self):
        with pytest.raises(ValueError, match="max_hedges"):
            HedgePolicy(max_hedges=None)
        with pytest.raises(ValueError, match="fail_threshold"):
            BreakerPolicy(fail_threshold=None)

    def test_hedge_threshold_floors(self):
        p = HedgePolicy(multiplier=3.0, min_threshold_s=0.05)
        assert p.threshold_s(0.0) == 0.05     # cold EWMA: floor applies
        assert p.threshold_s(0.1) == pytest.approx(0.3)


class TestBreakerTransitions:
    def test_opens_after_consecutive_failures(self):
        h, _ = make_health(fail_threshold=3)
        assert h.state == BREAKER_CLOSED
        h.record_failure()
        h.record_failure()
        assert h.state == BREAKER_CLOSED
        h.record_failure()
        assert h.state == BREAKER_OPEN
        assert h.n_opened == 1

    def test_success_resets_the_streak(self):
        h, _ = make_health(fail_threshold=3, error_rate=1.0)
        h.record_failure()
        h.record_failure()
        h.record_success(0.01)
        h.record_failure()
        h.record_failure()
        assert h.state == BREAKER_CLOSED

    def test_error_rate_ewma_opens_without_streak(self):
        h, _ = make_health(fail_threshold=1000, error_rate=0.5)
        # Alternate to defeat the streak; the EWMA still climbs past 0.5
        # because failures dominate 2:1.
        for _ in range(20):
            h.record_failure()
            h.record_failure()
            h.record_success(0.01)
            if h.state == BREAKER_OPEN:
                break
        assert h.state == BREAKER_OPEN

    def test_open_rejects_until_cooldown(self):
        h, clock = make_health(fail_threshold=1, recovery_s=1.0)
        h.record_failure()
        assert h.state == BREAKER_OPEN
        assert not h.allow()
        assert h.n_rejected == 1
        clock.advance(0.5)
        assert not h.allow()
        clock.advance(0.6)  # past recovery_s
        assert h.state == BREAKER_HALF_OPEN
        assert h.n_half_opened == 1

    def test_half_open_admits_limited_probes(self):
        h, clock = make_health(fail_threshold=1, recovery_s=1.0, probes=2)
        h.record_failure()
        clock.advance(1.1)
        assert h.allow()          # probe 1
        assert h.allow()          # probe 2
        assert not h.allow()      # probes exhausted
        assert h.n_rejected == 1

    def test_probe_success_closes(self):
        h, clock = make_health(fail_threshold=1, recovery_s=1.0, close_after=2)
        h.record_failure()
        clock.advance(1.1)
        assert h.allow()
        h.record_success(0.01)
        assert h.state == BREAKER_HALF_OPEN  # needs close_after=2
        assert h.allow()
        h.record_success(0.01)
        assert h.state == BREAKER_CLOSED
        assert h.n_closed == 1

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        h, clock = make_health(fail_threshold=1, recovery_s=1.0)
        h.record_failure()
        clock.advance(1.1)
        assert h.allow()
        h.record_failure()
        assert h.state == BREAKER_OPEN
        assert h.n_opened == 2
        clock.advance(0.5)  # cooldown restarted: still open
        assert h.state == BREAKER_OPEN
        clock.advance(0.6)
        assert h.state == BREAKER_HALF_OPEN

    def test_success_none_releases_probe_without_latency_sample(self):
        h, clock = make_health(fail_threshold=1, recovery_s=1.0)
        h.record_failure()
        clock.advance(1.1)
        assert h.allow()
        h.record_success(None)  # e.g. a cache hit
        assert h.state == BREAKER_CLOSED
        assert h.latency_ewma_s == 0.0  # no sample recorded

    def test_no_policy_never_opens(self):
        h = StoreHealth("cloud", None)
        for _ in range(100):
            h.record_failure()
        assert h.state == BREAKER_CLOSED
        assert h.allow()


class TestLatencyEwma:
    def test_first_sample_seeds_then_smooths(self):
        h, _ = make_health()
        h.record_success(0.1)
        assert h.latency_ewma_s == pytest.approx(0.1)
        h.record_success(0.2)
        assert 0.1 < h.latency_ewma_s < 0.2

    def test_snapshot_counts(self):
        h, _ = make_health(fail_threshold=1)
        h.record_success(0.05)
        h.record_failure()
        snap = h.snapshot()
        assert snap["state"] == BREAKER_OPEN
        assert snap["n_successes"] == 1
        assert snap["n_failures"] == 1
        assert snap["n_opened"] == 1


class TestHealthRegistry:
    def test_health_is_lazily_created_and_cached(self):
        reg = HealthRegistry(BreakerPolicy())
        a = reg.health("cloud")
        assert reg.health("cloud") is a

    def test_order_is_stable_for_equal_rank(self):
        reg = HealthRegistry(BreakerPolicy())
        assert reg.order(["cloud", "local"]) == ["cloud", "local"]
        assert reg.order(["local", "cloud"]) == ["local", "cloud"]

    def test_order_pushes_open_breakers_last(self):
        clock = FakeClock()
        reg = HealthRegistry(BreakerPolicy(fail_threshold=1), clock=clock)
        reg.record_failure("cloud")
        assert reg.order(["cloud", "local"]) == ["local", "cloud"]

    def test_order_ignores_latency(self):
        # Slow-but-healthy stores keep their placement order: latency is
        # the hedge policy's input, not a reason to abandon the primary.
        reg = HealthRegistry(BreakerPolicy())
        reg.record_success("cloud", 5.0)
        reg.record_success("local", 0.001)
        assert reg.order(["cloud", "local"]) == ["cloud", "local"]

    def test_open_locations_excludes_half_open(self):
        clock = FakeClock()
        reg = HealthRegistry(BreakerPolicy(fail_threshold=1, recovery_s=1.0),
                             clock=clock)
        reg.record_failure("cloud")
        assert reg.open_locations() == {"cloud"}
        clock.advance(1.1)  # cooldown elapses: half-open, fetchable again
        assert reg.open_locations() == set()

    def test_transitions_and_snapshot_roll_up(self):
        clock = FakeClock()
        reg = HealthRegistry(BreakerPolicy(fail_threshold=1, recovery_s=1.0),
                             clock=clock)
        reg.record_failure("cloud")         # open (1)
        clock.advance(1.1)
        assert reg.health("cloud").allow()  # half-open (2)
        reg.record_success("cloud", 0.01)   # closed (3)
        assert reg.n_transitions == 3
        snap = reg.snapshot()
        assert snap["cloud"]["n_opened"] == 1
        assert snap["cloud"]["n_half_opened"] == 1
        assert snap["cloud"]["n_closed"] == 1
