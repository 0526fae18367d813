"""Elastic cloud provisioning during a run.

The paper's related work (Marshall et al.'s *Elastic Site*, de Assunção
et al.) grows the cloud side on demand; this module integrates that
behaviour with the data-aware middleware: a deadline-driven monitor
projects the finish time from the observed per-core throughput and
leases additional cloud cores -- each usable only after an instance
**startup latency** -- whenever the projection misses the deadline.
Leased cores join the cloud master's pull loop like any other worker,
so the scheduler needs no changes and the new cores immediately share
the remaining jobs (stealing included).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.index import DataIndex
from repro.sim.calibration import AppSimProfile, ResourceParams
from repro.sim.simrun import SimClusterConfig, SimRunResult, _simulate, simulate_run

__all__ = ["ElasticPolicy", "ElasticRunResult", "simulate_elastic_run"]


@dataclass(frozen=True)
class ElasticPolicy:
    """Deadline-driven scale-out policy.

    Every ``check_interval_s`` the monitor estimates the finish time as
    ``now + remaining_work / current_capacity``.  If that misses
    ``deadline_s``, it leases ``step_cores`` more cloud cores (up to
    ``max_extra_cores`` total), each usable ``startup_latency_s`` after
    its lease.
    """

    deadline_s: float
    check_interval_s: float = 10.0
    startup_latency_s: float = 60.0
    step_cores: int = 4
    max_extra_cores: int = 32
    #: Lease when the projection exceeds ``safety * deadline``: the
    #: throughput model is optimistic (boot delays, stealing overhead,
    #: batch granularity), so real systems keep headroom.
    safety: float = 0.85

    def __post_init__(self) -> None:
        if self.deadline_s <= 0 or self.check_interval_s <= 0:
            raise ValueError("deadline and check interval must be positive")
        if self.startup_latency_s < 0:
            raise ValueError("startup latency must be non-negative")
        if self.step_cores <= 0 or self.max_extra_cores < 0:
            raise ValueError("step_cores > 0 and max_extra_cores >= 0 required")
        if not 0 < self.safety <= 1:
            raise ValueError("safety must be in (0, 1]")


@dataclass
class ElasticRunResult:
    """Outcome of an elastic run."""

    result: SimRunResult
    policy: ElasticPolicy
    extra_cores_leased: int
    lease_times_s: list[float] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.result.total_s

    @property
    def met_deadline(self) -> bool:
        return self.total_s <= self.policy.deadline_s


def _plan_leases(base: SimRunResult, base_cores: int, policy: ElasticPolicy) -> list[float]:
    """Replay the monitor against the observed throughput trajectory.

    The base (non-elastic) run gives the fleet's average job rate.  The
    monitor integrates completed work at the *current* capacity (leased
    cores contribute proportionally once booted) and projects the finish
    piecewise through pending boots; it leases another step whenever the
    projection still misses the deadline.
    """
    total_jobs = base.stats.jobs_processed
    horizon = base.stats.processing_end_s
    avg_rate = total_jobs / horizon  # jobs/s of the base fleet

    def ratio_at(time: float, leases: list[float]) -> float:
        live = sum(
            policy.step_cores
            for lt in leases
            if lt + policy.startup_latency_s <= time
        )
        return (base_cores + live) / base_cores

    def project_finish(now: float, remaining: float, leases: list[float]) -> float:
        """Walk forward through pending boot events at known capacities."""
        boots = sorted(
            lt + policy.startup_latency_s
            for lt in leases
            if lt + policy.startup_latency_s > now
        )
        t = now
        for boot in boots:
            rate = avg_rate * ratio_at(t, leases)
            if remaining <= rate * (boot - t):
                return t + remaining / rate
            remaining -= rate * (boot - t)
            t = boot
        return t + remaining / (avg_rate * ratio_at(t, leases))

    leases: list[float] = []
    done = 0.0
    t = 0.0
    while done < total_jobs and len(leases) * policy.step_cores < policy.max_extra_cores:
        # Advance one monitoring interval at the live capacity.
        done += avg_rate * ratio_at(t, leases) * policy.check_interval_s
        t += policy.check_interval_s
        remaining = total_jobs - done
        if remaining <= 0:
            break
        if project_finish(t, remaining, leases) > policy.safety * policy.deadline_s:
            leases.append(t)
    return leases


def simulate_elastic_run(
    index: DataIndex,
    clusters: list[SimClusterConfig],
    profile: AppSimProfile,
    policy: ElasticPolicy,
    params: ResourceParams = ResourceParams(),
    *,
    seed: int = 0,
) -> ElasticRunResult:
    """Simulate with deadline-driven elastic scale-out of the cloud side.

    Two deterministic passes: first the unmodified run, whose throughput
    trajectory drives the policy's lease decisions; then the run with
    the leased cores added as late-starting cloud workers (they sleep
    through their boot window, then enter the normal pull loop).
    """
    cloud = next((c for c in clusters if c.location == "cloud"), None)
    if cloud is None:
        raise ValueError("elastic scale-out needs a cloud cluster to grow")

    base = simulate_run(index, clusters, profile, params, seed=seed)
    leases = _plan_leases(base, sum(c.n_cores for c in clusters), policy)
    if not leases:
        return ElasticRunResult(result=base, policy=policy, extra_cores_leased=0)

    boots = {
        f"cloud-elastic-{i}": lease_t + policy.startup_latency_s
        for i, lease_t in enumerate(leases)
    }
    leased = [
        SimClusterConfig(
            name=name,
            location="cloud",
            n_cores=policy.step_cores,
            core_speed=cloud.core_speed,
            retrieval_threads=cloud.retrieval_threads,
        )
        for name in boots
    ]
    # The leased cores join through simulate_run's own wiring, booting
    # late: they sleep through their boot window, then pull as usual.
    result = _simulate(index, clusters + leased, profile, params, seed=seed,
                       start_at=boots)
    return ElasticRunResult(
        result=result,
        policy=policy,
        extra_cores_leased=len(leases) * policy.step_cores,
        lease_times_s=leases,
    )
