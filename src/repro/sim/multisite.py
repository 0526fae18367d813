"""Arbitrary multi-site topologies.

The paper: "our solution will also be applicable if the data and/or
processing power is spread across two different cloud providers."  This
module generalizes the two-site model to any number of sites -- e.g. a
campus cluster plus AWS plus a second provider -- each with its own
storage service, per-connection ceilings, core speeds, and variability,
connected by per-pair WAN links.

The :class:`MultiSiteTopology` implements the same routing interface as
:class:`~repro.sim.topology.Topology`, so the unchanged worker/master/
head simulation code (and the unchanged scheduling policy) runs on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.data.index import DataIndex
from repro.runtime.scheduler import HeadScheduler
from repro.sim.calibration import AppSimProfile, MB, ResourceParams
from repro.sim.flows import Link
from repro.sim.simrun import SimClusterConfig, SimRunResult, simulate_run
from repro.sim.topology import FetchPath

__all__ = [
    "SiteSpec",
    "InterSiteLink",
    "MultiSiteTopology",
    "simulate_multisite",
    "default_three_site_topology",
]


@dataclass(frozen=True)
class SiteSpec:
    """One site: a storage service plus (optionally) compute."""

    name: str
    storage_bw: float                    # aggregate storage bandwidth (B/s)
    per_worker_bw: float = math.inf      # intra-site per-worker ceiling
    per_connection_bw: float = math.inf  # per-connection ceiling for remote readers
    request_latency_s: float = 0.0
    core_speed: float = 1.0
    speed_sigma: float = 0.05
    refill_rtt_s: float = 0.001

    def __post_init__(self) -> None:
        if self.storage_bw <= 0:
            raise ValueError(f"site {self.name!r} storage_bw must be positive")
        if self.core_speed <= 0:
            raise ValueError(f"site {self.name!r} core_speed must be positive")


@dataclass(frozen=True)
class InterSiteLink:
    """Symmetric WAN link between two sites."""

    a: str
    b: str
    bw: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("inter-site link must join two distinct sites")
        if self.bw <= 0:
            raise ValueError("link bandwidth must be positive")

    @property
    def pair(self) -> frozenset:
        return frozenset((self.a, self.b))


class MultiSiteTopology:
    """Routing over N sites (same interface as the two-site Topology)."""

    def __init__(
        self,
        sites: list[SiteSpec],
        links: list[InterSiteLink],
        head_location: str,
    ) -> None:
        if not sites:
            raise ValueError("need at least one site")
        names = [s.name for s in sites]
        if len(set(names)) != len(names):
            raise ValueError("site names must be unique")
        self.sites = {s.name: s for s in sites}
        if head_location not in self.sites:
            raise ValueError(f"head location {head_location!r} is not a site")
        self.head_location = head_location
        self._storage: dict[str, Link] = {
            s.name: Link(f"{s.name}-storage", s.storage_bw) for s in sites
        }
        self._wan: dict[frozenset, Link] = {}
        self._wan_latency: dict[frozenset, float] = {}
        for link in links:
            if link.a not in self.sites or link.b not in self.sites:
                raise ValueError(f"link {link.a}-{link.b} references unknown site")
            if link.pair in self._wan:
                raise ValueError(f"duplicate link between {link.a} and {link.b}")
            self._wan[link.pair] = Link(f"wan-{link.a}-{link.b}", link.bw)
            self._wan_latency[link.pair] = link.latency_s

    def _wan_between(self, a: str, b: str) -> tuple[Link, float]:
        pair = frozenset((a, b))
        if pair not in self._wan:
            raise ValueError(f"no inter-site link between {a!r} and {b!r}")
        return self._wan[pair], self._wan_latency[pair]

    # -- Topology interface ---------------------------------------------------

    def fetch_path(self, worker_site: str, data_site: str, retrieval_threads: int) -> FetchPath:
        if retrieval_threads <= 0:
            raise ValueError("retrieval_threads must be positive")
        if worker_site not in self.sites or data_site not in self.sites:
            raise ValueError(f"unknown site in route {worker_site!r} -> {data_site!r}")
        data = self.sites[data_site]
        if worker_site == data_site:
            cap = data.per_worker_bw
            if math.isinf(cap):
                cap = data.per_connection_bw * retrieval_threads
            return FetchPath((self._storage[data_site],), data.request_latency_s, cap)
        wan, wan_latency = self._wan_between(worker_site, data_site)
        cap = data.per_connection_bw * retrieval_threads
        return FetchPath(
            (self._storage[data_site], wan),
            data.request_latency_s + wan_latency,
            cap,
        )

    def robj_path(self, cluster_site: str) -> FetchPath:
        if cluster_site == self.head_location:
            return FetchPath((), 0.0, math.inf)
        wan, latency = self._wan_between(cluster_site, self.head_location)
        return FetchPath((wan,), latency, math.inf)

    def refill_rtt(self, cluster_site: str) -> float:
        if cluster_site == self.head_location:
            return self.sites[cluster_site].refill_rtt_s
        _, latency = self._wan_between(cluster_site, self.head_location)
        return self.sites[cluster_site].refill_rtt_s + 2 * latency

    def site_sigmas(self) -> dict[str, float]:
        return {name: s.speed_sigma for name, s in self.sites.items()}


def simulate_multisite(
    index: DataIndex,
    topology: MultiSiteTopology,
    cores: dict[str, int],
    profile: AppSimProfile,
    params: ResourceParams | None = None,
    *,
    retrieval_threads: int = 8,
    seed: int = 0,
    scheduler_factory=HeadScheduler,
    transfer=None,
) -> SimRunResult:
    """Simulate a run over an arbitrary multi-site topology.

    ``cores`` maps site name -> core count (sites may hold data without
    compute, and vice versa).  The index's chunk locations must all be
    sites of the topology.  ``transfer`` models the WAN transfer layer
    exactly as in :func:`~repro.sim.simrun.simulate_run`.
    """
    params = params or ResourceParams()
    unknown = set(index.locations) - set(topology.sites)
    if unknown:
        raise ValueError(f"index references unknown sites: {sorted(unknown)}")
    clusters = []
    for site, n in cores.items():
        if site not in topology.sites:
            raise ValueError(f"cores assigned to unknown site {site!r}")
        if n > 0:
            clusters.append(
                SimClusterConfig(
                    name=site,
                    location=site,
                    n_cores=n,
                    core_speed=topology.sites[site].core_speed,
                    retrieval_threads=retrieval_threads,
                )
            )
    return simulate_run(
        index, clusters, profile, params,
        seed=seed,
        scheduler_factory=scheduler_factory,
        topology=topology,
        site_sigmas=topology.site_sigmas(),
        transfer=transfer,
    )


def default_three_site_topology(head: str = "campus") -> MultiSiteTopology:
    """A campus cluster plus two cloud providers (example configuration)."""
    sites = [
        SiteSpec("campus", storage_bw=450 * MB, per_worker_bw=12.5 * MB,
                 request_latency_s=0.0, core_speed=1.0, speed_sigma=0.02),
        SiteSpec("aws", storage_bw=480 * MB, per_connection_bw=1.8 * MB,
                 request_latency_s=0.06, core_speed=16 / 22, speed_sigma=0.08),
        SiteSpec("azure", storage_bw=360 * MB, per_connection_bw=1.5 * MB,
                 request_latency_s=0.08, core_speed=0.8, speed_sigma=0.10),
    ]
    links = [
        InterSiteLink("campus", "aws", bw=60 * MB, latency_s=0.04),
        InterSiteLink("campus", "azure", bw=45 * MB, latency_s=0.05),
        InterSiteLink("aws", "azure", bw=80 * MB, latency_s=0.03),
    ]
    return MultiSiteTopology(sites, links, head_location=head)
