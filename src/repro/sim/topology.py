"""Simulated network/storage topology.

Two sites -- the local cluster and the cloud -- with:

* a local storage node (finite disk/NIC bandwidth) serving the cluster;
* the S3 service (aggregate bandwidth + per-connection caps) serving the
  cloud internally at full speed;
* a WAN between the sites, crossed by local workers stealing S3-resident
  jobs, by cloud workers stealing locally-stored jobs, and by
  reduction-object uploads from remote masters to the head node.

``fetch_path`` returns the link set, request latency, and per-flow rate
cap for a worker at one site reading data at another, so the simulator's
worker loop stays topology-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.calibration import ResourceParams
from repro.sim.flows import Link

__all__ = ["FetchPath", "TransferSimModel", "Topology"]


@dataclass(frozen=True)
class FetchPath:
    """How one transfer must be routed."""

    links: tuple[Link, ...]
    latency_s: float
    per_flow_cap: float  # bytes/s ceiling for this single transfer


@dataclass(frozen=True)
class TransferSimModel:
    """Models the transfer layer's codec in the simulator.

    The DES never touches bytes, so compression is two scalars: what
    fraction of a chunk's logical size actually crosses the links
    (``compress_ratio`` = wire/logical), and the per-logical-byte CPU
    cost of decoding the frame on the worker (``decode_s_per_byte``).
    Defaults for each codec come from measuring the real codecs on the
    organizer's binary record files (:func:`for_codec`).
    """

    codec: str = "identity"
    compress_ratio: float = 1.0
    decode_s_per_byte: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.compress_ratio <= 1.0:
            raise ValueError("compress_ratio must be in (0, 1]")
        if self.decode_s_per_byte < 0:
            raise ValueError("decode_s_per_byte must be non-negative")

    def wire_nbytes(self, logical_nbytes: int) -> int:
        """Encoded size travelling the links for a chunk of this size."""
        if logical_nbytes <= 0:
            return 0
        return max(1, math.ceil(logical_nbytes * self.compress_ratio))

    def decode_s(self, logical_nbytes: int) -> float:
        """CPU seconds the worker spends decoding the chunk's frame."""
        return logical_nbytes * self.decode_s_per_byte

    @classmethod
    def for_codec(cls, codec: str) -> "TransferSimModel":
        """Calibrated defaults per codec (*integer* record data).

        Ratios/decode rates are round numbers from the real codecs on
        the repro's binary unit files of integer records (token ids,
        edge lists): zlib deflates to roughly half, shuffle+deflate
        (byte-transposed fixed-stride records) well under half, lz4
        trades ratio for a much cheaper decode.  They do not describe
        float64 coordinates, whose mantissa bytes are noise: there the
        real ``shuffle`` codec reaches ~0.86 and decodes at ~2.7 ns per
        logical byte (ARCHITECTURE 4b).  The constants stay as they are
        because the paper's figures are run with them.
        """
        defaults = {
            "identity": cls("identity", 1.0, 0.0),
            "zlib": cls("zlib", 0.55, 1 / (400e6)),     # inflate ~400 MB/s
            "lz4": cls("lz4", 0.70, 1 / (2e9)),         # ~2 GB/s decode
            "shuffle": cls("shuffle", 0.40, 1 / (300e6)),  # unshuffle + inflate
        }
        try:
            return defaults[codec]
        except KeyError:
            raise ValueError(
                f"unknown codec {codec!r}; expected one of {sorted(defaults)}"
            ) from None


class Topology:
    """Link objects and routing rules for the two-site environment."""

    LOCAL = "local"
    CLOUD = "cloud"

    def __init__(self, params: ResourceParams, head_location: str) -> None:
        if head_location not in (self.LOCAL, self.CLOUD):
            raise ValueError(f"unknown head location {head_location!r}")
        self.params = params
        self.head_location = head_location
        self.local_disk = Link("local-disk", params.local_disk_bw)
        self.s3 = Link("s3-service", params.s3_aggregate_bw)
        self.wan = Link("wan", params.wan_bw)

    def fetch_path(self, worker_site: str, data_site: str, retrieval_threads: int) -> FetchPath:
        """Route a chunk fetch by a worker at ``worker_site``.

        Per-flow caps model per-connection ceilings multiplied by the
        worker's retrieval-thread count (the paper's multi-threaded
        retrieval optimization).
        """
        if retrieval_threads <= 0:
            raise ValueError("retrieval_threads must be positive")
        p = self.params
        if data_site == self.LOCAL and worker_site == self.LOCAL:
            return FetchPath((self.local_disk,), 0.0, p.local_per_worker_bw)
        if data_site == self.CLOUD and worker_site == self.CLOUD:
            return FetchPath(
                (self.s3,),
                p.s3_request_latency_s,
                p.s3_per_connection_bw * retrieval_threads,
            )
        if data_site == self.CLOUD and worker_site == self.LOCAL:
            # Ranged GETs from S3 across the WAN (job stealing by the cluster).
            return FetchPath(
                (self.s3, self.wan),
                p.s3_request_latency_s + p.wan_latency_s,
                p.wan_per_connection_bw * retrieval_threads,
            )
        if data_site == self.LOCAL and worker_site == self.CLOUD:
            # Cloud instances reading the cluster's storage node.
            return FetchPath(
                (self.local_disk, self.wan),
                p.wan_latency_s,
                p.wan_per_connection_bw * retrieval_threads,
            )
        raise ValueError(f"no route from {worker_site!r} to {data_site!r}")

    def robj_path(self, cluster_site: str) -> FetchPath:
        """Route a reduction-object upload from a master to the head."""
        if cluster_site == self.head_location:
            # Intra-cluster: effectively free next to WAN costs.
            return FetchPath((), 0.0, math.inf)
        return FetchPath((self.wan,), self.params.wan_latency_s, math.inf)

    def refill_rtt(self, cluster_site: str) -> float:
        """Master <-> head control round-trip for a job-batch request."""
        if cluster_site == self.head_location:
            return self.params.local_refill_rtt_s
        return self.params.cloud_refill_rtt_s
