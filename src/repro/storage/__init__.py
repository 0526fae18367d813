"""Storage substrates: local disk/memory stores and a simulated S3."""

from repro.storage.base import StorageBackend, StorageStats
from repro.storage.bandwidth import Clock, RateCap, TokenBucket
from repro.storage.cache import ChunkCache
from repro.storage.codecs import (
    CODEC_NAMES,
    CodecError,
    decode_chunk,
    encode_chunk,
    frame_info,
    lz4_available,
    resolve_codec,
)
from repro.storage.faults import (
    FaultInjectingStore,
    FaultSpec,
    PermanentStorageError,
    TransientStorageError,
    WorkerCrash,
)
from repro.storage.health import (
    BreakerPolicy,
    HealthRegistry,
    HedgePolicy,
    StoreHealth,
)
from repro.storage.local import LocalDiskStore, MemoryStore
from repro.storage.retry import RetryExhausted, RetryPolicy
from repro.storage.s3 import S3Profile, SimulatedS3Store
from repro.storage.shm import SharedSegment, SharedSegmentPool, attach_segment
from repro.storage.transfer import (
    DEFAULT_MIN_PART_NBYTES,
    FAILOVER_ERRORS,
    FetchInfo,
    ParallelFetcher,
    PrefetchHandle,
    split_range,
)

__all__ = [
    "StorageBackend",
    "StorageStats",
    "ChunkCache",
    "CODEC_NAMES",
    "CodecError",
    "decode_chunk",
    "encode_chunk",
    "frame_info",
    "lz4_available",
    "resolve_codec",
    "Clock",
    "RateCap",
    "TokenBucket",
    "FaultInjectingStore",
    "FaultSpec",
    "PermanentStorageError",
    "TransientStorageError",
    "WorkerCrash",
    "RetryExhausted",
    "RetryPolicy",
    "BreakerPolicy",
    "HedgePolicy",
    "HealthRegistry",
    "StoreHealth",
    "LocalDiskStore",
    "MemoryStore",
    "S3Profile",
    "SimulatedS3Store",
    "SharedSegment",
    "SharedSegmentPool",
    "attach_segment",
    "DEFAULT_MIN_PART_NBYTES",
    "FAILOVER_ERRORS",
    "FetchInfo",
    "ParallelFetcher",
    "PrefetchHandle",
    "split_range",
]
