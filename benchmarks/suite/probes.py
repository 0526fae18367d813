"""Direct-drive probes: one layer at a time, one caller thread.

Each probe replays the workload's own index, frames or job pool through
a layer's public functions with nothing else running, so its number is
the layer's uncontended cost on this workload's data.  The live traced
run gives the contended figure; the ratio of the two is the inflation.

Every probe returns ``{metric name: value}``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from repro import (
    BurstingSession,
    ClusterConfig,
    DataIndex,
    EngineOptions,
    HeadScheduler,
    MemoryStore,
    WordCountSpec,
    build_index,
    distribute_dataset,
    iter_unit_groups,
    jobs_from_index,
    supports_batch_fold,
    tokens_format,
    units_per_group,
    write_dataset,
)
from repro.core import deserialize_robj, serialize_robj
from repro.runtime.core import make_cluster_fetchers
from repro.service import MultiJobScheduler
from repro.storage import decode_chunk, encode_chunk
from repro.storage.erasure import reassemble, stripe_frame

from benchmarks.suite.spans import Tracer, self_times
from benchmarks.suite.wrappers import Traced

__all__ = ["run_probes"]

#: Upper bound on chunks a probe replays (keeps each probe well under 1 s).
MAX_CHUNKS = 8
MB = 1e6


def _chunk_arrays(index, units) -> list[np.ndarray]:
    """The unit slice behind each of the first chunks of ``index``."""
    out, pos = [], 0
    for c in index.chunks[:MAX_CHUNKS]:
        out.append(units[pos : pos + c.n_units])
        pos += c.n_units
    return out


def _timed(fn, *args) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def probe_transfer(stores: dict, index) -> dict:
    """``ParallelFetcher.fetch_chunk`` per home location, GETs traced beneath it."""
    tracer = Tracer()
    fetchers = make_cluster_fetchers(
        Traced(tracer).stores(stores), ClusterConfig("probe", "local", 1)
    )
    out = {}
    try:
        for loc in ("local", "cloud"):
            chunks = index.chunks_at(loc)[:MAX_CHUNKS]
            first = len(tracer.spans)
            for c in chunks:
                with tracer.span("storage.transfer.fetch_chunk", ambient=True, nbytes=c.nbytes):
                    fetchers[loc].fetch_chunk(c)
            fetches = [
                i for i in range(first, len(tracer.spans))
                if tracer.spans[i].name == "storage.transfer.fetch_chunk"
            ]
            wall = sum(tracer.spans[i].dur for i in fetches)
            nbytes = sum(c.nbytes for c in chunks)
            out[f"storage.transfer.fetch_{loc}_MBps"] = nbytes / MB / wall if wall else 0.0
            if loc == "local":
                selfs = self_times(tracer.spans)
                out["storage.transfer.self_us_per_chunk"] = (
                    statistics.median(selfs[i] for i in fetches) * 1e6 if fetches else 0.0
                )
    finally:
        for f in fetchers.values():
            f.close()
    return out


def probe_codecs_erasure(fmt, codec: str | None, arrays: list[np.ndarray]) -> dict:
    """Encode/decode and stripe/reassemble the workload's own chunks."""
    raws = [fmt.encode(a) for a in arrays[:4]]
    logical = sum(len(r) for r in raws)
    codec = codec or "identity"
    enc_s = dec_s = 0.0
    frames = []
    for raw in raws:
        dt, frame = _timed(encode_chunk, raw, codec, fmt.unit_nbytes)
        enc_s += dt
        frames.append(frame)
        dt, back = _timed(decode_chunk, frame)
        dec_s += dt
        if bytes(back) != raw:
            raise AssertionError(f"codec {codec} did not round-trip")
    k, m = 4, 2
    wire = sum(len(f) for f in frames)
    stripe_s = copy_s = parity_s = 0.0
    for frame in frames[:2]:
        dt, frags = _timed(stripe_frame, frame, k, m)
        stripe_s += dt
        by_index = dict(enumerate(frags))
        dt, (buf, used_parity) = _timed(
            reassemble, {i: by_index[i] for i in range(k)}, k, m, len(frame)
        )
        copy_s += dt
        if used_parity or bytes(buf) != frame:
            raise AssertionError("all-data reassembly failed")
        dt, (buf, used_parity) = _timed(
            reassemble, {i: by_index[i] for i in range(m, k + m)}, k, m, len(frame)
        )
        parity_s += dt
        if not used_parity or bytes(buf) != frame:
            raise AssertionError("parity decode failed")
    striped = sum(len(f) for f in frames[:2])
    return {
        "storage.codecs.encode_ns_per_byte": enc_s * 1e9 / logical,
        "storage.codecs.decode_ns_per_byte": dec_s * 1e9 / logical,
        "storage.codecs.wire_ratio": wire / logical,
        "storage.erasure.stripe_MBps": striped / MB / stripe_s,
        "storage.erasure.reassemble_MBps": striped / MB / copy_s,
        "storage.erasure.parity_decode_MBps": striped / MB / parity_s,
    }


def probe_data(fmt, index, arrays: list[np.ndarray]) -> dict:
    raws = [fmt.encode(a) for a in arrays]
    decode = [_timed(fmt.decode, raw)[0] for raw in raws for _ in range(5)]
    roundtrip = [
        _timed(lambda: DataIndex.from_json(index.to_json()))[0] for _ in range(3)
    ]
    return {
        "data.decode_us_per_chunk": statistics.median(decode) * 1e6,
        "data.index_roundtrip_ms": statistics.median(roundtrip) * 1e3,
    }


def probe_core(spec, arrays: list[np.ndarray]) -> dict:
    """The fold kernel alone: per-group loop, whole-chunk batch, robj pickle."""
    nbytes = sum(a.nbytes for a in arrays)
    group_units = units_per_group(EngineOptions().group_nbytes, arrays[0][0:1].nbytes)
    robj = spec.create_reduction_object()
    t0 = time.perf_counter()
    for a in arrays:
        for group in iter_unit_groups(a, group_units):
            spec.local_reduction(robj, group)
    loop_s = time.perf_counter() - t0
    robj = spec.create_reduction_object()
    t0 = time.perf_counter()
    for a in arrays:
        spec.local_reduction_batch(robj, a)
    batch_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    payload = serialize_robj(robj)
    deserialize_robj(payload)
    ser_s = time.perf_counter() - t0
    return {
        "core.fold_loop_ns_per_byte": loop_s * 1e9 / nbytes,
        "core.fold_batch_ns_per_byte": batch_s * 1e9 / nbytes,
        "core.ser_MBps": len(payload) / MB / ser_s,
        "_fold_direct_ns_per_byte": (
            batch_s if supports_batch_fold(spec) and EngineOptions().batch_fold else loop_s
        ) * 1e9 / nbytes,
    }


def _drain(scheduler, jobs_total: int, batch: int, locations: list[str], complete) -> float:
    """µs per job to assign and complete every job of a pool."""
    t0 = time.perf_counter()
    i = 0
    while True:
        jobs = scheduler.request_jobs(locations[i % len(locations)], batch)
        if not jobs:
            break
        for job in jobs:
            complete(job)
        i += 1
    return (time.perf_counter() - t0) * 1e6 / jobs_total


def _synthetic_pool(n_jobs: int, n_files: int):
    """A job pool of one-unit chunks, half its files local, half cloud."""
    index = build_index(tokens_format(), [n_jobs // n_files] * n_files, chunk_units=1)
    return jobs_from_index(index.with_placement({"local": 0.5, "cloud": 0.5}))


def probe_schedulers(index, batch: int) -> dict:
    locations = ["local", "cloud"]
    out = {}
    pools = {
        "runtime.scheduler.assign_us": jobs_from_index(index),
        "runtime.scheduler.assign_us_960x32": _synthetic_pool(960, 32),
        "runtime.scheduler.assign_us_100k": _synthetic_pool(100_000, 32),
    }
    for name, jobs in pools.items():
        repeats = max(1, 2000 // len(jobs))
        samples = []
        for _ in range(repeats):
            sched = HeadScheduler(jobs)
            samples.append(_drain(sched, len(jobs), batch, locations, sched.complete))
        out[name] = statistics.median(samples)
    # two tenants, two runs each, over the workload's own pool
    jobs = jobs_from_index(index)
    samples = []
    for _ in range(max(1, 500 // len(jobs))):
        multi = MultiJobScheduler({"analytics": 2.0, "ingest": 1.0})
        by_run = {}
        for seq in range(4):
            run_id = f"job-{seq}"
            entry = SimpleNamespace(
                run_id=run_id, tenant=("analytics", "ingest")[seq % 2], seq=seq,
                scheduler=HeadScheduler([replace(j, run_id=run_id) for j in jobs]),
            )
            multi.add_run(entry)
            by_run[run_id] = entry.scheduler
        samples.append(_drain(
            multi, 4 * len(jobs), batch, locations,
            lambda job: by_run[job.run_id].complete(job),
        ))
    out["service.multi_assign_us"] = statistics.median(samples)
    return out


def probe_pass_overhead(engine: str) -> dict:
    """``session.run`` on two few-KB chunks: start-up + finalize + shutdown."""
    tokens = np.arange(512, dtype=np.int64) % 7
    stores = {"local": MemoryStore("local"), "cloud": MemoryStore("cloud")}
    index = write_dataset(tokens, tokens_format(), stores["local"], n_files=2, chunk_units=256)
    index = distribute_dataset(index, stores, {"local": 0.5, "cloud": 0.5}, stores["local"])
    session = BurstingSession(index, stores, engine=engine, local_workers=1, cloud_workers=1)
    samples = [_timed(session.run, WordCountSpec())[0] for _ in range(5)]
    return {"runtime.pass_overhead_ms": statistics.median(samples) * 1e3}


def run_probes(*, stores, index, units, fmt, spec, codec, engine, batch) -> dict:
    arrays = _chunk_arrays(index, units)
    out = {}
    out.update(probe_transfer(stores, index))
    out.update(probe_codecs_erasure(fmt, codec, arrays))
    out.update(probe_data(fmt, index, arrays))
    out.update(probe_core(spec, arrays))
    out.update(probe_schedulers(index, batch))
    out.update(probe_pass_overhead(engine))
    return out
