"""One run of one workload in this process: untraced, or traced.

``measure`` produces the end-to-end metrics with no instrumentation
anywhere.  ``trace`` produces the per-layer metrics: it alternates
untraced and traced passes over the same organized dataset (so the
tracing overhead is measured inside one process), then runs the
direct-drive probes.  End-to-end numbers are never taken from ``trace``.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

from repro.core.serialization import serialized_nbytes

from benchmarks.suite import probes
from benchmarks.suite.ledger import layer_metrics, pct
from benchmarks.suite.spans import Span, Tracer
from benchmarks.suite.workloads import PASS_TIMEOUT_S, BatchWorkload, ServiceMixed
from benchmarks.suite.wrappers import Plain, Traced

__all__ = ["measure", "trace", "Record"]

#: Organize into fresh stores at least three times, and cheap set-ups (33 ms
#: on ``service-mixed``, 0.3 s on ``kmeans-local``, where three samples read
#: 30 % apart run to run) until they add up to this share of ``--seconds``;
#: setup_s is the median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_SHARE = 3, 15, 0.2
#: Share of ``--seconds`` a traced run spends on live passes; the probes
#: (fixed work, ~3 s) take the rest.
TRACE_LIVE_SHARE = 0.6
#: Closed-loop warm-up of the service before its measured window.
SERVICE_WARMUP_S = 0.5
MB, GB = 1e6, 1e9
#: Per-layer metrics only ``service-mixed`` produces (0 elsewhere).
SERVICE_ONLY = (
    "service.submit_us", "service.fair_share_ratio", "service.shutdown_ms",
    "service.heavy_tenant_p50_ms", "service.light_tenant_p50_ms", "service.job_p95_ms",
)


@dataclass
class Record:
    """What one run reports."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: sample counts and other context for the result file
    detail: dict


@dataclass
class PassSample:
    wall_s: float
    cpu_s: float
    ok: bool
    span: Span | None = None
    stats: object = None


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


class Verifier:
    """The reference check, in a forked helper process.

    The references are big (``lloyd_step`` builds a 250 000 x 64 distance
    matrix, PageRank a 6 000 000-entry link matrix) and ``ru_maxrss`` is a
    high-water mark, so computed in this process they would hide the
    program's own memory behind the harness's.  The helper is forked once
    the inputs exist, answers one ``check`` at a time while this process
    waits (so it never competes with a timed interval), and is reaped by
    ``close`` only after ``peak_rss_mb`` was read: ``RUSAGE_CHILDREN``
    counts reaped children only, so the helper is in no reported number.
    """

    def __init__(self, wl, units, state) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, theirs = ctx.Pipe()
        self._proc = ctx.Process(
            target=self._serve, args=(theirs, self._conn, wl, units, state), daemon=True)
        self._proc.start()
        theirs.close()
        self._conn.recv()  # the first reference is ready

    @staticmethod
    def _serve(conn, parents_end, wl, units, state) -> None:
        parents_end.close()  # or a dead parent would never read as end-of-file
        expected = wl.reference(units, state)
        conn.send(None)
        while True:
            try:
                result = conn.recv()
            except EOFError:
                return
            ok = wl.matches(result, expected)
            if ok and wl.iterative:  # the chain follows the program's answers
                state = wl.next_state(state, result)
                expected = wl.reference(units, state)
            conn.send(ok)

    def check(self, result) -> bool:
        self._conn.send(result)
        return self._conn.recv()

    def close(self) -> None:
        self._conn.close()
        self._proc.join()


def _set_up(wl, units, seed: int, seconds: float):
    """Organize and open several times; keep the last, time them all."""
    samples = []
    org = runner = None
    while len(samples) < SETUP_MIN_REPEATS or (
            sum(samples) < SETUP_SHARE * seconds and len(samples) < SETUP_MAX_REPEATS):
        _close(runner)
        org = runner = None  # free the previous copy before building the next
        t0 = time.perf_counter()
        org = wl.organize(units, seed)
        runner = wl.open(org, Plain())
        samples.append(time.perf_counter() - t0)
    return org, runner, samples


def _close(runner) -> None:
    if hasattr(runner, "shutdown"):
        runner.shutdown()


def _one_pass(wl, runner, instr: Plain, state, verifier: Verifier, pass_id: int):
    """Run and check one pass; returns ``(sample, RunResult or None)``."""
    spec = instr.spec(wl.make_spec(state))
    span = None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with instr.pass_span(pass_id) as span:
            rr = runner.run(spec)
    except Exception:  # a pass that raises is a failed pass, not a crash
        traceback.print_exc(file=sys.stderr)
        return PassSample(time.perf_counter() - t0, _cpu_s() - cpu0, False, span), None
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    ok = wall <= PASS_TIMEOUT_S and verifier.check(rr.result)
    return PassSample(wall, cpu, ok, span, rr.stats), rr


def _run_passes(wl, state, lanes, seconds: float, verifier: Verifier):
    """One cold pass per lane, then warm passes round-robin for ``seconds``
    (at least one per lane).

    Returns ``(cold, warm, robj)``: a list of samples per lane each, and
    the last pass's reduction object.  Results are dropped pass by pass
    (an 8 MB rank vector each on PageRank), and each answer is checked
    between passes, outside every timed interval.
    """
    cold = [[] for _ in lanes]
    warm = [[] for _ in lanes]
    elapsed = 0.0
    robj = None
    n = 0
    while n < 2 * len(lanes) or elapsed < seconds:
        lane = n % len(lanes)
        runner, instr = lanes[lane]
        sample, rr = _one_pass(wl, runner, instr, state, verifier, n)
        if n < len(lanes):
            cold[lane].append(sample)
        else:
            warm[lane].append(sample)
            elapsed += sample.wall_s
        if rr is not None:
            robj = rr.robj
        if sample.ok and wl.iterative:
            state = wl.next_state(state, rr.result)
        n += 1
    return cold, warm, robj


def _latency_metrics(lat_s: list[float], total_wall_s: float, nbytes_done: float,
                     cpu_s: float) -> dict[str, float]:
    """The end-to-end metrics every workload reports from its job samples."""
    return {
        "pass_s": pct(lat_s, 50),
        "pass_tail_s": pct(lat_s, 75),
        "agg_MBps": nbytes_done / MB / total_wall_s,
        "cpu_s_per_GB": cpu_s / (nbytes_done / GB),
        "peak_rss_mb": _peak_rss_mb(),
        "jobs_per_s": len(lat_s) / total_wall_s,
        "job_p50_ms": 1e3 * pct(lat_s, 50),
    }


# -- untraced: end-to-end ------------------------------------------------------


def measure(wl, seed: int, seconds: float) -> Record:
    t0 = time.perf_counter()
    units, state = wl.generate(seed)
    gen_s = time.perf_counter() - t0
    if isinstance(wl, ServiceMixed):
        return _measure_service(wl, seed, seconds, gen_s)
    verifier = Verifier(wl, units, state)
    try:
        org, runner, setup = _set_up(wl, units, seed, seconds)
        # The passes read the stores, not the arrays they were organized from.
        del units
        (cold,), (warm,), _ = _run_passes(wl, state, [(runner, Plain())], seconds, verifier)
        good = [s for s in warm if s.ok]
        if not good:
            raise RuntimeError(f"{wl.name}: no warm pass succeeded")
        metrics = _latency_metrics(
            [s.wall_s for s in good], sum(s.wall_s for s in warm),
            org.index.nbytes * len(good), sum(s.cpu_s for s in warm),
        )
    finally:
        verifier.close()  # only now may the helper enter RUSAGE_CHILDREN
    metrics["setup_s"] = statistics.median(setup)
    samples = cold + warm
    return Record(metrics, len(samples), sum(not s.ok for s in samples), {
        "n_warm": len(warm), "gen_s": gen_s, "cold_pass_s": cold[0].wall_s,
        "setup_samples_s": setup, "pass_samples_s": [s.wall_s for s in warm],
    })


def _measure_service(wl: ServiceMixed, seed: int, seconds: float, gen_s: float) -> Record:
    org, service, setup = _set_up(wl, None, seed, seconds)
    try:
        warmup, _ = wl.drive(service, org, Plain(), SERVICE_WARMUP_S)
        cpu0 = _cpu_s()
        samples, makespan = wl.drive(service, org, Plain(), seconds)
        cpu = _cpu_s() - cpu0
    finally:
        service.shutdown()
    good = [s for s in samples if s.ok]
    if not good:
        raise RuntimeError(f"{wl.name}: no job succeeded")
    metrics = _latency_metrics(
        [s.latency_s for s in good], makespan, sum(s.nbytes for s in good), cpu)
    metrics["setup_s"] = statistics.median(setup)
    everything = warmup + samples
    return Record(metrics, len(everything), sum(not s.ok for s in everything), {
        "n_warm": len(samples), "gen_s": gen_s, "setup_samples_s": setup,
        "makespan_s": makespan,
    })


# -- traced: per-layer ---------------------------------------------------------


def trace(wl, seed: int, seconds: float) -> tuple[Record, Tracer]:
    t0 = time.perf_counter()
    units, state = wl.generate(seed)
    gen_s = time.perf_counter() - t0
    tracer = Tracer()
    org = wl.organize(units, seed)
    live = _trace_service if isinstance(wl, ServiceMixed) else _trace_batch
    out, attempted, failed = live(wl, org, units, state, tracer, seconds * TRACE_LIVE_SHARE)
    index = org.index["kmeans"] if isinstance(org.index, dict) else org.index
    out.update(probes.run_probes(
        stores=org.stores, index=index, units=units, fmt=index.fmt,
        spec=wl.make_spec(state), codec=wl.codec, engine=wl.engine, batch=wl.batch_size,
    ))
    direct = out.pop("_fold_direct_ns_per_byte")
    out["core.fold_inflation"] = out["core.fold_live_ns_per_byte"] / direct
    out["data.organize_MBps"] = org.nbytes / MB / org.steps["organize"]
    out["data.distribute_MBps"] = org.nbytes / MB / org.steps["distribute"]
    out["suite.gen_s"] = gen_s
    return Record(out, attempted, failed, {"n_spans": len(tracer.spans)}), tracer


def _overhead_pct(traced: list[float], plain: list[float]) -> float:
    return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)


def _trace_batch(wl: BatchWorkload, org, units, state, tracer: Tracer, live_s: float):
    lanes = [(wl.open(org, Plain()), Plain()), (wl.open(org, Traced(tracer)), Traced(tracer))]
    verifier = Verifier(wl, units, state)
    try:
        cold, warm, robj = _run_passes(wl, state, lanes, live_s, verifier)
    finally:
        verifier.close()
    plain, traced = ([s for s in lane if s.ok] for lane in warm)
    if not plain or not traced:
        raise RuntimeError(f"{wl.name}: no traced warm pass succeeded")
    walls = [s.wall_s for s in traced]
    out = layer_metrics(
        tracer, [s.span for s in traced], [s.stats for s in traced], walls, wl.workers)
    out["core.robj_nbytes"] = serialized_nbytes(robj)
    out["bursting.cold_pass_s"] = cold[0][0].wall_s
    out["suite.trace_overhead_pct"] = _overhead_pct(walls, [s.wall_s for s in plain])
    out.update(dict.fromkeys(SERVICE_ONLY, 0.0))  # no service on a batch workload
    samples = [s for lane in cold + warm for s in lane]
    return out, len(samples), sum(not s.ok for s in samples)


def _fair_share(samples) -> float:
    """Chunks served analytics / ingest while both tenants still held work."""
    done = {"analytics": [], "ingest": []}
    for s in samples:
        done[s.tenant].extend(s.handle.chunk_done_times())
    if not all(done.values()):
        return 0.0
    t_cut = min(max(ts) for ts in done.values())
    served = {t: sum(1 for x in ts if x <= t_cut) for t, ts in done.items()}
    return served["analytics"] / max(1, served["ingest"])


def _trace_service(wl: ServiceMixed, org, _units, _state, tracer: Tracer, live_s: float):
    windows = {}
    shutdown_ms = 0.0
    for name, instr in (("plain", Plain()), ("traced", Traced(tracer))):
        service = wl.open(org, instr)
        try:
            wl.drive(service, org, instr, SERVICE_WARMUP_S)
            with instr.pass_span(0) as window:
                windows[name] = wl.drive(service, org, instr, live_s / 2)[0]
        finally:
            t0 = time.perf_counter()
            service.shutdown()
            shutdown_ms = 1e3 * (time.perf_counter() - t0)
    plain, traced = ([s for s in windows[k] if s.ok] for k in ("plain", "traced"))
    if not plain or not traced:
        raise RuntimeError(f"{wl.name}: no traced job succeeded")
    stats = [s.handle.result().stats for s in traced]
    lat = [s.latency_s for s in traced]
    out = layer_metrics(tracer, [window], stats, lat, wl.workers)
    out["core.robj_nbytes"] = serialized_nbytes(traced[0].handle.result().robj)
    out["bursting.cold_pass_s"] = 0.0  # the warm-up window absorbs the cold start
    out["suite.trace_overhead_pct"] = _overhead_pct(lat, [s.latency_s for s in plain])
    out["service.job_p95_ms"] = 1e3 * pct([s.latency_s for s in plain], 95)  # untraced window
    out["service.submit_us"] = 1e6 * statistics.median(s.submit_s for s in traced)
    out["service.fair_share_ratio"] = _fair_share(traced)
    out["service.shutdown_ms"] = shutdown_ms
    for tenant, key in (("analytics", "heavy"), ("ingest", "light")):
        out[f"service.{key}_tenant_p50_ms"] = 1e3 * pct(
            [s.latency_s for s in traced if s.tenant == tenant], 50)
    samples = windows["plain"] + windows["traced"]
    return out, len(samples), sum(not s.ok for s in samples)
