"""The layer ledger: per-layer metrics of one traced run.

Three sources, kept apart by name in the README glossary:

* **W** -- spans the suite's wrappers recorded during live traced passes;
* **R** -- counters read from the program's public result objects
  (``RunStats``), i.e. *program-reported*;
* **D** -- direct-drive probes (``probes.py``), merged in by the caller.

A "pass" here is one ambient ``suite.pass`` span: a batch pass, or the
whole closed-loop window of the service workload.
"""

from __future__ import annotations

import statistics

import numpy as np

from benchmarks.suite.spans import Span, Tracer, union_s

__all__ = ["layer_metrics", "pct"]


def pct(samples, q: float) -> float:
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _slowest(stats):
    """The cluster whose per-worker stacked bar is tallest (the paper's bar)."""
    return max(stats.clusters.values(), key=lambda c: c.total_s)


def layer_metrics(
    tracer: Tracer, passes: list[Span], stats: list, walls: list[float], workers: int,
) -> dict[str, float]:
    """W and R metrics over the traced warm ``passes``.

    ``stats`` are the ``RunStats`` of the traced runs and ``walls`` the
    wall seen from outside for each of them (pass wall, or job latency).
    """
    per_pass: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        per_pass.setdefault(name, []).append(value)

    fold_s = fold_bytes = 0.0
    get_durs: list[float] = []
    for p in passes:
        spans = [s for s in tracer.spans if s.pass_id == p.pass_id and s is not p]
        gets = [s for s in spans if s.name == "storage.get"]
        folds = [s for s in spans if s.name == "core.fold"]
        sched = [s for s in spans if s.name.startswith("runtime.scheduler.")]
        get_union = union_s((s.start, s.end) for s in gets)
        busy = sum(s.dur for s in gets)
        get_durs.extend(s.dur for s in gets)
        fold_s += sum(s.dur for s in folds)
        fold_bytes += sum(s.args.get("nbytes", 0) for s in folds)
        add("storage.get_n", len(gets))
        add("storage.get_bytes", sum(s.args.get("nbytes", 0) for s in gets))
        add("storage.get_busy_s", busy)
        add("storage.get_inflight_mean", _ratio(busy, get_union))
        add("core.n_fold_calls", len(folds))
        add("core.finalize_ms", 1e3 * _median(
            s.dur for s in spans if s.name == "core.finalize"))
        add("runtime.scheduler.busy_s", sum(s.dur for s in sched))
        add("runtime.fold_share", _ratio(sum(s.dur for s in folds), workers * p.dur))
        add("runtime.get_share", _ratio(get_union, p.dur))
        add("runtime.unattributed_share",
            1.0 - _ratio(union_s((s.start, s.end) for s in spans), p.dur))
    out = {name: _median(values) for name, values in per_pass.items()}
    out["storage.get_p50_ms"] = 1e3 * pct(get_durs, 50)
    out["storage.get_p95_ms"] = 1e3 * pct(get_durs, 95)
    out["core.fold_live_ns_per_byte"] = _ratio(fold_s * 1e9, fold_bytes)

    # Gets of the warm passes only: the cold pass misses by construction, and
    # counting it would make the ratio a function of how many passes ran.
    # Puts are not restricted: the cache is written on the cold pass.
    warm_ids = {p.pass_id for p in passes}
    cache_gets = [s for s in tracer.named("storage.cache.get") if s.pass_id in warm_ids]
    out["storage.cache.hit_ratio"] = _ratio(
        sum(1 for s in cache_gets if s.args.get("hit")), len(cache_gets))
    out["storage.cache.get_us"] = 1e6 * _median(s.dur for s in cache_gets)
    out["storage.cache.put_us"] = 1e6 * _median(
        s.dur for s in tracer.named("storage.cache.put"))

    # -- program-reported (R) -------------------------------------------------
    total = lambda attr: sum(getattr(s, attr) for s in stats)  # noqa: E731
    out["core.global_reduction_ms"] = 1e3 * _median(s.global_reduction_s for s in stats)
    out["storage.transfer.n_copies"] = _median(
        sum(c.n_copies for c in s.clusters.values()) for s in stats)
    out["storage.transfer.fetch_p95_ms"] = 1e3 * _median(s.fetch_p95_s for s in stats)
    out["storage.transfer.hedge_win_ratio"] = _ratio(total("hedge_wins"), total("n_hedges"))
    out["storage.transfer.wasted_byte_ratio"] = _ratio(
        total("fragments_wasted_bytes"), total("bytes_wire"))
    out["storage.transfer.n_parity_decodes"] = _median(s.n_parity_decodes for s in stats)
    out["runtime.scheduler.steal_ratio"] = _ratio(total("jobs_stolen"), total("jobs_processed"))
    slow = [_slowest(s) for s in stats]
    out["runtime.stats_processing_s"] = _median(c.processing_s for c in slow)
    out["runtime.stats_retrieval_s"] = _median(c.retrieval_s for c in slow)
    out["runtime.stats_sync_s"] = _median(c.sync_s for c in slow)
    out["runtime.stats_overlap_s"] = _median(c.overlap_s for c in slow)
    out["runtime.stats_decode_s"] = _median(
        _ratio(c.decode_s, c.n_workers) for c in slow)
    out["runtime.stats_closure"] = _median(
        _ratio(c.total_s, wall) for c, wall in zip(slow, walls))
    out["runtime.process_engine.ipc_s"] = _median(c.ipc_s for c in slow)
    out["runtime.process_engine.ser_s"] = _median(c.ser_s for c in slow)
    out["runtime.process_engine.shm_bytes"] = _median(s.shm_nbytes for s in stats)
    if not fold_bytes:
        # Wrappers do not cross fork(): on the process engine the fold is
        # only visible through the counters the children report back.
        out["core.fold_live_ns_per_byte"] = _ratio(total("fold_s") * 1e9, total("bytes_folded"))
        out["core.n_fold_calls"] = _median(s.n_fold_calls for s in stats)
        out["runtime.fold_share"] = _median(
            _ratio(s.fold_s, workers * wall) for s, wall in zip(stats, walls))
    return out
