"""Compare two result files of the suite, metric by metric.

    python benchmarks/suite/compare.py old.json new.json

One row per (workload, end-to-end metric): each side's median and
quartiles over its runs, the metric's direction and bound from
``BENCHMARK.json``, the ratio new/old with its base, and a verdict:

* ``worse`` / ``better`` -- the median moved against / with the metric's
  direction by more than the bound;
* ``same`` -- it moved by less;
* ``unresolved`` -- the run-to-run spread (quartile distance over median,
  the wider side) exceeds the bound, so a move of that size cannot be
  told from noise -- unless every run of one side beats every run of the
  other, which decides it;
* ``refused`` -- the workload ran with more workers than cores on either
  side, so its wall-clock numbers measure time-slicing and are not judged.

Every end-to-end metric is reported on every workload, so some rows only
repeat another in a different unit (``is_alias``); those are not printed.
A run that died or hung has no metrics and counts in the fail ratio only.

Exits non-zero on any ``worse`` row, on a higher fail ratio, or when a
per-layer count that must repeat exactly for a seed differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Metrics that stay meaningful when workers outnumber cores.
NOT_WALL_CLOCK = {"peak_rss_mb", "cpu_s_per_GB"}
#: Workloads without hedging or a time-boxed job count: for a fixed seed
#: their per-layer counts below must repeat exactly.
EXACT_WORKLOADS = ("kmeans-local", "knn-hybrid-wan", "pagerank-process-iter")
EXACT_COUNTS = (
    "storage.get_n", "storage.get_bytes", "storage.codecs.wire_ratio",
    "core.n_fold_calls", "core.robj_nbytes", "runtime.process_engine.shm_bytes",
)

__all__ = ["judge", "compare", "is_alias", "main"]


def is_alias(workload: str, metric: str) -> bool:
    """A row that can only repeat another row's verdict.

    On a batch workload a pass is the job: ``job_p50_ms`` is ``pass_s`` x
    1000 and ``jobs_per_s`` is ``agg_MBps`` / dataset size.  On the
    service a job is the pass, so ``pass_s`` is ``job_p50_ms`` / 1000.
    """
    if workload == "service-mixed":
        return metric == "pass_s"
    return metric in ("jobs_per_s", "job_p50_ms")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(old: list[float], new: list[float], better: str, bound: float) -> dict:
    """Verdict for one metric from each side's per-run values."""
    o1, o_med, o3 = _quartiles(old)
    n1, n_med, n3 = _quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (n_med - o_med) / o_med
    spread = max((o3 - o1) / o_med, (n3 - n1) / n_med)
    if better == "lower":
        new_wins = max(new) < min(old)
        old_wins = max(old) < min(new)
    else:
        new_wins = min(new) > max(old)
        old_wins = min(old) > max(new)
    if spread > bound and not (new_wins or old_wins):
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif worse_by < -bound:
        verdict = "better"
    else:
        verdict = "same"
    return {
        "old": (o1, o_med, o3), "new": (n1, n_med, n3), "ratio": n_med / o_med,
        "worse_by": worse_by, "spread": spread, "verdict": verdict,
    }


def _fail_ratio(entry: dict) -> tuple[int, int]:
    runs = entry["runs"]
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def _measured(entry: dict, metric: str) -> list[float]:
    return [r["metrics"][metric] for r in entry["runs"] if r["metrics"]]


def compare(old: dict, new: dict, spec: dict) -> tuple[list[dict], list[str]]:
    """Rows for every shared (workload, metric), and the problems found."""
    rows, problems = [], []
    for name, o_entry in old["workloads"].items():
        n_entry = new["workloads"].get(name)
        if n_entry is None:
            continue
        refused = o_entry["oversubscribed"] or n_entry["oversubscribed"]
        for m in spec["end_to_end"]:
            values = [_measured(entry, m["name"]) for entry in (o_entry, n_entry)]
            if is_alias(name, m["name"]) or not all(values):
                continue
            row = judge(*values, m["better"], m["bound"])
            row.update(workload=name, metric=m["name"], unit=m["unit"],
                       better=m["better"], bound=m["bound"])
            if refused and m["name"] not in NOT_WALL_CLOCK:
                row["verdict"] = "refused"
            if row["verdict"] == "worse":
                problems.append(f"{name} {m['name']} worse by {row['worse_by']:.1%} "
                                f"(bound {m['bound']:.0%})")
            rows.append(row)
        (of, oa), (nf, na) = _fail_ratio(o_entry), _fail_ratio(n_entry)
        if nf / na > of / oa:
            problems.append(f"{name} fail ratio rose: {of}/{oa} -> {nf}/{na}")
        rows.append({"workload": name, "metric": "fail_ratio", "fail": (of, oa, nf, na)})
    return rows, problems


def _exact_counts(old: dict, new: dict) -> tuple[list[str], list[str]]:
    """Printed lines for the counts that must repeat, and those that do not."""
    lines, problems = [], []
    for name in EXACT_WORKLOADS:
        o_tr = old["workloads"].get(name, {}).get("traced")
        n_tr = new["workloads"].get(name, {}).get("traced")
        if not o_tr or not n_tr or o_tr["seed"] != n_tr["seed"]:
            continue
        if not o_tr["metrics"] or not n_tr["metrics"]:
            continue
        for metric in EXACT_COUNTS:
            a, b = o_tr["metrics"][metric], n_tr["metrics"][metric]
            if a == b == 0:
                # The wrappers saw nothing (GETs behind the process engine's
                # fork): 0 == 0 would be a check of nothing.
                continue
            lines.append(f"{name:<24} {metric:<34} {a:>14.10g} {b:>14.10g}  "
                         + ("identical" if a == b else "DIFFERS"))
            if a != b:
                problems.append(f"{name} {metric} differs for seed {o_tr['seed']}: "
                                f"{a:.10g} -> {b:.10g}")
    return lines, problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, problems = compare(old, new, spec)
    print(f"old: {argv[0]}  git {old['host']['git_sha']}  nproc {old['host']['nproc']}")
    print(f"new: {argv[1]}  git {new['host']['git_sha']}  nproc {new['host']['nproc']}")
    print(f"{'workload':<24} {'metric':<13} {'dir':<6} {'bound':>5}  "
          f"{'old q1/med/q3':>30}  {'new q1/med/q3':>30}  {'new/old':>8}  verdict")
    for r in rows:
        if r["metric"] == "fail_ratio":
            of, oa, nf, na = r["fail"]
            print(f"{r['workload']:<24} {'fail_ratio':<13} {'lower':<6} {'0':>5}  "
                  f"{f'{of}/{oa}':>30}  {f'{nf}/{na}':>30}")
            continue
        old_q = "/".join(f"{v:.4g}" for v in r["old"])
        new_q = "/".join(f"{v:.4g}" for v in r["new"])
        print(f"{r['workload']:<24} {r['metric']:<13} {r['better']:<6} "
              f"{r['bound']:>5.0%}  {old_q:>30}  {new_q:>30}  "
              f"{r['ratio']:>7.3f}x  {r['verdict']}"
              f"  (base {r['old'][1]:.4g} {r['unit']}, spread {r['spread']:.1%})")
    counts, differing = _exact_counts(old, new)
    problems += differing
    if counts:
        print("\nexact per-layer counts of the traced runs (same seed):")
        print("\n".join(counts))
    for p in problems:
        print(f"REGRESSION: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
