"""Run the whole suite: every workload, untraced runs then one traced run.

    PYTHONPATH=src python -m benchmarks.suite --seed S [--workload W] [--quick]

Each (workload, mode, run) is a fresh ``run.py`` child, one at a time, in
the host's own environment (BLAS/OMP thread settings are stamped, never
set).  Prints every metric by name with its unit and writes the result
file that ``compare.py`` reads (default
``benchmarks/suite/results/BENCH_e2e.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: --quick: a tenth of every input, one-second windows (the suite's own test).
QUICK = {"scale": 0.1, "seconds": 1.0}


def host_stamp() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "load1_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
        "git_sha": sha,
    }


def run_child(workload: str, seed: int, seconds: float, trace: int, scale: float,
              trace_out: str | None) -> dict:
    """One ``run.py`` child; returns its result merged with its detail line.

    A child that hangs past the contract's 180 s or exits non-zero is one
    failed attempt without metrics, not the end of the suite.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", str(scale)]
    if trace and trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    except subprocess.TimeoutExpired:
        error = "timeout after 180 s"
    else:
        error = f"exit {proc.returncode}" if proc.returncode else None
        if error:
            sys.stderr.write(proc.stderr)
    if error:
        print(f"!! {workload} (trace={trace}, seed={seed}): {error}; counted as failed")
        return {"workload": workload, "seed": seed, "trace": trace, "error": error,
                "correct": False, "attempted": 1, "failed": 1, "metrics": None}
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-1])
    record.update(json.loads(lines[-2].removeprefix("#detail ")))
    record["metrics"] = {k: v["value"] for k, v in record["metrics"].items()}
    return record


def _print_table(title: str, declared: list[dict], values: dict[str, float]) -> None:
    width = max(len(m["name"]) for m in declared)
    print(f"\n{title}")
    for m in declared:
        print(f"{m['name']:<{width}}  {values[m['name']]:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", action="append", choices=names,
                    help="run only this workload (repeatable)")
    ap.add_argument("--quick", action="store_true", help="small inputs, 1 s windows")
    ap.add_argument("--runs", type=int, default=3,
                    help="untraced runs per workload, seeds S, S+1, ...")
    ap.add_argument("--trace-out", help="directory for Chrome trace-event JSON")
    ap.add_argument("--out", default=str(HERE / "results" / "BENCH_e2e.json"))
    args = ap.parse_args(argv)

    scale = QUICK["scale"] if args.quick else 1.0
    seconds = QUICK["seconds"] if args.quick else float(spec["run_seconds"])
    runs = 1 if args.quick else args.runs
    host = host_stamp()
    result = {
        "schema_version": 1, "bench": "e2e", "profile": "quick" if args.quick else "full",
        "seed": args.seed, "seconds": seconds, "scale": scale, "host": host,
        "workloads": {},
    }
    failed = 0
    for name in args.workload or names:
        untraced = [
            run_child(name, args.seed + i, seconds, 0, scale, None) for i in range(runs)
        ]
        measured = [r for r in untraced if r["metrics"]]
        workers = measured[0]["workers"] if measured else None
        entry = {
            "workers": workers,
            # More workers than cores: wall-clock numbers measure time-slicing.
            "oversubscribed": bool(measured) and host["nproc"] < workers,
            "runs": untraced,
        }
        attempted = sum(r["attempted"] for r in untraced)
        n_failed = sum(r["failed"] for r in untraced)
        if measured:
            medians = {
                m["name"]: statistics.median(r["metrics"][m["name"]] for r in measured)
                for m in spec["end_to_end"]
            }
            _print_table(
                f"== {name}: end-to-end, median of {len(measured)} untraced run(s), "
                f"fail_ratio {n_failed}/{attempted}"
                + (" [OVERSUBSCRIBED: wall-clock rows not comparable]"
                   if entry["oversubscribed"] else ""),
                spec["end_to_end"], medians)
        traced = run_child(name, args.seed, seconds, 1, scale, args.trace_out)
        entry["traced"] = traced
        n_failed += traced["failed"]
        if traced["metrics"]:
            _print_table(f"== {name}: per-layer, traced run (never used for the "
                         "end-to-end rows)", spec["per_layer"], traced["metrics"])
        failed += n_failed
        result["workloads"][name] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
