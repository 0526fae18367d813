"""One measured run of one workload: the command in ``BENCHMARK.json``.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, a ``#detail {json}`` line
(sample counts, load) for the suite's result file, then -- as the last
line of standard output -- one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The process builds nothing
and writes nothing unless ``--trace-out`` names a directory to write, and
on every way out it has stopped and waited for each process it started.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="how long the warm phase measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every input (the --quick profile uses 0.1)")
    ap.add_argument("--trace-out", help="directory for Chrome trace-event JSON")
    return ap.parse_args(argv)


def _reap() -> None:
    """Stop every process this one started and wait until each has ended.

    The process engine starts multiprocessing's resource tracker, which
    by design outlives its parent: it exits only once it reads end-of-file
    on the parent's pipe, some time *after* the parent is gone.  So the
    pipe is closed here and the tracker waited for; workers or helpers an
    error path left behind are killed first, since a copy of that pipe in
    any of them would keep the tracker alive.
    """
    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    resource_tracker._resource_tracker._stop()  # closes the pipe, waits for the tracker


def main(argv=None) -> int:
    # A terminated run leaves through the same ``finally`` as any other.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _main(argv)
    finally:
        _reap()


def _main(argv) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.suite.measure import measure, trace
    from benchmarks.suite.spans import to_chrome
    from benchmarks.suite.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.scale)
    load1 = os.getloadavg()[0]
    if args.trace:
        record, tracer = trace(wl, args.seed, args.seconds)
        declared = spec["per_layer"]
        if args.trace_out:
            out_dir = Path(args.trace_out)
            out_dir.mkdir(parents=True, exist_ok=True)
            pid = sorted(WORKLOADS).index(wl.name) + 1
            events = to_chrome(tracer.spans, pid=pid, process_name=wl.name)
            (out_dir / f"{wl.name}.trace.json").write_text(
                json.dumps({"traceEvents": events}))
    else:
        record = measure(wl, args.seed, args.seconds)
        declared = spec["end_to_end"]

    missing = [m["name"] for m in declared if m["name"] not in record.metrics]
    if missing:
        print(f"run.py: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": float(record.metrics[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    width = max(len(name) for name in metrics)
    print(f"# {wl.name}  seed={args.seed}  trace={args.trace}  "
          f"attempted={record.attempted}  failed={record.failed}")
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:>14.6g} {m['unit']}")
    result = {
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
    }
    print("#detail " + json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "scale": args.scale, "workers": wl.workers,
        "load1_at_start": load1, **record.detail,
    }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
