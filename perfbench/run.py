"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``record-j1``, ``record-j2-log``, ``replay-j2-log``,
``serve-burst`` (see ``README.md`` for why each exists), or ``all`` to
run the four in turn from this one process. With
``--trace 0`` the result holds the end-to-end metrics, measured with no
tracing; with ``--trace 1`` it holds the per-layer metrics, and the
layer ledger is printed above it. The last line of standard output is
always the result; the exit code is non-zero when any op produced a
wrong output other than the documented known defect.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "guest_mips": "MIPS",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_overhead_pct": "%",
    "log_bytes_per_kinstr": "B/kinstr",
}


def _child_env(workdir: Path) -> dict:
    """The environment every op runs in: this checkout's ``src``, no knobs."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    return env


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its metrics, return its result object."""
    from perfbench import layers, stats, workloads

    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = _child_env(workdir)
    os.environ["TMPDIR"] = str(workdir)
    try:
        result = workloads.WORKLOADS[name](seed, workdir, env).run(seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    ops = result.ops
    attempted, failed, unexpected = workloads.tally(ops)
    for op in ops:
        if op.failure is not None:
            kind = "known defect" if op.known else "FAILED"
            print(f"{kind}: {op.input}: {op.failure}")

    if trace:
        traced = [op for op in ops if op.traced]
        untraced = [op for op in ops if not op.traced]
        ledgers = [op.ledger for op in traced if op.ledger is not None]
        for line in layers.ledger_lines(name, ledgers):
            print(line)
        values = layers.layer_metrics(ledgers)
        for metric in layers.SERVICE_METRICS:
            values[metric] = result.extra_layers.get(metric, 0.0)
        values["trace.overhead_s"] = (
            stats.median([op.wall for op in traced])
            - stats.median([op.wall for op in untraced])
            if traced and untraced else 0.0
        )
        units = layers.PER_LAYER_UNITS
    else:
        walls = [op.wall for op in ops]
        tail = stats.tail_percentile(workloads.MIN_OPS[name])
        values = {
            "op_p50_s": stats.median(walls),
            "op_tail_s": stats.percentile(walls, tail),
            "guest_mips": sum(op.instructions for op in ops) / result.run_wall / 1e6,
            "setup_s": result.setup_s,
            "peak_rss_mb": workloads.peak_rss_mb(),
            "sim_overhead_pct": result.sim_overhead_pct,
            "log_bytes_per_kinstr": result.log_bytes_per_kinstr,
        }
        print(f"{name}: {len(ops)} ops in {result.run_wall:.2f} s, "
              f"op_tail_s is p{tail} ({stats.beyond_count(walls, tail)} "
              f"samples beyond it)")
        print("sim_overhead_pct and log_bytes_per_kinstr are simulated over "
              "this mix, which is unvalidated: the paper's 15%/28% anchors "
              "apply to the fig5/fig6 suite only")
        units = END_TO_END_UNITS
    metrics = {metric: _metric(values[metric], unit) for metric, unit in units.items()}
    for metric, entry in metrics.items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for the four in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(SRC))
    from perfbench import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{list(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]

    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(f"{name}: {json.dumps(result)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
