"""Repository benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dyn-cold --seed 1 --seconds 10 --trace 0

Workloads: ``dyn-cold``, ``dyn-warm``, ``static-opt``, ``svc-lfoc`` (see
``BENCHMARK.json`` and ``perfbench/README.md``).  The run

1. computes the seed's reference digest with an oracle path of the
   program, in a fresh process (and, for ``dyn-warm``, saves the
   warm-start tables);
2. repeats the workload in fresh processes (``rep.py``) until
   ``--seconds`` have passed and enough passes or drains were measured;
3. checks every pass's digest against the oracle's — and, on the default
   seed, both against the digest recorded in ``perfbench/expected.json``;
   a pass that differs counts all of its operations as failed;
4. prints, as its last line, ``{"correct", "attempted", "failed",
   "metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
   split with ``--trace 1``.

With ``--trace 1`` untraced and traced passes alternate; the per-layer
numbers come from the traced ones, and ``trace.overhead_s`` is the median
traced minus the median untraced pass time.  End-to-end metrics are only
ever taken from untraced passes.  Every time is scaled to a reference
host speed by the ticker in ``calibrate.py``; the human-readable summary
on standard error also gives the times as measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from calibrate import REFERENCE_TICK_S

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = HERE / "_work"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("dyn-cold", "dyn-warm", "static-opt", "svc-lfoc")
#: Untraced passes a run measures at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Drains ``svc-lfoc`` measures at least: the 99th percentile then has at
#: least ten drains beyond it.
MIN_DRAINS = 1000
#: Every run must end within this many seconds (prep included).
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: What each end-to-end metric is called on each kind of workload.
ALIASES = {
    "study": {
        "throughput_per_s": "rows_per_s (study rows per second)",
        "latency_p50_ms": "pass_p50_ms (one whole study pass)",
        "latency_p99_ms": "pass_p99_ms (nearest rank: the slowest of under 100 passes)",
    },
    "service": {
        "throughput_per_s": "samples_per_s (per server-busy second)",
        "latency_p50_ms": "decide_p50_ms (one drain)",
        "latency_p99_ms": "decide_p99_ms (one drain)",
    },
}


class RepFailed(RuntimeError):
    pass


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spawn(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``rep.py`` with ``args`` in a fresh interpreter; its last JSON line."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), *args],
        cwd=str(REPO),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(
            f"rep.py {' '.join(args[:3])} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def summarise(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """End-to-end metrics over untraced passes (times at the reference speed)."""
    latencies = [s for r in records for s in r["latencies_s"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "throughput_per_s": statistics.median(r["work"] / r["busy_s"] for r in records),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p99_ms": 1000.0 * percentile(latencies, 99.0),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def layer_summary(
    untraced: List[Dict[str, Any]], traced: List[Dict[str, Any]]
) -> Dict[str, float]:
    """Per-layer metrics: medians over traced passes."""
    from layers import metric_units

    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    untraced_busy = statistics.median(r["busy_s"] for r in untraced)
    values["trace.overhead_s"] = statistics.median(r["busy_s"] for r in traced) - untraced_busy
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / untraced_busy
    values["bench.calibration_s"] = statistics.median(r["tick_s"] for r in untraced + traced)
    return {name: values[name] for name in metric_units()}


def gate(record: Dict[str, Any], oracle: str) -> int:
    """Operations of a pass to count as failed because its outputs are wrong.

    A pass whose digest differs from the oracle's has no operation that
    can be trusted: every one it did not already count as failed is.
    """
    if record["digest"] == oracle:
        return 0
    return record["attempted"] - record["failed"]


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED, "r", encoding="utf-8") as handle:
        return json.load(handle)


def measure(args: argparse.Namespace) -> int:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    kind = "service" if args.workload == "svc-lfoc" else "study"
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--workdir", str(workdir)]
    trace_out = WORK / f"last-trace-{args.workload}.jsonl"
    correct = True
    problems: List[str] = []
    try:
        prep = spawn(["prep", *common], deadline)
        if "error" in prep:
            raise RepFailed(f"prep: {prep['error']}")
        # Passes must match the oracle and, on the default seed, the digest
        # recorded in expected.json as well.
        reference = prep["digest"]
        expected = load_expected()
        if args.seed == expected["seed"]:
            reference = expected["digests"][args.workload]
            if prep["digest"] != reference:
                correct = False
                problems.append(
                    f"oracle digest {prep['digest'][:16]} differs from the recorded "
                    f"{reference[:16]} for the default seed"
                )

        untraced: List[Dict[str, Any]] = []
        traced: List[Dict[str, Any]] = []
        attempted = failed = 0
        measure_start = time.monotonic()

        def enough() -> bool:
            if time.monotonic() - measure_start < args.seconds:
                return False
            if len(untraced) < MIN_PASSES or (args.trace and not traced):
                return False
            if kind == "service":
                return sum(len(r["latencies_s"]) for r in untraced) >= MIN_DRAINS
            return True

        while not enough():
            if time.monotonic() > deadline - 5.0:
                correct = False
                problems.append("ran out of time before measuring enough passes")
                break
            want_trace = bool(args.trace) and len(traced) < len(untraced)
            pass_args = ["pass", *common, "--spawned", repr(time.monotonic())]
            if want_trace:
                pass_args += ["--traced", "--trace-out", str(trace_out)]
            try:
                record = spawn(pass_args, deadline)
            except (RepFailed, subprocess.TimeoutExpired) as exc:
                correct = False
                problems.append(str(exc))
                attempted += prep["attempted"]
                failed += prep["attempted"]
                continue
            attempted += record["attempted"]
            failed += record["failed"] + gate(record, reference)
            if record["digest"] != reference:
                correct = False
                problems.append(
                    f"pass digest {record['digest'][:16]} differs from the reference "
                    f"{reference[:16]}"
                )
            (traced if want_trace else untraced).append(record)
    except (RepFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if failed:
        correct = False
    if not untraced or (args.trace and not traced):
        print("perfbench: too few passes completed; " + "; ".join(problems), file=sys.stderr)
        return 1

    end_to_end = summarise(untraced)
    if args.trace:
        from layers import metric_units

        layer_values = layer_summary(untraced, traced)
        metrics = {
            name: {"value": layer_values[name], "unit": unit}
            for name, unit in metric_units().items()
        }
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    summary = [
        f"perfbench {args.workload} seed={args.seed}: {len(untraced)} untraced"
        f" + {len(traced)} traced passes,"
        f" {sum(len(r['latencies_s']) for r in untraced)} timed operations,"
        f" correct={correct}, fail_ratio={failed / max(attempted, 1):.4f}"
        f" ({failed}/{attempted})"
    ]
    for name, value in end_to_end.items():
        alias = ALIASES[kind].get(name, "")
        summary.append(f"  {name:<18} {value:14.6g} {END_TO_END_UNITS[name]:<4} {alias}")
    tick = statistics.median(r["tick_s"] for r in untraced)
    summary.append(
        f"  times above are at the reference speed; the host ran at"
        f" {REFERENCE_TICK_S / tick:.2f} of it (median tick {1e6 * tick:.0f} us);"
        f" as measured, the median pass took"
        f" {statistics.median(r['wall_busy_s'] for r in untraced):.4f} s"
        f" and set-up {statistics.median(r['wall_setup_s'] for r in untraced):.4f} s"
    )
    if args.trace:
        summary.append(
            f"  tracing overhead: {layer_values['trace.overhead_s']:.4f} s per pass"
            f" ({100 * layer_values['trace.overhead_ratio']:.1f}%)"
        )
    summary.extend(f"  problem: {p}" for p in problems)
    print("\n".join(summary), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {REPO / 'src' / 'repro'}; run from a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.seed is None:
        args.seed = load_expected()["seed"]
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
