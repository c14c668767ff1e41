"""One repetition of one workload, in a fresh process (started by ``run.py``).

Usage::

    python3 perfbench/rep.py prep --workload NAME --seed N --workdir DIR
    python3 perfbench/rep.py pass --workload NAME --seed N --workdir DIR \
        --spawned T [--traced --trace-out FILE]

``prep`` prints the seed's oracle digest; ``pass`` runs set-up and one
measured pass and prints its measurements.  Either way the last line of
standard output is one JSON object.  A pass process runs a
:class:`calibrate.Ticker` from its first line to its last, and reports
every time both as measured (``wall_*``) and scaled to the reference
speed (``setup_s``, ``latencies_s``, ``busy_s``).  ``--spawned``
is the parent's ``time.monotonic()`` just before it started this process
(the clock is system-wide), so ``setup_s`` covers interpreter start and
imports too.
A traced pass also writes its raw spans to ``--trace-out`` as JSON lines.

A fresh process per repetition matters: the executors keep loaded
warm-start tables and derived engine vectors for the life of a process,
so a second in-process pass would skip work the first one did.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prep", "pass"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    ticker = None
    if args.mode == "pass":
        from calibrate import Ticker

        ticker = Ticker()
        ticker.start()

    import repro.experiments  # noqa: F401  (the study layer and its registries)
    import repro.service  # noqa: F401
    from layers import SETUP_SPAN, LayerProbe, metric_units
    from spans import Tracer, span_records
    from workloads import WORKLOADS, Meter

    workload = WORKLOADS[args.workload]
    if args.mode == "prep":
        print(json.dumps(workload.prep(args.seed, args.workdir)))
        return 0

    tracer = probe = None
    if args.traced:
        tracer = Tracer()
        probe = LayerProbe(tracer)
        probe.install()
        tracer.active = True
        setup_span = tracer.open(SETUP_SPAN)
    meter = Meter(tracer)
    state = workload.setup(args.seed, args.workdir, meter)
    ready = time.monotonic()
    if tracer is not None:
        tracer.close(setup_span)
        tracer.active = False
    outcome = workload.run(state, meter)
    ticker.stop()
    latencies = [ticker.scaled(begin, end) for begin, end in meter.spans]
    wall_busy = sum(end - begin for begin, end in meter.spans)
    record = {
        "setup_s": ticker.scaled(args.spawned, ready),
        "latencies_s": latencies,
        "busy_s": sum(latencies),
        "wall_setup_s": ready - args.spawned,
        "wall_busy_s": wall_busy,
        "tick_s": statistics.median(ticker.durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **outcome,
    }
    if probe is not None:
        # Span times are wall times; scale them as the whole pass scaled.
        scale = record["busy_s"] / wall_busy
        units = metric_units()
        record["layers"] = {
            name: value * scale if units[name] == "s" else value
            for name, value in probe.metrics().items()
        }
        tracer.restore()
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                for span in span_records(tracer.spans):
                    handle.write(json.dumps(span) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
