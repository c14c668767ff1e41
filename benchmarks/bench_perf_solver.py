"""Solver-backend performance benchmark: tabulated vs. reference scoring.

Times the exhaustive optimal-clustering search (and the branch-and-bound
variant) under both scoring backends on a fixed class-diverse workload and
writes a machine-readable ``BENCH_solver.json`` at the repository root so the
performance trajectory can be tracked across PRs.  It also times one dense
table build (``table_build_s``) and checks every (cluster mask, ways) row of
that table against the reference ``CachedObjective.cluster_pieces``, bit for
bit.  The run *fails* if the two backends disagree on the optimum or any
table row differs — speed means nothing if the answers differ.

Usage::

    python benchmarks/bench_perf_solver.py            # quick: 7 apps / 11 ways
    python benchmarks/bench_perf_solver.py --full     # 8 apps / 11 ways
    python benchmarks/bench_perf_solver.py --min-speedup 5   # also gate speed

or through pytest (explicit path, the tier-1 run does not collect bench_*)::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_solver.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_solver.json"

QUICK_APPS = [
    "lbm06",
    "libquantum06",
    "xalancbmk06",
    "soplex06",
    "omnetpp06",
    "gamess06",
    "namd06",
]
FULL_APPS = QUICK_APPS + ["sjeng06"]


def _mix(full: bool):
    from repro.apps import build_catalog
    from repro.hardware import skylake_gold_6138

    platform = skylake_gold_6138()
    catalog = build_catalog(platform.llc_ways)
    names = FULL_APPS if full else QUICK_APPS
    return platform, {name: catalog[name] for name in names}


def check_table_rows(platform, profiles) -> dict:
    """Build the dense tables once (timed) and compare every row to the reference.

    A row matches when its member slowdowns, stall fractions, demand total
    and max/min member slowdown carry exactly the bits of
    ``CachedObjective.cluster_pieces`` for the same (members, ways) cluster.
    """
    import numpy as np

    from repro.optimal import CachedObjective, TabulatedObjective

    t0 = time.perf_counter()
    tables = TabulatedObjective(platform, profiles)
    build_s = time.perf_counter() - t0
    reference = CachedObjective(platform, profiles)
    apps = tables.app_order
    checked = mismatches = 0
    for mask in range(1, 1 << len(apps)):
        members = [app for j, app in enumerate(apps) if mask >> j & 1]
        for ways in range(1, tables.n_ways + 1):
            row = tables.entry(mask, ways)
            pieces = reference.cluster_pieces(members, ways)
            slowdown = np.zeros(len(apps))
            stall = np.zeros(len(apps))
            for app in members:
                slowdown[tables.app_index[app]] = pieces.cache_slowdowns[app]
                stall[tables.app_index[app]] = pieces.stall_fractions[app]
            expected = np.concatenate(
                [
                    slowdown,
                    stall,
                    [
                        pieces.demand_total_gbs,
                        max(pieces.cache_slowdowns.values()),
                        min(pieces.cache_slowdowns.values()),
                    ],
                ]
            )
            got = np.concatenate(
                [
                    tables._slowdown_rows[row],
                    tables._stall_rows[row],
                    [tables._demand_rows[row], tables._row_max[row], tables._row_min[row]],
                ]
            )
            checked += 1
            mismatches += got.tobytes() != expected.tobytes()
    return {"build_s": build_s, "rows_checked": checked, "row_mismatches": mismatches}


def run_bench(full: bool = False) -> dict:
    """Time both backends and return the comparison record."""
    from repro.optimal import branch_and_bound_clustering, optimal_clustering

    platform, profiles = _mix(full)
    rows = check_table_rows(platform, profiles)

    t0 = time.perf_counter()
    reference = optimal_clustering(platform, profiles, backend="reference")
    reference_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    tabulated = optimal_clustering(platform, profiles, backend="tabulated")
    tabulated_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    bnb_reference = branch_and_bound_clustering(
        platform, profiles, backend="reference"
    )
    bnb_reference_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    bnb_tabulated = branch_and_bound_clustering(
        platform, profiles, backend="tabulated"
    )
    bnb_tabulated_s = time.perf_counter() - t0

    def signature(result):
        return {
            "groups": [list(c.apps) for c in result.solution.clusters],
            "ways": [c.ways for c in result.solution.clusters],
            "unfairness": result.unfairness,
            "stp": result.stp,
        }

    match = (
        signature(reference) == signature(tabulated)
        and signature(bnb_reference)["unfairness"] == signature(bnb_tabulated)["unfairness"]
        and signature(bnb_reference)["stp"] == signature(bnb_tabulated)["stp"]
        and signature(reference)["unfairness"] == signature(bnb_tabulated)["unfairness"]
    )
    return {
        "benchmark": "optimal-clustering solver backends",
        "scale": "full" if full else "quick",
        "n_apps": len(profiles),
        "llc_ways": platform.llc_ways,
        "candidates": reference.candidates_evaluated,
        "table_build_s": round(rows["build_s"], 4),
        "table_rows": {
            "checked": rows["rows_checked"],
            "mismatches": rows["row_mismatches"],
        },
        "exhaustive": {
            "reference_s": round(reference_s, 4),
            "tabulated_s": round(tabulated_s, 4),
            "speedup": round(reference_s / tabulated_s, 2),
        },
        "branch_and_bound": {
            "reference_s": round(bnb_reference_s, 4),
            "tabulated_s": round(bnb_tabulated_s, 4),
            "speedup": round(bnb_reference_s / bnb_tabulated_s, 2),
        },
        "optimum": signature(reference),
        "backends_match": match,
        "table_rows_match": rows["row_mismatches"] == 0,
    }


def _render(record: dict) -> str:
    ex = record["exhaustive"]
    bb = record["branch_and_bound"]
    lines = [
        f"solver backends on {record['n_apps']} apps / {record['llc_ways']} ways "
        f"({record['candidates']} candidates, {record['scale']} scale)",
        f"  exhaustive:      reference {ex['reference_s']:.3f}s   "
        f"tabulated {ex['tabulated_s']:.3f}s   speedup {ex['speedup']:.1f}x",
        f"  branch & bound:  reference {bb['reference_s']:.3f}s   "
        f"tabulated {bb['tabulated_s']:.3f}s   speedup {bb['speedup']:.1f}x",
        f"  table build:     {record['table_build_s']:.4f}s   rows identical to "
        f"the reference: {record['table_rows_match']} "
        f"({record['table_rows']['checked']} checked)",
        f"  optima identical: {record['backends_match']}",
    ]
    return "\n".join(lines)


def _write_results(record: dict) -> None:
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(_render(record))
    print(f"wrote {RESULT_PATH}")


def test_solver_backend_equivalence_and_speed():
    """Pytest entry point: quick-scale run, optima must match exactly."""
    record = run_bench(full=False)
    _write_results(record)
    assert record["backends_match"], "tabulated backend disagrees with reference"
    assert record["table_rows_match"], "a dense-table row differs from cluster_pieces"
    # The tabulated engine is typically >20x faster here; 5x is the criterion
    # this PR is gated on, asserted with margin for loaded CI machines.
    assert record["exhaustive"]["speedup"] >= 5.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="8-app configuration")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the exhaustive tabulated speedup reaches this factor",
    )
    args = parser.parse_args(argv)
    record = run_bench(full=args.full)
    _write_results(record)
    if not record["backends_match"]:
        print("FAIL: tabulated backend disagrees with the reference optimum")
        return 1
    if not record["table_rows_match"]:
        print(
            f"FAIL: {record['table_rows']['mismatches']} dense-table rows differ "
            "from the reference cluster_pieces"
        )
        return 1
    if args.min_speedup is not None and record["exhaustive"]["speedup"] < args.min_speedup:
        print(f"FAIL: speedup below {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
