"""Record the default seed's digests and the environment in ``expected.json``.

Usage (from the repository root)::

    python3 perfbench/record.py [--seed N]

Runs each workload's oracle (``rep.py prep``) on the seed in a fresh
process and rewrites ``perfbench/expected.json`` with the digests, the
seed and the environment they were recorded on.  Re-record only when a
change is meant to alter the program's outputs; a change that claims a
speed-up must leave the digests as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

from run import EXPECTED, REPO, WORK, WORKLOADS, spawn


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(REPO), capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    cpu = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit or None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    digests = {}
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=str(WORK)) as workdir:
        for name in WORKLOADS:
            common = ["--workload", name, "--seed", str(args.seed), "--workdir", workdir]
            prep = spawn(["prep", *common], deadline=time.monotonic() + 600.0)
            digests[name] = prep["digest"]
            print(f"{name}: {digests[name]}", file=sys.stderr)
    record = {}
    if EXPECTED.exists():
        record = json.loads(EXPECTED.read_text(encoding="utf-8"))
    record.update({"seed": args.seed, "digests": digests, "environment": environment()})
    EXPECTED.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
