"""Determinism self-check of the read workloads.

Runs ``uni-read`` and ``cal-read`` twice on each of two seeds, untraced
and traced, in fresh processes.  ``run.py`` records each run's counters
under ``.bench_state/`` and fails a run whose counters differ from an
earlier run of the same code and seed, so every pair must pass::

    python3 perfbench/determinism.py --seeds 1 2
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    args = parser.parse_args()
    failures = 0
    for workload in ("uni-read", "cal-read"):
        for trace in (0, 1):
            counters = {}
            for seed in args.seeds:
                for attempt in (1, 2):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace)],
                        capture_output=True, text=True, timeout=600,
                    )
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    counters[seed] = {
                        k: v["value"] for k, v in result["metrics"].items()
                        if k in ("dist_per_query", "faults_per_query",
                                 "metric.distances_per_op", "storage.faults_per_op")
                    }
                    status = "ok" if proc.returncode == 0 else "FAILED"
                    failures += proc.returncode != 0
                    print(f"{workload} trace={trace} seed={seed} run {attempt}: "
                          f"{status} {counters[seed]}")
                    if proc.returncode:
                        print("\n".join(line for line in proc.stdout.splitlines()
                                        if line.startswith("FAILED")))
    print("determinism: " + ("ok" if failures == 0 else f"{failures} runs failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
