"""Self-test of the benchmark's tracing.

Runs one traced pass of every workload twice, each in a fresh process, and
checks that both runs report exactly the same per-layer counts (every
metric that is not a time) and that both are correct.  A traced run itself
fails when a traced operation's exit code or output digest differs from the
same operation run untraced, so a pass here also shows that tracing leaves
verdicts and certificates unchanged.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads
from tracing import METRICS

BENCH = Path(__file__).resolve().parent
SEED = 1
COUNTS = [name for name, (unit, _) in METRICS.items()
          if unit != "s" and name != "trace.overhead_ratio"]


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n"
                         + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    failures = 0
    for workload in workloads.WORKLOADS:
        first, second = (traced_run(workload) for _ in range(2))
        diff = [name for name in COUNTS
                if first["metrics"][name] != second["metrics"][name]]
        ok = first["correct"] and second["correct"] and not diff
        failures += not ok
        print(f"{workload}: {'ok' if ok else 'FAIL'}"
              f" ({len(COUNTS)} counts compared"
              + (f"; differ: {', '.join(diff)}" if diff else "")
              + ("" if first["correct"] and second["correct"]
                 else "; a traced run was not correct") + ")")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
