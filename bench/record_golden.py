"""Record golden.json: the output digest of every operation a workload can hold.

Run from the root of a checkout, only at a commit whose certificates are
meant to be the reference (they must not change afterwards):

    python3 bench/record_golden.py

Each operation must meet the outcome known by construction; the digest is
the SHA-256 of its certificate, or of its stdout when it writes none.
Usage errors are not digested.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import GOLDEN, ROOT, execute, import_program, write_inputs


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    cli = import_program()
    golden, bad = {}, 0
    cwd = os.getcwd()
    workdir = Path(tempfile.mkdtemp(prefix=".bench_run_", dir=ROOT))
    try:
        os.chdir(workdir)
        write_inputs(workdir)
        for workload in workloads.WORKLOADS:
            digests = golden[workload] = {}
            for key, op in sorted(workloads.universe(workload).items()):
                outcome = execute(cli, op, None)
                if op.expect == "usage":
                    if outcome.status != "ok":
                        print(f"{workload}: {key}: {outcome.detail}")
                    continue
                if outcome.status != "ok":
                    bad += 1
                    print(f"{workload}: {key}: {outcome.detail}",
                          file=sys.stderr)
                digests[key] = outcome.signature[1]
            print(f"{workload}: {len(digests)} digests")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print(f"{bad} operations did not meet their expected outcome",
              file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
