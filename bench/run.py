"""etaprover benchmark: one closed-loop client calling the CLI in-process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus|deep|bound --seed N --seconds S
                         --trace 0|1

The client calls ``etaprover.cli.main(argv)`` with stdout and stderr
captured, one operation after another, on identity files generated from the
seed (see workloads.py).  It checks every exit code, verdict, certificate
and factorization against the outcome known by construction and against the
golden digests in golden.json.  An operation that raises, or whose output is
wrong, counts as failed; ``correct`` is false only when some output was
wrong.

``--trace 0`` runs whole blocks of operations for S seconds and reports the
end-to-end metrics.  ``--trace 1`` repeats a fixed sample of the stream,
alternating an untraced and a traced pass for S seconds, and reports the
per-layer metrics of tracing.py, their tracing overhead, and fails if the
counts or outputs differ between passes; the spans of its last traced pass
are written to .bench_spans/<workload>.jsonl.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from tracing import METRICS as LAYER_METRICS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
SPANS = ROOT / ".bench_spans"
# Set-ups before the timed loop, and again after it in an untraced run, so
# that the median set-up time spans the run rather than one moment of it.
SETUP_REPEATS = 5
# Blocks generated per run; a run that outlasts them starts over.
STREAM_BLOCKS = {"corpus": 400, "deep": 20, "bound": 40}
# Blocks in the fixed sample that a traced run repeats.
TRACE_BLOCKS = {"corpus": 4, "deep": 1, "bound": 1}
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
_EXIT = {"proved": 0, "refuted": 1, "not-applicable": 2, "bound": 0,
         "tool": 0, "factor": 0, "usage": 3}
_VERDICT = {"proved": "proved", "refuted": "refuted", "bound": "not-verified"}


@dataclass
class Outcome:
    latency: float
    status: str          # "ok", "error" (raised) or "mismatch" (wrong output)
    detail: str
    signature: tuple     # (exit code, digest): equal for equal outputs


def import_program():
    """(Re-)import etaprover from the checkout's src/ and return its CLI."""
    for name in [m for m in sys.modules if m.split(".")[0] == "etaprover"]:
        del sys.modules[name]
    cli = importlib.import_module("etaprover.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported etaprover from {cli.__file__}")
    return cli


def _problem(op: workloads.Op, rc, out: str, cert) -> str:
    """What is wrong with an operation's result, or '' if it is as expected."""
    if rc != _EXIT[op.expect]:
        return f"exit {rc}, expected {_EXIT[op.expect]}"
    if op.expect in _VERDICT:
        if cert is None:
            return "no certificate written"
        data = json.loads(cert)
        if data["verdict"] != _VERDICT[op.expect]:
            return f"verdict {data['verdict']}"
        if op.expect == "refuted" and \
                Fraction(data["failure"][0]) > data["required_depth"]:
            return f"failure at q^{data['failure'][0]} beyond the bound"
    first_line = out.split("\n", 1)[0]
    if op.expect == "factor" and first_line != op.product:
        return f"factored as {first_line}"
    return ""


def execute(cli, op: workloads.Op, golden) -> Outcome:
    """Run one operation in the current directory and check its output.

    ``golden`` maps operation keys to digests; None skips the digest check.
    """
    with contextlib.suppress(FileNotFoundError):
        os.unlink(workloads.CERT)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except Exception as exc:  # a traceback the user would see
        return Outcome(perf_counter() - start, "error",
                       f"{type(exc).__name__}: {exc}", (None, None))
    latency = perf_counter() - start
    try:
        with open(workloads.CERT, "rb") as fh:
            cert = fh.read()
    except FileNotFoundError:
        cert = None
    stdout = out.getvalue()
    problem = _problem(op, rc, stdout, cert)
    digest = None
    if op.expect != "usage":
        digest = hashlib.sha256(
            cert if cert is not None else stdout.encode()).hexdigest()
        if golden is not None and golden.get(op.key) != digest:
            problem = problem or "digest differs from golden.json"
    return Outcome(latency, "mismatch" if problem else "ok", problem,
                   (rc, digest))


def write_inputs(directory: Path) -> None:
    for name, text in workloads.input_files().items():
        (directory / name).write_text(text, encoding="utf-8")


class Tally:
    """Attempted, failed and wrong operations, with the first few problems."""

    def __init__(self):
        self.attempted = self.errors = self.mismatches = 0
        self.notes: list[str] = []

    def add(self, op: workloads.Op, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.status == "ok":
            return
        if outcome.status == "error":
            self.errors += 1
        else:
            self.mismatches += 1
        if len(self.notes) < 5:
            self.notes.append(f"{outcome.status}: {op.key}: {outcome.detail}")

    def flag(self, note: str) -> None:
        """A wrong result that is not one operation's own output."""
        self.mismatches += 1
        if len(self.notes) < 5:
            self.notes.append(f"mismatch: {note}")

    @property
    def failed(self) -> int:
        return self.errors + self.mismatches


def setup(workload: str, seed: int, workdir: Path, tally: Tally):
    """Import, generate the stream, write inputs and warm up; return timing."""
    start = perf_counter()
    cli = import_program()
    stream = workloads.blocks(workload, seed, STREAM_BLOCKS[workload])
    write_inputs(workdir)
    for op in workloads.warmups(workload):
        outcome = execute(cli, op, None)
        if outcome.status != "ok":
            tally.flag(f"warm-up {' '.join(op.argv)}: {outcome.detail}")
    return perf_counter() - start, cli, stream


def timed_run(cli, stream, golden, seconds: float, tally: Tally):
    """Run whole blocks until ``seconds`` have passed; return latencies."""
    latencies = []
    start = perf_counter()
    i = 0
    while True:
        for op in stream[i % len(stream)]:
            outcome = execute(cli, op, golden)
            tally.add(op, outcome)
            latencies.append(outcome.latency)
        i += 1
        if perf_counter() - start >= seconds:
            return latencies, perf_counter() - start


def end_to_end(latencies, wall, setup_times, tally: Tally):
    lat = sorted(latencies)
    n = len(lat)
    k = max(n - 11, 0)  # at least ten samples lie beyond lat[k]
    metrics = {
        "ops_per_s": n / wall,
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * lat[k],
        "success_rate": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": statistics.median(setup_times),
    }
    print(f"samples: {n} in {wall:.2f} s; tail = p{100 * (k + 1) / n:.2f}"
          f" with {n - k - 1} samples beyond it")
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}


def traced_run(cli, sample, golden, seconds: float, tally: Tally,
               spans_out: Path):
    """Alternate untraced and traced passes over ``sample``."""
    tracer = Tracer()
    passes, ratios, first_counts = [], [], None
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        t0 = perf_counter()
        plain = [execute(cli, op, golden) for op in sample]
        untraced_s = perf_counter() - t0
        tracer.reset()
        t0 = perf_counter()
        with tracer.installed():
            traced = []
            for i, op in enumerate(sample):
                tracer.op = i
                traced.append(execute(cli, op, golden))
        traced_s = perf_counter() - t0
        for op, a, b in zip(sample, plain, traced):
            tally.add(op, a)
            tally.add(op, b)
            if a.signature != b.signature or a.status != b.status:
                tally.flag(f"{op.key}: traced output differs from untraced")
        figures = tracer.metrics()
        counts = {k: v for k, v in figures.items() if not k.endswith("_s")}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            tally.flag("per-layer counts differ between traced passes")
        passes.append(figures)
        ratios.append(traced_s / untraced_s - 1)
    spans_out.parent.mkdir(exist_ok=True)
    with open(spans_out, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    print(f"traced passes: {len(passes)} over {len(sample)} operations")
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        if name == "trace.overhead_ratio":
            value = statistics.median(ratios)
        elif name.endswith("_s"):
            value = statistics.median(p[name] for p in passes)
        else:
            value = first_counts[name]
        metrics[name] = (value, unit)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "etaprover" / "__init__.py").is_file():
        print(f"error: no etaprover sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    golden = json.loads(GOLDEN.read_text())[args.workload]

    tally = Tally()
    cwd = os.getcwd()
    workdir = Path(tempfile.mkdtemp(prefix=".bench_run_", dir=ROOT))
    try:
        os.chdir(workdir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            elapsed, cli, stream = setup(args.workload, args.seed, workdir,
                                         tally)
            setup_times.append(elapsed)
        if args.trace:
            sample = [op for block in stream[:TRACE_BLOCKS[args.workload]]
                      for op in block]
            metrics = traced_run(cli, sample, golden, args.seconds, tally,
                                 SPANS / f"{args.workload}.jsonl")
        else:
            latencies, wall = timed_run(cli, stream, golden, args.seconds,
                                        tally)
            setup_times += [setup(args.workload, args.seed, workdir, tally)[0]
                            for _ in range(SETUP_REPEATS)]
            metrics = end_to_end(latencies, wall, setup_times, tally)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in tally.notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
