"""Mutation checks: each row breaks one place in ``src/`` and names the tests
that must then fail.

    python tests/mutants.py        # every mutant
    python tests/mutants.py 3 7    # the mutants numbered 3 and 7

The repository is copied once into a temporary directory.  The test files
the rows name first run there unmutated and must pass.  Then each mutant is
applied alone, its tests run with ``python -m pytest -x -q -p
no:cacheprovider``, and the file is restored.  A mutant is killed when its
tests fail.  One line is printed per mutant; the exit code is 1 when a mutant
survives, when an old text does not occur exactly once in its file, or when
the unmutated tests fail.  Pytest does not collect this file.

A row is (name, file under src/etaprover, old text, new text, pytest args).
Every change to a fast path adds its rows; a row is only removed together
with the code it breaks.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEED = "tests/test_kernel.py::test_expansions_seed_the_same_factors"
EXPAND = ["tests/test_kernel.py", "-k", "expand"]
POWER = "tests/test_kernel.py::test_euler_power_matches_brute_by_either_fill"
UP_EXPANSION = ["tests/test_up.py", "-k", "up_expansion"]

MUTANTS = [
    # The list builder and its seed choice.
    ("seed the cheapest factor", "qseries.py",
     "_, t0, r0 = max(((_sweep_count(r)", "_, t0, r0 = min(((_sweep_count(r)",
     [SEED]),
    ("drop the remainder from the sweep count", "qseries.py",
     "return sum(divmod(abs(r), 3))", "return abs(r) // 3", [SEED]),
    ("seed a factor at t = size", "qseries.py",
     "if t < size), default=(0, 0, 0))", "if t <= size), default=(0, 0, 0))",
     [SEED]),
    ("sweep the seeded factor as well", "qseries.py",
     "        if t != t0:\n", "        if t:\n", EXPAND),
    # Miller's recurrence, shared by the power table and QSeries powers.
    ("Miller weight n*j - k", "qseries.py",
     "s += (w * j - k) * c * vj", "s += (n * j - k) * c * vj",
     [POWER, "tests/test_pow_golden.py"]),
    ("fill the table from the pentagonal series without q^1", "qseries.py",
     "_miller_pow(_pentagonal(size)[1:], r, size)",
     "_miller_pow(_pentagonal(size)[2:], r, size)", [POWER]),
    ("invert without negating the terms", "qseries.py",
     "c if n + 1 else -c", "c if n + 1 else c",
     ["tests/test_pow_golden.py", "tests/test_qseries.py"]),
    ("floor Fraction powers", "qseries.py",
     "s = s // k if integral else Fraction(s, k)", "s = s // k",
     ["tests/test_pow_golden.py"]),
    # QSeries internals.
    ("drop the top term of an exact product", "qseries.py",
     "lim = be[-1] + 1 if t is None else t - ea",
     "lim = be[-1] if t is None else t - ea", ["tests/test_qseries.py"]),
    ("stop a truncated product one place early", "qseries.py",
     "lim = be[-1] + 1 if t is None else t - ea",
     "lim = be[-1] + 1 if t is None else t - ea - 24", ["tests/test_qseries.py"]),
    ("construct without the truncation", "qseries.py",
     "s = QSeries._from24(acc, t24)", "s = QSeries._from24(acc, None)",
     ["tests/test_qseries.py"]),
    # The U_p left-hand side.
    ("shift the sifted list by one place", "up.py",
     "a[e // 24 - n0] = c", "a[e // 24 - n0 - 1] = c", UP_EXPANSION),
    ("sweep G at t instead of t/p", "up.py",
     "_euler_sweep(a, t // p, r)", "_euler_sweep(a, t, r)", UP_EXPANSION),
    # eta_factorize's budget.
    ("charge one sweep per factorization step", "etaproducts.py",
     "budget -= _sweep_count(c) * size", "budget -= size",
     ["tests/test_factorize.py", "-k", "budget"]),
]


def _pytest(cwd: Path, args: list) -> int:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *args], cwd=cwd, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main(argv: list) -> int:
    rows = [(i, row) for i, row in enumerate(MUTANTS, start=1)
            if not argv or str(i) in argv]
    start = time.perf_counter()
    unmatched = []
    for i, (name, path, old, _, _) in rows:
        count = (ROOT / "src" / "etaprover" / path).read_text().count(old)
        if count != 1:
            unmatched.append(i)
            print(f"{i:3} UNMATCHED {name}: old text occurs {count} times"
                  f" in {path}")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        files = sorted({a.split("::")[0] for _, row in rows for a in row[4]
                        if a.startswith("tests/")})
        if _pytest(copy, files):
            print("the tests fail without any mutant: " + " ".join(files))
            return 1
        survived = []
        for i, (name, path, old, new, args) in rows:
            if i in unmatched:
                continue
            target = copy / "src" / "etaprover" / path
            text = target.read_text()
            target.write_text(text.replace(old, new))
            t0 = time.perf_counter()
            code = _pytest(copy, args)
            target.write_text(text)
            killed = code in (1, 2)  # tests failed, or collection broke
            if not killed:
                survived.append(i)
            print(f"{i:3} {'killed  ' if killed else 'SURVIVED'} {name}"
                  f"  ({time.perf_counter() - t0:.1f} s, pytest exit {code})")
    print(f"{len(rows)} mutants: {len(rows) - len(survived) - len(unmatched)} "
          f"killed, {len(survived)} survived, {len(unmatched)} unmatched, "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survived or unmatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
