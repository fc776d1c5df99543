"""Byte-exact golden output of ``etaprover factor``.

Each case below runs ``cli.main`` in-process; its exit code, stdout and
stderr are rendered into one text, which must equal
``tests/golden/factor_cases.txt`` byte for byte.  The cases are the deep
benchmark's two round trips and four sums that are not eta-products, whose
error text the factorization must keep exactly.

Re-record the file with ``PYTHONPATH=src python tests/test_factor_golden.py``
(only when a change to the output is intended).
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from etaprover.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "factor_cases.txt"

CASES = (
    ("factor", "[50,-1,25,1,2,1,1,-1]", "--depth", "1100"),
    ("factor", "[100,-3,50,5,25,-2,10,-8,5,4,4,3,2,3,1,-2]", "--depth", "400"),
    ("factor", "[5,6,1,-6] + [5,12,1,-12]", "--depth", "400"),
    ("factor", "[1,1] + [1,25]", "--depth", "600"),
    ("factor", "[1,-1] + [1,-2]", "--depth", "800"),
    ("factor", "[1,-1] + 2*[2,-1,1,-1]", "--depth", "800"),
)


def render() -> str:
    blocks = []
    for argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        blocks.append(f"$ etaprover {' '.join(argv)}\nexit {code}\n"
                      f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    return "\n".join(blocks)


def test_factor_output_bytes():
    assert render().encode() == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.write_bytes(render().encode())
