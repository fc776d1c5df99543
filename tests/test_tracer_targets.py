"""Every name the benchmark tracer wraps must still exist.

``bench/tracing.py`` wraps functions and methods by (owner, attribute) name.
A change that deletes or renames one of them would only fail a traced
benchmark run; this test makes it fail here.  The tracer's source is read
and executed into a fresh module, so nothing is written next to it (no
bytecode cache) and nothing is installed or patched.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    targets = _load_tracing()._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
