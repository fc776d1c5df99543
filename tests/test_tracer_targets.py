"""Every name the benchmark tracer wraps must still exist.

``bench/tracing.py`` wraps functions and methods by (owner, attribute) name.
A change that deletes or renames one of them would only fail a traced
benchmark run; this test makes it fail here.  Every name ``src/`` imports
only for the tracer (``# noqa: F401``) must be one it wraps there.  The
tracer's source is read and executed into a fresh module, so nothing is
written next to it (no bytecode cache) and nothing is installed or patched.
"""

import ast
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


def test_imports_kept_for_the_tracer_are_traced():
    # a name imported only for the tracer (``# noqa: F401``) must be one it
    # wraps in that module, so a tracer that wraps other names frees it
    src = TRACING.parent.parent / "src" / "etaprover"
    targets = {(getattr(owner, "__name__", None), attr)
               for owner, attr, _, _ in _load_tracing()._targets()}
    kept = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and any(
                    "# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                kept += [(f"etaprover.{path.stem}", alias.asname or alias.name)
                         for alias in node.names]
    assert kept
    assert [name for name in kept if name not in targets] == []
