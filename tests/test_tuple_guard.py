"""Source guard: the package builds no tuple from a generator, map or filter."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "etaprover"


def _lazy(node: ast.AST) -> bool:
    """A generator expression, or a call of ``map`` or ``filter``."""
    return isinstance(node, ast.GeneratorExp) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("map", "filter"))


def test_no_tuple_of_a_generator():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "tuple" and node.args
                    and _lazy(node.args[0])):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, (
        "build these tuples from a list, as tuple([...]): tuple() of an "
        "iterator of unknown length allocates a size-10 tuple and resizes "
        "it, and the freed tuple then sits in CPython's free list for its "
        "final size, which only a full collection empties, so a long-running "
        "process holds megabytes of them: " + ", ".join(found))
