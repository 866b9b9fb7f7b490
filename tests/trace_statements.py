"""Lines of ``src/smallarea`` that the tier-1 suite never executes.

Runs pytest in this process under ``sys.settrace``, records every line of
the package that executes, and then prints each line that holds bytecode
but never ran, as ``path:line: source``.  It uses only the standard
library; no coverage package is needed.  Code that the suite runs only in
a child process, such as ``python -m smallarea.cli``, is not traced.

    PYTHONPATH=src python tests/trace_statements.py [pytest arguments]

With no pytest arguments it runs the tier-1 suite with ``-q``.  It exits
with pytest's exit code when that is not 0, else with 1 when a line other
than the body of a module's ``if __name__ == "__main__":`` guard never
ran, and 0 otherwise.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smallarea"


def code_lines(code) -> set[int]:
    """The lines that hold bytecode of ``code`` and of the code nested in it."""
    lines = {line for *_, line in code.co_lines() if line}  # None or 0: no source line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def main_guard_lines(source: str) -> set[int]:
    """The lines of the bodies of ``if __name__ == "__main__":`` guards in
    ``source``, which only a child process runs."""
    lines = set()
    for node in ast.parse(source).body:
        test = node.test if isinstance(node, ast.If) else None
        if (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and [type(op) for op in test.ops] == [ast.Eq]
            and [getattr(c, "value", None) for c in test.comparators] == ["__main__"]
        ):
            for statement in node.body:
                lines.update(range(statement.lineno, statement.end_lineno + 1))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    executed: set[tuple[str, int]] = set()
    ours: dict[str, bool] = {}  # co_filename -> whether it is a file of the package

    def line(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().is_relative_to(PACKAGE)
        return line if ours[name] else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(argv or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict[Path, set[int]] = {}
    for name, lineno in executed:
        ran.setdefault(Path(name).resolve(), set()).add(lineno)
    missed = unguarded = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        guarded = main_guard_lines(source)
        for lineno in sorted(code_lines(compile(source, str(path), "exec")) - ran.get(path, set())):
            print(f"{path.relative_to(ROOT)}:{lineno}: {text[lineno - 1].strip()}")
            missed += 1
            unguarded += lineno not in guarded
    print(f"{missed} line(s) of {PACKAGE.relative_to(ROOT)} not executed, {unguarded} outside a __main__ guard")
    return int(status) or int(unguarded > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
