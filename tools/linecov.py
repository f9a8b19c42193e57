"""Line coverage of ``src/teebench`` with the standard library only.

    python3 tools/linecov.py [pytest arguments]      e.g. -q tests

Runs ``pytest.main`` in this process with a trace function installed by
``sys.settrace`` and ``threading.settrace``, which records the lines run
in files under ``src/teebench``. It then prints, per module, the
executable lines that never ran, taken from the ``co_lines()`` of the
compiled module and of every code object nested in it, and exits with
pytest's status.

Not traced: the trusted processes that the process transport forks
(tracing is switched off in a forked child) and the subprocesses the CLI
tests start. A line that runs only there reads as missed, so run the
trusted side with ``transport="inline"`` to see its coverage. Tracing
makes a run slower by about a seventh.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "teebench"


def tracer(root, hits: dict[str, set[int]]):
    """A ``sys.settrace`` function adding each line run in a file under
    ``root`` to ``hits[<the file's real path>]``; a function's first line
    counts as run when it is called."""
    prefix = os.path.realpath(root) + os.sep
    wanted: dict[str, str | None] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in wanted:
            path = os.path.realpath(filename)
            wanted[filename] = path if path.startswith(prefix) else None
        path = wanted[filename]
        if path is None:
            return None
        lines = hits[path]
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return trace


def executable_lines(path) -> set[int]:
    """Every line some instruction of the compiled file maps to."""
    found = set()
    todo = [compile(Path(path).read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        found.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


def missed_lines(path, hits: set[int]) -> list[int]:
    """The executable lines of ``path`` that are not in ``hits``."""
    return sorted(executable_lines(path) - hits)


def _ranges(lines: list[int]) -> str:
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    hits: dict[str, set[int]] = defaultdict(set)
    trace = tracer(PACKAGE, hits)
    os.register_at_fork(after_in_child=lambda: sys.settrace(None))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        missed = missed_lines(path, hits.get(str(path.resolve()), set()))
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} missed: {_ranges(missed)}")
    print(f"{total} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
