import sys
from collections import defaultdict

import pytest


@pytest.fixture(scope="module")
def linecov(import_from):
    return import_from("tools", "linecov")


def test_missed_lines_are_the_body_of_the_function_never_called(linecov, tmp_path):
    path = tmp_path / "two.py"
    path.write_text("def called():\n"
                    "    return 1\n"
                    "\n"
                    "\n"
                    "def never():\n"
                    "    return 2\n")
    hits = defaultdict(set)
    namespace = {}
    outer = sys.gettrace()
    sys.settrace(linecov.tracer(tmp_path, hits))
    try:
        exec(compile(path.read_text(), str(path), "exec"), namespace)
        namespace["called"]()
    finally:
        sys.settrace(outer)
    assert linecov.missed_lines(path, hits[str(path.resolve())]) == [6]
    assert linecov.missed_lines(path, set()) == [1, 2, 5, 6]
