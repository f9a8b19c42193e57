import importlib
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def pingpong():
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        return importlib.import_module("pingpong")
    finally:
        sys.path.remove(str(TOOLS_DIR))


def test_each_way_gives_one_figure_per_repetition(pingpong):
    # the autouse fixture checks that every echo process was reaped
    results = pingpong.measure(rounds=20, reps=3)
    assert set(results) == {"pipe", "slot"}
    assert all(len(v) == 3 and min(v) > 0 for v in results.values())


def test_the_command_prints_both_medians_and_their_ratio():
    run = subprocess.run(
        [sys.executable, str(TOOLS_DIR / "pingpong.py"), "--rounds", "20",
         "--reps", "2"], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    medians = {line.split()[0]: float(line.split()[2]) for line in lines[1:3]}
    assert set(medians) == {"pipe", "slot"} and min(medians.values()) > 0
    assert lines[-1].startswith("slot/pipe ")
