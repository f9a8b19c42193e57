import os
import subprocess
import sys

import pytest


@pytest.fixture(scope="module")
def pingpong(import_from):
    return import_from("tools", "pingpong")


def test_each_leg_gives_one_figure_per_repetition(pingpong):
    # the autouse fixture checks that every echo process was reaped
    home = os.sched_getaffinity(0)
    results = pingpong.measure(rounds=20, reps=3)
    assert set(results) == {("pipe", "pinned"), ("slot", "pinned"),
                            ("slot", "unpinned")}
    assert all(len(v) == 3 and min(v) > 0 for v in results.values())
    assert os.sched_getaffinity(0) == home


def test_a_leg_runs_on_its_cores_and_the_callers_are_restored(pingpong,
                                                              monkeypatch):
    home = os.sched_getaffinity(0)
    seen = []

    def way(rounds):
        seen.append(os.sched_getaffinity(0))
        return 1.0

    monkeypatch.setattr(pingpong, "WAYS", {"pipe": way, "slot": way})
    pingpong.measure(rounds=1, reps=2)
    pinned, unpinned = {max(home)}, home
    # the second repetition runs the legs in reverse order
    assert seen == [pinned, pinned, unpinned, unpinned, pinned, pinned]
    assert os.sched_getaffinity(0) == home


def test_the_command_prints_every_leg_and_the_pinned_ratio(pingpong):
    run = subprocess.run(
        [sys.executable, pingpong.__file__, "--rounds", "20",
         "--reps", "2"], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    medians = {tuple(line.split()[:2]): float(line.split()[3])
               for line in lines[1:4]}
    assert set(medians) == {("pipe", "pinned"), ("slot", "pinned"),
                            ("slot", "unpinned")}
    assert min(medians.values()) > 0
    assert lines[-1].startswith("slot/pipe pinned ")
