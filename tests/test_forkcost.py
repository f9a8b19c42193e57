import os

import pytest


@pytest.fixture(scope="module")
def forkcost(import_from):
    return import_from("tools", "forkcost")


def test_each_figure_gives_one_value_per_fork(forkcost):
    # the autouse fixture checks that every forked child was reaped
    home = os.sched_getaffinity(0)
    results = forkcost.measure(reps=3, pages=4)
    assert tuple(results) == forkcost.FIGURES
    assert all(len(values) == 3 for values in results.values())
    for name in ("spawn_us", "reap_us", "cow_us_per_page", "warm_us_per_page"):
        assert min(results[name]) > 0, name
    assert min(results["minflt"]) >= 0
    assert os.sched_getaffinity(0) == home


def test_forks_run_on_one_core_and_the_callers_are_restored(
        forkcost, monkeypatch):
    home = os.sched_getaffinity(0)
    seen = []
    fork_once = forkcost._fork_once

    def watched(buf, pages, stamps):
        seen.append(os.sched_getaffinity(0))
        return fork_once(buf, pages, stamps)

    monkeypatch.setattr(forkcost, "_fork_once", watched)
    forkcost.measure(reps=2, pages=1)
    assert seen == [{max(home)}] * 2
    assert os.sched_getaffinity(0) == home


def test_a_child_that_fails_is_an_error(forkcost, monkeypatch):
    monkeypatch.setattr(forkcost, "_STAMPS", None)  # the child's pack fails
    with pytest.raises(RuntimeError, match="wait status"):
        forkcost._fork_once(bytearray(forkcost.PAGE), 1, None)


def test_the_command_prints_every_figure(forkcost, monkeypatch, capsys):
    monkeypatch.setattr(forkcost, "REPS", 2)
    assert forkcost.main(["--pages", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("2 forks pinned to cpu ")
    assert [line.split()[0] for line in lines[1:]] == list(forkcost.FIGURES)
    assert all(float(line.split()[2]) >= 0 for line in lines[1:])
