import json

import pytest


@pytest.fixture(scope="module")
def ab_pairs(import_from):
    return import_from("tools", "ab_pairs")


@pytest.fixture(scope="module")
def trajectory(import_from):
    return import_from("tools", "trajectory")


def _report(slowdown, goodput, seed):
    """A synthetic untraced report, as ``bench/run.py`` prints one."""
    return f"""\
provenance {{"workload": "relay-1k", "seed": {seed}, "git_sha": "abc"}}
slowdown_x                                  {slowdown} x       (median over rounds; q1 1, q3 2, n=5)
goodput_MBps                                {goodput} MB/s    (q1 1, q3 2, n=5)
server.receive_calls                             65 count   (q1 65, q3 65, n=5)
failed_frac 0 (0 failed of 100 attempted ops)
{{"correct": true, "attempted": 100, "failed": 0, "metrics": {{"slowdown_x": {{"value": {slowdown}, "unit": "x"}}}}}}
"""


def test_the_point_gives_quartiles_over_runs_per_workload(ab_pairs, trajectory):
    runs = {"relay-1k": [ab_pairs.read_report(_report(s, g, i))
                         for i, (s, g) in enumerate([(2.0, 40.0), (3.0, 60.0),
                                                     (2.5, 50.0)])],
            "relay-128k": [{"correct": False, "metrics": {}, "error": "boom"}]}
    point = trajectory.summarize(runs, ["slowdown_x", "cpu_x"])

    one = point["relay-1k"]
    assert (one["runs"], one["correct"], one["failed"], one["attempted"]) == (
        3, True, 0, 300)
    assert one["metrics"] == {"slowdown_x": {
        "q1": 2.0, "median": 2.5, "q3": 3.0, "values": [2.0, 3.0, 2.5]}}
    assert one["bases"]["goodput_MBps"]["median"] == 50.0
    assert one["bases"]["server.receive_calls"]["values"] == [65.0] * 3
    assert [p["seed"] for p in one["provenance"]] == [0, 1, 2]

    failed = point["relay-128k"]
    assert (failed["runs"], failed["correct"]) == (1, False)
    assert failed["metrics"] == failed["bases"] == {}
    assert failed["provenance"] == [None]


def test_main_writes_the_point_of_the_checkouts_sha(
        ab_pairs, trajectory, monkeypatch, tmp_path):
    # the runs and the floor are stand-ins: no benchmark runs here
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append((workload, seed))
        return ab_pairs.read_report(_report(2.0 + seed / 10, 50.0, seed))

    (tmp_path / "BENCHMARK.json").write_text(
        (trajectory.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(trajectory, "ROOT", tmp_path)
    monkeypatch.setattr(trajectory.ab_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(trajectory, "_short_sha", lambda checkout: "abc1234")
    monkeypatch.setattr(trajectory, "_slot_floor",
                        lambda checkout: {"median": 4.0})
    assert trajectory.main(["--seconds", "5"]) == 0

    # the workloads alternate which runs first
    assert calls == [("relay-1k", 1), ("relay-128k", 1), ("relay-128k", 2),
                     ("relay-1k", 2), ("relay-1k", 3), ("relay-128k", 3)]
    point = json.loads((tmp_path / "BENCH_abc1234.json").read_text())
    assert (point["sha"], point["seeds"], point["seconds"]) == (
        "abc1234", [1, 2, 3], 5.0)
    assert point["slot_rtt_pinned_us"] == {"median": 4.0}
    assert set(point["workloads"]) == {"relay-1k", "relay-128k"}
    one = point["workloads"]["relay-1k"]
    assert one["metrics"]["slowdown_x"]["values"] == [2.1, 2.2, 2.3]
    assert [p["seed"] for p in one["provenance"]] == [1, 2, 3]
