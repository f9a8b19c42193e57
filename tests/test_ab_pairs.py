import importlib
import sys
from pathlib import Path

import pytest

TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def ab_pairs():
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        return importlib.import_module("ab_pairs")
    finally:
        sys.path.remove(str(TOOLS_DIR))


def _result(failed=0, attempted=100, **metrics):
    return {"correct": True, "failed": failed, "attempted": attempted,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}


def test_summary_gives_quartiles_and_wins_in_the_declared_direction(ab_pairs):
    parent = [5.0, 6.0, 7.0, 8.0]
    change = [4.0, 6.0, 6.5, 9.0]   # better, tie, better, worse when lower wins
    pairs = [(_result(slowdown_x=p, goodput=p), _result(slowdown_x=c, goodput=c))
             for p, c in zip(parent, change)]
    summary = ab_pairs.summarize(
        pairs + [(_result(), _result(slowdown_x=1.0))],  # one side lacks it
        {"slowdown_x": "lower", "goodput": "higher", "absent": "lower"}
    )["metrics"]

    lower = summary["slowdown_x"]
    assert lower["n"] == 4
    assert (lower["wins"], lower["losses"]) == (2, 1)
    assert lower["parent"] == (5.25, 6.5, 7.75)
    assert lower["change"][1] == 6.25
    assert lower["median_delta"] == pytest.approx(6.25 / 6.5 - 1)
    higher = summary["goodput"]
    assert (higher["wins"], higher["losses"]) == (1, 2)
    assert "absent" not in summary


def test_summary_totals_failed_and_attempted_ops_per_side(ab_pairs):
    pairs = [(_result(failed=0, attempted=100, slowdown_x=2.0),
              _result(failed=3, attempted=90, slowdown_x=2.0)),
             (_result(failed=1, attempted=110, slowdown_x=2.0),
              _result(failed=0, attempted=120, slowdown_x=2.0)),
             # a run that wrote no result line has no operation counts
             ({"correct": False, "metrics": {}}, _result(attempted=10))]
    ops = ab_pairs.summarize(pairs, {"slowdown_x": "lower"})["ops"]
    assert ops == {"parent": {"failed": 1, "attempted": 210},
                   "change": {"failed": 3, "attempted": 220}}
