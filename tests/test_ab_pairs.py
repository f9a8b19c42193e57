import pytest


@pytest.fixture(scope="module")
def ab_pairs(import_from):
    return import_from("tools", "ab_pairs")


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
    assert lower["p"] == 1.0            # the tie is dropped: 2 wins, 1 loss
    higher = summary["goodput"]
    assert (higher["wins"], higher["losses"]) == (1, 2)
    assert "absent" not in summary


def test_sign_test_p_is_exact_two_sided_with_ties_dropped(ab_pairs):
    assert ab_pairs.sign_test_p(6, 0) == 0.03125     # 2 / 2**6
    assert ab_pairs.sign_test_p(0, 6) == 0.03125
    assert ab_pairs.sign_test_p(9, 1) == pytest.approx(22 / 1024)
    assert ab_pairs.sign_test_p(5, 5) == 1.0
    assert ab_pairs.sign_test_p(0, 0) == 1.0         # all pairs tied

    better = [(_result(slowdown_x=3.0), _result(slowdown_x=2.9))] * 6
    summary = ab_pairs.summarize(better, {"slowdown_x": "lower"})["metrics"]
    assert summary["slowdown_x"]["p"] == 0.03125


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


_REPORT = """\
slowdown_x                                  3.76811 x       (median over rounds; q1 3.72288, q3 3.82809, n=55)
goodput_MBps                                52.8528 MB/s    (q1 51.9765, q3 54.4907, n=55)
direct_goodput_MBps                         199.494 MB/s    (q1 195.628, q3 206.552, n=55)
server.bytes_per_recv                       64527.8 B       (q1 64527.8, q3 64527.8, n=55)
server.receive_calls                             65 count   (q1 65, q3 65, n=55)
{"correct": true, "metrics": {}}
"""


def test_bases_are_read_from_the_series_lines_of_a_report(ab_pairs):
    assert ab_pairs.parse_bases(_REPORT) == {
        "goodput_MBps": 52.8528, "direct_goodput_MBps": 199.494,
        "server.receive_calls": 65.0}
    assert ab_pairs.parse_bases('{"correct": false}\n') == {}


def test_a_report_is_read_with_its_bases_and_provenance(ab_pairs):
    report = 'provenance {"workload": "relay-1k", "seed": 7}\n' + _REPORT
    result = ab_pairs.read_report(report)
    assert result["correct"] is True
    assert result["provenance"] == {"workload": "relay-1k", "seed": 7}
    assert result["bases"] == ab_pairs.parse_bases(_REPORT)
    assert ab_pairs.read_report(report, returncode=1)["correct"] is False
    assert ab_pairs.read_report(_REPORT)["provenance"] is None
    assert ab_pairs.read_report("", "Traceback\nboom\n", 1) == {
        "correct": False, "metrics": {}, "error": "boom"}


def test_summary_gives_each_sides_quartiles_of_the_bases(ab_pairs):
    def run(goodput, direct=None):
        result = _result(slowdown_x=2.0)
        result["bases"] = {"goodput_MBps": goodput}
        if direct is not None:
            result["bases"]["direct_goodput_MBps"] = direct
        return result

    pairs = [(run(50.0), run(40.0, 200.0)), (run(52.0), run(44.0, 210.0)),
             (run(54.0), run(48.0, 220.0)),
             ({"correct": False, "metrics": {}}, run(60.0))]  # no bases
    bases = ab_pairs.summarize(pairs, {"slowdown_x": "lower"})["bases"]
    assert bases["goodput_MBps"] == {"parent": (50.0, 52.0, 54.0),
                                     "change": (41.0, 46.0, 57.0)}
    assert bases["direct_goodput_MBps"] == {"parent": None,
                                            "change": (200.0, 210.0, 220.0)}
    assert "server.receive_calls" not in bases


def _pairs(parent, change, name="slowdown_x"):
    return [(_result(**{name: p}), _result(**{name: c}))
            for p, c in zip(parent, change)]


_PARENT = [2.90, 2.92, 2.94, 2.96, 2.98, 3.00, 3.02, 3.04, 3.06, 3.08]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr(ab_pairs):
    change = [p - 0.15 for p in _PARENT]             # 10/10, gap 0.15 > IQR
    summary = ab_pairs.summarize(_pairs(_PARENT, change), {"slowdown_x": "lower"},
                                 {"slowdown_x": 0.17})["metrics"]
    assert summary["slowdown_x"]["verdict"] == "gain"

    eight = change[:8] + [p + 0.01 for p in _PARENT[8:]]   # 8/10 wins
    assert ab_pairs.verdict(_PARENT, eight, 8, "lower", 0.17) == "no worse"
    nine = change[:9] + [_PARENT[9]]                 # 9/10, the tie is no win
    assert ab_pairs.verdict(_PARENT, nine, 9, "lower", 0.17) == "gain"
    close = [p - 0.01 for p in _PARENT]              # 10/10, gap inside the IQR
    assert ab_pairs.verdict(_PARENT, close, 10, "lower", 0.17) == "no worse"


def test_a_gain_follows_the_declared_direction(ab_pairs):
    higher = [p + 0.15 for p in _PARENT]
    summary = ab_pairs.summarize(_pairs(_PARENT, higher, "goodput"),
                                 {"goodput": "higher"}, {"goodput": 0.17})
    assert summary["metrics"]["goodput"]["verdict"] == "gain"
    assert ab_pairs.verdict(_PARENT, higher, 0, "lower", 0.17) == "no worse"


def test_a_median_past_the_bound_is_worse(ab_pairs):
    worse = [p * 1.2 for p in _PARENT]
    assert ab_pairs.verdict(_PARENT, worse, 0, "lower", 0.17) == "worse"
    assert ab_pairs.verdict(_PARENT, worse, 10, "higher", 0.17) == "gain"
    within = [p * 1.1 for p in _PARENT]
    assert ab_pairs.verdict(_PARENT, within, 0, "lower", 0.17) == "no worse"


def test_a_spread_wider_than_the_bound_is_unresolved(ab_pairs):
    wide = [2.0, 2.4, 2.8, 3.2, 3.6, 4.0, 4.4, 4.8, 5.2, 5.6]   # IQR/median ~ 0.5
    tight = [3.5 + i * 0.01 for i in range(10)]
    assert ab_pairs.verdict(wide, tight, 5, "lower", 0.17) == "unresolved"
    assert ab_pairs.verdict(tight, wide, 5, "lower", 0.17) == "unresolved"
    # unless every run of the change is better than every run of the
    # parent; here by less than the parent's IQR, so it is no gain either
    skewed = [3.0, 3.0, 3.0, 3.0, 3.0, 3.1, 4.0, 5.0, 6.0, 7.0]
    below = [2.9] * 10
    assert ab_pairs.verdict(skewed, below, 10, "lower", 0.17) == "no worse"
    assert ab_pairs.verdict(skewed, below[:9] + [3.0], 9, "lower",
                            0.17) == "unresolved"


def test_verdicts_come_only_with_bounds(ab_pairs):
    summary = ab_pairs.summarize(_pairs(_PARENT, _PARENT),
                                 {"slowdown_x": "lower"})["metrics"]
    assert "verdict" not in summary["slowdown_x"]
    summary = ab_pairs.summarize(_pairs(_PARENT, _PARENT), {"slowdown_x": "lower"},
                                 {"slowdown_x": 0.17})["metrics"]
    assert summary["slowdown_x"]["verdict"] == "no worse"
