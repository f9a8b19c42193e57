import pytest


@pytest.fixture(scope="module")
def flaky(import_from):
    return import_from("tools", "flaky")


@pytest.fixture
def throwaway(tmp_path, monkeypatch):
    (tmp_path / "test_throwaway.py").write_text(
        "def test_passes():\n    assert True\n\n"
        "def test_fails():\n    assert False\n")
    monkeypatch.chdir(tmp_path)
    return "test_throwaway.py"


def test_a_passing_test_counts_every_run_passed(flaky, throwaway, capsys):
    assert flaky.main([f"{throwaway}::test_passes", "--runs", "2"]) == 0
    assert "2 passed, 0 failed of 2 runs" in capsys.readouterr().out


def test_a_failing_test_counts_every_run_failed(flaky, throwaway, capsys):
    assert flaky.main([f"{throwaway}::test_fails", "--runs", "2"]) == 1
    assert "0 passed, 2 failed of 2 runs" in capsys.readouterr().out


def test_an_id_naming_no_test_stops_the_count(flaky, throwaway, capsys):
    assert flaky.main([f"{throwaway}::test_missing", "--runs", "2"]) == 2
    assert "pytest exited 4" in capsys.readouterr().err


@pytest.fixture
def suite(tmp_path, monkeypatch):
    """A suite of one passing test and one that fails in its first run
    only, counted in a file beside it."""
    (tmp_path / "test_suite.py").write_text(
        "from pathlib import Path\n\n"
        "def test_passes():\n    assert True\n\n"
        "def test_fails_once():\n"
        "    runs = Path(__file__).with_name('runs')\n"
        "    first = not runs.exists()\n"
        "    runs.write_text('x')\n"
        "    assert not first\n")
    monkeypatch.chdir(tmp_path)


def test_the_suite_mode_tallies_failing_runs_per_test_id(flaky, suite, capsys):
    assert flaky.main(["--suite", "--runs", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["test_suite.py::test_fails_once: failed in 1 of 3 runs",
                   "suite: 2 clean of 3 runs"]


def test_the_suite_mode_takes_no_test_id(flaky, throwaway):
    with pytest.raises(SystemExit):
        flaky.main([f"{throwaway}::test_passes", "--suite"])
