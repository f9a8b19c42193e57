"""How often one test, or each test of the whole suite, fails.

    python3 tools/flaky.py TEST_ID --runs N
    python3 tools/flaky.py --suite --runs N

The first form runs ``python -m pytest -q TEST_ID`` N times and prints
how many runs passed and how many failed. The second runs the tier-1
suite, ``python -m pytest -q --continue-on-collection-errors``, N times
and prints, for every test id that failed or errored in any run, how
many runs it failed in, then how many runs were clean. Each run is a
fresh process from the current directory with ``src`` put first on
``PYTHONPATH``. Run it from the root of the checkout to measure, so the
same command measures a parent checkout too. A run that neither passes
nor fails (the id names no test, or pytest could not start) stops the
count, since it says nothing about the tests. Exits 0 when every run
passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from collections import Counter

SUITE = ["--continue-on-collection-errors", "-rfE"]
# the short test summary lines that name a test that did not pass
_NOT_PASSED = ("FAILED ", "ERROR ")


def _pytest(args: list[str]) -> subprocess.CompletedProcess:
    """One fresh pytest process that passed (exit 0) or failed (exit 1);
    raises RuntimeError on any other exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
        raise RuntimeError(f"pytest exited {proc.returncode}: {''.join(tail)}")
    return proc


def run_alone(test_id: str, runs: int) -> tuple[int, int]:
    """(passed, failed) over ``runs`` fresh pytest processes; raises
    RuntimeError on a run that neither passed nor failed."""
    failed = sum(_pytest([test_id]).returncode for _ in range(runs))
    return runs - failed, failed


def failed_ids(output: str) -> set[str]:
    """The test ids a ``-rfE`` short test summary names as failed or
    errored, without the message after `` - ``."""
    return {line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in output.splitlines() if line.startswith(_NOT_PASSED)}


def run_suite(runs: int) -> tuple[Counter, int]:
    """(failing runs per test id, clean runs) over ``runs`` fresh runs of
    the whole suite; raises RuntimeError as ``run_alone`` does."""
    tally, clean = Counter(), 0
    for _ in range(runs):
        proc = _pytest(SUITE)
        ids = failed_ids(proc.stdout)
        if proc.returncode and not ids:
            raise RuntimeError("pytest failed without naming a test")
        tally.update(ids)
        clean += not proc.returncode
    return tally, clean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("test_id", nargs="?")
    parser.add_argument("--suite", action="store_true",
                        help="run the whole tier-1 suite instead of one test")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.suite == (args.test_id is not None):
        parser.error("give either a TEST_ID or --suite")
    try:
        if args.suite:
            tally, clean = run_suite(args.runs)
        else:
            passed, failed = run_alone(args.test_id, args.runs)
    except RuntimeError as exc:
        print(f"flaky: {exc}", file=sys.stderr)
        return 2
    if not args.suite:
        print(f"{args.test_id}: {passed} passed, {failed} failed of {args.runs} runs")
        return 1 if failed else 0
    for test_id, count in sorted(tally.items()):
        print(f"{test_id}: failed in {count} of {args.runs} runs")
    print(f"suite: {clean} clean of {args.runs} runs")
    return 0 if clean == args.runs else 1


if __name__ == "__main__":
    sys.exit(main())
