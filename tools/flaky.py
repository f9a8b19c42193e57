"""How often one test fails when it runs alone.

    python3 tools/flaky.py TEST_ID --runs N

Runs ``python -m pytest -q TEST_ID`` N times from the current directory,
each in a fresh process with ``src`` put first on ``PYTHONPATH``, and
prints how many runs passed and how many failed. Run it from the root of
the checkout to measure, so the same command measures a parent checkout
too. A run that neither passes nor fails (the id names no test, or
pytest could not start) stops the count, since it says nothing about
the test. Exits 0 when every run passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys


def run_alone(test_id: str, runs: int) -> tuple[int, int]:
    """(passed, failed) over ``runs`` fresh pytest processes; raises
    RuntimeError on a run that neither passed nor failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    passed = failed = 0
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test_id],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode == 0:
            passed += 1
        elif proc.returncode == 1:
            failed += 1
        else:
            tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
            raise RuntimeError(f"pytest exited {proc.returncode}: {''.join(tail)}")
    return passed, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("test_id")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    try:
        passed, failed = run_alone(args.test_id, args.runs)
    except RuntimeError as exc:
        print(f"flaky: {exc}", file=sys.stderr)
        return 2
    print(f"{args.test_id}: {passed} passed, {failed} failed of {args.runs} runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
