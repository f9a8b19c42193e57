"""One point of the benchmark's trajectory: every workload on a few
seeds, and the slot round-trip floor, in one JSON file.

    python3 tools/trajectory.py [CHECKOUT] --seconds 40

For each of seeds 1-3 it runs ``python3 <CHECKOUT>/bench/run.py --workload W
--seed i --seconds S --trace 0`` once for each workload ``BENCHMARK.json``
declares, through ``ab_pairs.run_once``, the workloads in turn and their
order reversed on every other seed, so a slow drift of the host falls on
all of them alike. Then it times the pinned slot round trip, the floor
the relay stands on, with the checkout's own ``tools/pingpong.py``
(``measure``, 7 repetitions of 20 000 round trips). The seeds, rounds and
repetitions are fixed so that every point is taken alike.

It writes ``BENCH_<short sha>.json`` at this repository's root, the sha
being the checkout's HEAD. Per workload it holds each end-to-end
metric's and each base's median and quartiles over the runs, with the
runs' values in seed order, every run's provenance line and the failed
and attempted operations summed over the runs; then the slot floor's
median and quartiles in µs. CHECKOUT defaults to this repository; a
clean clone of an earlier commit gives that commit's point. The exit
status is 1 when a run did not read ``correct: true``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import ab_pairs

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [1, 2, 3]
ROUNDS, REPS = 20000, 7  # of the slot round trip


def summarize(runs: dict[str, list[dict]], names: list[str]) -> dict:
    """Per workload, from its runs' result lines as ``ab_pairs.run_once``
    reads them: (q1, median, q3) and the values of each metric ``names``
    lists and of each base, the provenance lines, the summed operation
    counts and whether every run was correct. A run that lacks a metric
    or a base adds no value to it."""
    out = {}
    for workload, results in runs.items():
        entry = {"runs": len(results),
                 "correct": all(r.get("correct") is True for r in results),
                 "failed": sum(r.get("failed", 0) for r in results),
                 "attempted": sum(r.get("attempted", 0) for r in results)}
        metrics = {n: [r["metrics"][n]["value"] for r in results
                       if n in r.get("metrics", {})] for n in names}
        bases = {n: [r["bases"][n] for r in results if n in r.get("bases", {})]
                 for n in ab_pairs.BASES}
        entry["metrics"] = {n: _spread(v) for n, v in metrics.items() if v}
        entry["bases"] = {n: _spread(v) for n, v in bases.items() if v}
        entry["provenance"] = [r.get("provenance") for r in results]
        out[workload] = entry
    return out


def _spread(values: list[float]) -> dict:
    q1, median, q3 = ab_pairs.quartiles(values)
    return {"q1": q1, "median": median, "q3": q3, "values": values}


def _short_sha(checkout: Path) -> str:
    return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def _slot_floor(checkout: Path) -> dict:
    """The pinned slot round trip of the checkout's own channel, in µs."""
    spec = importlib.util.spec_from_file_location(
        "pingpong", checkout / "tools" / "pingpong.py")
    pingpong = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pingpong)  # puts the checkout's src/ first
    values = pingpong.measure(ROUNDS, REPS)["slot", "pinned"]
    return {"rounds": ROUNDS, **_spread(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    names = [m["name"] for m in spec["end_to_end"]]
    runs = {w: [] for w in workloads}
    for i, seed in enumerate(SEEDS):
        for workload in workloads if i % 2 == 0 else reversed(workloads):
            result = ab_pairs.run_once(checkout, workload, seed, args.seconds)
            runs[workload].append(result)
            print(f"seed {seed} {workload}: correct={result.get('correct')} "
                  f"failed={result.get('failed')}", flush=True)
    point = {"sha": _short_sha(checkout), "seeds": SEEDS,
             "seconds": args.seconds, "workloads": summarize(runs, names),
             "slot_rtt_pinned_us": _slot_floor(checkout)}
    path = ROOT / f"BENCH_{point['sha']}.json"
    path.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0 if all(w["correct"] for w in point["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
