"""Alternating A/B pairs of the benchmark for two source checkouts.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload relay-1k \
        --seeds 1-10 --seconds 40

For each seed it runs ``python3 <dir>/bench/run.py --workload W --seed i
--seconds S --trace 0`` from each checkout's root, the parent first on
odd seeds and the change first on even ones, so a slow drift of the host
falls on both sides alike. Each run's last stdout line is its JSON
result. For every metric the summary gives each side's median and
quartiles and how many pairs the change won: a pair counts for the
change when its value is better in the direction ``BENCHMARK.json``
declares, and a tie counts for neither side. It also totals each
side's failed and attempted operations and prints its share of failed
ones. Under the ratios it prints the bases they are made of: each
side's quartiles of the run medians of the goodputs and of
``server.receive_calls`` that each untraced run prints, so a ratio that
moved because its denominator moved reads as such. A run whose result
line is missing or does not read ``correct: true`` is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# series lines of an untraced run, "<name> <median> <unit> (<quartiles>)"
BASES = ("goodput_MBps", "direct_goodput_MBps", "server.receive_calls")


def parse_bases(stdout: str) -> dict[str, float]:
    """The median each ``BASES`` line of a run's report gives."""
    bases = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[0] in BASES:
            bases[fields[0]] = float(fields[1])
    return bases


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result line, or a stand-in that is not
    correct when the run wrote none."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "metrics": {}, "error": tail}
    if proc.returncode != 0:
        result["correct"] = False
    result["bases"] = parse_bases(proc.stdout)
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(pairs: list[tuple[dict, dict]],
              better: dict[str, str]) -> dict[str, dict]:
    """Under "metrics", per metric: each side's (q1, median, q3), the
    change's wins and losses over the pairs, and the change of the
    median relative to the parent's. Under "ops", per side: its
    ``failed`` and ``attempted`` operations summed over all its runs.
    Under "bases", per base a run carried: each side's (q1, median, q3)
    over the runs that carried it, or None where none did.

    ``pairs`` holds (parent, change) result lines as ``bench/run.py``
    prints them; ``better`` maps each metric to "lower" or "higher".
    A pair in which either side lacks the metric is left out of it; a
    run without operation counts adds none.
    """
    sides = ("parent", "change")
    ops = {side: {key: sum(pair[i].get(key, 0) for pair in pairs)
                  for key in ("failed", "attempted")}
           for i, side in enumerate(sides)}
    bases = {}
    for name in BASES:
        values = [[pair[i]["bases"][name] for pair in pairs
                   if name in pair[i].get("bases", {})] for i in range(2)]
        if any(values):
            bases[name] = {side: _quartiles(v) if v else None
                           for side, v in zip(sides, values)}
    out = {}
    for name, direction in better.items():
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs
                if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        if not both:
            continue
        sign = -1 if direction == "lower" else 1
        wins = sum(1 for p, c in both if sign * (c - p) > 0)
        losses = sum(1 for p, c in both if sign * (c - p) < 0)
        parent = _quartiles([p for p, _ in both])
        change = _quartiles([c for _, c in both])
        out[name] = {
            "n": len(both), "parent": parent, "change": change,
            "wins": wins, "losses": losses,
            "median_delta": change[1] / parent[1] - 1 if parent[1] else None,
        }
    return {"metrics": out, "ops": ops, "bases": bases}


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs, flagged = [], []
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        got = {}
        for side in order:
            got[side] = run_once(sides[side], args.workload, seed, args.seconds)
            if got[side].get("correct") is not True:
                flagged.append(f"{side} seed {seed}: {got[side]}")
            values = {k: round(v["value"], 6)
                      for k, v in got[side].get("metrics", {}).items()}
            print(f"seed {seed} {side}: correct={got[side].get('correct')} "
                  f"failed={got[side].get('failed')} {values}", flush=True)
        pairs.append((got["parent"], got["change"]))

    print(f"\n{args.workload}, {len(pairs)} pairs of {args.seconds:g} s runs")
    print(f"{'metric':<12} {'parent q1/med/q3':>28} {'change q1/med/q3':>28} "
          f"{'median':>8} {'wins':>6}")
    summary = summarize(pairs, better)
    for name, s in summary["metrics"].items():
        p = "/".join(f"{v:.4g}" for v in s["parent"])
        c = "/".join(f"{v:.4g}" for v in s["change"])
        delta = (f"{s['median_delta']:+.1%}" if s["median_delta"] is not None
                 else "n/a")
        print(f"{name:<12} {p:>28} {c:>28} {delta:>8} "
              f"{s['wins']:>3}/{s['n']}")
    print(f"{'base':<20} {'parent q1/med/q3':>28} {'change q1/med/q3':>28}")
    for name, s in summary["bases"].items():
        p, c = ("/".join(f"{v:.4g}" for v in q) if q else "n/a"
                for q in (s["parent"], s["change"]))
        print(f"{name:<20} {p:>28} {c:>28}")
    for side, n in summary["ops"].items():
        share = n["failed"] / n["attempted"] if n["attempted"] else 0.0
        print(f"{side} failed ops: {n['failed']} of {n['attempted']} "
              f"({share:.4%})")
    for line in flagged:
        print(f"FLAGGED {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
