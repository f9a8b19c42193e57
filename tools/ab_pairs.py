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
declares, and a tie counts for neither side. Next to the wins it prints
the exact two-sided sign-test p-value of the pairs that were not ties,
the chance of a split at least that uneven if either side were as
likely to win each pair. It also totals each side's failed and attempted
operations and prints its share of failed ones. Under the ratios it prints the bases they are made of: each
side's quartiles of the run medians of the goodputs and of
``server.receive_calls`` that each untraced run prints, so a ratio that
moved because its denominator moved reads as such. A run whose result
line is missing or does not read ``correct: true`` is flagged.

Each metric also gets a verdict against its ``bound`` in
``BENCHMARK.json``, read as a fraction of the parent's median; a side's
spread is its interquartile range over its median. In this order:

- ``gain``: the change won at least nine tenths of all pairs (a tie is
  no win) and its median is better than the parent's by more than the
  parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more
  than the bound;
- ``unresolved``: either side's spread is wider than the bound, unless
  every run of the change is better than every run of the parent;
- ``no worse``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
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


def parse_provenance(stdout: str) -> dict | None:
    """The JSON of a run's ``provenance`` line, or None if it has none."""
    for line in stdout.splitlines():
        if line.startswith("provenance "):
            return json.loads(line[len("provenance "):])
    return None


def read_report(stdout: str, stderr: str = "", returncode: int = 0) -> dict:
    """A run's result line, with the bases and the provenance its report
    gives, or a stand-in that is not correct when the run wrote none."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "metrics": {}, "error": tail}
    if returncode != 0:
        result["correct"] = False
    result["bases"] = parse_bases(stdout)
    result["provenance"] = parse_provenance(stdout)
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run, read by ``read_report``."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    return read_report(proc.stdout, proc.stderr, proc.returncode)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``
    (ties already dropped): twice the binomial(n, 1/2) tail at the
    smaller count, capped at 1."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def verdict(parent: list[float], change: list[float], wins: int,
            direction: str, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``no worse`` for one metric,
    as the module docstring defines them; ``parent`` and ``change`` are
    the values of the same pairs, ``wins`` how many the change won."""
    sign = -1 if direction == "lower" else 1
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gap = sign * (c_med - p_med)  # > 0 when the change's median is better
    if wins >= 0.9 * len(parent) and gap > p3 - p1:
        return "gain"
    if gap < -bound * p_med:
        return "worse"
    spread = max((p3 - p1) / p_med if p_med else math.inf,
                 (c3 - c1) / c_med if c_med else math.inf)
    if spread > bound and not all(sign * (c - p) > 0
                                  for c in change for p in parent):
        return "unresolved"
    return "no worse"


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict[str, dict]:
    """Under "metrics", per metric: each side's (q1, median, q3), the
    change's wins and losses over the pairs, their sign-test p-value, the
    change of the median relative to the parent's and, for a metric
    ``bounds`` names, its ``verdict``. Under "ops", per
    side: its ``failed`` and ``attempted`` operations summed over all its
    runs.
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
            bases[name] = {side: quartiles(v) if v else None
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
        parent = quartiles([p for p, _ in both])
        change = quartiles([c for _, c in both])
        out[name] = {
            "n": len(both), "parent": parent, "change": change,
            "wins": wins, "losses": losses, "p": sign_test_p(wins, losses),
            "median_delta": change[1] / parent[1] - 1 if parent[1] else None,
        }
        if bounds and name in bounds:
            out[name]["verdict"] = verdict([p for p, _ in both],
                                           [c for _, c in both], wins,
                                           direction, bounds[name])
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
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
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
          f"{'median':>8} {'wins':>6} {'p':>8}  verdict")
    summary = summarize(pairs, better, bounds)
    for name, s in summary["metrics"].items():
        p = "/".join(f"{v:.4g}" for v in s["parent"])
        c = "/".join(f"{v:.4g}" for v in s["change"])
        delta = (f"{s['median_delta']:+.1%}" if s["median_delta"] is not None
                 else "n/a")
        print(f"{name:<12} {p:>28} {c:>28} {delta:>8} "
              f"{s['wins']:>3}/{s['n']} {s['p']:>8.4g}  {s['verdict']}")
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
