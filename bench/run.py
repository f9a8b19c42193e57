"""teebench benchmark: one workload per call, correctness-gated.

    python3 bench/run.py --workload relay-1k --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. With ``--trace 0`` the
last stdout line is a JSON object carrying every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it carries every per-layer metric
(layer probes, untraced rounds, one traced round). The lines before it
are the human-readable report. The benchmark process, and the trusted
processes it forks, run on one core. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = Path(__file__).resolve().parent / "out"

MIN_ROUNDS = 3
MAX_ROUNDS = 400
WARMUP_SCALE = 0.25
FLOOR_BUDGET = 0.1          # seconds per floor probe in an untraced run
# a traced run spends these shares of --seconds on the layer probes and on
# untraced rounds, then runs one traced round
PROBE_SHARE = 0.5
PROBE_COUNT = 26
PLAIN_SHARE = 0.4

# per-round series printed in the report beside the end-to-end metrics
SERIES_UNITS = {
    "goodput_MBps": "MB/s", "direct_goodput_MBps": "MB/s",
    "cpu_ns_per_byte": "ns/B", "direct_cpu_ns_per_byte": "ns/B",
    "server.bytes_per_recv": "B", "server.receive_calls": "count",
}

# per-layer metrics that are medians over the untraced rounds of a traced run
ROUND_LAYER_METRICS = (
    "boundary.crossings_per_op", "boundary.rpc_count", "boundary.bytes_copied",
    "op.service_mean_us", "op.busy_frac",
    "cpu.normal_busy_frac", "cpu.trusted_busy_frac", "open.p50_x", "open.p99_x",
)


def pin_to_one_core() -> None:
    """Run this process and every process it forks on one core.

    The normal world and the trusted process then share a core, as they do
    on TrustZone hardware, where a world switch stays on the calling core.
    It also keeps the figures steady on a host that cannot give both vCPUs
    a full core: unpinned runs there measured 26-37% steal time and
    boundary goodput dropped to about 40%, pinned ones 2-9% (see
    bench/README.md).
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "teebench" / "__init__.py").is_file():
        raise SystemExit(f"error: no teebench sources under {src}")
    sys.path.insert(0, str(src))


def git_sha() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def run_rounds(wl, seed, sink, seconds, tally, open_loop=False) -> int:
    """Repeat rounds for ``seconds`` (at least MIN_ROUNDS); returns how many."""
    from workloads import monotonic, relay_round

    start = monotonic()
    rounds = 0
    while rounds < MIN_ROUNDS or (monotonic() - start < seconds
                                  and rounds < MAX_ROUNDS):
        relay_round(wl, seed, sink, tally, open_loop=open_loop)
        rounds += 1
    return rounds


def calibrate_floor(budget: float) -> dict[str, float]:
    """The emulator floor printed beside the boundary results."""
    from layers import noop_invoke_us, pipe_rtt_us

    floor = statistics.median(pipe_rtt_us(budget))
    noop = statistics.median(noop_invoke_us("process", budget))
    return {"floor.pipe_rtt_us": floor, "boundary.noop_invoke_us.p50": noop,
            "boundary.floor_ratio": noop / floor}


def traced_metrics(wl, seed, sink, seconds, plain, traced,
                   out) -> dict[str, float]:
    """Layer probes, untraced rounds, then one traced round; the rounds
    include the open loop."""
    from layers import run_layers
    from tracing import LAYERS, Tracer, self_times
    from workloads import monotonic, percentile, relay_round

    metrics = run_layers(wl.chunk, sink, seed,
                         budget=seconds * PROBE_SHARE / PROBE_COUNT)
    run_rounds(wl, seed, sink, seconds * PLAIN_SHARE, plain, open_loop=True)

    tracer = Tracer(OUT_DIR)
    tracer.collect_children()           # stale files of an aborted run
    tracer.install()
    try:
        t0 = monotonic()
        relay_round(wl, seed, sink, traced, open_loop=True)
        traced_wall = monotonic() - t0
    finally:
        tracer.uninstall()
    children = tracer.collect_children()

    for name in ROUND_LAYER_METRICS:
        metrics[name] = plain.median(name)
    service, lag = plain.pooled["open.service"], plain.pooled["open.lag"]
    metrics["open.service_p50_us"] = percentile(service, 50) * 1e6
    metrics["open.service_p99_us"] = percentile(service, 99) * 1e6
    metrics["open.gen_lag_p99_us"] = percentile(lag, 99) * 1e6
    offered = wl.rate * statistics.mean(service) if service else 0.0
    untraced_goodput = plain.median("goodput_MBps")
    traced_goodput = traced.median("goodput_MBps")
    metrics["trace.overhead_frac"] = (untraced_goodput / traced_goodput - 1
                                      if traced_goodput else 0.0)
    trusted_spans = sum(len(c["spans"]) for c in children)

    normal = self_times(tracer.spans)
    trusted = [self_times(c["spans"]) for c in children]
    wall_ns = traced_wall * 1e9
    print(f"traced round: {traced_wall:.3f} s; goodput {traced_goodput:.4g} MB/s "
          f"traced against {untraced_goodput:.4g} MB/s untraced (overhead "
          f"{metrics['trace.overhead_frac']:.3f}); {len(tracer.spans)} "
          f"normal-side spans, {trusted_spans} trusted-side "
          f"spans from {len(children)} trusted process(es)", file=out)
    print(f"open loop: {wl.rate:g} sends/s offered a utilisation of "
          f"{offered:.3f} (rate x mean service time, boundary side)", file=out)
    print(f"  {'layer':<12} {'normal self':>12} {'trusted self':>13} "
          f"{'share of wall':>14}", file=out)
    for layer in LAYERS:
        n_ns = normal.get(layer, 0)
        t_ns = sum(t.get(layer, 0) for t in trusted)
        metrics[f"trace.self_frac.{layer}"] = (n_ns + t_ns) / wall_ns
        print(f"  {layer:<12} {n_ns / 1e6:>9.2f} ms {t_ns / 1e6:>10.2f} ms "
              f"{(n_ns + t_ns) / wall_ns:>14.4f}", file=out)
    print("  pipe_read includes the wait for the other side, so shares "
          "may sum past 1", file=out)
    if not children:
        print("  trusted side: no spans collected", file=out)

    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.json"
    with open(spans_path, "w") as f:
        json.dump({"normal": tracer.spans, "trusted": children}, f)
    print(f"spans written to {spans_path.relative_to(ROOT)}", file=out)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    spec = json.loads(SPEC_FILE.read_text())
    from teebench.server import BenchmarkServer, ServerConfig

    import benchta  # noqa: F401  registers the bench trusted application
    from workloads import WORKLOADS, Tally, relay_round

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    out = sys.stdout
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    provenance = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "git_sha": git_sha(),
        "loadavg_1m_start": os.getloadavg()[0],
    }
    OUT_DIR.mkdir(exist_ok=True)
    warmup, tally, traced = Tally(), Tally(), Tally()

    with BenchmarkServer(ServerConfig(bind="127.0.0.1", port=0)) as sink:
        relay_round(wl, args.seed, sink, warmup, scale=WARMUP_SCALE,
                    open_loop=bool(args.trace))
        if args.trace:
            metrics = traced_metrics(wl, args.seed, sink, args.seconds,
                                     tally, traced, out)
        else:
            floor = calibrate_floor(FLOOR_BUDGET)
            provenance["rounds"] = run_rounds(wl, args.seed, sink,
                                              args.seconds, tally)
            metrics = {m["name"]: tally.median(m["name"]) for m in wanted}
    provenance["loadavg_1m_end"] = os.getloadavg()[0]
    lag = tally.pooled["open.lag"]
    if len(lag) >= 2:
        provenance["generator_lag_us"] = {
            "p50": statistics.median(lag) * 1e6,
            "p99": statistics.quantiles(lag, n=100)[98] * 1e6,
            "max": max(lag) * 1e6,
        }

    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError("metric set differs from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    print(f"provenance {json.dumps(provenance)}", file=out)
    for m in wanted:
        note = ""
        if not args.trace:
            note = f"  (median over rounds; {_quartiles(tally.rounds[m['name']])})"
        print(f"{m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']:<6}{note}",
              file=out)
    if not args.trace:
        for name, unit in SERIES_UNITS.items():
            if tally.rounds.get(name):
                print(f"{name:<36} {tally.median(name):>14.6g} {unit:<6}  "
                      f"({_quartiles(tally.rounds[name])})", file=out)
        for name, value in floor.items():
            unit = "x" if name.endswith("ratio") else "us"
            print(f"{name:<36} {value:>14.6g} {unit:<6}  "
                  "(calibrated emulator floor, closed loop)", file=out)

    runs = (warmup, tally, traced)
    attempted = sum(t.attempted for t in runs)
    failed = sum(t.failed for t in runs)
    print(f"failed_frac {failed / max(1, attempted):.6g} "
          f"({failed} failed of {attempted} attempted ops)", file=out)
    for t in runs:
        for reason in t.failures:
            print(f"FAILED {reason}", file=out)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), file=out, flush=True)
    return 0


if __name__ == "__main__":
    try:
        pin_to_one_core()
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
