"""Fixed-rate KV workload driver producing throughput-latency series.

Per rate point the driver issues a batch of PUT/GET/DEL operations paced
at the target rate against a 512 KiB region of seeded random data, using
1 KiB chunks at 1 KiB-aligned offsets. The key is the slot index
(offset // 1 KiB), so the 512 keys spread two to a bucket.
Every operation is timed individually on the monotonic clock. The store
runs either in-process (direct) or as the trusted application behind the
boundary, where session-bound sharing registers the data region once and
temporary sharing re-registers it on every invocation.
"""

from __future__ import annotations

import enum
import random
import statistics
from dataclasses import dataclass

from . import clock
from .boundary import initialize_context
from .boundary.protocol import TeeResult
from .boundary.tas import KvCommand
from .core import KIB, Execution, SharedMode
from .kvstore import KvStore
from .runner import alloc_window_region
from .traffic import fill_dummy_buffer

REGION_SIZE = 512 * KIB
OP_CHUNK = 1 * KIB
SLOT_COUNT = REGION_SIZE // OP_CHUNK
OPS_PER_RATE = 256
RATES = tuple(2 ** i for i in range(16))     # 1 .. 32768 ops/s


class Workload(enum.Enum):
    PUT = "put"
    GET = "get"
    DEL = "del"
    MIX20 = "mix20"     # 20% PUT, 80% GET
    MIX50 = "mix50"     # 50% PUT, 50% GET


_PUT_FRACTION = {Workload.MIX20: 0.2, Workload.MIX50: 0.5}


def op_types(workload: Workload, count: int, rng: random.Random) -> list[str]:
    """Exact-count operation mix for one rate point, seeded shuffle order."""
    if workload not in _PUT_FRACTION:  # one kind, named by the workload
        return [workload.value] * count
    puts = round(count * _PUT_FRACTION[workload])
    types = ["put"] * puts + ["get"] * (count - puts)
    rng.shuffle(types)
    return types


@dataclass(frozen=True)
class RatePoint:
    target_rate: float          # ops/s
    achieved_rate: float
    mean_latency: float         # seconds
    p50: float
    p95: float
    p99: float
    ops: int
    misses: int                 # not-found GET/DEL results
    underrun: bool

    def to_dict(self) -> dict:
        return {
            "target_rate": self.target_rate,
            "achieved_rate": self.achieved_rate,
            "latency": {
                "mean": self.mean_latency,
                "p50": self.p50,
                "p95": self.p95,
                "p99": self.p99,
            },
            "ops": self.ops,
            "misses": self.misses,
            "underrun": self.underrun,
        }


@dataclass(frozen=True)
class ThroughputLatencySeries:
    workload: Workload
    execution: Execution
    shared_mode: SharedMode
    seed: int
    records: tuple[RatePoint, ...]

    def to_dict(self) -> dict:
        return {
            "workload": self.workload.value,
            "execution": self.execution.value,
            "shared_mode": self.shared_mode.value,
            "seed": self.seed,
            "records": [r.to_dict() for r in self.records],
        }


class KvBenchError(RuntimeError):
    """The store returned an unexpected status during a bench run."""


class _DirectKvRunner:
    """The store as a plain in-process object (the untrusted baseline)."""

    def __init__(self, seed: int):
        self.buffer = bytearray(fill_dummy_buffer(REGION_SIZE, seed))
        self.store = KvStore()

    def op(self, kind: str, key: int) -> bool:
        offset = key * OP_CHUNK
        if kind == "put":
            self.store.put(key, memoryview(self.buffer)[offset:offset + OP_CHUNK])
            return True
        if kind == "get":
            value = self.store.get(key)
            if value is None:
                return False
            self.buffer[offset:offset + OP_CHUNK] = value
            return True
        return self.store.delete(key)

    def close(self) -> None:
        pass


# op kind -> (command, how many of (key, offset, length) it takes)
_KV_REQUESTS = {"put": (KvCommand.PUT, 3), "get": (KvCommand.GET, 2),
                "del": (KvCommand.DEL, 1)}


class _BoundaryKvRunner:
    """The store as a trusted application reached through the boundary."""

    def __init__(self, seed: int, shared_mode: SharedMode, switch_cost: float,
                 transport: str):
        self.ctx = initialize_context(switch_cost=switch_cost, transport=transport)
        self.region = alloc_window_region(self.ctx, REGION_SIZE, shared_mode)
        self.region.window_write(0, fill_dummy_buffer(REGION_SIZE, seed))
        if shared_mode is SharedMode.TEMPORARY:
            self.session = self.ctx.open_session("kv")
            self._invoke_regions = (self.region,)
        else:
            self.session = self.ctx.open_session("kv", args_regions=(self.region,))
            self._invoke_regions = ()

    def op(self, kind: str, key: int) -> bool:
        command, arity = _KV_REQUESTS[kind]
        result = self.session.invoke(
            command, regions=self._invoke_regions,
            values=(key, key * OP_CHUNK, OP_CHUNK)[:arity],
        )
        if result.status == TeeResult.SUCCESS:
            return True
        if result.status == TeeResult.NOT_FOUND:
            return False
        raise KvBenchError(f"{kind} returned {result.status.name}")

    def close(self) -> None:
        self.session.close()
        self.ctx.release_region(self.region)
        self.ctx.finalize()


def _latency_stats(latencies: list[float]) -> tuple[float, float, float, float]:
    """Mean, p50, p95 and p99 of at least two latencies (a rate point
    runs at least 4 ops)."""
    qs = statistics.quantiles(latencies, n=100)
    return statistics.fmean(latencies), qs[49], qs[94], qs[98]


def run_kv_bench(
    workload: Workload,
    shared_mode: SharedMode = SharedMode.WHOLE,
    execution: Execution = Execution.DIRECT,
    *,
    rates=RATES,
    seed: int = 0,
    prepopulate: bool = False,
    switch_cost: float = 0.0,
    transport: str = "process",
    max_seconds_per_rate: float | None = None,
) -> ThroughputLatencySeries:
    """Drive the workload over the rate ladder and collect latency stats.

    GET and DEL keys are drawn from keys previously PUT (misses otherwise;
    a GET-only run on an empty store yields not-found results but still a
    complete series). ``prepopulate`` pre-fills every slot untimed first.
    ``max_seconds_per_rate`` trims the op count at slow rates so the whole
    ladder fits a time budget.
    """
    if execution is Execution.DIRECT:
        runner = _DirectKvRunner(seed)
    else:
        runner = _BoundaryKvRunner(seed, shared_mode, switch_cost, transport)

    rng = random.Random(seed)
    present: list[int] = []
    present_set: set[int] = set()

    def track_put(key: int):
        if key not in present_set:
            present_set.add(key)
            present.append(key)

    def track_del(key: int):
        if key in present_set:
            present_set.remove(key)
            present.remove(key)

    def pick_key(kind: str) -> int:
        if kind != "put" and present:
            return rng.choice(present)
        return rng.randrange(SLOT_COUNT)

    try:
        if prepopulate:
            for key in range(SLOT_COUNT):
                runner.op("put", key)
                track_put(key)

        records = []
        for rate in rates:
            ops = OPS_PER_RATE
            if max_seconds_per_rate is not None:
                ops = min(ops, max(4, int(rate * max_seconds_per_rate)))
            types = op_types(workload, ops, rng)
            interval = 1.0 / rate
            latencies: list[float] = []
            misses = 0
            t0 = clock.monotonic()
            for i, kind in enumerate(types):
                clock.wait_until(t0 + i * interval)
                key = pick_key(kind)
                start = clock.monotonic()
                found = runner.op(kind, key)
                latencies.append(clock.monotonic() - start)
                if not found:
                    misses += 1
                if kind == "put":
                    track_put(key)
                elif kind == "del":
                    track_del(key)
            elapsed, underrun = clock.finish_schedule(t0, t0 + ops * interval)
            mean, p50, p95, p99 = _latency_stats(latencies)
            records.append(RatePoint(
                target_rate=float(rate),
                achieved_rate=ops / elapsed,
                mean_latency=mean,
                p50=p50, p95=p95, p99=p99,
                ops=ops,
                misses=misses,
                underrun=underrun,
            ))
    finally:
        runner.close()

    return ThroughputLatencySeries(
        workload=workload,
        execution=execution,
        shared_mode=shared_mode,
        seed=seed,
        records=tuple(records),
    )
