"""Workload inputs, the measured rounds and the correctness gates.

Every workload runs as rounds. A round runs ``runner.run_client`` on a
fixed payload in a closed loop, once behind the boundary and once direct
(untrusted), back to back. End-to-end figures are medians over the rounds
of one run, so one disturbed round does not move them.

In a traced run each round also runs an open loop at a fixed rate, each op
timed from when it was due (Tene, "How NOT to Measure Latency"; wrk2): one
relayed chunk send to the TCP sink, one ``Session.invoke`` of the
benchmark's own trusted application each, against a native socket send on
the same schedule. Only per-layer metrics read it.

The inputs depend only on the seed; the program receives nothing else.
"""

from __future__ import annotations

import functools
import hashlib
import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

from teebench import clock, runner, traffic
from teebench.boundary import IoctlCode, TeeResult, initialize_context
from teebench.core import (
    DEFAULT_SOCKET_BUFFER,
    KIB,
    MIB,
    Execution,
    Mode,
    Protocol,
    RunConfig,
    SharedMode,
)

from benchta import CONNECT_RPCS, DISCONNECT_RPCS, TA_NAME, BenchCommand

# Pacing uses the package's own helper, bound here once so that the traced
# run does not count the generator's idle wait as time in the clock layer.
wait_until = clock.wait_until
monotonic = clock.monotonic


@dataclass(frozen=True)
class Workload:
    name: str
    chunk: int                  # payload bytes per op
    closed_bytes: int           # bytes per run_client transfer
    rate: float                 # open-loop sends/s (traced runs only)
    open_seconds: float         # open-loop length per round


# Each open-loop rate is the power of two nearest a utilisation of 0.25,
# rate x the open-loop op's mean service time (about 120 us for a relayed
# 1 KiB send and 500 us for 128 KiB, measured on one core), so most ops
# find the path idle and the p99 shows queueing, not saturation. Each
# traced run prints the utilisation it actually offered.
WORKLOADS = {w.name: w for w in (
    Workload("relay-1k", 1 * KIB, closed_bytes=4 * MIB,
             rate=2048, open_seconds=0.15),
    Workload("relay-128k", 128 * KIB, closed_bytes=64 * MIB,
             rate=512, open_seconds=0.3),
)}


def payload_seed(seed: int) -> int:
    return seed % 2**64


@functools.lru_cache(maxsize=8)
def repeated_digest(payload: bytes, count: int) -> str:
    """SHA-256 of ``payload`` sent ``count`` times, computed independently."""
    h = hashlib.sha256()
    for _ in range(count):
        h.update(payload)
    return h.hexdigest()


# --------------------------------------------------------------------------
# correctness gates: each returns the reasons a result is wrong, [] if none
# --------------------------------------------------------------------------


def relay_gate(configured: int, expected_sha: str, transfer, record,
               stats=None) -> list[str]:
    """Gate for one ``run_client`` transfer and the sink's record of it."""
    reasons = []
    if transfer.error:
        reasons.append(f"run reported an error: {transfer.error}")
    if not (record.bytes_received == transfer.bytes_transferred == configured):
        reasons.append(
            f"bytes: sink {record.bytes_received}, client "
            f"{transfer.bytes_transferred}, configured {configured}")
    if not (record.payload_sha256 == transfer.payload_sha256 == expected_sha):
        reasons.append("payload SHA-256 differs between sink, client and input")
    if stats is not None and stats.crossings != 2 * (transfer.transmit_calls + 6):
        reasons.append(
            f"crossings {stats.crossings} != 2*(transmit_calls + 6) = "
            f"{2 * (transfer.transmit_calls + 6)}")
    return reasons


def sink_gate(expected_bytes: int, expected_sha: str, record) -> list[str]:
    """Gate for an open-loop flow: the sink got exactly what was sent."""
    reasons = []
    if record.error:
        reasons.append(f"sink reported an error: {record.error}")
    if record.bytes_received != expected_bytes:
        reasons.append(
            f"bytes: sink {record.bytes_received}, sent {expected_bytes}")
    if record.payload_sha256 != expected_sha:
        reasons.append("payload SHA-256 differs between sink and input")
    return reasons


def crossing_gate(stats, invokes: int, rpcs: int) -> list[str]:
    """One session: open and close, ``invokes`` invocations and ``rpcs``
    relayed socket calls, two crossings each."""
    expected = 2 * (invokes + rpcs) + 4
    reasons = []
    if stats.crossings != expected:
        reasons.append(f"crossings {stats.crossings} != 2*(invokes + rpcs) + 4 "
                       f"= {expected}")
    if stats.rpc_count != rpcs:
        reasons.append(f"rpc_count {stats.rpc_count} != {rpcs}")
    return reasons


# --------------------------------------------------------------------------
# measurement plumbing
# --------------------------------------------------------------------------


RATIOS = (
    ("slowdown_x", "direct_goodput_MBps", "goodput_MBps"),
    ("cpu_x", "cpu_ns_per_byte", "direct_cpu_ns_per_byte"),
    ("open.p50_x", "open.p50_us", "direct_open.p50_us"),
    ("open.p99_x", "open.p99_us", "direct_open.p99_us"),
)


@dataclass
class Tally:
    """Per-round samples, pooled latencies and op accounting of one run."""

    rounds: dict = field(default_factory=lambda: defaultdict(list))
    pooled: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.rounds[name].append(value)

    def ops(self, attempted: int, failed: int = 0, gate_reasons=(),
            where: str = "") -> None:
        """Count one unit's ops; a failed gate fails every op of the unit."""
        if gate_reasons:
            failed = attempted
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append("; ".join(
                [f"{where}: {failed} of {attempted} ops failed", *gate_reasons]))

    def median(self, name: str) -> float:
        """Median over rounds; 0 when no unit of the run produced the
        sample, which happens only when those units failed."""
        values = self.rounds.get(name)
        return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def cpu_split() -> tuple[float, float]:
    """(this process, reaped children) CPU seconds so far."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def open_loop(call, check, n: int, rate: float, tally: Tally, sample: dict,
              prefix: str) -> int:
    """Issue ``call()`` for op ``i`` at ``t0 + i / rate``, open loop.

    Response time runs from the due time, service time from the actual
    start; ``check(result)`` runs after the op is timed. Returns the
    number of failed checks.
    """
    interval = 1.0 / rate
    response, service, lag = [], [], []
    failed = 0
    t0 = monotonic() + interval
    for i in range(n):
        due = t0 + i * interval
        start = wait_until(due)
        result = call()
        end = monotonic()
        response.append(end - due)
        service.append(end - start)
        lag.append(start - due)
        if not check(result):
            failed += 1
    tally.pooled[f"{prefix}.service"].extend(service)
    tally.pooled[f"{prefix}.lag"].extend(lag)
    sample[f"{prefix}.p50_us"] = percentile(response, 50) * 1e6
    sample[f"{prefix}.p99_us"] = percentile(response, 99) * 1e6
    return failed


def _next_record(sink, before: int):
    return sink.wait_for_records(before + 1)[before]


def _failure(exc: BaseException) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc}"]


# --------------------------------------------------------------------------
# rounds
# --------------------------------------------------------------------------


def relay_round(wl: Workload, seed: int, sink, tally: Tally,
                scale: float = 1.0, open_loop: bool = False) -> None:
    """One round. A unit that raises or fails its gate counts all its ops
    as failed; the round's other units still report."""
    payload = traffic.fill_dummy_buffer(wl.chunk, payload_seed(seed))
    chunks = max(1, int(wl.closed_bytes * scale) // wl.chunk)
    sample: dict[str, float] = {}
    for execution in (Execution.BOUNDARY, Execution.DIRECT):
        try:
            reasons = _closed_loop(wl, seed, sink, payload, chunks, execution,
                                   sample)
        except Exception as exc:
            reasons = _failure(exc)
        tally.ops(chunks, 0, reasons, f"closed loop {execution.value}")

    if open_loop:
        n = max(2, int(wl.rate * wl.open_seconds * scale))
        for where, unit in (("open loop boundary", _open_boundary),
                            ("open loop direct", _open_direct)):
            try:
                failed, reasons = unit(wl, seed, sink, tally, sample, payload, n)
            except Exception as exc:
                failed, reasons = n, _failure(exc)
            tally.ops(n, failed, reasons, where)

    for name, num, den in RATIOS:
        if num in sample and den in sample:
            sample[name] = sample[num] / sample[den]
    for name, value in sample.items():
        tally.add(name, value)


def _closed_loop(wl, seed, sink, payload, chunks, execution,
                 sample) -> list[str]:
    total = chunks * wl.chunk
    cfg = RunConfig(mode=Mode.FIXED_BYTES, total_bytes=total,
                    chunk_size=wl.chunk, port=sink.port,
                    execution=execution, shared_mode=SharedMode.WHOLE,
                    switch_cost=0.0, rng_seed=payload_seed(seed))
    before = len(sink.collected())
    self0, kids0 = cpu_split()
    t0 = monotonic()
    result = runner.run_client(cfg, transport="process")
    wall = monotonic() - t0
    self1, kids1 = cpu_split()
    record = _next_record(sink, before)
    transfer, stats = result.transfer, result.boundary_stats
    reasons = relay_gate(total, repeated_digest(payload, chunks), transfer,
                         record, stats)

    prefix = "" if execution is Execution.BOUNDARY else "direct_"
    cpu = (self1 - self0) + (kids1 - kids0)
    sample[f"{prefix}goodput_MBps"] = (record.bytes_received
                                       / transfer.total_runtime / 1e6)
    sample[f"{prefix}cpu_ns_per_byte"] = cpu * 1e9 / max(1, record.bytes_received)
    if execution is Execution.DIRECT:
        return reasons
    calls = max(1, transfer.transmit_calls)
    sample["setup_s"] = wall - transfer.total_runtime
    sample["boundary.crossings_per_op"] = stats.crossings / calls
    sample["boundary.rpc_count"] = stats.rpc_count
    sample["boundary.bytes_copied"] = stats.bytes_copied
    sample["op.service_mean_us"] = transfer.time_in_transmit / calls * 1e6
    sample["op.busy_frac"] = transfer.time_in_transmit / transfer.total_runtime
    sample["cpu.normal_busy_frac"] = (self1 - self0) / wall
    sample["cpu.trusted_busy_frac"] = (kids1 - kids0) / wall
    sample["server.bytes_per_recv"] = (record.bytes_received
                                       / max(1, record.receive_calls))
    sample["server.receive_calls"] = record.receive_calls
    return reasons


def _open_boundary(wl, seed, sink, tally, sample, payload, n):
    ctx = initialize_context(transport="process")
    before = len(sink.collected())
    calls = 0

    def call():
        return session.invoke(BenchCommand.SEND, values=(1,))

    def check(result) -> bool:
        nonlocal calls
        if result.values:
            calls += result.values[0]
        return result.status == TeeResult.SUCCESS

    try:
        session = ctx.open_session(TA_NAME)
        try:
            connected = session.invoke(
                BenchCommand.CONNECT,
                values=(sink.port, wl.chunk, payload_seed(seed)))
            if connected.status != TeeResult.SUCCESS:
                return n, [f"bench TA connect failed: {connected.status.name}"]
            failed = open_loop(call, check, n, wl.rate, tally, sample, "open")
            session.invoke(BenchCommand.DISCONNECT)
        finally:
            session.close()
        stats = ctx.stats
    finally:
        ctx.finalize()
    record = _next_record(sink, before)
    reasons = sink_gate(n * wl.chunk, repeated_digest(payload, n), record)
    reasons += crossing_gate(stats, n + 2, CONNECT_RPCS + calls + DISCONNECT_RPCS)
    return failed, reasons


def _open_direct(wl, seed, sink, tally, sample, payload, n):
    before = len(sink.collected())
    sock = traffic.DirectEnv().open_socket("127.0.0.1", sink.port, Protocol.TCP)
    sock.ioctl(IoctlCode.SET_BUF_SIZES,
               (DEFAULT_SOCKET_BUFFER, DEFAULT_SOCKET_BUFFER))

    def call():
        view = memoryview(payload)
        while view:
            sent = sock.send(view)
            if sent <= 0:
                return False
            view = view[sent:]
        return True

    try:
        failed = open_loop(call, bool, n, wl.rate, tally, sample, "direct_open")
    finally:
        sock.close()
    record = _next_record(sink, before)
    return failed, sink_gate(n * wl.chunk, repeated_digest(payload, n), record)
