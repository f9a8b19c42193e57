"""Per-layer probes: each times calls into one module's public surface.

Sizes that matter follow the workload's chunk (1 KiB or 128 KiB), so the
same metric name means "this layer at this workload's op size". Every
probe runs for a short time budget and reports the median call (p99 where
named), in microseconds unless the name says otherwise.
"""

from __future__ import annotations

import os
import statistics
import time

from teebench import clock, traffic
from teebench.boundary import (
    DISCARD_HANDLE,
    NOOP_COMMAND,
    Command,
    Supplicant,
    TrustedRegionView,
    initialize_context,
)
from teebench.boundary.protocol import (
    Message,
    pack_invoke_body,
    read_message,
    unpack_invoke_body,
    write_message,
)
from teebench.core import KIB, Protocol, SharedMode
from teebench.kvstore import KvStore, bucket_of

from benchta import TA_NAME, BenchCommand
from workloads import percentile

REGION_PROBE_SIZE = 512 * KIB
KV_KEYS = 512               # KvStore probe: slot-index keys 0..511
KV_VALUE = 1 * KIB
INJECTED_COST = 10e-6       # clock probe: one modelled 10 us world switch
DISCARD_BATCH = 64
MAX_SAMPLES = 100_000       # bounds memory when a call takes well under 1 us


def _samples_us(fn, budget: float, min_n: int = 20) -> list[float]:
    out = []
    end = time.perf_counter() + budget
    while len(out) < min_n or (time.perf_counter() < end
                               and len(out) < MAX_SAMPLES):
        t0 = time.perf_counter_ns()
        fn()
        out.append((time.perf_counter_ns() - t0) / 1e3)
    return out


def pipe_rtt_us(budget: float) -> list[float]:
    """32-byte ping-pong over two os.pipe()s with a forked echo process."""
    ping_r, ping_w = os.pipe()
    pong_r, pong_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(ping_w)
            os.close(pong_r)
            while True:
                msg = os.read(ping_r, 32)
                if not msg:
                    break
                os.write(pong_w, msg)
        finally:
            os._exit(0)
    os.close(ping_r)
    os.close(pong_w)
    msg = bytes(32)

    def once():
        os.write(ping_w, msg)
        os.read(pong_r, 32)

    try:
        return _samples_us(once, budget)
    finally:
        os.close(ping_w)
        os.close(pong_r)
        os.waitpid(pid, 0)


def _session_probe(transport: str, fn, budget: float) -> list[float]:
    ctx = initialize_context(transport=transport)
    session = ctx.open_session(TA_NAME)
    try:
        return _samples_us(lambda: fn(session), budget)
    finally:
        session.close()
        ctx.finalize()


def noop_invoke_us(transport: str, budget: float) -> list[float]:
    return _session_probe(transport, lambda s: s.invoke(NOOP_COMMAND), budget)


def _session_cycle() -> None:
    ctx = initialize_context(transport="process")
    ctx.open_session(TA_NAME).close()
    ctx.finalize()


def _region_probes(chunk: int, budget: float) -> dict[str, float]:
    ctx = initialize_context(transport="inline")
    out = {}
    region = ctx.allocate_shared_region(REGION_PROBE_SIZE, SharedMode.WHOLE)
    try:
        data = bytes(chunk)
        desc = region.descriptor
        out["regions.alloc_release_us"] = _samples_us(
            lambda: ctx.release_region(
                ctx.allocate_shared_region(REGION_PROBE_SIZE, SharedMode.WHOLE)),
            budget)
        out["regions.window_write_us"] = _samples_us(
            lambda: region.window_write(0, data), budget)
        out["regions.window_read_us"] = _samples_us(
            lambda: region.window_read(0, chunk), budget)
        view = TrustedRegionView(desc)
        try:
            out["regions.view_write_us"] = _samples_us(
                lambda: view.write(0, data), budget)
        finally:
            view.revoke()
        out["regions.view_map_us"] = _samples_us(
            lambda: TrustedRegionView(desc).revoke(), budget)
        out["protocol.invoke_body_us"] = _samples_us(
            lambda: unpack_invoke_body(pack_invoke_body(2, [desc], (1, 2, 3))),
            budget)
        supplicant = Supplicant()
        msg = Message(Command.SOCK_SEND, region.region_id, 0, chunk, DISCARD_HANDLE)
        known = {region.region_id: region}
        out["supplicant.service_discard_us"] = _samples_us(
            lambda: supplicant.service(msg, known), budget)
    finally:
        ctx.release_region(region)
        ctx.finalize()
    return {name: statistics.median(v) for name, v in out.items()}


def _frame_rt_us(budget: float) -> list[float]:
    r, w = os.pipe()
    try:
        return _samples_us(
            lambda: (write_message(w, Command.RETURN), read_message(r)), budget)
    finally:
        os.close(r)
        os.close(w)


def _direct_send_us(chunk: int, sink, budget: float) -> list[float]:
    before = len(sink.collected())
    sock = traffic.DirectEnv().open_socket("127.0.0.1", sink.port, Protocol.TCP)
    data = memoryview(bytes(chunk))

    def send_all():
        view = data
        while view:
            view = view[sock.send(view):]

    try:
        return _samples_us(send_all, budget)
    finally:
        sock.close()
        sink.wait_for_records(before + 1)


def _kvstore_probes(budget: float) -> dict[str, float]:
    value = bytes(KV_VALUE)
    keys = range(KV_KEYS)
    store = KvStore()
    times = {"put": [], "get": [], "delete": []}
    end = time.perf_counter() + budget
    while not times["put"] or (time.perf_counter() < end
                               and len(times["put"]) < MAX_SAMPLES):
        for kind, call in (("put", lambda k: store.put(k, value)),
                           ("get", store.get), ("delete", store.delete)):
            for key in keys:
                t0 = time.perf_counter_ns()
                call(key)
                times[kind].append((time.perf_counter_ns() - t0) / 1e3)
    chains = {}
    for key in keys:
        chains[bucket_of(key)] = chains.get(bucket_of(key), 0) + 1
    return {
        "kvstore.put_us.p50": statistics.median(times["put"]),
        "kvstore.get_us.p50": statistics.median(times["get"]),
        "kvstore.delete_us.p50": statistics.median(times["delete"]),
        "kvstore.max_chain": max(chains.values()),
        "kvstore.mean_chain": KV_KEYS / len(chains),
    }


def run_layers(chunk: int, sink, seed: int, budget: float) -> dict[str, float]:
    """Every per-layer probe at ``chunk`` bytes, ``budget`` seconds each."""
    m = {}
    floor = pipe_rtt_us(budget)
    m["floor.pipe_rtt_us"] = statistics.median(floor)

    noop = noop_invoke_us("process", budget)
    m["boundary.noop_invoke_us.p50"] = statistics.median(noop)
    m["boundary.noop_invoke_us.p99"] = percentile(noop, 99)
    m["boundary.noop_invoke_inline_us.p50"] = statistics.median(
        noop_invoke_us("inline", budget))
    m["boundary.floor_ratio"] = (m["boundary.noop_invoke_us.p50"]
                                 / m["floor.pipe_rtt_us"])

    def discard(s):
        s.invoke(BenchCommand.DISCARD, values=(DISCARD_BATCH, chunk))

    m["boundary.discard_send_us"] = statistics.median(
        _session_probe("process", discard, budget)) / DISCARD_BATCH
    m["boundary.discard_send_inline_us"] = statistics.median(
        _session_probe("inline", discard, budget)) / DISCARD_BATCH
    m["boundary.session_cycle_ms"] = statistics.median(
        _samples_us(_session_cycle, budget, min_n=5)) / 1e3

    m["protocol.frame_rt_us"] = statistics.median(_frame_rt_us(budget))
    m.update(_region_probes(chunk, budget))
    m["traffic.direct_send_us"] = statistics.median(
        _direct_send_us(chunk, sink, budget))
    m["traffic.fill_dummy_ms"] = statistics.median(_samples_us(
        lambda: traffic.fill_dummy_buffer(REGION_PROBE_SIZE, seed),
        budget, min_n=5)) / 1e3
    m.update(_kvstore_probes(budget))

    overshoot = [t - INJECTED_COST * 1e6 for t in _samples_us(
        lambda: clock.inject_delay(INJECTED_COST), budget)]
    m["clock.inject_overshoot_us.p50"] = statistics.median(overshoot)
    m["clock.inject_overshoot_us.p99"] = percentile(overshoot, 99)
    return m
