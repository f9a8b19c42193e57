import importlib
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from teebench import kvbench
from teebench.core import Execution, SharedMode
from teebench.kvbench import (
    OP_CHUNK,
    REGION_SIZE,
    SLOT_COUNT,
    ThroughputLatencySeries,
    Workload,
    op_types,
    run_kv_bench,
)
from teebench.kvstore import bucket_of

FAST_RATES = (512, 4096, 32768)
TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def sign_test_p():
    """The exact two-sided sign test ``tools/ab_pairs.py`` reports."""
    sys.path.insert(0, str(TOOLS_DIR))
    try:
        return importlib.import_module("ab_pairs").sign_test_p
    finally:
        sys.path.remove(str(TOOLS_DIR))


class TestOpMix:
    def test_mix50_is_exactly_half_puts(self):
        types = op_types(Workload.MIX50, 256, random.Random(1))
        assert types.count("put") == 128
        assert types.count("get") == 128

    def test_mix20_is_a_fifth_puts(self):
        types = op_types(Workload.MIX20, 256, random.Random(1))
        assert types.count("put") == round(256 * 0.2) == 51
        assert types.count("get") == 205

    def test_mix_is_shuffled_not_blocked(self):
        types = op_types(Workload.MIX50, 256, random.Random(1))
        assert types[:128].count("put") not in (0, 128)

    def test_deterministic_under_a_fixed_seed(self):
        a = op_types(Workload.MIX50, 256, random.Random(9))
        b = op_types(Workload.MIX50, 256, random.Random(9))
        assert a == b

    def test_single_op_workloads(self):
        assert op_types(Workload.PUT, 10, random.Random(0)) == ["put"] * 10
        assert op_types(Workload.GET, 10, random.Random(0)) == ["get"] * 10
        assert op_types(Workload.DEL, 10, random.Random(0)) == ["del"] * 10


def series_invariants(series: ThroughputLatencySeries):
    for record in series.records:
        assert record.achieved_rate <= record.target_rate * 1.05
        assert 0 <= record.p50 <= record.p95 <= record.p99
        assert record.mean_latency >= 0


class TestDirectSeries:
    def test_get_only_on_an_empty_store_misses_everything(self):
        series = run_kv_bench(Workload.GET, rates=(32768,), seed=3)
        assert len(series.records) == 1
        assert series.records[0].ops == 256
        assert series.records[0].misses == 256
        series_invariants(series)

    def test_prepopulated_get_never_misses(self):
        series = run_kv_bench(Workload.GET, rates=(32768,), seed=3,
                              prepopulate=True)
        assert series.records[0].misses == 0

    def test_series_covers_every_requested_rate(self):
        series = run_kv_bench(Workload.MIX50, rates=FAST_RATES, seed=1)
        assert [r.target_rate for r in series.records] == [512.0, 4096.0, 32768.0]
        series_invariants(series)

    def test_key_choices_reproducible_from_the_seed(self):
        a = run_kv_bench(Workload.MIX20, rates=(32768,), seed=11)
        b = run_kv_bench(Workload.MIX20, rates=(32768,), seed=11)
        assert [r.misses for r in a.records] == [r.misses for r in b.records]

    def test_time_budget_trims_low_rates(self):
        series = run_kv_bench(Workload.PUT, rates=(1, 32768), seed=0,
                              max_seconds_per_rate=0.5)
        assert series.records[0].ops <= 4
        assert series.records[1].ops == 256

    def test_put_get_del_latency_ordering_at_saturation(self, sign_test_p):
        # cost anatomy: PUT copies in and inserts, GET copies out, DEL only
        # unlinks; checked as a trend, not figures. Each round times the
        # three back to back, in reverse order every other round, so host
        # load that drifts between rounds or favours one slot of a round
        # falls on each op alike. A round is a win for the ordering when
        # the costlier op's p50 is at least 0.98 of the cheaper one's; the
        # ordering is refuted only when the losses outnumber the wins by a
        # margin the paired sign test calls significant (p < 0.01), as 17
        # or more of 21 rounds would. GET and DEL differ by about a tenth
        # of a microsecond, so one round's verdict is as noisy as a coin
        # under load, while a reversed ordering loses nearly every round.
        order = (Workload.PUT, Workload.GET, Workload.DEL)
        rounds = [
            {w: run_kv_bench(w, rates=(32768,), seed=5,
                             prepopulate=True).records[0].p50
             for w in (order if i % 2 else order[::-1])}
            for i in range(21)]
        for costlier, cheaper in zip(order, order[1:]):
            wins = sum(r[costlier] >= 0.98 * r[cheaper] for r in rounds)
            losses = len(rounds) - wins
            assert wins >= losses or sign_test_p(wins, losses) >= 0.01, (
                f"{cheaper.name} cost more than {costlier.name} in "
                f"{losses} of {len(rounds)} rounds")

    def test_keys_are_slot_indices_spread_over_the_buckets(self, monkeypatch):
        keys = set()

        class RecordingStore(kvbench.KvStore):
            def put(self, key, value):
                keys.add(key)
                super().put(key, value)

        monkeypatch.setattr(kvbench, "KvStore", RecordingStore)
        run_kv_bench(Workload.PUT, rates=(32768,), seed=7)
        assert keys and all(0 <= key < SLOT_COUNT for key in keys)
        per_bucket = Counter(bucket_of(key) for key in keys)
        assert max(per_bucket.values()) <= 2


class TestBoundarySeries:
    @pytest.mark.parametrize("mode", list(SharedMode))
    def test_each_sharing_mode_produces_a_series(self, mode):
        series = run_kv_bench(Workload.MIX50, shared_mode=mode,
                              execution=Execution.BOUNDARY,
                              rates=(4096,), seed=2, transport="process")
        series_invariants(series)
        assert series.records[0].ops == 256

    def test_boundary_latency_dominates_direct(self):
        direct = run_kv_bench(Workload.MIX50, rates=FAST_RATES, seed=4)
        boundary = run_kv_bench(Workload.MIX50, execution=Execution.BOUNDARY,
                                rates=FAST_RATES, seed=4, transport="process")
        for d, b in zip(direct.records, boundary.records):
            assert b.mean_latency >= d.mean_latency

    def test_pacing_underrun_recorded_at_unreachable_rates(self):
        series = run_kv_bench(Workload.PUT, shared_mode=SharedMode.TEMPORARY,
                              execution=Execution.BOUNDARY, rates=(32768,),
                              seed=6, transport="process")
        record = series.records[0]
        assert record.achieved_rate < 32768 * 0.95
        assert record.underrun

    def test_direct_and_boundary_agree_on_logical_results(self):
        # same op sequence, same hits and misses; only timing differs
        kwargs = dict(rates=(8192,), seed=13)
        direct = run_kv_bench(Workload.MIX50, **kwargs)
        bound = run_kv_bench(Workload.MIX50, execution=Execution.BOUNDARY,
                             transport="inline", **kwargs)
        assert [r.misses for r in direct.records] == \
            [r.misses for r in bound.records]

    def test_del_through_the_boundary_agrees_with_direct(self, transport):
        kwargs = dict(prepopulate=True, rates=(4096,), seed=9)
        direct = run_kv_bench(Workload.DEL, **kwargs)
        bound = run_kv_bench(Workload.DEL, execution=Execution.BOUNDARY,
                             transport=transport, **kwargs)
        assert (bound.records[0].ops, bound.records[0].misses) == (256, 0)
        assert [r.misses for r in bound.records] == \
            [r.misses for r in direct.records]


def test_constants_follow_the_memory_benchmark_geometry():
    assert REGION_SIZE == 512 * 1024
    assert OP_CHUNK == 1024
    assert SLOT_COUNT == 512
