import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from teebench.core import (
    ConfigError,
    Execution,
    Mode,
    Protocol,
    RunConfig,
    SharedMode,
    TransferMetrics,
    derive_throughput,
    validate_config,
)


def metrics(bytes_transferred, total_runtime):
    return TransferMetrics(
        transmit_calls=1, bytes_transferred=bytes_transferred,
        time_in_transmit=0.0, total_runtime=total_runtime,
    )


class TestDeriveThroughput:
    def test_zero_bytes(self):
        assert derive_throughput(metrics(0, 10.0)) == 0.0

    def test_ten_mebibytes_in_ten_seconds(self):
        # 10 MiB * 8 / 10 s = 10485760 * 8 / 10 = 8388608 bit/s
        assert derive_throughput(metrics(10 * 1024 * 1024, 10.0)) == 8388608.0

    def test_ten_chunks_at_ten_megabit(self):
        # 10 chunks of 128 KiB at exactly 10 Mbit/s pacing occupy
        # 10 * 131072*8/1e7 s = 1.048576 s
        result = derive_throughput(metrics(1310720, 1.048576))
        assert result == pytest.approx(1e7, rel=1e-12)

    def test_zero_runtime_is_an_error(self):
        with pytest.raises(ValueError):
            derive_throughput(metrics(100, 0.0))

    @given(
        nbytes=st.integers(min_value=0, max_value=2**50),
        runtime=st.floats(min_value=1e-6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
    )
    def test_doubling_bytes_doubles_throughput_exactly(self, nbytes, runtime):
        single = derive_throughput(metrics(nbytes, runtime))
        double = derive_throughput(metrics(2 * nbytes, runtime))
        assert double == 2 * single


class TestValidateConfig:
    def test_defaults_are_the_standard_micro_benchmark_settings(self):
        cfg = validate_config(RunConfig())
        assert cfg.mode is Mode.FIXED_DURATION
        assert cfg.duration == 10.0
        assert cfg.chunk_size == 128 * 1024
        assert cfg.socket_buffer_size == 128 * 1024
        assert cfg.protocol is Protocol.TCP

    def test_boundary_chunk_above_one_mebibyte_hits_ta_memory_limit(self):
        cfg = RunConfig(chunk_size=2 * 1024 * 1024, execution=Execution.BOUNDARY)
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert any("TA memory limit" in msg for _, msg in exc.value.errors)

    def test_direct_chunk_above_one_mebibyte_is_fine(self):
        cfg = RunConfig(chunk_size=2 * 1024 * 1024, execution=Execution.DIRECT)
        validate_config(cfg)

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigError) as exc:
            validate_config(RunConfig(mode=Mode.FIXED_DURATION, duration=0))
        assert exc.value.errors[0][0] == "duration"

    def test_all_violations_reported_together(self):
        cfg = RunConfig(mode=Mode.CONSTANT_RATE, bitrate=None, chunk_size=0,
                        port=0, switch_cost=-1)
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        fields = {field for field, _ in exc.value.errors}
        assert {"bitrate", "chunk_size", "port", "switch_cost"} <= fields

    @pytest.mark.parametrize("mode, stop, field", [
        (Mode.FIXED_BYTES, {"total_bytes": 0}, "total_bytes"),
        (Mode.FIXED_DURATION, {"duration": None}, "duration"),
    ])
    def test_stop_condition_buffer_and_host_reported_together(
            self, mode, stop, field):
        cfg = RunConfig(mode=mode, socket_buffer_size=0, host="", **stop)
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert [name for name, _ in exc.value.errors] == [
            field, "socket_buffer_size", "host"]

    def test_mode_required_fields(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(mode=Mode.FIXED_BYTES, total_bytes=None))
        with pytest.raises(ConfigError):
            validate_config(RunConfig(mode=Mode.CONSTANT_RATE, bitrate=0))

    def test_normalization_clears_non_matching_stop_fields(self):
        cfg = validate_config(RunConfig(mode=Mode.FIXED_BYTES, total_bytes=100,
                                        bitrate=1e6, duration=5.0))
        assert cfg.bitrate is None and cfg.duration is None
        assert cfg.total_bytes == 100

    def test_constant_rate_keeps_duration_bound(self):
        cfg = validate_config(RunConfig(mode=Mode.CONSTANT_RATE, bitrate=1e6,
                                        duration=None))
        assert cfg.duration == 10.0

    def test_udp_datagram_size_limit(self):
        cfg = RunConfig(protocol=Protocol.UDP, chunk_size=128 * 1024)
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert exc.value.errors[0][0] == "chunk_size"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mode, field", [
        (Mode.CONSTANT_RATE, "bitrate"), (Mode.CONSTANT_RATE, "duration"),
        (Mode.FIXED_DURATION, "duration"), (Mode.FIXED_DURATION, "switch_cost")])
    def test_non_finite_settings_rejected(self, mode, field, value):
        cfg = RunConfig(mode=mode, **{"bitrate": 1e6, field: value})
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert [name for name, _ in exc.value.errors] == [field]

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(rng_seed=2**64))
        with pytest.raises(ConfigError):
            validate_config(RunConfig(rng_seed=-1))


valid_configs = st.builds(
    RunConfig,
    mode=st.sampled_from(list(Mode)),
    bitrate=st.floats(min_value=1e3, max_value=1e9),
    total_bytes=st.integers(min_value=1, max_value=2**40),
    duration=st.floats(min_value=0.01, max_value=1e4),
    chunk_size=st.integers(min_value=1, max_value=65507),
    socket_buffer_size=st.integers(min_value=1, max_value=2**24),
    protocol=st.sampled_from(list(Protocol)),
    host=st.just("remote.host"),
    port=st.integers(min_value=1, max_value=65535),
    execution=st.sampled_from(list(Execution)),
    shared_mode=st.sampled_from(list(SharedMode)),
    switch_cost=st.floats(min_value=0, max_value=1.0),
    rng_seed=st.integers(min_value=0, max_value=2**64 - 1),
)


@given(cfg=valid_configs)
def test_validate_config_is_idempotent(cfg):
    once = validate_config(cfg)
    assert validate_config(once) == once


def test_run_config_dict_round_trip():
    cfg = validate_config(RunConfig(mode=Mode.CONSTANT_RATE, bitrate=2.5e6,
                                    protocol=Protocol.UDP, chunk_size=8192,
                                    execution=Execution.BOUNDARY,
                                    shared_mode=SharedMode.TEMPORARY))
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_run_config_is_a_plain_value():
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.port = 1
