import io
import math

import pytest
from hypothesis import given, strategies as st

from teebench.energy import (
    IntegrationError,
    PowerSample,
    TraceError,
    TraceFormat,
    ingest_trace,
    integrate_energy,
)


def trace(text):
    return io.StringIO(text)


class TestIngest:
    def test_three_rows_in_order(self):
        samples = ingest_trace(trace("1.0,4\n2.0,5\n3.0,6\n"), TraceFormat.PDU_CSV)
        assert samples == [PowerSample(1.0, 4.0), PowerSample(2.0, 5.0),
                           PowerSample(3.0, 6.0)]

    def test_out_of_order_rows_are_sorted(self):
        samples = ingest_trace(trace("3.0,6\n1.0,4\n2.0,5\n"), TraceFormat.PDU_CSV)
        assert [s.timestamp for s in samples] == [1.0, 2.0, 3.0]

    def test_duplicate_timestamps_average(self):
        samples = ingest_trace(trace("1.0,4\n1.0,6\n"), TraceFormat.PDU_CSV)
        assert samples == [PowerSample(1.0, 5.0)]

    def test_malformed_row_names_the_line(self):
        with pytest.raises(TraceError, match="line 2"):
            ingest_trace(trace("1.0,4\nnot,a,row\n"), TraceFormat.PDU_CSV)
        with pytest.raises(TraceError, match="line 1"):
            ingest_trace(trace("1.0,watts\n"), TraceFormat.PDU_CSV)

    def test_empty_trace_is_an_error(self):
        with pytest.raises(TraceError):
            ingest_trace(trace(""), TraceFormat.PDU_CSV)

    def test_negative_power_rejected(self):
        with pytest.raises(TraceError, match="line 1"):
            ingest_trace(trace("1.0,-3\n"), TraceFormat.PDU_CSV)

    @pytest.mark.parametrize("rows", ["1.0,4\nnan,5\n3.0,6\n", "1.0,4\n2.0,nan\n",
                                      "1.0,4\ninf,5\n"],
                             ids=["nan-timestamp", "nan-power", "inf-timestamp"])
    def test_non_finite_row_names_the_line(self, rows):
        with pytest.raises(TraceError, match="line 2: non-finite"):
            ingest_trace(trace(rows), TraceFormat.PDU_CSV)

    def test_powerspy_uses_the_watts_column(self):
        samples = ingest_trace(
            trace("10.5,230.1,0.02,4.6\n11.5,230.0,0.02,4.7\n"),
            TraceFormat.POWERSPY_CSV,
        )
        assert [s.power for s in samples] == [4.6, 4.7]

    def test_comments_and_blank_lines_skipped(self):
        samples = ingest_trace(trace("# meter boot\n\n1.0,4\n"), TraceFormat.PDU_CSV)
        assert len(samples) == 1

    def test_file_path_input(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("1.0,4\n2.0,5\n")
        assert len(ingest_trace(path, TraceFormat.PDU_CSV)) == 2


def constant(power, t0=0.0, t1=10.0, step=1.0):
    n = int(round((t1 - t0) / step)) + 1
    return [PowerSample(t0 + i * step, power) for i in range(n)]


class TestIntegrate:
    def test_constant_five_watts_over_ten_seconds(self):
        report = integrate_energy(constant(5.0), 0.0, 10.0)
        assert report.energy == pytest.approx(50.0, abs=1e-12)
        assert report.mean_power == pytest.approx(5.0, abs=1e-12)
        assert report.sample_count == 11

    def test_linear_ramp_is_exact(self):
        # p(t) = t watts on [0, 10]; closed form: t^2/2 -> 50 J, and the
        # trapezoid rule is exact for linear integrands
        samples = [PowerSample(float(t), float(t)) for t in range(11)]
        report = integrate_energy(samples, 0.0, 10.0)
        assert report.energy == pytest.approx(50.0, abs=1e-12)

    def test_raised_cosine_against_closed_form(self):
        # p(t) = (1 - cos 2 pi t)/2 on [0, 1]; closed form integral = 1/2
        n = 1000
        samples = [
            PowerSample(i / n, (1 - math.cos(2 * math.pi * i / n)) / 2)
            for i in range(n + 1)
        ]
        report = integrate_energy(samples, 0.0, 1.0)
        assert report.energy == pytest.approx(0.5, abs=1e-5)

    def test_window_edges_are_interpolated(self):
        report = integrate_energy(constant(5.0), 2.5, 7.5)
        assert report.energy == pytest.approx(25.0, abs=1e-12)

    def test_window_between_two_samples(self):
        samples = [PowerSample(0.0, 2.0), PowerSample(10.0, 2.0)]
        report = integrate_energy(samples, 4.0, 6.0)
        assert report.energy == pytest.approx(4.0, abs=1e-12)
        assert report.sample_count == 0

    def test_window_outside_span(self):
        with pytest.raises(IntegrationError, match="outside trace span"):
            integrate_energy(constant(5.0), -1.0, 5.0)
        with pytest.raises(IntegrationError, match="outside trace span"):
            integrate_energy(constant(5.0), 5.0, 11.0)

    def test_insufficient_samples(self):
        with pytest.raises(IntegrationError, match="insufficient"):
            integrate_energy([PowerSample(1.0, 5.0)], 1.0, 1.0)

    @pytest.mark.parametrize("t_start, t_end", [
        (math.nan, math.nan), (2.0, math.nan), (-math.inf, math.inf)])
    def test_non_finite_window(self, t_start, t_end):
        with pytest.raises(IntegrationError, match="not finite"):
            integrate_energy(constant(5.0), t_start, t_end)

    def test_degenerate_window(self):
        with pytest.raises(IntegrationError):
            integrate_energy(constant(5.0), 5.0, 5.0)


noisy_traces = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1000.0),
    ),
    min_size=2, max_size=40, unique_by=lambda tp: tp[0],
).map(lambda pairs: sorted((PowerSample(t, p) for t, p in pairs),
                           key=lambda s: s.timestamp))


@given(samples=noisy_traces, data=st.data())
def test_integration_is_additive_over_adjoining_windows(samples, data):
    t_lo = samples[0].timestamp
    t_hi = samples[-1].timestamp
    if t_hi - t_lo < 1e-6:
        return
    a = data.draw(st.floats(min_value=t_lo, max_value=t_hi, exclude_max=True))
    c = data.draw(st.floats(min_value=a, max_value=t_hi, exclude_min=True))
    b = data.draw(st.floats(min_value=a, max_value=c))
    if not (a < b < c):
        return
    whole = integrate_energy(samples, a, c).energy
    parts = integrate_energy(samples, a, b).energy + integrate_energy(samples, b, c).energy
    assert parts == pytest.approx(whole, rel=1e-9, abs=1e-9)


@given(samples=noisy_traces)
def test_refining_by_linear_interpolation_preserves_the_integral(samples):
    t_lo = samples[0].timestamp
    t_hi = samples[-1].timestamp
    if t_hi - t_lo < 1e-6:
        return
    refined = []
    for left, right in zip(samples, samples[1:]):
        refined.append(left)
        mid_t = (left.timestamp + right.timestamp) / 2
        mid_p = (left.power + right.power) / 2
        refined.append(PowerSample(mid_t, mid_p))
    refined.append(samples[-1])
    coarse = integrate_energy(samples, t_lo, t_hi).energy
    fine = integrate_energy(refined, t_lo, t_hi).energy
    assert fine == pytest.approx(coarse, rel=1e-9, abs=1e-9)


def test_mean_power_consistent_with_energy():
    report = integrate_energy(constant(3.0), 1.0, 9.0)
    assert report.mean_power == pytest.approx(report.energy / (report.t_end - report.t_start))
