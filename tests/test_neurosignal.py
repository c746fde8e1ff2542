"""Stimulus, filtering, threshold, and spike-detection behavior.

The bandpass checks compare the implemented filter against a closed-form
magnitude oracle: the continuous-time second-order Butterworth bandpass
|H| = B*w / hypot(w0^2 - w^2, B*w) evaluated on the prewarped (tan-domain)
frequency axis that the bilinear transform maps onto.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biobotsim.neurosignal import (
    DEFAULT_SAMPLE_RATE,
    Trace,
    bandpass,
    blank_artifacts,
    detect_spikes,
    expected_spike_rate,
    planted_spike_trace,
    read_trace_binary,
    read_trace_csv,
    run_spike_pipeline,
    synth_neural_response,
    threshold,
    write_trace_binary,
    write_trace_csv,
)

FS = DEFAULT_SAMPLE_RATE

# frozen oracle gains for the default 300-5000 Hz band at 25 kHz, dB
GAIN_DB_50HZ = -16.12
GAIN_DB_1200HZ = -0.01
GAIN_DB_10KHZ = -13.19


def _analytic_gain_db(freq: float, low: float = 300.0, high: float = 5000.0,
                      fs: float = FS) -> float:
    def warp(f):
        return 2.0 * fs * math.tan(math.pi * f / fs)

    w1, w2 = warp(low), warp(high)
    bw = w2 - w1
    w0_sq = w1 * w2
    wf = warp(freq)
    mag = bw * wf / math.hypot(w0_sq - wf * wf, bw * wf)
    return 20.0 * math.log10(mag)


def _measured_gain_db(freq: float) -> float:
    """Steady-state sine gain of the implemented filter."""
    n = int(2.0 * FS)
    t = np.arange(n) / FS
    x = np.sin(2.0 * np.pi * freq * t)
    y = bandpass(Trace(FS, x)).samples
    tail = slice(n // 2, None)
    gain = float(np.sqrt(np.mean(y[tail] ** 2) / np.mean(x[tail] ** 2)))
    return 20.0 * math.log10(gain)


# ---------- bandpass ----------

def test_oracle_matches_frozen_gains():
    assert _analytic_gain_db(50.0) == pytest.approx(GAIN_DB_50HZ, abs=0.005)
    assert _analytic_gain_db(1200.0) == pytest.approx(GAIN_DB_1200HZ, abs=0.005)
    assert _analytic_gain_db(10000.0) == pytest.approx(GAIN_DB_10KHZ, abs=0.005)


@pytest.mark.parametrize("freq", [50.0, 300.0, 1200.0, 5000.0, 10000.0])
def test_implemented_filter_matches_analytic_oracle(freq):
    assert _measured_gain_db(freq) == pytest.approx(_analytic_gain_db(freq),
                                                    abs=0.05)


def test_band_edges_sit_near_minus_three_db():
    assert _measured_gain_db(300.0) == pytest.approx(-3.01, abs=0.1)
    assert _measured_gain_db(5000.0) == pytest.approx(-3.01, abs=0.1)


def test_bandpass_validates_edges_and_order():
    t = Trace(FS, np.zeros(100))
    with pytest.raises(ValueError):
        bandpass(t, 500.0, 400.0)
    with pytest.raises(ValueError):
        bandpass(t, 300.0, 13000.0)  # above Nyquist
    with pytest.raises(ValueError):
        bandpass(t, 300.0, 5000.0, order=3)
    with pytest.raises(ValueError):
        bandpass(t, 300.0, 5000.0, order=0)


def test_bandpass_is_linear():
    rng = np.random.default_rng(0)
    x = rng.normal(size=2000)
    a = bandpass(Trace(FS, x)).samples
    b = bandpass(Trace(FS, 3.0 * x)).samples
    assert np.allclose(b, 3.0 * a, rtol=1e-12, atol=1e-15)


# ---------- threshold ----------

def test_threshold_tracks_five_sigma_for_gaussian_noise():
    rng = np.random.default_rng(42)
    t = Trace(FS, rng.normal(0.0, 1.0, 100000))
    assert 4.75 <= threshold(t) <= 5.25


def test_threshold_of_silence_is_zero():
    assert threshold(Trace(FS, np.zeros(1000))) == 0.0


def test_threshold_rejects_empty_trace():
    with pytest.raises(ValueError):
        threshold(Trace(FS, np.zeros(0)))


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_threshold_scales_with_the_signal(c):
    rng = np.random.default_rng(7)
    x = rng.normal(size=4000)
    t0 = threshold(Trace(FS, x))
    t1 = threshold(Trace(FS, c * x))
    assert t1 == pytest.approx(c * t0, rel=1e-12)


# ---------- blanking ----------

def test_blanking_zeroes_the_documented_ranges():
    t = Trace(FS, np.ones(30000))
    out = blank_artifacts(t, (0.0, 0.5, 1.0)).samples
    for start, stop in ((0, 1250), (12500, 13750), (25000, 26250)):
        assert not out[start:stop].any()
    # everything else untouched
    mask = np.ones(30000, dtype=bool)
    for start, stop in ((0, 1250), (12500, 13750), (25000, 26250)):
        mask[start:stop] = False
    assert (out[mask] == 1.0).all()


def test_blanking_removes_exactly_one_window_of_mass():
    t = Trace(FS, np.ones(50000))  # 2 s
    out = blank_artifacts(t, (0.0,))
    assert t.samples.sum() - out.samples.sum() == 1250.0


def test_blanking_with_no_edges_is_identity():
    rng = np.random.default_rng(1)
    t = Trace(FS, rng.normal(size=5000))
    assert np.array_equal(blank_artifacts(t, ()).samples, t.samples)


def test_blanking_rejects_out_of_range_edges():
    t = Trace(FS, np.zeros(2500))  # 0.1 s
    with pytest.raises(ValueError):
        blank_artifacts(t, (-0.01,))
    with pytest.raises(ValueError):
        blank_artifacts(t, (0.2,))


@given(st.lists(st.floats(min_value=0.0, max_value=0.15), max_size=4))
def test_blanking_is_idempotent(edges):
    rng = np.random.default_rng(3)
    t = Trace(FS, rng.normal(size=5000))  # 0.2 s
    once = blank_artifacts(t, edges)
    twice = blank_artifacts(once, edges)
    assert np.array_equal(once.samples, twice.samples)


# ---------- detection ----------

def test_detection_counts_upward_crossings_only():
    # 1 kHz: indices in samples; refractory 3 ms = 3 samples
    x = np.array([0.0, 6.0, 6.0, 0.0, 0.0, 0.0, -6.0, 0.0])
    st_ = detect_spikes(Trace(1000.0, x), 5.0, refractory=0.003)
    assert st_.indices.tolist() == [1, 6]  # negative excursions count via |x|


def test_detection_first_sample_above_counts():
    x = np.array([6.0, 0.0, 0.0])
    st_ = detect_spikes(Trace(1000.0, x), 5.0, refractory=0.0)
    assert st_.indices.tolist() == [0]


def test_detection_refractory_suppresses_close_events():
    x = np.zeros(20)
    x[[2, 4, 9]] = 10.0
    st_ = detect_spikes(Trace(1000.0, x), 5.0, refractory=0.005)
    assert st_.indices.tolist() == [2, 9]   # index 4 falls inside the hold


def test_detection_threshold_is_strict():
    x = np.array([0.0, 5.0, 0.0])
    assert detect_spikes(Trace(1000.0, x), 5.0).count == 0


def test_detection_rejects_negative_parameters():
    t = Trace(1000.0, np.zeros(10))
    with pytest.raises(ValueError):
        detect_spikes(t, -1.0)
    with pytest.raises(ValueError):
        detect_spikes(t, 1.0, refractory=-0.001)


# ---------- pipeline on the planted fixture ----------

def test_pipeline_recovers_planted_spike_count():
    for seed in range(20):
        train = run_spike_pipeline(planted_spike_trace(seed), edge_times=())
        assert train.count == 7, seed


def test_pipeline_spike_times_land_near_plants():
    train = run_spike_pipeline(planted_spike_trace(0), edge_times=())
    expected = np.array([int(round((0.08 + k * 0.010) * FS)) for k in range(7)])
    assert (np.abs(train.indices - expected) <= 5).all()


def test_pipeline_equals_manual_stage_chain():
    t = planted_spike_trace(4)
    manual = bandpass(blank_artifacts(t, ()))
    st_ = detect_spikes(manual, threshold(manual))
    auto = run_spike_pipeline(t, edge_times=())
    assert auto.indices.tolist() == st_.indices.tolist()
    assert auto.threshold_used == st_.threshold_used


# ---------- voltage-response curve ----------

def test_rate_curve_frozen_points():
    assert expected_spike_rate(0.0) == 0.0
    assert expected_spike_rate(0.4) == 0.0
    assert expected_spike_rate(0.5) == 2.0
    assert expected_spike_rate(1.0) == pytest.approx(9.6)
    assert expected_spike_rate(3.0) == 40.0
    assert expected_spike_rate(3.5) == 40.0
    assert expected_spike_rate(4.0) == pytest.approx(0.765 * 40.0)
    assert expected_spike_rate(4.5) == pytest.approx(0.765 * 40.0)
    assert expected_spike_rate(5.0) == pytest.approx(0.765 * 40.0)


def test_rate_curve_rejects_out_of_range_voltages():
    with pytest.raises(ValueError):
        expected_spike_rate(-0.1)
    with pytest.raises(ValueError):
        expected_spike_rate(5.1)


@given(st.floats(min_value=0.5, max_value=3.0),
       st.floats(min_value=0.5, max_value=3.0))
def test_rate_curve_monotone_on_the_ramp(v1, v2):
    lo, hi = sorted((v1, v2))
    assert expected_spike_rate(lo) <= expected_spike_rate(hi)


def test_synthetic_response_is_deterministic():
    a = synth_neural_response(2.5, 99)
    b = synth_neural_response(2.5, 99)
    assert np.array_equal(a.samples, b.samples)


def test_synthetic_response_rate_tracks_the_curve():
    counts = []
    for seed in range(12):
        train = run_spike_pipeline(synth_neural_response(2.0, seed))
        counts.append(train.count)
    usable = 1.2 - 3 * 0.05
    mean_rate = np.mean(counts) / usable
    assert mean_rate == pytest.approx(expected_spike_rate(2.0), rel=0.25)


def test_artifacts_are_confined_to_blank_windows():
    t = synth_neural_response(0.0, 5)
    filtered = bandpass(blank_artifacts(t, (0.0, 0.5, 1.0)))
    # after blanking the trace is pure filtered noise: bounded near 5 sigma
    assert np.abs(filtered.samples).max() < 10.0 * filtered.samples.std()


# ---------- trace container and I/O ----------

def test_trace_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        Trace(0.0, np.zeros(5))
    with pytest.raises(ValueError):
        Trace(FS, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Trace(FS, np.array([1.0, np.nan]))


def test_trace_duration():
    assert Trace(FS, np.zeros(25000)).duration == 1.0


def test_csv_round_trip_is_bitwise(tmp_path):
    t = planted_spike_trace(8)
    p = tmp_path / "t.csv"
    write_trace_csv(t, p)
    back = read_trace_csv(p)
    assert back.sample_rate == t.sample_rate
    assert np.array_equal(back.samples, t.samples)


def test_binary_round_trip_is_bitwise(tmp_path):
    t = planted_spike_trace(8)
    p = tmp_path / "t.btrc"
    write_trace_binary(t, p)
    back = read_trace_binary(p)
    assert back.sample_rate == t.sample_rate
    assert np.array_equal(back.samples, t.samples)


def test_binary_reader_rejects_truncated_frames(tmp_path):
    p = tmp_path / "bad.btrc"
    write_trace_binary(Trace(FS, np.zeros(10)), p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-4])
    with pytest.raises(ValueError):
        read_trace_binary(p)


def test_csv_reader_rejects_missing_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0\n2.0\n")
    with pytest.raises(ValueError):
        read_trace_csv(p)
