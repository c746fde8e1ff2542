"""Stimulus, filtering, threshold, and spike-detection behavior.

The stage checks call the kernels the pipeline runs: _blank_spans,
bandpass_rows, _thresholds and _detect_rows, chained by
run_spike_pipeline.  The bandpass checks compare the implemented filter
against a closed-form magnitude oracle: the continuous-time second-order
Butterworth bandpass |H| = B*w / hypot(w0^2 - w^2, B*w) evaluated on the
prewarped (tan-domain) frequency axis that the bilinear transform maps
onto.
"""
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biobotsim import neurosignal as ns, seeding
from biobotsim.neurosignal import (
    MAD_SCALE,
    MAX_SWEEP_POINTS,
    THRESHOLD_FACTOR,
    ParamError,
    SpikeParams,
    Trace,
    _blank_spans,
    _detect_rows,
    _thresholds,
    bandpass_rows,
    biquad_coefficients,
    expected_spike_rate,
    read_trace_binary,
    read_trace_csv,
    run_spike_pipeline,
    sweep_voltages,
    synth_neural_response,
    voltage_sweep,
)
from biobotsim.seeding import child_seed

P = SpikeParams()
FS = P.sample_rate_hz
NO_EDGES = SpikeParams(blank_edge_times_s=())   # for traces without stimulation

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
    y = bandpass_rows(x[None], FS)[0]
    tail = slice(n // 2, None)
    gain = float(np.sqrt(np.mean(y[tail] ** 2) / np.mean(x[tail] ** 2)))
    return 20.0 * math.log10(gain)


# ---------- parameters ----------

@pytest.mark.parametrize("fields, name, text", [
    ({"sample_rate_hz": 0.0}, "sample_rate_hz", "must be positive"),
    ({"sample_rate_hz": math.nan}, "sample_rate_hz", "must be positive"),
    ({"bandpass_low_hz": 0.0}, "bandpass_low_hz", "must be positive"),
    ({"bandpass_high_hz": 300.0}, "bandpass_high_hz", "must be above"),
    ({"bandpass_high_hz": 12500.0}, "bandpass_high_hz", "below Nyquist"),
    ({"blank_window_s": -0.1}, "blank_window_s", "must be non-negative"),
    ({"refractory_s": -0.001}, "refractory_s", "must be non-negative"),
    ({"synth_duration_s": 0.0}, "synth_duration_s", "must be positive"),
    ({"synth_duration_s": 0.0004}, "synth_duration_s",
     "too short to hold one 12-sample spikelet"),
    ({"synth_duration_s": 400.00004}, "synth_duration_s",
     "gives more than 10000000 samples"),
    ({"sample_rate_hz": math.inf}, "synth_duration_s",
     "gives more than 10000000 samples"),
    ({"synth_noise_sd_v": -1e-6}, "synth_noise_sd_v", "must be non-negative"),
    ({"synth_noise_sd_v": 1e307}, "synth_noise_sd_v",
     "or the synthesized trace overflows"),
    ({"r_min_hz": -1.0, "r_max_hz": 0.0}, "r_min_hz", "must be non-negative"),
    ({"r_max_hz": 1.0}, "r_max_hz", "must be at least r_min_hz"),
], ids=["rate", "rate-nan", "low", "high-order", "high-nyquist", "blank",
        "refractory", "duration", "duration-spikelet", "duration-samples",
        "rate-inf", "noise", "noise-overflow", "r-min", "r-max"])
def test_spike_params_name_the_field_that_breaks_a_rule(fields, name, text):
    with pytest.raises(ParamError, match=text) as info:
        SpikeParams(**fields)
    assert info.value.name == name
    assert str(info.value).startswith(f"{name} ")


def test_spike_params_edge_cases_that_pass():
    SpikeParams(blank_window_s=0.0, refractory_s=0.0, synth_noise_sd_v=0.0,
                r_min_hz=0.0, r_max_hz=0.0, blank_edge_times_s=())
    SpikeParams(sample_rate_hz=10000.0, bandpass_high_hz=4999.0)
    # 400 s at 25 kHz is MAX_TRACE_SAMPLES samples
    assert ns.MAX_TRACE_SAMPLES == 10_000_000
    SpikeParams(synth_duration_s=400.0)
    # the largest noise level synthesizes and filters to finite values
    p = SpikeParams(synth_noise_sd_v=ns.MAX_SYNTH_NOISE_SD_V)
    trace = ns.synth_neural_response(3.0, 7, p)
    assert np.isfinite(trace.samples).all()
    assert math.isfinite(ns.run_spike_pipeline(trace, p).threshold_used)


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
    x = np.zeros((1, 100))
    with pytest.raises(ValueError):
        bandpass_rows(x, FS, 500.0, 400.0)
    with pytest.raises(ValueError):
        bandpass_rows(x, FS, 300.0, 13000.0)  # above Nyquist


def test_bandpass_is_linear():
    rng = np.random.default_rng(0)
    x = rng.normal(size=2000)
    a, b = bandpass_rows(np.stack([x, 3.0 * x]), FS)
    assert np.allclose(b, 3.0 * a, rtol=1e-12, atol=1e-15)


# ---------- filter kernel ----------

# signal.butter(1, [300, 5000], "bandpass", fs=25000) from scipy 1.17.1,
# the design this module used before it needed numpy only
BUTTER_B = (0.4013600352823513, 0.0, -0.4013600352823513)
BUTTER_A = (1.0, -1.1334119990910105, 0.19727992943529724)


def _df2t_reference(x, b, a):
    """Direct-form-II-transposed biquad, one sample at a time; with these
    coefficients it is the recursion of scipy's lfilter."""
    (b0, b1, b2), (_, a1, a2) = b, a
    z0 = z1 = 0.0
    y = []
    for v in map(float, x):
        out = b0 * v + z0
        z0 = b1 * v - a1 * out + z1
        z1 = b2 * v - a2 * out
        y.append(out)
    return np.array(y)


def test_closed_form_coefficients_match_butter():
    b, a = biquad_coefficients(FS, 300.0, 5000.0)
    assert np.abs(np.subtract(b, BUTTER_B)).max() <= 1e-15
    assert np.abs(np.subtract(a, BUTTER_A)).max() <= 1e-15


# lengths around the 32-sample block and the 1024-sample group
@pytest.mark.parametrize("n", [1, 31, 32, 33, 1023, 1024, 1025, 2500])
@pytest.mark.parametrize("lanes", [1, 3])
def test_kernel_matches_sample_by_sample_reference(n, lanes):
    rng = np.random.default_rng(n * 10 + lanes)
    x = rng.normal(size=(lanes, n))
    x[:, 0] = 5.0        # the first samples are far from zero
    b, a = biquad_coefficients(FS, 300.0, 5000.0)
    y = bandpass_rows(x, FS)
    assert y.shape == x.shape
    for row, out in zip(x, y):
        ref = _df2t_reference(row, b, a)
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


def test_batched_rows_equal_one_row_calls_bit_for_bit():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 3001)) * 1e-5
    batched = bandpass_rows(x, FS)
    for row, out in zip(x, batched):
        assert np.array_equal(out, bandpass_rows(row[None], FS)[0])


@pytest.mark.parametrize("n", [1, 31, 1025, 3001, 30000])
def test_workspace_rows_equal_rows_filtered_alone_bit_for_bit(n):
    """The GEMM pieces run across lanes: at these lengths some pieces end
    mid-lane and some are a short last piece.  Each row of 1-5 lanes,
    filtered in place in a workspace, equals that row filtered alone."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=(5, n)) * 1e-5
    alone = [bandpass_rows(row[None], FS)[0] for row in x]
    for lanes in range(1, 6):
        ws = ns._Workspace(lanes, n)
        ws.rows[:, :n] = x[:lanes]
        batched = bandpass_rows(ws.rows, FS, out=ws.out)[:, :n]
        assert np.shares_memory(batched, ws.out)
        for row, out in zip(alone, batched):
            assert np.array_equal(out, row)


def test_kernel_uses_the_requested_band():
    rng = np.random.default_rng(6)
    x = rng.normal(size=3000)
    b, a = biquad_coefficients(10000.0, 100.0, 2000.0)
    y = bandpass_rows(x[None], 10000.0, 100.0, 2000.0)[0]
    ref = _df2t_reference(x, b, a)
    assert np.abs(y - ref).max() <= 1e-14 * np.abs(ref).max()


# ---------- threshold ----------

def _threshold(x):
    """The pipeline's threshold of one trace x."""
    return float(_thresholds(np.abs(x)[None])[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 101, 1000, 29999, 30000])
def test_threshold_equals_the_median_formula_bit_for_bit(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(3, n)) * 1e-5
    x[:, ::7] = 0.0          # ties at the median
    got = _thresholds(np.abs(x))
    for row, level in zip(x, got.tolist()):
        median = float(np.median(np.abs(row) / MAD_SCALE))
        assert level == THRESHOLD_FACTOR * median


def test_threshold_tracks_five_sigma_for_gaussian_noise():
    rng = np.random.default_rng(42)
    assert 4.75 <= _threshold(rng.normal(0.0, 1.0, 100000)) <= 5.25


def test_threshold_of_silence_is_zero():
    assert _threshold(np.zeros(1000)) == 0.0


def test_threshold_rejects_empty_trace():
    with pytest.raises(ValueError):
        _thresholds(np.zeros((1, 0)))


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_threshold_scales_with_the_signal(c):
    rng = np.random.default_rng(7)
    x = rng.normal(size=4000)
    t0 = _threshold(x)
    t1 = _threshold(c * x)
    assert t1 == pytest.approx(c * t0, rel=1e-12)


# ---------- blanking ----------

def _blanked(x, edges, window=P.blank_window_s, fs=FS):
    """x with the pipeline's blank spans zeroed, as _detect_chunk zeroes
    them in place."""
    rows = np.array(x, dtype=float)[None]
    for span in _blank_spans(edges, window, fs, rows.shape[1]):
        rows[:, span] = 0.0
    return rows[0]


def test_blanking_zeroes_the_documented_ranges():
    ranges = ((0, 1250), (12500, 13750), (25000, 26250))
    assert _blank_spans((0.0, 0.5, 1.0), P.blank_window_s, FS, 30000) == [
        slice(start, stop) for start, stop in ranges]
    out = _blanked(np.ones(30000), (0.0, 0.5, 1.0))
    for start, stop in ranges:
        assert not out[start:stop].any()
    # everything else untouched
    mask = np.ones(30000, dtype=bool)
    for start, stop in ranges:
        mask[start:stop] = False
    assert (out[mask] == 1.0).all()


def test_blanking_removes_exactly_one_window_of_mass():
    x = np.ones(50000)  # 2 s
    assert x.sum() - _blanked(x, (0.0,)).sum() == 1250.0


def test_blanking_with_no_edges_is_identity():
    assert _blank_spans((), P.blank_window_s, FS, 5000) == []
    rng = np.random.default_rng(1)
    x = rng.normal(size=5000)
    assert np.array_equal(_blanked(x, ()), x)


def test_blanking_rejects_out_of_range_edges():
    for edge in (-0.01, 0.2):   # the trace is 0.1 s
        with pytest.raises(ValueError, match="outside the trace extent"):
            _blank_spans((edge,), P.blank_window_s, FS, 2500)


@given(st.lists(st.floats(min_value=0.0, max_value=0.15), max_size=4))
def test_blanking_is_idempotent(edges):
    rng = np.random.default_rng(3)
    x = rng.normal(size=5000)  # 0.2 s
    once = _blanked(x, edges)
    twice = _blanked(once, edges)
    assert np.array_equal(once, twice)
    # each span starts at its edge and runs one window, clipped at the end
    for edge, span in zip(edges, _blank_spans(edges, P.blank_window_s,
                                              FS, 5000)):
        assert span.start == round(edge * FS)
        assert span.stop == min(span.start + 1250, 5000)


# ---------- detection ----------

def _detect(x, thresh, hold):
    """_detect_rows on one trace x, the way _detect_chunk calls it."""
    return _detect_rows(np.abs(x)[None], np.array([thresh]), hold)[0].tolist()


def test_detection_counts_upward_crossings_only():
    # indices and the 3-sample hold in samples
    x = np.array([0.0, 6.0, 6.0, 0.0, 0.0, 0.0, -6.0, 0.0])
    assert _detect(x, 5.0, 3) == [1, 6]  # negative excursions count via |x|


def test_detection_first_sample_above_counts():
    assert _detect(np.array([6.0, 0.0, 0.0]), 5.0, 0) == [0]


def test_detection_refractory_suppresses_close_events():
    x = np.zeros(20)
    x[[2, 4, 9]] = 10.0
    assert _detect(x, 5.0, 5) == [2, 9]   # index 4 falls inside the hold
    # rows are independent: each has its own threshold
    rows = _detect_rows(np.abs(np.stack([x, 0.5 * x])), np.array([5.0, 5.0]), 5)
    assert [r.tolist() for r in rows] == [[2, 9], []]


def test_detection_threshold_is_strict():
    assert _detect(np.array([0.0, 5.0, 0.0]), 5.0, 0) == []


def test_detection_rejects_negative_parameters():
    with pytest.raises(ParamError, match="refractory_s"):
        run_spike_pipeline(Trace(FS, np.zeros(10)),
                           SpikeParams(refractory_s=-0.001))


# ---------- pipeline on the planted fixture ----------

def test_pipeline_recovers_planted_spike_count(planted_spike_trace):
    for seed in range(20):
        train = run_spike_pipeline(planted_spike_trace(seed), NO_EDGES)
        assert train.count == 7, seed


def test_pipeline_spike_times_land_near_plants(planted_spike_trace):
    train = run_spike_pipeline(planted_spike_trace(0), NO_EDGES)
    expected = np.array([int(round((0.08 + k * 0.010) * FS)) for k in range(7)])
    assert (np.abs(train.indices - expected) <= 5).all()


def test_pipeline_equals_manual_stage_chain(planted_spike_trace):
    hold = int(round(P.refractory_s * FS))
    for t, params in ((planted_spike_trace(4), NO_EDGES),
                      (synth_neural_response(3.0, 4), P)):
        edges = params.blank_edge_times_s
        mags = np.abs(bandpass_rows(_blanked(t.samples, edges)[None], FS))
        level = _thresholds(mags)
        manual = _detect_rows(mags, level, hold)[0]
        auto = run_spike_pipeline(t, params)
        assert auto.count > 0
        assert auto.indices.tolist() == manual.tolist()
        assert auto.threshold_used == level[0]


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
    for v in (-0.1, 5.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="must lie in"):
            expected_spike_rate(v)


def test_sweep_grid_ends_on_stop_within_1e_9_volts():
    assert sweep_voltages(0.5, 4.0, 0.25) == [0.5 + i * 0.25 for i in range(15)]
    grid = sweep_voltages(0.2, 5.0, 0.1)   # 0.2 + 48 * 0.1 is 5.000000000000001
    assert len(grid) == 49
    assert grid[-1] == 5.0
    assert grid[:-1] == [0.2 + i * 0.1 for i in range(48)]
    assert sweep_voltages(1.0, 1.0, 0.5) == [1.0]
    assert len(sweep_voltages(0.0, 5.0, 0.0005)) == MAX_SWEEP_POINTS


@pytest.mark.parametrize("grid", [(0.0, 5.0, 0.3), (-0.5, 1.0, 0.5),
                                  (1.0, 0.5, 0.5), (0.5, 1.0, 0.0),
                                  (0.5, math.nan, 0.5),
                                  (0.0, 5.0, 0.00049),   # 10,205 points
                                  (0.0, 5.0, 1e-12),
                                  (0.0, 5.0, 5e-324)])   # 5 / step overflows
def test_sweep_grid_rejects_bad_ranges(grid):
    with pytest.raises(ValueError):
        sweep_voltages(*grid)


@given(st.floats(min_value=0.5, max_value=3.0),
       st.floats(min_value=0.5, max_value=3.0))
def test_rate_curve_monotone_on_the_ramp(v1, v2):
    lo, hi = sorted((v1, v2))
    assert expected_spike_rate(lo) <= expected_spike_rate(hi)


def _reference_synth(stim_voltage, rng_seed, params):
    """The synthesis body as a loop of draws and slice adds: rng.normal for
    the noise, one slice add per spikelet and per artifact."""
    sample_rate, duration = params.sample_rate_hz, params.synth_duration_s
    noise_sd = params.synth_noise_sd_v
    rate = expected_spike_rate(stim_voltage, params)
    rng = np.random.default_rng(rng_seed)
    n = int(round(duration * sample_rate))
    trace = rng.normal(0.0, noise_sd, n)
    spike_amplitude = 10.0 * noise_sd
    w = max(int(round(0.0005 * sample_rate)), 2)
    template = np.sin(2.0 * np.pi * np.arange(w) / w)
    n_events = rng.poisson(rate * duration) if rate > 0.0 else 0
    if n_events > 0:
        starts = np.sort(rng.integers(0, n - w, n_events))
        amps = spike_amplitude * rng.uniform(0.8, 1.2, n_events)
        for start, amp in zip(starts, amps):
            trace[start:start + w] += amp * template
    art_len = int(round(0.005 * sample_rate))
    decay = np.exp(-np.arange(art_len) / (0.001 * sample_rate))
    for k, edge in enumerate(params.blank_edge_times_s):
        start = int(round(edge * sample_rate))
        if start >= n:
            continue
        seg = min(art_len, n - start)
        polarity = 1.0 if k % 2 == 0 else -1.0
        trace[start:start + seg] += polarity * 50.0 * noise_sd * decay[:seg]
    return trace


@pytest.mark.parametrize("kwargs", [
    *({"stim_voltage": v} for v in (0.0, 0.5, 1.3, 2.0, 3.0, 3.25, 3.5, 3.8,
                                    4.0, 4.6, 5.0)),
    {"stim_voltage": 3.0, "r_min_hz": 0.0, "r_max_hz": 0.0},    # rate 0
    {"stim_voltage": 3.0, "r_max_hz": 5000.0},     # spikelets overlap
    {"stim_voltage": 3.0, "r_max_hz": 5000.0, "synth_noise_sd_v": 0.0},
    {"stim_voltage": 2.0, "synth_duration_s": 0.3,
     "blank_edge_times_s": (0.0, 0.001, 0.298, 0.5)},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_synthesis_kernel_matches_the_slice_loop_byte_for_byte(kwargs):
    fields = dict(kwargs)
    stim_voltage = fields.pop("stim_voltage")
    params = SpikeParams(**fields)
    for seed in (0, 7, 2**63):
        got = synth_neural_response(stim_voltage, seed, params).samples
        assert got.tobytes() == _reference_synth(stim_voltage, seed,
                                                 params).tobytes()


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
    filtered = bandpass_rows(_blanked(t.samples, (0.0, 0.5, 1.0))[None], FS)
    # after blanking the trace is pure filtered noise: bounded near 5 sigma
    assert np.abs(filtered).max() < 10.0 * filtered.std()


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


def test_csv_round_trip_is_bitwise(tmp_path, planted_spike_trace,
                                   write_trace_csv):
    t = planted_spike_trace(8)
    p = tmp_path / "t.csv"
    write_trace_csv(t, p)
    back = read_trace_csv(p)
    assert back.sample_rate == t.sample_rate
    assert np.array_equal(back.samples, t.samples)


def test_binary_round_trip_is_bitwise(tmp_path, planted_spike_trace,
                                      write_trace_binary):
    t = planted_spike_trace(8)
    p = tmp_path / "t.btrc"
    write_trace_binary(t, p)
    back = read_trace_binary(p)
    assert back.sample_rate == t.sample_rate
    assert np.array_equal(back.samples, t.samples)


def test_binary_reader_rejects_truncated_frames(tmp_path, write_trace_binary):
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


# ---------- the voltage sweep ----------

SWEEP_VOLTS = [0.0, 0.5, 2.0, 3.0, 4.5]
SWEEP_SEED = 21


@pytest.fixture(scope="module")
def sweep_reference_counts():
    """Counts of one run_spike_pipeline call per trace: 5 voltages x 10
    seeds, 50 traces."""
    return [[run_spike_pipeline(synth_neural_response(
                v, child_seed(SWEEP_SEED, f"spikes.sweep.{vi}", si))).count
             for si in range(10)] for vi, v in enumerate(SWEEP_VOLTS)]


@pytest.mark.parametrize("cpus, lanes", [(1, 4), (3, 4), (1, 3), (3, 3)])
def test_sweep_counts_do_not_depend_on_cpus_or_chunk_size(
        monkeypatch, sweep_reference_counts, cpus, lanes):
    monkeypatch.setattr(seeding, "cpu_count", lambda: cpus)
    monkeypatch.setattr(ns, "_LANES", lanes)   # 3 does not divide 50
    counts = voltage_sweep(SWEEP_VOLTS, 10, SWEEP_SEED)
    assert counts.shape == (5, 10)
    assert counts.tolist() == sweep_reference_counts


def test_back_to_back_sweeps_match_one_pipeline_call_per_trace(
        monkeypatch, sweep_reference_counts):
    """Three sweeps in one process, each with a workspace of its own in
    this process (a forked worker makes its own): the default one, one of
    shorter traces, then 3 lanes on 2 CPUs.  No workspace outlives its
    sweep."""
    made = []

    class Tracked(ns._Workspace):
        def __init__(self, lanes, n):
            super().__init__(lanes, n)
            made.append(weakref.ref(self))

    monkeypatch.setattr(ns, "_Workspace", Tracked)
    short = SpikeParams(synth_duration_s=1.05)
    short_counts = [[run_spike_pipeline(synth_neural_response(
                        v, child_seed(SWEEP_SEED, f"spikes.sweep.{vi}", si),
                        short), short).count
                     for si in range(10)] for vi, v in enumerate(SWEEP_VOLTS)]
    for params, cpus, lanes, want in (
            (P, 2, 4, sweep_reference_counts), (short, 2, 4, short_counts),
            (P, 2, 3, sweep_reference_counts)):
        monkeypatch.setattr(seeding, "cpu_count", lambda: cpus)
        monkeypatch.setattr(ns, "_LANES", lanes)
        made.clear()
        assert voltage_sweep(SWEEP_VOLTS, 10, SWEEP_SEED,
                             params).tolist() == want
        assert len(made) == 1
        assert all(ref() is None for ref in made)


def test_sweep_checks_every_voltage_before_any_synthesis(monkeypatch):
    calls = []
    monkeypatch.setattr(ns, "_synth_rows", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="got 5.5"):
        voltage_sweep([1.0, 5.5], 2, 0)
    with pytest.raises(ValueError, match="edge time 1.0 s outside"):
        voltage_sweep([1.0], 2, 0, SpikeParams(synth_duration_s=0.6))
    assert calls == []


def test_empty_sweep_gives_an_empty_table():
    assert voltage_sweep([], 3, 0).shape == (0, 3)
