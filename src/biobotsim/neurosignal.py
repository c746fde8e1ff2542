"""Electrode traces, synthetic responses, and the spike detection pipeline.

The pipeline is: blank stimulation artifacts, bandpass 300-5000 Hz
(single-biquad Butterworth, bilinear design with prewarping), estimate a
robust threshold from the filtered trace, then detect upward threshold
crossings of the absolute value with a refractory hold-off.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import signal

THRESHOLD_FACTOR = 5.0
MAD_SCALE = 0.6745            # median(|x|) of a unit normal
DEFAULT_SAMPLE_RATE = 25000.0
DEFAULT_BLANK_WINDOW = 0.050  # s
DEFAULT_REFRACTORY = 0.001    # s
DEFAULT_BAND = (300.0, 5000.0)
DEFAULT_EDGE_TIMES = (0.0, 0.5, 1.0)  # s, stimulation edges
DEFAULT_SYNTH_DURATION = 1.2  # s
DEFAULT_SYNTH_NOISE_SD = 10e-6  # V

# synthetic voltage-response curve, events per second
RATE_RAMP_START_V = 0.5
RATE_PLATEAU_START_V = 3.0
RATE_PLATEAU_END_V = 3.5
RATE_DROP_END_V = 4.0
RATE_DROP_FACTOR = 0.765      # rate at 4.0 V relative to the plateau
DEFAULT_R_MIN = 2.0
DEFAULT_R_MAX = 40.0
MAX_STIM_VOLTAGE = 5.0


@dataclass(frozen=True, eq=False)
class Trace:
    """Sampled electrode voltage, volts."""

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self):
        if self.sample_rate <= 0.0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate!r}")
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", arr)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True, eq=False)
class SpikeTrain:
    """Detected spike sample indices plus the threshold that produced them."""

    indices: np.ndarray
    threshold_used: float

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int))

    @property
    def count(self) -> int:
        return len(self.indices)


# ---------- pipeline stages ----------

def blank_artifacts(t: Trace, edge_times, window: float = DEFAULT_BLANK_WINDOW) -> Trace:
    """Zero [edge, edge + window) around each stimulation edge.

    Idempotent; an empty edge list is the identity.  Edges must lie within
    the trace extent (windows are clipped at the end).
    """
    if window < 0.0:
        raise ValueError(f"window must be non-negative, got {window!r}")
    n = len(t.samples)
    out = t.samples.copy()
    width = int(round(window * t.sample_rate))
    for edge in edge_times:
        start = int(round(edge * t.sample_rate))
        if edge < 0.0 or start > n:
            raise ValueError(
                f"edge time {edge} s outside the trace extent "
                f"[0, {n / t.sample_rate}] s"
            )
        out[start:min(start + width, n)] = 0.0
    return Trace(t.sample_rate, out)


def bandpass(t: Trace, low: float = DEFAULT_BAND[0], high: float = DEFAULT_BAND[1],
             order: int = 2) -> Trace:
    """Butterworth bandpass via bilinear transform with prewarped edges.

    order is the overall filter order; the default 2 is a single biquad.
    Filtering is causal with zero initial state.
    """
    if not 0.0 < low < high:
        raise ValueError(f"need 0 < low < high, got ({low}, {high})")
    if high >= t.sample_rate / 2.0:
        raise ValueError(
            f"high edge {high} Hz must be below Nyquist "
            f"({t.sample_rate / 2.0} Hz)"
        )
    if order < 2 or order % 2 != 0:
        raise ValueError(f"order must be a positive even integer, got {order!r}")
    b, a = signal.butter(order // 2, [low, high], btype="bandpass",
                         fs=t.sample_rate)
    return Trace(t.sample_rate, signal.lfilter(b, a, t.samples))


def threshold(t: Trace) -> float:
    """Robust detection threshold, 5 x the MAD-based noise estimate."""
    if len(t.samples) == 0:
        raise ValueError("cannot estimate a threshold from an empty trace")
    return THRESHOLD_FACTOR * float(np.median(np.abs(t.samples) / MAD_SCALE))


def detect_spikes(t: Trace, thresh: float,
                  refractory: float = DEFAULT_REFRACTORY) -> SpikeTrain:
    """Indices where |sample| crosses above the threshold from below,
    suppressing any crossing within the refractory window of the last."""
    if thresh < 0.0:
        raise ValueError(f"threshold must be non-negative, got {thresh!r}")
    if refractory < 0.0:
        raise ValueError(f"refractory must be non-negative, got {refractory!r}")
    above = np.abs(t.samples) > thresh
    crossings = np.flatnonzero(above & ~np.concatenate(([False], above[:-1])))
    hold = int(round(refractory * t.sample_rate))
    kept = []
    last = None
    for idx in crossings:
        if last is None or idx - last >= hold:
            kept.append(int(idx))
            last = idx
    return SpikeTrain(np.array(kept, dtype=int), thresh)


def run_spike_pipeline(t: Trace, *, edge_times=DEFAULT_EDGE_TIMES,
                       blank_window: float = DEFAULT_BLANK_WINDOW,
                       low: float = DEFAULT_BAND[0],
                       high: float = DEFAULT_BAND[1],
                       refractory: float = DEFAULT_REFRACTORY) -> SpikeTrain:
    """Full detection chain: blank, bandpass, robust threshold, detect."""
    blanked = blank_artifacts(t, edge_times, blank_window)
    filtered = bandpass(blanked, low, high)
    return detect_spikes(filtered, threshold(filtered), refractory)


# ---------- synthetic responses ----------

def expected_spike_rate(stim_voltage: float, r_min: float = DEFAULT_R_MIN,
                        r_max: float = DEFAULT_R_MAX) -> float:
    """Evoked event rate for a stimulation voltage, events per second.

    Zero below the ramp onset, linear ramp r_min to r_max on the ramp,
    flat plateau, then a linear drop to RATE_DROP_FACTOR * r_max at 4.0 V
    (held above that; voltages beyond 5 V are rejected).
    """
    v = stim_voltage
    if v < 0.0:
        raise ValueError(f"stimulation voltage must be non-negative, got {v!r}")
    if v > MAX_STIM_VOLTAGE:
        raise ValueError(f"stimulation voltage must be at most {MAX_STIM_VOLTAGE} V")
    if v < RATE_RAMP_START_V:
        return 0.0
    if v < RATE_PLATEAU_START_V:
        frac = (v - RATE_RAMP_START_V) / (RATE_PLATEAU_START_V - RATE_RAMP_START_V)
        return r_min + (r_max - r_min) * frac
    if v <= RATE_PLATEAU_END_V:
        return r_max
    frac = (v - RATE_PLATEAU_END_V) / (RATE_DROP_END_V - RATE_PLATEAU_END_V)
    frac = min(frac, 1.0)
    return r_max * (1.0 - (1.0 - RATE_DROP_FACTOR) * frac)


def _spikelet(sample_rate: float, width: float = 0.0005) -> np.ndarray:
    # one sine cycle: biphasic, energy centered around 1/width Hz; kept
    # narrow so the bandpassed waveform decays well inside the refractory
    n = max(int(round(width * sample_rate)), 2)
    return np.sin(2.0 * np.pi * np.arange(n) / n)


def synth_neural_response(stim_voltage: float, rng_seed: int,
                          sample_rate: float = DEFAULT_SAMPLE_RATE, *,
                          duration: float = DEFAULT_SYNTH_DURATION,
                          noise_sd: float = DEFAULT_SYNTH_NOISE_SD,
                          spike_amplitude: float | None = None,
                          artifact_times=DEFAULT_EDGE_TIMES,
                          r_min: float = DEFAULT_R_MIN,
                          r_max: float = DEFAULT_R_MAX) -> Trace:
    """Noise plus Poisson spike events at the voltage-dependent rate.

    Events are biphasic spikelets well above the noise floor; large decaying
    artifacts are placed at the stimulation edges so the blanking stage has
    something real to remove.  Deterministic per seed.
    """
    rate = expected_spike_rate(stim_voltage, r_min, r_max)
    rng = np.random.default_rng(rng_seed)
    n = int(round(duration * sample_rate))
    trace = rng.normal(0.0, noise_sd, n)
    if spike_amplitude is None:
        spike_amplitude = 10.0 * noise_sd

    template = _spikelet(sample_rate)
    w = len(template)
    n_events = rng.poisson(rate * duration) if rate > 0.0 else 0
    if n_events > 0:
        starts = np.sort(rng.integers(0, n - w, n_events))
        amps = spike_amplitude * rng.uniform(0.8, 1.2, n_events)
        for start, amp in zip(starts, amps):
            trace[start:start + w] += amp * template

    # stimulation switching artifacts: big exponential transients
    art_len = int(round(0.005 * sample_rate))
    decay = np.exp(-np.arange(art_len) / (0.001 * sample_rate))
    for k, edge in enumerate(artifact_times):
        start = int(round(edge * sample_rate))
        if start >= n:
            continue
        seg = min(art_len, n - start)
        polarity = 1.0 if k % 2 == 0 else -1.0
        trace[start:start + seg] += polarity * 50.0 * noise_sd * decay[:seg]
    return Trace(sample_rate, trace)


def planted_spike_trace(rng_seed: int, *, n_spikes: int = 7,
                        spacing: float = 0.010,
                        sample_rate: float = DEFAULT_SAMPLE_RATE,
                        duration: float = 0.25,
                        first_spike: float = 0.08,
                        noise_sd: float = 0.1,
                        amplitude_over_threshold: float = 4.0,
                        low: float = DEFAULT_BAND[0],
                        high: float = DEFAULT_BAND[1]) -> Trace:
    """Fixture: evenly spaced biphasic spikelets planted in Gaussian noise.

    The spikelet amplitude is calibrated so that the filtered spike peak
    sits at amplitude_over_threshold times the pipeline threshold measured
    on the noise alone; detection is then certain while post-spike filter
    ringing stays safely below threshold.  There is no stimulation in this
    trace, so runs against it should use empty blanking edges.
    """
    rng = np.random.default_rng(rng_seed)
    n = int(round(duration * sample_rate))
    noise = rng.normal(0.0, noise_sd, n)

    t_cal = threshold(bandpass(Trace(sample_rate, noise), low, high))

    template = _spikelet(sample_rate)
    w = len(template)
    probe = np.zeros(n)
    probe[n // 2:n // 2 + w] = template
    unit_peak = float(np.abs(bandpass(Trace(sample_rate, probe),
                                      low, high).samples).max())
    amp = amplitude_over_threshold * t_cal / unit_peak

    trace = noise.copy()
    for k in range(n_spikes):
        start = int(round((first_spike + k * spacing) * sample_rate))
        if start + w > n:
            raise ValueError("fixture spikes do not fit in the trace")
        trace[start:start + w] += amp * template
    return Trace(sample_rate, trace)


# ---------- trace file I/O ----------

_BINARY_MAGIC = b"BTRC"


def write_trace_csv(t: Trace, path: str | Path):
    """Text format: a sample-rate comment line, a header, one voltage per
    row.  Values are written with shortest round-trip float formatting."""
    lines = [f"# sample_rate_hz={t.sample_rate!r}", "voltage_v"]
    lines.extend(repr(float(v)) for v in t.samples)
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace_csv(path: str | Path) -> Trace:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# sample_rate_hz="):
        raise ValueError(f"{path}: missing sample_rate comment line")
    rate = float(lines[0].split("=", 1)[1])
    if len(lines) < 2 or lines[1] != "voltage_v":
        raise ValueError(f"{path}: missing voltage_v header")
    samples = np.array([float(v) for v in lines[2:] if v], dtype=float)
    return Trace(rate, samples)


def write_trace_binary(t: Trace, path: str | Path):
    """Binary frame: 4-byte magic, little-endian float64 sample rate,
    little-endian uint64 count, then count little-endian float64 samples."""
    with open(path, "wb") as f:
        f.write(_BINARY_MAGIC)
        f.write(struct.pack("<d", t.sample_rate))
        f.write(struct.pack("<Q", len(t.samples)))
        f.write(t.samples.astype("<f8").tobytes())


def read_trace_binary(path: str | Path) -> Trace:
    raw = Path(path).read_bytes()
    if len(raw) < 20 or raw[:4] != _BINARY_MAGIC:
        raise ValueError(f"{path}: not a trace frame file")
    rate = struct.unpack("<d", raw[4:12])[0]
    count = struct.unpack("<Q", raw[12:20])[0]
    expected = 20 + 8 * count
    if len(raw) != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes for {count} samples, "
            f"got {len(raw)}"
        )
    samples = np.frombuffer(raw[20:], dtype="<f8").astype(float)
    return Trace(rate, samples)
