"""Electrode traces, synthetic responses, and the spike detection pipeline.

The pipeline is: blank stimulation artifacts, bandpass 300-5000 Hz,
estimate a robust threshold from the filtered trace, then detect upward
threshold crossings of the absolute value with a refractory hold-off.

The bandpass needs numpy only.  It is a single-biquad Butterworth whose
coefficients come in closed form from the bilinear transform with
prewarped edges (biquad_coefficients).  It runs as a direct-form-II-
transposed filter in one kernel, bandpass_rows, which filters many traces
at once through blocked matrix-vector products; bandpass is its one-row
call.  The threshold takes the median from one partition.

voltage_sweep is the driver of the voltage-response protocol.  It runs
its traces a few at a time through one fused kernel, synthesis through
detection on the rows of one buffer, with one thread per CPU.  The stage
functions are one-row calls of the same helpers.
"""
from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import child_seed

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

class ParamError(ValueError):
    """A bad pipeline parameter; name is the parameter's name."""

    def __init__(self, name: str, problem: str):
        super().__init__(f"{name} {problem}")
        self.name = name


def check_params(sample_rate: float, band: tuple[float, float] | None = None,
                 blank_window: float | None = None,
                 refractory: float | None = None, *,
                 duration: float | None = None,
                 noise_sd: float | None = None,
                 rates: tuple[float, float] | None = None):
    """The one check of the pipeline's and the synthesizer's parameters,
    shared by the stages, synth_neural_response and config loading.  A
    parameter left as None is not checked.  Raises ParamError naming the
    first bad one: sample_rate, low, high, blank_window, refractory,
    duration, noise_sd, r_min or r_max."""
    if not sample_rate > 0.0:
        raise ParamError("sample_rate", f"must be positive, got {sample_rate!r}")
    if band is not None:
        low, high = band
        if not low > 0.0:
            raise ParamError("low", f"must be positive, got {low!r}")
        if not high > low:
            raise ParamError("high", f"must be above low ({low} Hz), got {high!r}")
        if high >= sample_rate / 2.0:
            raise ParamError("high", f"edge {high} Hz must be below Nyquist "
                                     f"({sample_rate / 2.0} Hz)")
    if blank_window is not None and not blank_window >= 0.0:
        raise ParamError("blank_window",
                         f"must be non-negative, got {blank_window!r}")
    if refractory is not None and not refractory >= 0.0:
        raise ParamError("refractory", f"must be non-negative, got {refractory!r}")
    if duration is not None:
        if not duration > 0.0:
            raise ParamError("duration", f"must be positive, got {duration!r}")
        w = len(_spikelet(sample_rate))
        if int(round(duration * sample_rate)) <= w:
            raise ParamError("duration", f"{duration!r} s is too short to hold "
                                         f"one {w}-sample spikelet")
    if noise_sd is not None and not noise_sd >= 0.0:
        raise ParamError("noise_sd", f"must be non-negative, got {noise_sd!r}")
    if rates is not None:
        r_min, r_max = rates
        if not r_min >= 0.0:
            raise ParamError("r_min", f"must be non-negative, got {r_min!r}")
        if not r_max >= r_min:
            raise ParamError("r_max", f"must be at least r_min ({r_min} Hz), "
                                      f"got {r_max!r}")


def _blank_spans(edge_times, window: float, sample_rate: float,
                 n: int) -> list[slice]:
    """The samples [edge, edge + window) of each stimulation edge in a trace
    of n samples, clipped at its end.  Raises ValueError for an edge
    outside the trace extent."""
    width = int(round(window * sample_rate))
    spans = []
    for edge in edge_times:
        start = int(round(edge * sample_rate))
        if edge < 0.0 or start > n:
            raise ValueError(
                f"edge time {edge} s outside the trace extent "
                f"[0, {n / sample_rate}] s"
            )
        spans.append(slice(start, min(start + width, n)))
    return spans


def blank_artifacts(t: Trace, edge_times, window: float = DEFAULT_BLANK_WINDOW) -> Trace:
    """Zero [edge, edge + window) around each stimulation edge.

    Idempotent; an empty edge list is the identity.  Edges must lie within
    the trace extent (windows are clipped at the end).
    """
    check_params(t.sample_rate, blank_window=window)
    out = t.samples.copy()
    for span in _blank_spans(edge_times, window, t.sample_rate, len(out)):
        out[span] = 0.0
    return Trace(t.sample_rate, out)


def biquad_coefficients(sample_rate: float, low: float, high: float):
    """(b, a) of the single-biquad Butterworth bandpass, in closed form.

    Bilinear transform with both edges prewarped: K = 2 fs,
    w_i = K tan(pi f_i / fs), bw = w2 - w1, D = K^2 + bw K + w1 w2; then
    b = (bw K, 0, -bw K) / D and a = (1, 2 (w1 w2 - K^2) / D,
    (K^2 - bw K + w1 w2) / D).
    """
    k = 2.0 * sample_rate
    w1 = k * math.tan(math.pi * low / sample_rate)
    w2 = k * math.tan(math.pi * high / sample_rate)
    bw, w0_sq = w2 - w1, w1 * w2
    d = k * k + bw * k + w0_sq
    return ((bw * k / d, 0.0, -bw * k / d),
            (1.0, 2.0 * (w0_sq - k * k) / d, (k * k - bw * k + w0_sq) / d))


_BLOCK = 32   # samples per block
_GROUP = 32   # blocks per group


@functools.lru_cache(maxsize=8)
def _block_matrices(sample_rate: float, low: float, high: float):
    """Response matrices of the direct-form-II-transposed biquad.

    step maps a block's inputs and start state [x_0 .. x_{L-1}, z0, z1] to
    its outputs and end state [y_0 .. y_{L-1}, z0', z1'].  Its state part
    P carries a state over one block: s_{k+1} = P s_k + e_k, where e_k is
    the state block k leaves when it starts from zero.  carry maps a
    group's [e_0 .. e_{G-1}, s_0] to [s_0 .. s_{G-1}, s_G].  Both are
    built by running the recursions on unit inputs.
    """
    (b0, b1, b2), (_, a1, a2) = biquad_coefficients(sample_rate, low, high)
    L, G = _BLOCK, _GROUP
    unit = np.eye(L + 2)
    z0, z1 = unit[L], unit[L + 1]
    rows = []
    for x in unit[:L]:
        y = b0 * x + z0
        z0, z1 = b1 * x - a1 * y + z1, b2 * x - a2 * y
        rows.append(y)
    step = np.array(rows + [z0, z1])
    p = step[L:, L:]
    unit = np.eye(2 * G + 2)
    s0, s1 = unit[2 * G], unit[2 * G + 1]
    rows = []
    for e0, e1 in zip(unit[:2 * G:2], unit[1:2 * G:2]):
        rows += [s0, s1]
        s0, s1 = (p[0, 0] * s0 + p[0, 1] * s1 + e0,
                  p[1, 0] * s0 + p[1, 1] * s1 + e1)
    carry = np.array(rows + [s0, s1])
    step.setflags(write=False)   # the cache hands the same arrays to every call
    carry.setflags(write=False)
    return step, carry


def bandpass_rows(x: np.ndarray, sample_rate: float,
                  low: float = DEFAULT_BAND[0],
                  high: float = DEFAULT_BAND[1]) -> np.ndarray:
    """Filter every row of x [lanes, n] with the bandpass biquad.

    The one filter kernel.  Filtering is causal with zero initial state.
    Each row is cut into blocks of 32 samples; one matrix-vector product
    per block gives its outputs from its inputs and start state.  The
    2-value state is carried from block to block, 32 blocks per product.
    Rows never mix, so a row's result does not depend on the other rows.
    """
    check_params(sample_rate, band=(low, high))
    step, carry = _block_matrices(float(sample_rate), float(low), float(high))
    L, G = _BLOCK, _GROUP
    lanes, n = x.shape
    groups = -(-n // (L * G))
    full = n // L
    z = np.zeros((lanes, groups * G, L + 2))   # per block: inputs, start state
    z[:, :full, :L] = x[:, :full * L].reshape(lanes, full, L)
    if n % L:
        z[:, full, :n % L] = x[:, full * L:]
    ends = np.matvec(step[L:, :L], z[:, :, :L]).reshape(lanes, groups, 2 * G)
    starts = np.empty_like(ends)
    buf = np.zeros((lanes, 2 * G + 2))
    for g in range(groups):
        buf[:, :2 * G] = ends[:, g]
        out = np.matvec(carry, buf)
        starts[:, g] = out[:, :2 * G]
        buf[:, 2 * G:] = out[:, 2 * G:]
    z[:, :, L:] = starts.reshape(lanes, groups * G, 2)
    return np.matvec(step[:L], z).reshape(lanes, groups * G * L)[:, :n]


def bandpass(t: Trace, low: float = DEFAULT_BAND[0],
             high: float = DEFAULT_BAND[1]) -> Trace:
    """Butterworth bandpass via bilinear transform with prewarped edges:
    the one-row call of bandpass_rows."""
    return Trace(t.sample_rate, bandpass_rows(t.samples[None], t.sample_rate,
                                              low, high)[0])


def _thresholds(mags: np.ndarray) -> np.ndarray:
    """threshold of each row of mags = |x| [lanes, n], from one partition."""
    n = mags.shape[1]
    if n == 0:
        raise ValueError("cannot estimate a threshold from an empty trace")
    half = n // 2
    part = np.partition(mags, half, axis=1)
    upper = part[:, half] / MAD_SCALE
    median = upper if n % 2 else (part[:, :half].max(axis=1) / MAD_SCALE
                                  + upper) / 2.0
    return THRESHOLD_FACTOR * median


def threshold(t: Trace) -> float:
    """Robust detection threshold, 5 x the MAD-based noise estimate.

    The median of |x| / MAD_SCALE comes from one partition of |x|.  Division
    by a positive constant keeps the order of the values, so this is
    np.median's value bit for bit.
    """
    return float(_thresholds(np.abs(t.samples)[None])[0])


def _detect_rows(mags: np.ndarray, thresholds: np.ndarray,
                 hold: int) -> list[np.ndarray]:
    """Upward crossings of each row of mags = |x| [lanes, n] above its
    threshold, each kept only hold samples or more after the last kept."""
    above = mags > thresholds[:, None]
    rising = above.copy()
    rising[:, 1:] &= ~above[:, :-1]
    trains = []
    for row in rising:
        kept, last = [], None
        for idx in np.flatnonzero(row).tolist():
            if last is None or idx - last >= hold:
                kept.append(idx)
                last = idx
        trains.append(np.array(kept, dtype=int))
    return trains


def detect_spikes(t: Trace, thresh: float,
                  refractory: float = DEFAULT_REFRACTORY) -> SpikeTrain:
    """Indices where |sample| crosses above the threshold from below,
    suppressing any crossing within the refractory window of the last."""
    if thresh < 0.0:
        raise ValueError(f"threshold must be non-negative, got {thresh!r}")
    check_params(t.sample_rate, refractory=refractory)
    hold = int(round(refractory * t.sample_rate))
    return SpikeTrain(_detect_rows(np.abs(t.samples)[None],
                                   np.array([thresh]), hold)[0], thresh)


def _detect_chunk(rows: np.ndarray, sample_rate: float, spans, low: float,
                  high: float, hold: int) -> list[SpikeTrain]:
    """The detection chain on the rows [lanes, n] of one buffer: blank them
    in place at spans, bandpass them in one kernel call, then give each
    row its own threshold and refractory-held detection."""
    for span in spans:
        rows[:, span] = 0.0
    filtered = bandpass_rows(rows, sample_rate, low, high)
    if not np.isfinite(filtered).all():
        raise ValueError("samples must be finite")
    mags = np.abs(filtered, out=filtered)
    thresholds = _thresholds(mags)
    return [SpikeTrain(idx, thr) for idx, thr in
            zip(_detect_rows(mags, thresholds, hold), thresholds.tolist())]


def run_spike_pipeline(t: Trace, *, edge_times=DEFAULT_EDGE_TIMES,
                       blank_window: float = DEFAULT_BLANK_WINDOW,
                       low: float = DEFAULT_BAND[0],
                       high: float = DEFAULT_BAND[1],
                       refractory: float = DEFAULT_REFRACTORY) -> SpikeTrain:
    """Full detection chain on one trace: blank, bandpass, robust
    threshold, detect."""
    rate = t.sample_rate
    check_params(rate, (low, high), blank_window, refractory)
    rows = t.samples[None].copy()   # _detect_chunk blanks in place
    return _detect_chunk(rows, rate,
                         _blank_spans(edge_times, blank_window, rate,
                                      rows.shape[1]),
                         low, high, int(round(refractory * rate)))[0]


def run_spike_pipelines(traces, **kwargs) -> list[SpikeTrain]:
    """run_spike_pipeline on each of traces, which must share one sample
    rate.  Takes the keyword arguments of run_spike_pipeline."""
    traces = list(traces)
    if any(t.sample_rate != traces[0].sample_rate for t in traces[1:]):
        raise ValueError("traces must share one sample rate")
    return [run_spike_pipeline(t, **kwargs) for t in traces]


# ---------- synthetic responses ----------

def check_voltage(stim_voltage: float):
    """The one check of a stimulation voltage: it must lie in
    [0, MAX_STIM_VOLTAGE] V, which also rejects NaN."""
    if not 0.0 <= stim_voltage <= MAX_STIM_VOLTAGE:
        raise ValueError(f"stimulation voltage must lie in "
                         f"[0, {MAX_STIM_VOLTAGE}] V, got {stim_voltage!r}")


def expected_spike_rate(stim_voltage: float, r_min: float = DEFAULT_R_MIN,
                        r_max: float = DEFAULT_R_MAX) -> float:
    """Evoked event rate for a stimulation voltage, events per second.

    Zero below the ramp onset, linear ramp r_min to r_max on the ramp,
    flat plateau, then a linear drop to RATE_DROP_FACTOR * r_max at 4.0 V
    (held above that; voltages outside check_voltage's range are rejected).
    """
    check_voltage(stim_voltage)
    v = stim_voltage
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


def _artifacts(edge_times, sample_rate: float, n: int, noise_sd: float):
    """(start, waveform) of the stimulation switching artifact at each edge
    that starts inside n samples: a big exponential transient whose
    polarity alternates from edge to edge."""
    art_len = int(round(0.005 * sample_rate))
    decay = np.exp(-np.arange(art_len) / (0.001 * sample_rate))
    waves = []
    for k, edge in enumerate(edge_times):
        start = int(round(edge * sample_rate))
        if start >= n:
            continue
        polarity = 1.0 if k % 2 == 0 else -1.0
        waves.append((start, polarity * 50.0 * noise_sd
                      * decay[:min(art_len, n - start)]))
    return waves


def _synth_rows(rows: np.ndarray, jobs, duration: float, noise_sd: float,
                spike_amplitude: float, template: np.ndarray, artifacts):
    """Write one synthetic response into each row of rows [lanes, n]; jobs
    holds each row's (event rate, rng seed).

    A row holds rng.normal(0.0, noise_sd, n) drawn in place, then the
    spikelets added in event order, then the artifacts: the bits of a
    loop of slice adds over the events and edges.
    """
    n, w = rows.shape[1], len(template)
    offsets = np.arange(w)
    for row, (rate, seed) in zip(rows, jobs):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=row)
        row *= noise_sd
        row += 0.0   # normal returns 0.0 + noise_sd * z: never -0.0
        n_events = rng.poisson(rate * duration) if rate > 0.0 else 0
        if n_events > 0:
            starts = np.sort(rng.integers(0, n - w, n_events))
            amps = spike_amplitude * rng.uniform(0.8, 1.2, n_events)
            np.add.at(row, (starts[:, None] + offsets).ravel(),
                      np.multiply.outer(amps, template).ravel())
    for start, wave in artifacts:
        rows[:, start:start + len(wave)] += wave


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
    check_params(sample_rate, duration=duration, noise_sd=noise_sd,
                 rates=(r_min, r_max))
    rate = expected_spike_rate(stim_voltage, r_min, r_max)
    n = int(round(duration * sample_rate))
    if spike_amplitude is None:
        spike_amplitude = 10.0 * noise_sd
    rows = np.empty((1, n))
    _synth_rows(rows, [(rate, rng_seed)], duration, noise_sd, spike_amplitude,
                _spikelet(sample_rate),
                _artifacts(artifact_times, sample_rate, n, noise_sd))
    return Trace(sample_rate, rows[0])


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


# ---------- the voltage sweep ----------

# a grid of more points steps the 0-5 V range by less than 0.5 mV; the
# bound is checked before the flags' parse builds the grid's list
MAX_SWEEP_POINTS = 10_001

# traces per chunk: it bounds the memory each chunk holds, and chunks are
# what the sweep hands to its threads
_LANES = 4


def sweep_voltages(start: float, stop: float, step: float) -> list[float]:
    """The voltage grid of a sweep: start + i * step for i from 0 to
    round((stop - start) / step).  A last point within 1e-9 V of stop is
    set to stop.  Raises ValueError unless start <= stop and step > 0 are
    finite, the grid has at most MAX_SWEEP_POINTS points and every point
    passes check_voltage.  Nothing is allocated before the checks."""
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0
            and stop >= start):
        raise ValueError(f"need finite START <= STOP and STEP > 0, got "
                         f"{start} {stop} {step}")
    span = (stop - start) / step   # inf when the division overflows
    if not span < MAX_SWEEP_POINTS - 0.5:   # the grid has round(span) + 1
        raise ValueError(f"the grid {start!r} to {stop!r} V by {step!r} V "
                         f"has more than {MAX_SWEEP_POINTS} points")
    n = int(round(span)) + 1
    last = start + (n - 1) * step
    if abs(last - stop) <= 1e-9:
        last = stop
    for v in (start, last):   # the grid is monotone
        try:
            check_voltage(v)
        except ValueError as exc:
            raise ValueError(f"the grid runs {start!r} to {last!r} V: "
                             f"{exc}") from None
    return [start + i * step for i in range(n - 1)] + [last]


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(fn, chunks) -> list:
    """[fn(c) for c in chunks], run on one thread per CPU, at most one per
    chunk.  Results come back in chunk order.  As soon as any chunk fails,
    the chunks still queued are cancelled; once the running ones finish,
    the error of the first failed chunk in chunk order is raised."""
    # imported here, so that loading the package does not pay for it
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
    pool = ThreadPoolExecutor(max(1, min(_cpu_count(), len(chunks))))
    try:
        futures = [pool.submit(fn, c) for c in chunks]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # the queue is FIFO, so every chunk before a failed one has run
    return [f.result() for f in futures]


def voltage_sweep(voltages, n_seeds: int, seed: int, *,
                  sample_rate: float = DEFAULT_SAMPLE_RATE,
                  duration: float = DEFAULT_SYNTH_DURATION,
                  noise_sd: float = DEFAULT_SYNTH_NOISE_SD,
                  r_min: float = DEFAULT_R_MIN,
                  r_max: float = DEFAULT_R_MAX,
                  edge_times=DEFAULT_EDGE_TIMES,
                  blank_window: float = DEFAULT_BLANK_WINDOW,
                  low: float = DEFAULT_BAND[0],
                  high: float = DEFAULT_BAND[1],
                  refractory: float = DEFAULT_REFRACTORY) -> np.ndarray:
    """Spike counts [len(voltages), n_seeds] of the voltage-response
    protocol.

    Count [vi, si] is that of run_spike_pipeline on
    synth_neural_response(voltages[vi],
    child_seed(seed, f"spikes.sweep.{vi}", si)), with edge_times as both
    the artifact and the blanking edges.  Every check runs first, in the
    calling thread.  The traces then run _LANES at a time, each chunk
    through one fused kernel: synthesis into the rows of one buffer,
    blanking, bandpass, threshold and detection.  Chunks run on one thread
    per CPU; every trace has its own generator and the counts are gathered
    in order, so they do not depend on the number of CPUs.
    """
    check_params(sample_rate, (low, high), blank_window, refractory,
                 duration=duration, noise_sd=noise_sd, rates=(r_min, r_max))
    rates = [expected_spike_rate(v, r_min, r_max) for v in voltages]
    n = int(round(duration * sample_rate))
    spans = _blank_spans(edge_times, blank_window, sample_rate, n)
    template = _spikelet(sample_rate)
    artifacts = _artifacts(edge_times, sample_rate, n, noise_sd)
    hold = int(round(refractory * sample_rate))
    jobs = [(rate, child_seed(seed, f"spikes.sweep.{vi}", si))
            for vi, rate in enumerate(rates) for si in range(n_seeds)]

    def chunk_counts(chunk):
        rows = np.empty((len(chunk), n))
        _synth_rows(rows, chunk, duration, noise_sd, 10.0 * noise_sd,
                    template, artifacts)
        return [train.count for train in
                _detect_chunk(rows, sample_rate, spans, low, high, hold)]

    counts = _map_chunks(chunk_counts, [jobs[i:i + _LANES]
                                        for i in range(0, len(jobs), _LANES)])
    return np.array([c for cs in counts for c in cs],
                    dtype=int).reshape(len(rates), n_seeds)


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
