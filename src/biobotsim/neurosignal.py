"""Electrode traces, synthetic responses, and the spike detection pipeline.

The pipeline is: blank stimulation artifacts, bandpass 300-5000 Hz,
estimate a robust threshold from the filtered trace, then detect upward
threshold crossings of the absolute value with a refractory hold-off.

SpikeParams holds the ten parameters of synthesis and detection.  Its
fields are the config's neurosignal keys, it is the config's neurosignal
block, and its construction runs every rule on them.  The synthesizer,
the pipeline and the sweep each take one.

The bandpass needs numpy only.  It is a single-biquad Butterworth whose
coefficients come in closed form from the bilinear transform with
prewarped edges (biquad_coefficients).  It runs as a direct-form-II-
transposed filter in one kernel, bandpass_rows, which filters many traces
at once through blocked matrix products.  The threshold takes the
median from one partition.

The stages run as one chain, _detect_chunk, on the buffers of one
_Workspace.  run_spike_pipeline is its call on one trace.  voltage_sweep
is the driver of the voltage-response protocol.  It runs its traces a few
at a time through the same chain, synthesis first, on seeding.fork_map's
forked workers, one process per CPU where fork is safe, and each process
reuses one workspace for all of its chunks.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import seeding
from .seeding import child_seed

THRESHOLD_FACTOR = 5.0
MAD_SCALE = 0.6745            # median(|x|) of a unit normal

# synthetic voltage-response curve, events per second
RATE_RAMP_START_V = 0.5
RATE_PLATEAU_START_V = 3.0
RATE_PLATEAU_END_V = 3.5
RATE_DROP_END_V = 4.0
RATE_DROP_FACTOR = 0.765      # rate at 4.0 V relative to the plateau
MAX_STIM_VOLTAGE = 5.0


@dataclass(frozen=True, eq=False)
class Trace:
    """Sampled electrode voltage, volts."""

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0.0):
            raise ValueError("sample_rate must be finite and positive, got "
                             f"{self.sample_rate!r}")
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


# ---------- parameters ----------

def _spikelet_samples(sample_rate: float, width: float = 0.0005) -> int:
    return max(int(round(width * sample_rate)), 2)


def _spikelet(sample_rate: float) -> np.ndarray:
    # one sine cycle: biphasic, energy centered around 1/width Hz; kept
    # narrow so the bandpassed waveform decays well inside the refractory
    n = _spikelet_samples(sample_rate)
    return np.sin(2.0 * np.pi * np.arange(n) / n)


# samples in one synthesized trace at most: 80 MB a trace, and each sweep
# process's workspace holds two such rows per lane, of _LANES lanes
MAX_TRACE_SAMPLES = 10_000_000

# synth_noise_sd_v at most, V: artifacts peak at 50 x the noise level, so
# from ~3.6e306 V they overflow.  This bound keeps a synthesized trace ~1e6
# below the largest float; at 1e304 V the default band and the narrowest
# and widest bands tested still filtered to finite values
MAX_SYNTH_NOISE_SD_V = 1e300


class ParamError(ValueError):
    """A bad SpikeParams field; name is the field's name."""

    def __init__(self, name: str, problem: str):
        super().__init__(f"{name} {problem}")
        self.name = name


@dataclass(frozen=True)
class SpikeParams:
    """The parameters of synthesis and detection, under the config's
    neurosignal keys.  Construction checks every one and raises ParamError
    naming the first bad field.  The band is checked against
    sample_rate_hz, the rate of synthesized traces; bandpass_rows checks
    it again against the rate of each trace it filters."""

    sample_rate_hz: float = 25000.0
    bandpass_low_hz: float = 300.0
    bandpass_high_hz: float = 5000.0
    blank_window_s: float = 0.050
    blank_edge_times_s: tuple[float, ...] = (0.0, 0.5, 1.0)  # stimulation edges
    refractory_s: float = 0.001
    synth_duration_s: float = 1.2
    synth_noise_sd_v: float = 10e-6
    r_min_hz: float = 2.0      # evoked event rates, events per second
    r_max_hz: float = 40.0

    def __post_init__(self):
        def need(ok: bool, name: str, rule: str):
            if not ok:
                raise ParamError(name, f"{rule}, got {getattr(self, name)!r}")

        rate, low, high = (self.sample_rate_hz, self.bandpass_low_hz,
                           self.bandpass_high_hz)
        need(rate > 0.0, "sample_rate_hz", "must be positive")
        need(low > 0.0, "bandpass_low_hz", "must be positive")
        need(high > low, "bandpass_high_hz",
             f"must be above bandpass_low_hz ({low} Hz)")
        need(high < rate / 2.0, "bandpass_high_hz",
             f"must be below Nyquist ({rate / 2.0} Hz)")
        need(self.blank_window_s >= 0.0, "blank_window_s", "must be non-negative")
        need(self.refractory_s >= 0.0, "refractory_s", "must be non-negative")
        need(self.synth_duration_s > 0.0, "synth_duration_s", "must be positive")
        samples = self.synth_duration_s * rate
        need(math.isfinite(samples) and round(samples) <= MAX_TRACE_SAMPLES,
             "synth_duration_s", f"gives more than {MAX_TRACE_SAMPLES} samples "
             f"at sample_rate_hz ({rate} Hz)")
        w = _spikelet_samples(rate)
        need(int(round(self.synth_duration_s * rate)) > w, "synth_duration_s",
             f"is too short to hold one {w}-sample spikelet")
        need(self.synth_noise_sd_v >= 0.0, "synth_noise_sd_v",
             "must be non-negative")
        need(self.synth_noise_sd_v <= MAX_SYNTH_NOISE_SD_V, "synth_noise_sd_v",
             f"must be at most {MAX_SYNTH_NOISE_SD_V:g} V, or the synthesized "
             "trace overflows")
        need(self.r_min_hz >= 0.0, "r_min_hz", "must be non-negative")
        need(self.r_max_hz >= self.r_min_hz, "r_max_hz",
             f"must be at least r_min_hz ({self.r_min_hz} Hz)")


# ---------- pipeline stages ----------

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


def synth_blank_spans(params: SpikeParams) -> list[slice]:
    """The blank spans of a trace synthesized under params: _blank_spans at
    its rate and length, with the same ValueError for an edge past its
    end."""
    fs = params.sample_rate_hz
    return _blank_spans(params.blank_edge_times_s, params.blank_window_s, fs,
                        int(round(params.synth_duration_s * fs)))


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
# block rows per GEMM call, 7 whole groups.  OpenBLAS runs a GEMM on the
# calling thread only while M*N*K stays under a threshold: 4 * 65,536 in
# its generic build, and 1e6 in 0.3.31's SkylakeX build, where a 920-row
# piece (1,000,960) already wakes its own threads.  A 224 x 34 by 34 x 32
# product is 243,712, under both.  One GEMM over a whole 4-trace chunk
# ran OpenBLAS's threads on top of the sweep's and doubled its CPU time.
_PIECE = 7 * _GROUP


@functools.lru_cache(maxsize=8)
def _block_matrices(sample_rate: float, low: float, high: float):
    """Response matrices of the direct-form-II-transposed biquad.

    step maps a block's inputs and start state [x_0 .. x_{L-1}, z0, z1] to
    its outputs and end state [y_0 .. y_{L-1}, z0', z1'].  Its state part
    P carries a state over one block: s_{k+1} = P s_k + e_k, where e_k is
    the state block k leaves when it starts from zero.  carry maps a
    group's [e_0 .. e_{G-1}, s_0] to [s_0 .. s_{G-1}, s_G].  Both are
    built by running the recursions on unit inputs.  Returns the
    right-hand factors of the kernel's products on block rows, each
    C-contiguous (BLAS ran a transposed view ~40 % slower): outputs
    step[:L].T [L + 2, L], end states step[L:, :L].T [L, 2]; and carry.
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
    outputs = np.ascontiguousarray(step[:L].T)
    ends = np.ascontiguousarray(step[L:, :L].T)
    for m in (outputs, ends, carry):   # the cache hands them to every call
        m.setflags(write=False)
    return outputs, ends, carry


def _padded_width(n: int) -> int:
    """Samples in a row of n samples padded with zeros to whole groups."""
    return -(-n // (_BLOCK * _GROUP)) * _BLOCK * _GROUP


def bandpass_rows(x: np.ndarray, sample_rate: float,
                  low: float = SpikeParams.bandpass_low_hz,
                  high: float = SpikeParams.bandpass_high_hz,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Filter every row of x [lanes, n] with the bandpass biquad.

    The one filter kernel.  Filtering is causal with zero initial state.
    Each row is read as blocks of 32 samples in whole groups of 32 blocks:
    a C-contiguous float x whose n is a whole number of groups is read in
    place, any other x is first copied into rows padded with zeros.  A GEMM
    pass over the block rows gives each block's end state from its inputs;
    the 2-value state is then carried from block to block, 32 blocks per
    product; a second GEMM pass gives each block's outputs from its inputs
    and start state.  Every GEMM call takes _PIECE block rows, a short last
    piece padded in scratch: BLAS may pick its kernel, and so its rounding,
    by the shape of a call, and with one shape for all calls a row's bits
    depend neither on the other rows nor on how many there are.  out, a
    C-contiguous [lanes, padded n], takes the output when given;
    out[:, :n] is returned.  A trace too large for the filter gives inf or
    NaN there, without a warning.  Raises ValueError unless
    0 < low < high < sample_rate / 2.
    """
    if not 0.0 < low < high < sample_rate / 2.0:
        raise ValueError(f"band {low}-{high} Hz must lie between 0 Hz and "
                         f"Nyquist ({sample_rate / 2.0} Hz)")
    to_out, to_end, carry = _block_matrices(float(sample_rate), float(low),
                                            float(high))
    L, G, P = _BLOCK, _GROUP, _PIECE
    lanes, n = x.shape
    width = _padded_width(n)
    if not (x.flags.c_contiguous and x.dtype == float and n == width):
        padded = np.zeros((lanes, width))
        padded[:, :n] = x
        x = padded
    if out is None:
        out = np.empty((lanes, width))
    blocks, y = x.reshape(-1, L), out.reshape(-1, L, copy=False)
    m = len(blocks)
    z = np.zeros((P, L + 2))   # one piece of block rows: inputs, start state
    ends = np.empty((m, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, m, P):
            if i + P <= m:
                np.matmul(blocks[i:i + P], to_end, out=ends[i:i + P])
            else:
                z[:m - i, :L] = blocks[i:]
                ends[i:] = np.matmul(z[:, :L], to_end)[:m - i]
        ends = ends.reshape(lanes, width // (L * G), 2 * G)
        starts = np.empty_like(ends)
        buf = np.zeros((lanes, 2 * G + 2))
        for g in range(ends.shape[1]):
            buf[:, :2 * G] = ends[:, g]
            state = np.matvec(carry, buf)
            starts[:, g] = state[:, :2 * G]
            buf[:, 2 * G:] = state[:, 2 * G:]
        starts = starts.reshape(m, 2)
        for i in range(0, m, P):
            k = min(P, m - i)
            z[:k, :L] = blocks[i:i + k]
            z[:k, L:] = starts[i:i + k]
            if k == P:
                np.matmul(z, to_out, out=y[i:i + P])
            else:
                y[i:] = np.matmul(z, to_out)[:k]
    return out[:, :n]


def _thresholds(mags: np.ndarray,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """Detection threshold of each row of mags = |x| [lanes, n]: 5 x the
    MAD-based noise estimate median(|x|) / MAD_SCALE.  The median comes
    from one partition of a copy of mags, made in scratch [lanes, n] when
    given; division by a positive constant keeps the order of the values,
    so it is np.median's value bit for bit."""
    n = mags.shape[1]
    if n == 0:
        raise ValueError("cannot estimate a threshold from an empty trace")
    half = n // 2
    part = np.empty_like(mags) if scratch is None else scratch
    part[...] = mags
    part.partition(half, axis=1)
    upper = part[:, half] / MAD_SCALE
    median = upper if n % 2 else (part[:, :half].max(axis=1) / MAD_SCALE
                                  + upper) / 2.0
    return THRESHOLD_FACTOR * median


def _detect_rows(mags: np.ndarray, thresholds: np.ndarray, hold: int,
                 scratch: np.ndarray | None = None) -> list[np.ndarray]:
    """Upward crossings of each row of mags = |x| [lanes, n] above its
    threshold, each kept only hold samples or more after the last kept.
    scratch, if given, is a boolean [2, lanes, n] to work in."""
    if scratch is None:
        scratch = np.empty((2, *mags.shape), dtype=bool)
    above, rising = scratch
    np.greater(mags, thresholds[:, None], out=above)
    rising[:, :1] = above[:, :1]
    # True > False exactly where a run above the threshold starts
    np.greater(above[:, 1:], above[:, :-1], out=rising[:, 1:])
    trains = []
    for row in rising:
        kept, last = [], None
        for idx in np.flatnonzero(row).tolist():
            if last is None or idx - last >= hold:
                kept.append(idx)
                last = idx
        trains.append(np.array(kept, dtype=int))
    return trains


class _Workspace:
    """The buffers the detection chain runs in, for up to lanes traces of n
    samples each.  rows holds the traces, padded with zeros to whole
    groups so that bandpass_rows reads them in place; once filtered they
    are dead, and the threshold partitions in rows[:, :n].  out takes the
    filter's output and then its magnitudes.  flags is detection's boolean
    scratch.  A sweep process reuses one workspace for all of its chunks."""

    def __init__(self, lanes: int, n: int):
        self.n = n
        self.rows = np.zeros((lanes, _padded_width(n)))
        self.out = np.empty_like(self.rows)
        self.flags = np.empty((2, lanes, n), dtype=bool)


def _detect_chunk(ws: _Workspace, lanes: int, sample_rate: float, spans,
                  params: SpikeParams) -> list[SpikeTrain]:
    """The detection chain on the first lanes traces of ws.rows: blank them
    in place at spans, bandpass them in one kernel call, then give each
    row its own threshold and refractory-held detection.  Raises
    ValueError when a trace is too large for the filter."""
    n = ws.n
    rows = ws.rows[:lanes]
    for span in spans:
        rows[:, span] = 0.0
    mags = bandpass_rows(rows, sample_rate, params.bandpass_low_hz,
                         params.bandpass_high_hz, out=ws.out[:lanes])[:, :n]
    np.abs(mags, out=mags)
    if not math.isfinite(mags.max(initial=0.0)):
        raise ValueError("the filtered trace overflows: its samples are too "
                         "large for the bandpass")
    thresholds = _thresholds(mags, rows[:, :n])
    hold = int(round(params.refractory_s * sample_rate))
    return [SpikeTrain(idx, thr) for idx, thr in
            zip(_detect_rows(mags, thresholds, hold, ws.flags[:, :lanes]),
                thresholds.tolist())]


def run_spike_pipeline(t: Trace,
                       params: SpikeParams = SpikeParams()) -> SpikeTrain:
    """Full detection chain on one trace: blank at params' edges,
    bandpass, robust threshold, detect.  The trace's own sample rate
    is used, not params.sample_rate_hz."""
    rate, n = t.sample_rate, len(t.samples)
    spans = _blank_spans(params.blank_edge_times_s, params.blank_window_s,
                         rate, n)
    ws = _Workspace(1, n)
    ws.rows[0, :n] = t.samples
    return _detect_chunk(ws, 1, rate, spans, params)[0]


# ---------- synthetic responses ----------

def check_voltage(stim_voltage: float):
    """The one check of a stimulation voltage: it must lie in
    [0, MAX_STIM_VOLTAGE] V, which also rejects NaN."""
    if not 0.0 <= stim_voltage <= MAX_STIM_VOLTAGE:
        raise ValueError(f"stimulation voltage must lie in "
                         f"[0, {MAX_STIM_VOLTAGE}] V, got {stim_voltage!r}")


def expected_spike_rate(stim_voltage: float,
                        params: SpikeParams = SpikeParams()) -> float:
    """Evoked event rate for a stimulation voltage, events per second.

    Zero below the ramp onset, linear ramp r_min_hz to r_max_hz on the
    ramp, flat plateau, then a linear drop to RATE_DROP_FACTOR * r_max_hz
    at 4.0 V (held above that; voltages outside check_voltage's range are
    rejected).
    """
    check_voltage(stim_voltage)
    v, r_min, r_max = stim_voltage, params.r_min_hz, params.r_max_hz
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


def _synth_rows(rows: np.ndarray, jobs, params: SpikeParams,
                template: np.ndarray, artifacts):
    """Write one synthetic response into each row of rows [lanes, n]; jobs
    holds each row's (event rate, rng seed).  Spikelets peak at 10 x the
    noise level, scaled by a uniform draw in [0.8, 1.2].

    A row holds rng.normal(0.0, noise_sd, n) drawn in place, then the
    spikelets added in event order, then the artifacts: the bits of a
    loop of slice adds over the events and edges.
    """
    n, w = rows.shape[1], len(template)
    duration, noise_sd = params.synth_duration_s, params.synth_noise_sd_v
    offsets = np.arange(w)
    for row, (rate, seed) in zip(rows, jobs):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=row)
        row *= noise_sd
        row += 0.0   # normal returns 0.0 + noise_sd * z: never -0.0
        n_events = rng.poisson(rate * duration) if rate > 0.0 else 0
        if n_events > 0:
            starts = np.sort(rng.integers(0, n - w, n_events))
            amps = 10.0 * noise_sd * rng.uniform(0.8, 1.2, n_events)
            np.add.at(row, (starts[:, None] + offsets).ravel(),
                      np.multiply.outer(amps, template).ravel())
    for start, wave in artifacts:
        rows[:, start:start + len(wave)] += wave


def synth_neural_response(stim_voltage: float, rng_seed: int,
                          params: SpikeParams = SpikeParams()) -> Trace:
    """Noise plus Poisson spike events at the voltage-dependent rate.

    Events are biphasic spikelets well above the noise floor; large decaying
    artifacts are placed at the stimulation edges so the blanking stage has
    something real to remove.  Deterministic per seed.
    """
    rate = expected_spike_rate(stim_voltage, params)
    fs = params.sample_rate_hz
    n = int(round(params.synth_duration_s * fs))
    rows = np.empty((1, n))
    _synth_rows(rows, [(rate, rng_seed)], params, _spikelet(fs),
                _artifacts(params.blank_edge_times_s, fs, n,
                           params.synth_noise_sd_v))
    return Trace(fs, rows[0])


# ---------- the voltage sweep ----------

# a grid of more points steps the 0-5 V range by less than 0.5 mV; the
# bound is checked before the flags' parse builds the grid's list
MAX_SWEEP_POINTS = 10_001

# traces per chunk: it bounds the memory each chunk holds, and chunks are
# the jobs the sweep hands to its workers
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


def voltage_sweep(voltages, n_seeds: int, seed: int,
                  params: SpikeParams = SpikeParams()) -> np.ndarray:
    """Spike counts [len(voltages), n_seeds] of the voltage-response
    protocol.

    Count [vi, si] is that of run_spike_pipeline(synth_neural_response(
    voltages[vi], child_seed(seed, f"spikes.sweep.{vi}", si), params),
    params).  Every check runs first, in the calling process.  The traces
    then run _LANES at a time, each chunk through one fused kernel:
    synthesis into the rows of a _Workspace, blanking, bandpass, threshold
    and detection.  Chunk i runs on one of seeding.fork_map's workers and
    is built there from its index: job j is the trace divmod(j, n_seeds).
    Each process allocates one workspace at its first chunk, so no chunk
    allocates a row-sized buffer.  Every trace has its own generator and
    the counts are gathered in order, so they do not depend on the CPU
    count.
    """
    fs, edges = params.sample_rate_hz, params.blank_edge_times_s
    rates = [expected_spike_rate(v, params) for v in voltages]
    n = int(round(params.synth_duration_s * fs))
    spans = synth_blank_spans(params)
    template = _spikelet(fs)
    artifacts = _artifacts(edges, fs, n, params.synth_noise_sd_v)
    lanes, jobs = _LANES, len(rates) * n_seeds
    ws = None   # this process's workspace: a forked worker makes its own

    def chunk_counts(i):
        nonlocal ws
        if ws is None:
            ws = _Workspace(lanes, n)
        traces = [divmod(j, n_seeds)
                  for j in range(i * lanes, min(i * lanes + lanes, jobs))]
        _synth_rows(ws.rows[:len(traces), :n],
                    [(rates[vi], child_seed(seed, f"spikes.sweep.{vi}", si))
                     for vi, si in traces], params, template, artifacts)
        return [train.count for train in
                _detect_chunk(ws, len(traces), fs, spans, params)]

    counts = seeding.fork_map(chunk_counts, -(-jobs // lanes))
    return np.array([c for cs in counts for c in cs],
                    dtype=int).reshape(len(rates), n_seeds)


# ---------- trace file I/O ----------

_BINARY_MAGIC = b"BTRC"


def read_trace_csv(path: str | Path) -> Trace:
    """Text format: a sample-rate comment line, a voltage_v header, one
    voltage per row."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# sample_rate_hz="):
        raise ValueError("missing sample_rate comment line")
    rate = float(lines[0].split("=", 1)[1])
    if len(lines) < 2 or lines[1] != "voltage_v":
        raise ValueError("missing voltage_v header")
    samples = np.array([float(v) for v in lines[2:] if v], dtype=float)
    return Trace(rate, samples)


def read_trace_binary(path: str | Path) -> Trace:
    """Binary frame: 4-byte magic, little-endian float64 sample rate,
    little-endian uint64 count, then count little-endian float64 samples."""
    raw = Path(path).read_bytes()
    if len(raw) < 20 or raw[:4] != _BINARY_MAGIC:
        raise ValueError("not a trace frame file")
    rate = struct.unpack("<d", raw[4:12])[0]
    count = struct.unpack("<Q", raw[12:20])[0]
    expected = 20 + 8 * count
    if len(raw) != expected:
        raise ValueError(f"expected {expected} bytes for {count} samples, "
                         f"got {len(raw)}")
    samples = np.frombuffer(raw[20:], dtype="<f8").astype(float)
    return Trace(rate, samples)
