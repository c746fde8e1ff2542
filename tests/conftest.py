"""Shared test fixtures."""
import numpy as np
import pytest

from biobotsim import neurosignal as ns


def _planted_spike_trace(rng_seed: int, *, n_spikes: int = 7,
                         spacing: float = 0.010,
                         duration: float = 0.25,
                         first_spike: float = 0.08,
                         noise_sd: float = 0.1,
                         amplitude_over_threshold: float = 4.0,
                         params: ns.SpikeParams = ns.SpikeParams()) -> ns.Trace:
    """Evenly spaced biphasic spikelets planted in Gaussian noise.

    The spikelet amplitude is calibrated so that the filtered spike peak
    sits at amplitude_over_threshold times the pipeline threshold measured
    on the noise alone; detection is then certain while post-spike filter
    ringing stays safely below threshold.  There is no stimulation in this
    trace, so runs against it should use empty blanking edges.  The trace
    has params' sample rate and is calibrated against params' band.
    """
    sample_rate = params.sample_rate_hz
    low, high = params.bandpass_low_hz, params.bandpass_high_hz
    rng = np.random.default_rng(rng_seed)
    n = int(round(duration * sample_rate))
    noise = rng.normal(0.0, noise_sd, n)

    filtered = ns.bandpass_rows(noise[None], sample_rate, low, high)
    t_cal = float(ns._thresholds(np.abs(filtered))[0])

    template = ns._spikelet(sample_rate)
    w = len(template)
    probe = np.zeros((1, n))
    probe[0, n // 2:n // 2 + w] = template
    unit_peak = float(np.abs(ns.bandpass_rows(probe, sample_rate,
                                              low, high)).max())
    amp = amplitude_over_threshold * t_cal / unit_peak

    trace = noise.copy()
    for k in range(n_spikes):
        start = int(round((first_spike + k * spacing) * sample_rate))
        if start + w > n:
            raise ValueError("fixture spikes do not fit in the trace")
        trace[start:start + w] += amp * template
    return ns.Trace(sample_rate, trace)


@pytest.fixture(scope="session")
def planted_spike_trace():
    """The planted-spike trace builder: planted_spike_trace(seed) gives 7
    spikelets at 4x the pipeline threshold, 10 ms apart from 80 ms, in a
    0.25 s trace at 25 kHz."""
    return _planted_spike_trace
