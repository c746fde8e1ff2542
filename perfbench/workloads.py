"""Workload definitions shared by the driver and the worker (stdlib only).

Each workload is one user-facing batch experiment.  `prepare` turns a
workload seed into input files plus a JSON spec: the argv for
`biobotsim.cli.main`, the mask write phase (mask_roundtrip only), the
number of work units one body performs, and what the checker needs.
The same seed always gives the same inputs.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

DT_S = 0.01          # default swarm.dt_s
N_AGENTS = 4         # default swarm.n_agents
SWEEP = (0.5, 4.0, 0.25)

WHY = {
    "dispersion": "3 seeds of criterion 12's 631 s, 4-agent batch: stepping, "
                  "reflection and per-step coverage marking dominate",
    "tracking": "one coverage run logging at 100 Hz from UWB estimates: "
                "ranging, Gauss-Newton and trajectory.csv output dominate",
    "spike_sweep": "the 15 x 50 voltage sweep: only neurosignal works, and "
                   "it is the only path that needs scipy.signal",
    "mask_roundtrip": "synthesize, rotate and write mask pairs, then score "
                      "them with metrics: the vision and PGM layers",
}

# full size is what the benchmark measures; tiny keeps every code path for
# the benchmark's own tests.  Dispersion runs 3 seeds so that criterion 12's
# [70, 90] % band on the batch mean holds for any workload seed: over 30
# single seeds the final union coverage spanned 67.5-90.0 %.
SIZES = {
    "full": {"dispersion_seeds": 3, "dispersion_duration_s": 631.0,
             "tracking_duration_s": 150.0, "sweep_seeds": 50, "mask_pairs": 30},
    "tiny": {"dispersion_seeds": 1, "dispersion_duration_s": 20.0,
             "tracking_duration_s": 5.0, "sweep_seeds": 4, "mask_pairs": 3},
}

MASK_ROTATION_DEG = 2.0


def derive_seed(seed: int, label: str, index: int) -> int:
    """64-bit seed for one generated input, stable across commits."""
    digest = hashlib.sha256(f"perfbench/{seed}/{label}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def sweep_voltages() -> list[float]:
    start, stop, step = SWEEP
    n = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(n)]


def _n_steps(duration_s: float) -> int:
    return int(round(duration_s / DT_S))


def prepare(workload: str, seed: int, size: str, in_dir: Path) -> dict:
    """Write the inputs of one workload run into in_dir; return its spec.

    Output and mask paths in the spec are relative to the launch directory
    the worker runs in, so one spec serves every launch of the run.
    """
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    sz = SIZES[size]
    in_dir.mkdir(parents=True, exist_ok=True)
    config = in_dir / "config.json"
    common = ["--seed", str(seed), "--output-dir", "out"]

    if workload == "dispersion":
        seeds = sz["dispersion_seeds"]
        steps = _n_steps(sz["dispersion_duration_s"])
        doc = {"schema_version": 1}
        if size != "full":
            doc["swarm"] = {"duration_s": sz["dispersion_duration_s"]}
        spec = {"argv": ["coverage", "--config", str(config.resolve()),
                         "--seeds", str(seeds)] + common,
                "units": seeds * N_AGENTS * steps,
                "unit": "agent-step", "n_seeds": seeds,
                "coverage_band": [70.0, 90.0] if size == "full" else [0.0, 100.0]}
    elif workload == "tracking":
        duration = sz["tracking_duration_s"]
        steps = _n_steps(duration)
        doc = {"schema_version": 1,
               "swarm": {"duration_s": duration, "log_rate_hz": 100.0,
                         "coverage_from": "estimated"}}
        spec = {"argv": ["coverage", "--config", str(config.resolve())] + common,
                "units": N_AGENTS * steps, "unit": "agent-step",
                "n_agents": N_AGENTS, "n_ticks": steps + 1, "tick_s": DT_S}
    elif workload == "spike_sweep":
        doc = {"schema_version": 1}
        start, stop, step = SWEEP
        spec = {"argv": ["spikes", "--config", str(config.resolve()),
                         "--sweep", repr(start), repr(stop), repr(step),
                         "--sweep-seeds", str(sz["sweep_seeds"])] + common,
                "units": len(sweep_voltages()) * sz["sweep_seeds"],
                "unit": "trace", "voltages": sweep_voltages(),
                "sweep_seeds": sz["sweep_seeds"], "shape": size == "full"}
    else:
        pairs = sz["mask_pairs"]
        doc = {"schema_version": 1}
        spec = {"argv": ["metrics", "--config", str(config.resolve()),
                         "--pred", "pred", "--truth", "truth"] + common,
                "units": pairs, "unit": "pair",
                "masks": {"seeds": [derive_seed(seed, "mask", i) for i in range(pairs)],
                          "rotation_deg": MASK_ROTATION_DEG,
                          "pred_dir": "pred", "truth_dir": "truth"}}
    config.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return spec
