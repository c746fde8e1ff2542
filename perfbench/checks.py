"""Correctness checks on one launch's output files (stdlib only).

Each checker returns (attempted, failed, info): the checked units of the
launch, how many of them failed, and result values worth reporting that
are not gates.  A unit whose output is missing or unreadable fails.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RMS_ERROR_LIMIT_M = 0.08     # criterion 10
GROSS_ERROR_M = 0.5          # ten times the 5 cm range noise
Z = 3.0                      # sampling allowance, in standard errors
PLATEAU_TOL = 0.05           # criterion 04
DROP_BAND_PP = (18.5, 28.5)  # criterion 04


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_dispersion(spec: dict, out: Path):
    """Unit: one seed of the batch.  A seed fails if its final union
    coverage is outside (0, 100]; every seed fails if the mean-union curve
    decreases or the batch mean leaves criterion 12's band."""
    n = spec["n_seeds"]
    try:
        summary = json.loads((out / "summary.json").read_text())
        union = [float(r["union_mean_pct"]) for r in _rows(out / "coverage.csv")]
        finals = [s["final_union_coverage_pct"] for s in summary["per_seed"]]
        mean = summary["mean_final_union_coverage_pct"]
    except (OSError, ValueError, KeyError, TypeError):
        return n, n, {}
    lo, hi = spec["coverage_band"]
    batch_ok = (len(finals) == n and union and _finite(mean, *union)
                and all(b >= a for a, b in zip(union, union[1:]))
                and lo <= mean <= hi)
    ok = sum(1 for f in finals if batch_ok and _finite(f) and 0.0 < f <= 100.0)
    return n, n - ok, {"mean_final_union_coverage_pct": mean}


def check_tracking(spec: dict, out: Path):
    """Unit: one log tick.  A tick fails if it lacks a row per agent, its
    union coverage fell, or an estimate is non-finite or grossly off
    (> GROSS_ERROR_M); every tick fails if the run's estimate RMS error
    reaches criterion 10's limit."""
    n_agents, n_ticks, tick_s = spec["n_agents"], spec["n_ticks"], spec["tick_s"]
    try:
        traj = _rows(out / "trajectory.csv")
        union = [float(r["union"]) for r in _rows(out / "coverage.csv")]
    except (OSError, ValueError, KeyError):
        return n_ticks, n_ticks, {}
    ticks: dict[int, list] = {}
    sq_sum, n_rows = 0.0, 0
    bad = set()
    for r in traj:
        try:
            k = int(round(float(r["t_s"]) / tick_s))
            agent = int(r["agent_id"])
            xt, yt = float(r["x_true_m"]), float(r["y_true_m"])
            xe, ye = float(r["x_est_m"]), float(r["y_est_m"])
        except (ValueError, KeyError, TypeError, OverflowError):
            continue
        ticks.setdefault(k, []).append(agent)
        if not _finite(xt, yt, xe, ye):
            bad.add(k)
            continue
        err2 = (xe - xt) ** 2 + (ye - yt) ** 2
        sq_sum += err2
        n_rows += 1
        if err2 > GROSS_ERROR_M ** 2:
            bad.add(k)
    rms = math.sqrt(sq_sum / n_rows) if n_rows else math.inf
    failed = 0
    for k in range(n_ticks):
        ok = (sorted(ticks.get(k, ())) == list(range(n_agents)) and k not in bad
              and k < len(union) and _finite(union[k])
              and (k == 0 or union[k] >= union[k - 1]))
        failed += not ok
    if len(union) != n_ticks or not rms < RMS_ERROR_LIMIT_M:
        failed = n_ticks
    return n_ticks, failed, {"estimate_rms_error_m": rms}


def check_spike_sweep(spec: dict, out: Path):
    """Unit: one voltage.  Besides finite rows on the requested grid, the
    full-size sweep must show criterion 04's shape: a monotone ramp to
    3.0 V, a plateau within 5 % of the 3.0 V mean up to 3.5 V and an
    18.5-28.5 pp drop at 4.0 V.  Each comparison of two means allows Z
    standard errors, from the run's own sd column, because 50 seeds per
    voltage leave sampling noise of the same size as criterion 04's
    tolerances."""
    volts = spec["voltages"]
    n = len(volts)
    try:
        rows = _rows(out / "spike_sweep.csv")
        m = [float(r["mean_spikes"]) for r in rows]
        sd = [float(r["sd_spikes"]) for r in rows]
        v = [float(r["voltage_v"]) for r in rows]
    except (OSError, ValueError, KeyError):
        return n, n, {}
    if len(rows) != n:
        return n, n, {}
    ok = [abs(v[i] - volts[i]) < 1e-9 and _finite(m[i], sd[i])
          and m[i] >= 0.0 and sd[i] >= 0.0 for i in range(n)]
    if spec["shape"] and all(ok):
        se = [s / math.sqrt(spec["sweep_seeds"]) for s in sd]
        i30, i35, i40 = volts.index(3.0), volts.index(3.5), volts.index(4.0)

        def allow(i, j):
            return Z * math.hypot(se[i], se[j])

        for i in range(1, i30 + 1):
            ok[i] = m[i] >= m[i - 1] - allow(i, i - 1)
        for i in range(i30 + 1, i35 + 1):
            ok[i] = abs(m[i] - m[i30]) <= PLATEAU_TOL * m[i30] + allow(i, i30)
        for i in range(i35 + 1, i40):
            ok[i] = m[i40] - allow(i, i40) <= m[i] <= m[i35] + allow(i, i35)
        if m[i35] > 0.0 and m[i40] > 0.0:
            ratio = m[i40] / m[i35]
            drop = 100.0 * (1.0 - ratio)
            se_drop = 100.0 * ratio * math.hypot(se[i40] / m[i40], se[i35] / m[i35])
            lo, hi = DROP_BAND_PP
            ok[i40] = lo - Z * se_drop <= drop <= hi + Z * se_drop
        else:
            ok[i40] = False
    return n, ok.count(False), {}


def check_mask_roundtrip(spec: dict, out: Path):
    """Unit: one mask pair.  IoU and DSC lie in [0, 1] and DSC >= IoU.
    MSE(p_R) is reported as a result, not a gate: reference-point
    extraction on rotated masks has a known error."""
    n = spec["units"]
    try:
        rows = _rows(out / "metrics.csv")
        pairs = [r for r in rows if r["id"] != "mean"]
        mean = [r for r in rows if r["id"] == "mean"]
        mse = float(mean[0]["pr_err_sq"]) if mean else math.nan
    except (OSError, ValueError, KeyError):
        return n, n, {}
    ok = 0
    for r in pairs[:n]:
        try:
            iou, dsc, err = float(r["iou"]), float(r["dsc"]), float(r["pr_err_sq"])
        except ValueError:
            continue
        ok += (_finite(iou, dsc, err) and 0.0 <= iou <= 1.0 and 0.0 <= dsc <= 1.0
               and dsc >= iou - 1e-12 and err >= 0.0)
    return n, n - ok, {"mse_pr_px2": mse}


CHECKERS = {
    "dispersion": check_dispersion,
    "tracking": check_tracking,
    "spike_sweep": check_spike_sweep,
    "mask_roundtrip": check_mask_roundtrip,
}
