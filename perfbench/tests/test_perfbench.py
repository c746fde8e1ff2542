"""Tests of the benchmark itself: checkers, tracer, importtime parsing and
a minimal-size end-to-end run.

    python3 -m pytest perfbench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)] + [",".join(repr(v) if isinstance(v, float) else str(v)
                                           for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


# ---------- checkers: clean outputs pass, corrupted ones count failures ----------

def _dispersion(out: Path, union):
    finals = [80.0, 84.5, 77.25]
    _write_csv(out / "coverage.csv", ["t_s", "union_mean_pct", "union_sd_pct"],
               [(0.1 * i, u, 1.0) for i, u in enumerate(union)])
    (out / "summary.json").write_text(json.dumps({
        "mean_final_union_coverage_pct": sum(finals) / 3,
        "per_seed": [{"final_union_coverage_pct": f} for f in finals]}))
    return {"n_seeds": 3, "coverage_band": [70.0, 90.0]}


def test_dispersion_decreasing_union_fails_every_seed(tmp_path):
    spec = _dispersion(tmp_path, [1.0, 20.0, 60.0, 80.5])
    assert checks.check_dispersion(spec, tmp_path)[:2] == (3, 0)
    spec = _dispersion(tmp_path, [1.0, 20.0, 19.5, 80.5])
    assert checks.check_dispersion(spec, tmp_path)[:2] == (3, 3)


def _tracking(out: Path, n_ticks=300, bad_tick=None):
    rows, union = [], []
    for k in range(n_ticks):
        for a in range(4):
            x, y = 0.5 + 0.001 * k, 0.4 + 0.1 * a
            dx = 1.0 if k == bad_tick and a == 2 else 0.03 * (-1) ** (k + a)
            rows.append((round(k * 0.01, 2), a, x, y, x + dx, y - 0.02, ""))
        union.append(float(k // 10))
    _write_csv(out / "trajectory.csv", ["t_s", "agent_id", "x_true_m", "y_true_m",
                                        "x_est_m", "y_est_m", "command"], rows)
    _write_csv(out / "coverage.csv", ["t_s", "agent0", "union"],
               [(round(k * 0.01, 2), u, u) for k, u in enumerate(union)])
    return {"n_agents": 4, "n_ticks": n_ticks, "tick_s": 0.01}


def test_tracking_estimate_one_metre_off_fails_its_tick(tmp_path):
    spec = _tracking(tmp_path)
    attempted, failed, info = checks.check_tracking(spec, tmp_path)
    assert (attempted, failed) == (300, 0)
    assert info["estimate_rms_error_m"] < checks.RMS_ERROR_LIMIT_M
    spec = _tracking(tmp_path, bad_tick=123)
    assert checks.check_tracking(spec, tmp_path)[:2] == (300, 1)


def test_tracking_decreasing_union_fails(tmp_path):
    spec = _tracking(tmp_path)
    path = tmp_path / "coverage.csv"
    lines = path.read_text().splitlines()
    lines[51] = lines[51].rsplit(",", 1)[0] + ",-1.0"
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_tracking(spec, tmp_path)[1] >= 1


def _sweep(out: Path, means):
    volts = workloads.sweep_voltages()
    _write_csv(out / "spike_sweep.csv", ["voltage_v", "mean_spikes", "sd_spikes"],
               [(v, m, math.sqrt(m)) for v, m in zip(volts, means)])
    return {"voltages": volts, "sweep_seeds": 50, "shape": True}


def _expected_means():
    # criterion 04's curve: ramp 0.5-3.0 V, plateau to 3.5 V, 23.5 % drop at 4 V
    means = []
    for v in workloads.sweep_voltages():
        if v <= 3.0:
            rate = 2.0 + 38.0 * (v - 0.5) / 2.5
        elif v <= 3.5:
            rate = 40.0
        else:
            rate = 40.0 * (1.0 - 0.235 * (v - 3.5) / 0.5)
        means.append(1.2 * rate)
    return means


def test_sweep_without_plateau_fails(tmp_path):
    means = _expected_means()
    assert checks.check_spike_sweep(_sweep(tmp_path, means), tmp_path)[:2] == (15, 0)
    # the ramp goes on through 3.5 V instead of levelling off at 3.0 V
    step = means[10] - means[9]
    ramp_on = [m if v <= 3.0 else means[10] + step * (v - 3.0) / 0.25
               for v, m in zip(workloads.sweep_voltages(), means)]
    assert checks.check_spike_sweep(_sweep(tmp_path, ramp_on), tmp_path)[1] >= 1


def test_sweep_without_drop_fails(tmp_path):
    flat = [m if v <= 3.5 else _expected_means()[12]
            for v, m in zip(workloads.sweep_voltages(), _expected_means())]
    assert checks.check_spike_sweep(_sweep(tmp_path, flat), tmp_path)[1] >= 1


def _metrics(out: Path, rows):
    _write_csv(out / "metrics.csv", ["id", "iou", "dsc", "pr_err_sq"],
               rows + [("mean", 0.9, 0.95, 1800.0)])
    return {"units": len(rows)}


def test_mask_iou_above_one_fails(tmp_path):
    good = [("m000.pgm", 0.9, 2 * 0.9 / 1.9, 1600.0), ("m001.pgm", 0.5, 2 / 3, 0.0)]
    attempted, failed, info = checks.check_mask_roundtrip(_metrics(tmp_path, good), tmp_path)
    assert (attempted, failed) == (2, 0)
    assert info["mse_pr_px2"] == 1800.0
    bad = [good[0], ("m001.pgm", 1.2, 1.0, 0.0)]
    assert checks.check_mask_roundtrip(_metrics(tmp_path, bad), tmp_path)[:2] == (2, 1)


def test_missing_output_fails_every_unit(tmp_path):
    spec = workloads.prepare("mask_roundtrip", 1, "tiny", tmp_path / "in")
    assert checks.check_mask_roundtrip(spec, tmp_path / "absent")[:2] == (3, 3)


# ---------- tracer ----------

def test_self_times_sum_to_root():
    ticks = iter(range(1000))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    leaf = tr.wrap("leaf", lambda: None)
    mid = tr.wrap("mid", lambda: [leaf() for _ in range(3)])
    tr.run_root(lambda: [mid() for _ in range(2)])
    stats = tr.summary()["stats"]
    assert stats["leaf"][0] == 6 and stats["mid"][0] == 2
    assert sum(s[2] for s in stats.values()) == stats[tracer.ROOT][1]
    assert ["mid", "leaf", 6] in tr.summary()["edges"]


def test_missing_names_read_zero_calls():
    calls = []
    swarm = types.SimpleNamespace(simulate=lambda: calls.append(1))
    tr = tracer.Tracer()
    assert tr.install({"swarm": swarm}) == ["swarm.simulate"]
    tr.run_root(swarm.simulate)
    metrics = tracer.layer_metrics(tr.stats, tr.counters, 1)
    assert calls == [1] and metrics["swarm.simulate.calls"] == 1
    assert metrics["locomotion.step.calls"] == 0
    assert metrics["locomotion.step.us_per_call"] == 0.0


def test_parse_importtime_lazy_and_direct_scipy_signal():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy",
        "import time:        50 |        150 |     biobotsim.morphology",
        "import time:        10 |         10 |         scipy.signal._x",
        "import time:        20 |        300 |       scipy",
        "import time:        30 |        700 |       scipy.signal._support",
        "import time:         5 |          5 |       scipy.signal.ltisys",
        "import time:        40 |       1045 |     biobotsim.neurosignal",
        "import time:        10 |       1300 |   biobotsim",
        "import time:        20 |       1400 | biobotsim.cli",
    ])
    assert run.parse_importtime(text) == {"setup.import_biobotsim_s": 0.0014,
                                          "setup.import_scipy_signal_s": 0.001005}
    direct = text.replace("|          5 |       scipy.signal.ltisys",
                          "|        900 |       scipy.signal")
    assert run.parse_importtime(direct)["setup.import_scipy_signal_s"] == 0.0009
    lazy = "\n".join(line for line in text.splitlines() if "scipy" not in line)
    assert run.parse_importtime(lazy)["setup.import_scipy_signal_s"] == 0.0


# ---------- the driver ----------

def test_digest_changes_are_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    env = {"git_commit": "abc", "git_dirty": False}
    same = {"digests": {"out/a.csv": "1", "out/b.json": "2"}}
    assert run.compare_digests("tracking", 7, "full", [same, same], env) == []
    other = {"digests": {"out/a.csv": "1", "out/b.json": "3"}}
    notes = run.compare_digests("tracking", 7, "full", [other, same], env)
    assert notes == ["outputs differ between launches of this run",
                     "outputs changed since commit abc: out/b.json"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_minimal_run_emits_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "ops_failed_frac" in proc.stdout


def test_minimal_traced_run_emits_every_per_layer_metric():
    proc = _run("--workload", "tracking", "--seed", "5", "--seconds", "0", "--tiny",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    assert result["metrics"]["swarm.multilaterate.calls"]["value"] > 0
    record = json.loads((ROOT / ".perfbench" / "results"
                         / "tracking-tiny-seed5-trace1.json").read_text())
    for launch in record["trace"]:
        stats = launch["stats"]
        assert sum(s[2] for s in stats.values()) == pytest.approx(stats[tracer.ROOT][1])


def test_declared_metrics_match_the_driver():
    assert set(_declared("per_layer")) == set(run.per_layer_names())
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WHY)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "dispersion", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
