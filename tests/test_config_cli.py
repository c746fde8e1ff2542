"""Strict config loading, digests, and the command line front end.

CLI checks run main() in-process and inspect exit codes, stdout, and the
files written to throwaway directories.
"""
import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biobotsim import cli, neurosignal as ns, swarm as sw, vision
from biobotsim.assembly import PayloadSpec, PixelToArmCalibration
from biobotsim.config import (
    CalibrationConfig,
    ConfigError,
    PayloadConfig,
    RigConfig,
    RunConfig,
    agent_params_from_config,
    arena_from_config,
    config_digest,
    config_from_dict,
    config_to_dict,
    from_config,
    load_config,
    uwb_from_config,
)
from biobotsim.locomotion import AUTO_PRESET
from biobotsim.morphology import FixationRig
from biobotsim.vision import Mask, write_pgm


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)


def _write_cfg(tmp_path, data, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


def _quick_swarm_cfg(duration=20.0, n_agents=2, **extra):
    data = {"schema_version": 1,
            "swarm": {"duration_s": duration, "n_agents": n_agents}}
    data.update(extra)
    return data


# ---------- config schema ----------

def test_default_config_round_trips():
    cfg = RunConfig()
    again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert again == cfg


def test_digest_is_stable_and_ignores_output_dir():
    import dataclasses
    cfg = RunConfig()
    assert config_digest(cfg) == config_digest(RunConfig())
    moved = dataclasses.replace(cfg, output_dir="elsewhere/deeper")
    assert config_digest(moved) == config_digest(cfg)
    reseeded = dataclasses.replace(cfg, seed=cfg.seed + 1)
    assert config_digest(reseeded) != config_digest(cfg)


def test_default_config_digest_is_pinned():
    # defaults are read from the domain modules; a drifted default or an
    # added or removed key changes every run's config_sha256
    assert config_digest(RunConfig()) == (
        "b4461a91f3016f8e8925606d64646549a78b3b9929be219443a87359379d9e09")


def test_block_adapters_build_the_domain_defaults():
    assert from_config(FixationRig, RigConfig()) == FixationRig()
    assert (from_config(PixelToArmCalibration, CalibrationConfig())
            == PixelToArmCalibration())
    assert from_config(PayloadSpec, PayloadConfig()) == PayloadSpec()


def test_schema_version_is_required_and_checked():
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict({})
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict({"schema_version": 2})


def test_unknown_keys_are_reported_with_their_path():
    with pytest.raises(ConfigError, match="bananas"):
        config_from_dict({"schema_version": 1, "bananas": 1})
    with pytest.raises(ConfigError, match=r"swarm\.arena\.widht_m"):
        config_from_dict({"schema_version": 1,
                          "swarm": {"arena": {"widht_m": 2.0}}})


def test_every_config_node_rejects_unknown_keys():
    """Insert a bogus key into each object of the default tree in turn."""
    base = config_to_dict(RunConfig())
    paths = [()]

    def collect(node, path):
        for k, v in node.items():
            if isinstance(v, dict):
                paths.append(path + (k,))
                collect(v, path + (k,))

    collect(base, ())
    assert len(paths) >= 10
    for path in paths:
        data = copy.deepcopy(base)
        node = data
        for k in path:
            node = node[k]
        node["zz_bogus"] = 1
        with pytest.raises(ConfigError, match="zz_bogus"):
            config_from_dict(data)


def test_type_errors_name_the_field():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"schema_version": 1, "seed": 1.5})
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"schema_version": 1, "seed": True})
    with pytest.raises(ConfigError, match=r"rig\.lowered_distance_d_m"):
        config_from_dict({"schema_version": 1,
                          "rig": {"lowered_distance_d_m": "close"}})
    with pytest.raises(ConfigError, match="expected a number"):
        config_from_dict({"schema_version": 1,
                          "rig": {"lowered_distance_d_m": True}})


def test_tuple_fields_check_their_length():
    with pytest.raises(ConfigError, match="3 entries"):
        config_from_dict({"schema_version": 1,
                          "assembly": {"workspace_box_m": [0.1, 0.1]}})


def test_domain_validation_through_config():
    with pytest.raises(ConfigError, match="preset"):
        config_from_dict({"schema_version": 1,
                          "locomotion": {"preset": "teleop"}})
    with pytest.raises(ConfigError, match="n_agents"):
        config_from_dict({"schema_version": 1, "swarm": {"n_agents": 0}})
    with pytest.raises(ConfigError, match="coverage_from"):
        config_from_dict({"schema_version": 1,
                          "swarm": {"coverage_from": "wishful"}})
    with pytest.raises(ConfigError, match="unknown step"):
        config_from_dict({"schema_version": 1,
                          "assembly": {"step_durations_s": {"warmup": 1.0}}})
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": 1,
                          "rig": {"rod_a_initial_clearance_m": -1.0}})


def _exit_2_message(tmp_path, capsys, data):
    cfg = _write_cfg(tmp_path, data)
    rc = cli.main(["fixation", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2, err
    return err


@pytest.mark.parametrize("path, value", [
    ("swarm.uwb.range_noise_sd_m", math.nan),   # NaN > 0 is false: no noise
    ("swarm.dt_s", math.nan),
    ("neurosignal.refractory_s", math.inf),
])
def test_non_finite_numbers_exit_2(tmp_path, capsys, path, value):
    data = {"schema_version": 1}
    *blocks, key = path.split(".")
    node = data
    for name in blocks:
        node = node.setdefault(name, {})
    node[key] = value
    err = _exit_2_message(tmp_path, capsys, data)
    assert err.startswith(f"config error: {path}: expected a finite number")


_STEPS = {"fix": 8.0, "locate": 6.0, "grasp": 12.0, "implant": 16.0,
          "press": 10.0, "release": 6.0, "retract": 10.0}


@pytest.mark.parametrize("data, path, text", [
    ({"swarm": {"dt_s": 0.03, "duration_s": 20.0}}, "swarm", "duration"),
    ({"swarm": {"dt_s": 0.1}}, "swarm", "dt must lie in"),
    ({"swarm": {"cell_size_m": 0.3}}, "swarm", "does not tile"),
    ({"swarm": {"stim_period_s": 10.005}}, "swarm", "stim period"),
    ({"swarm": {"log_rate_hz": 30.0}}, "swarm", "log interval"),
    ({"rig": {"rod_a_initial_clearance_m": -1.0}}, "rig", "lowered_distance_d"),
    ({"swarm": {"arena": {"width_m": 0.5}}}, "swarm.arena", "outside the arena"),
    ({"assembly": {"step_durations_s": dict(_STEPS, fix=True)}},
     "assembly.step_durations_s.fix", "expected a number"),
    ({"assembly": {"step_durations_s": dict(_STEPS, press="10")}},
     "assembly.step_durations_s.press", "expected a number"),
    ({"assembly": {"step_durations_s": dict(_STEPS, grasp=0.0)}},
     "assembly", "grasp"),
    ({"assembly": {"alpha_lower_deg": 170.0}}, "assembly", "infeasible"),
    ({"assembly": {"approach_envelope_m": [-0.01, 0.01, 0.01]}},
     "assembly", "envelope"),
    ({"rig": {"saturation_height_h_max_m": 1e-4}}, "rig",
     "insufficient exposure"),
    ({"assembly": {"payload": {"gripper_mass_kg": 5.0}}}, "assembly.payload",
     "exceeds the arm payload limit"),
    ({"assembly": {"approach_envelope_m": [1.0, 1.0, 1.0]}}, "assembly",
     "does not fit the workspace box"),
    ({"neurosignal": {"synth_noise_sd_v": -1.0}},
     "neurosignal.synth_noise_sd_v", "must be non-negative"),
    ({"neurosignal": {"synth_duration_s": 0.0}},
     "neurosignal.synth_duration_s", "must be positive"),
    ({"neurosignal": {"synth_duration_s": 0.0004, "blank_edge_times_s": [],
                      "r_max_hz": 100000.0}},
     "neurosignal.synth_duration_s", "too short to hold one 12-sample spikelet"),
    ({"neurosignal": {"r_max_hz": -5.0}}, "neurosignal.r_max_hz",
     "must be at least r_min"),
    ({"neurosignal": {"r_min_hz": -5.0}}, "neurosignal.r_min_hz",
     "must be non-negative"),
], ids=["duration", "dt-bound", "tiling", "stim-period", "log-interval",
        "rig", "arena", "step-bool", "step-string", "step-zero", "corridor",
        "envelope", "exposure", "payload", "envelope-fit", "synth-noise",
        "synth-duration", "synth-too-short", "r-max", "r-min"])
def test_config_mistakes_exit_2_with_their_path(tmp_path, capsys, data,
                                                path, text):
    err = _exit_2_message(tmp_path, capsys, dict(data, schema_version=1))
    assert err.startswith(f"config error: {path}: ")
    assert text in err


@pytest.mark.parametrize("key, value", [
    ("refractory_s", -1.0),
    ("bandpass_high_hz", 20000.0),
    ("blank_window_s", -0.1),
])
def test_neurosignal_mistakes_exit_2_at_load(tmp_path, capsys, key, value):
    cfg = _write_cfg(tmp_path, {"schema_version": 1,
                                "neurosignal": {key: value}})
    rc = cli.main(["spikes", "--synth", "3", "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith(f"config error: neurosignal.{key}: ")


def _modules_after_cli_import(package):
    """Modules of package loaded by `import biobotsim.cli` in a fresh
    interpreter."""
    code = ("import sys, biobotsim.cli; print(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == {package!r}))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_cli_import_loads_no_scipy():
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_loads_no_thread_pool():
    # the sweep imports its pool when it runs, so cold start does not pay
    assert _modules_after_cli_import("concurrent") == "[]"


def test_load_config_reports_json_errors(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"schema_version": 1,,}')
    with pytest.raises(ConfigError, match="line 1"):
        load_config(p)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")


def test_locomotion_overrides_flow_into_params():
    cfg = config_from_dict({
        "schema_version": 1,
        "locomotion": {"preset": "auto", "turn_angle_sd_deg": 0.0,
                       "heading_diffusion_deg2_s": 120.0}})
    p = agent_params_from_config(cfg.locomotion)
    assert p.turn_angle_sd == 0.0
    assert p.heading_diffusion == 120.0
    assert p.walk_speed_mean == AUTO_PRESET.walk_speed_mean


def test_arena_and_uwb_adapters():
    cfg = config_from_dict({
        "schema_version": 1,
        "swarm": {"arena": {"obstacles_m": [[0.5, 0.5, 0.8, 0.8]]},
                  "uwb": {"range_noise_sd_m": 0.0}}})
    arena = arena_from_config(cfg.swarm.arena)
    assert len(arena.obstacles) == 1
    assert arena.obstacles[0].x_max == 0.8
    assert uwb_from_config(cfg.swarm.uwb).range_noise_sd == 0.0
    default_arena = arena_from_config(RunConfig().swarm.arena)
    assert len(default_arena.obstacles) == 5


# ---------- assemble ----------

def test_assemble_prints_pitch_and_total(tmp_path, capsys):
    rc = cli.main(["assemble", "--output-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "implant pitch: 162.7 deg" in out
    assert "68.0 s" in out

    doc = json.loads((tmp_path / "out" / "assembly.json").read_text())
    assert doc["total_s"] == 68.0
    assert doc["pitch_deg"] == pytest.approx(162.65, abs=1e-12)
    assert doc["pose_xyz_m"][2] == pytest.approx(0.0019)

    log = (tmp_path / "out" / "event_log.csv").read_text().splitlines()
    assert log[0] == "step_name,t_start_s,t_end_s"
    assert len(log) == 8
    assert log[1] == "fix,0.0,8.0"
    assert log[-1].startswith("retract,")


def test_assemble_batch_total(tmp_path, capsys):
    rc = cli.main(["assemble", "--batch", "4",
                   "--output-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "468.0 s" in out
    doc = json.loads((tmp_path / "out" / "assembly.json").read_text())
    assert doc["batch_n"] == 4
    assert doc["batch_total_s"] == 468.0


def test_assemble_zero_lowering_fails_at_runtime(tmp_path):
    # config loading rejects this rig; a RunConfig built in code skips
    # loading, and the run applies the same exposure check
    cfg = RunConfig(rig=RigConfig(lowered_distance_d_m=0.0))
    with pytest.raises(ValueError, match="insufficient exposure"):
        cli.run_assemble(cfg, tmp_path / "out", None)


# ---------- spikes ----------

def test_spikes_zero_trace_detects_nothing(tmp_path, capsys):
    trace = ns.Trace(25000.0, np.zeros(30000))
    ns.write_trace_csv(trace, tmp_path / "flat.csv")
    rc = cli.main(["spikes", "--input", str(tmp_path / "flat.csv"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    assert "n_spikes: 0" in capsys.readouterr().out
    doc = json.loads((tmp_path / "out" / "spikes.json").read_text())
    assert doc["n_spikes"] == 0
    assert doc["threshold_v"] == 0.0


def test_spikes_planted_fixture_binary_input(tmp_path, capsys):
    ns.write_trace_binary(ns.planted_spike_trace(3), tmp_path / "planted.btrc")
    cfg = _write_cfg(tmp_path, {"schema_version": 1,
                                "neurosignal": {"blank_edge_times_s": []}})
    rc = cli.main(["spikes", "--config", str(cfg),
                   "--input", str(tmp_path / "planted.btrc"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    assert "n_spikes: 7" in capsys.readouterr().out
    doc = json.loads((tmp_path / "out" / "spikes.json").read_text())
    assert doc["params"]["blank_edge_times_s"] == []


def test_spikes_synth_mode_writes_report(tmp_path):
    rc = cli.main(["spikes", "--synth", "3.0",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "spikes.json").read_text())
    # 40 Hz nominal rate over 1.05 usable seconds, less pipeline losses
    assert 25 <= doc["n_spikes"] <= 50


def test_spikes_sweep_writes_table(tmp_path, capsys):
    rc = cli.main(["spikes", "--sweep", "1.0", "2.0", "0.5",
                   "--sweep-seeds", "3",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    assert "3 voltages x 3 seeds" in capsys.readouterr().out
    lines = (tmp_path / "out" / "spike_sweep.csv").read_text().splitlines()
    assert lines[0] == "voltage_v,mean_spikes,sd_spikes"
    assert len(lines) == 4
    volts = [float(l.split(",")[0]) for l in lines[1:]]
    assert volts == [1.0, 1.5, 2.0]
    means = [float(l.split(",")[1]) for l in lines[1:]]
    assert means[0] < means[-1]


def test_spikes_missing_input_file(tmp_path, capsys):
    rc = cli.main(["spikes", "--input", str(tmp_path / "nope.csv"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "input error" in capsys.readouterr().err


def test_spikes_without_a_mode(tmp_path, capsys):
    rc = cli.main(["spikes", "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "--input, --synth, or --sweep" in capsys.readouterr().err


def test_spikes_bad_sweep_range(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spikes", "--sweep", "2.0", "1.0", "0.5",
                  "--output-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --sweep: need finite START <= STOP" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", [
    ["0.5", "1.0", "0"], ["0.5", "1.0", "-0.5"], ["nan", "1.0", "0.5"],
    ["0.5", "inf", "0.5"], ["0.5", "1.0", "nan"], ["-inf", "1.0", "0.5"],
    ["0", "5", "1e-12"], ["0", "5", "5e-324"],
], ids=["zero-step", "negative-step", "nan-start", "inf-stop", "nan-step",
        "inf-start", "too-many-points", "overflowing-point-count"])
def test_spikes_sweep_range_faults_exit_2_at_parse_time(tmp_path, capsys,
                                                        sweep):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spikes", "--sweep", *sweep, "--sweep-seeds", "2",
                  "--output-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --sweep: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, values, text", [
    ("--sweep", ["0", "5", "0.3"], "the grid runs 0.0 to 5.1"),
    ("--sweep", ["-0.5", "1.0", "0.5"], "the grid runs -0.5 to 1.0"),
    ("--synth", ["6"], "got 6.0"),
    ("--synth", ["nan"], "got nan"),
    ("--synth", ["-0.1"], "got -0.1"),
], ids=["sweep-past-5V", "sweep-negative", "synth-6", "synth-nan",
        "synth-negative"])
def test_bad_stimulation_voltages_exit_2_at_parse_time(tmp_path, capsys,
                                                       monkeypatch, flag,
                                                       values, text):
    calls = []
    monkeypatch.setattr(ns, "_synth_rows",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        cli.main(["spikes", flag, *values, "--sweep-seeds", "2",
                  "--output-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err
    assert "stimulation voltage must lie in [0, 5.0] V" in err
    assert text in err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_sweep_blank_edge_past_the_trace_fails_before_synthesis(
        tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(ns, "_synth_rows",
                        lambda *a, **k: calls.append(a))
    cfg = _write_cfg(tmp_path, {"schema_version": 1,
                                "neurosignal": {"synth_duration_s": 0.4}})
    rc = cli.main(["spikes", "--sweep", "0.5", "4.0", "0.25",
                   "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert rc == 4
    assert capsys.readouterr().err == (
        "runtime error: edge time 0.5 s outside the trace extent "
        "[0, 0.4] s\n")
    assert calls == []
    assert not (tmp_path / "out").exists()


# ---------- coverage ----------

def test_coverage_single_run_outputs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _quick_swarm_cfg())
    rc = cli.main(["coverage", "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "union coverage:" in out
    assert "coverage rate:" in out

    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert doc["n_agents"] == 2
    assert len(doc["per_agent"]) == 2
    assert 0.0 < doc["final_union_coverage_pct"] <= 100.0
    cov = (tmp_path / "out" / "coverage.csv").read_text().splitlines()
    assert cov[0] == "t_s,agent0,agent1,union"
    assert len(cov) == 202   # header + 201 log rows at 10 Hz over 20 s
    traj = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t_s,agent_id,x_true_m,y_true_m,x_est_m,y_est_m,command"
    assert len(traj) == 1 + 201 * 2


def test_coverage_agents_flag_overrides_config(tmp_path):
    cfg = _write_cfg(tmp_path, _quick_swarm_cfg(n_agents=4))
    rc = cli.main(["coverage", "--config", str(cfg),
                   "--agents", "1", "--output-dir", str(tmp_path / "one")])
    assert rc == 0
    rc = cli.main(["coverage", "--config", str(cfg),
                   "--output-dir", str(tmp_path / "four")])
    assert rc == 0
    single = json.loads((tmp_path / "one" / "summary.json").read_text())
    quad = json.loads((tmp_path / "four" / "summary.json").read_text())
    assert single["n_agents"] == 1
    assert quad["n_agents"] == 4
    assert single["final_union_coverage_pct"] < quad["final_union_coverage_pct"]


def test_coverage_batch_mode(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _quick_swarm_cfg(duration=10.0))
    rc = cli.main(["coverage", "--config", str(cfg), "--seeds", "3",
                   "--output-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mean union coverage over 3 seeds" in out
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert doc["n_seeds"] == 3
    assert len(doc["per_seed"]) == 3
    assert len(set(doc["run_seeds"])) == 3
    cov = (tmp_path / "out" / "coverage.csv").read_text().splitlines()
    assert cov[0] == "t_s,union_mean_pct,union_sd_pct"


def _count_fix_lanes(monkeypatch):
    """Wrap the fix kernel; the returned list gets the lane count of every
    call."""
    lanes = []
    solve = sw._solve_fixes

    def counted(ranges, *args, **kwargs):
        lanes.append(len(ranges))
        return solve(ranges, *args, **kwargs)

    monkeypatch.setattr(sw, "_solve_fixes", counted)
    return lanes


def test_coverage_batch_solves_no_fixes(tmp_path, monkeypatch):
    lanes = _count_fix_lanes(monkeypatch)
    cfg = _write_cfg(tmp_path, _quick_swarm_cfg(duration=10.0))
    rc = cli.main(["coverage", "--config", str(cfg), "--seeds", "2",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    assert lanes == []


def test_estimated_coverage_run_solves_each_fix_once(tmp_path, monkeypatch):
    lanes = _count_fix_lanes(monkeypatch)
    data = _quick_swarm_cfg(duration=10.0)
    data["swarm"]["coverage_from"] = "estimated"
    cfg = _write_cfg(tmp_path, data)
    rc = cli.main(["coverage", "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    traj = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert sum(lanes) == len(traj) - 1 == 2 * 101


def test_coverage_rejects_zero_agents(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, _quick_swarm_cfg(duration=10.0))
    with pytest.raises(SystemExit) as exc:
        cli.main(["coverage", "--config", str(cfg), "--agents", "0",
                  "--output-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --agents: must be at least 1" in capsys.readouterr().err


# ---------- metrics ----------

def _rect_mask(shift=0):
    px = np.zeros((12, 12), dtype=bool)
    px[2:6, 3 + shift:7 + shift] = True
    return Mask(px)


def test_metrics_identical_dirs_score_perfectly(tmp_path, capsys):
    for d in ("pred", "truth"):
        (tmp_path / d).mkdir()
    for k in range(5):
        for d in ("pred", "truth"):
            write_pgm(_rect_mask(), tmp_path / d / f"m{k:03d}.pgm")
    rc = cli.main(["metrics", "--pred", str(tmp_path / "pred"),
                   "--truth", str(tmp_path / "truth"),
                   "--output-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mIoU: 1.0000" in out
    assert "mDSC: 1.0000" in out
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "id,iou,dsc,pr_err_sq"
    assert len(lines) == 7    # 5 pairs + mean row
    assert lines[-1].startswith("mean,1.0,1.0,0.0")


def test_metrics_one_pixel_offset_gives_unit_mse(tmp_path, capsys):
    for d in ("pred", "truth"):
        (tmp_path / d).mkdir()
    for k in range(20):
        write_pgm(_rect_mask(1), tmp_path / "pred" / f"m{k:03d}.pgm")
        write_pgm(_rect_mask(0), tmp_path / "truth" / f"m{k:03d}.pgm")
    rc = cli.main(["metrics", "--pred", str(tmp_path / "pred"),
                   "--truth", str(tmp_path / "truth"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    assert "MSE(p_R): 1.000 px^2" in capsys.readouterr().out
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert lines[-1] == "mean," + lines[-1].split(",", 1)[1]
    assert float(lines[-1].split(",")[3]) == 1.0


def test_metrics_empty_truth_dir(tmp_path, capsys):
    (tmp_path / "pred").mkdir()
    (tmp_path / "truth").mkdir()
    rc = cli.main(["metrics", "--pred", str(tmp_path / "pred"),
                   "--truth", str(tmp_path / "truth"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "no .pgm files" in capsys.readouterr().err


def test_metrics_name_mismatch_lists_files(tmp_path, capsys):
    (tmp_path / "pred").mkdir()
    (tmp_path / "truth").mkdir()
    write_pgm(_rect_mask(), tmp_path / "truth" / "a.pgm")
    write_pgm(_rect_mask(), tmp_path / "pred" / "b.pgm")
    rc = cli.main(["metrics", "--pred", str(tmp_path / "pred"),
                   "--truth", str(tmp_path / "truth"),
                   "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "a.pgm" in err and "b.pgm" in err


def test_metrics_mismatched_mask_sizes_exit_3(tmp_path, capsys):
    for d in ("pred", "truth"):
        (tmp_path / d).mkdir()
    write_pgm(Mask(np.ones((2, 3), dtype=bool)), tmp_path / "pred" / "m.pgm")
    write_pgm(Mask(np.ones((2, 2), dtype=bool)), tmp_path / "truth" / "m.pgm")
    rc = cli.main(["metrics", "--pred", str(tmp_path / "pred"),
                   "--truth", str(tmp_path / "truth"),
                   "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "m.pgm" in err and "dimensions differ" in err


@pytest.mark.parametrize("text", [
    pytest.param(b"P2\nx 2\n1\n0 1\n", id="non-integer-width"),
    pytest.param(b"P2\n-2 -2\n1\n0 1 1 0\n", id="negative-dimensions"),
    pytest.param(b"P2\n2 2\n1\n0 1 \xff 0\n", id="non-ascii-byte"),
])
def test_metrics_malformed_pgm_header_exits_3_naming_the_file(text, tmp_path,
                                                             capsys):
    for d in ("pred", "truth"):
        (tmp_path / d).mkdir()
    write_pgm(_rect_mask(), tmp_path / "truth" / "m.pgm")
    bad = tmp_path / "pred" / "m.pgm"
    bad.write_bytes(text)
    rc = cli.main(["metrics", "--pred", str(tmp_path / "pred"),
                   "--truth", str(tmp_path / "truth"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(f"input error: {bad}: ")


# ---------- fixation ----------

def test_fixation_table(capsys):
    rc = cli.main(["fixation"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "d_mm\th_mm\texposed\tsafety_margin"
    assert len(out) == 10
    assert out[1] == "0.000\t0.000\tno\tno"
    assert out[8] == "3.500\t1.900\tyes\tyes"
    assert out[9] == "4.000\t1.900\tyes\tyes"


def test_fixation_rejects_single_point(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fixation", "--points", "1"])
    assert exc.value.code == 2
    assert "argument --points: must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, minimum", [
    (["coverage", "--seeds", "0"], "--seeds", 1),
    (["coverage", "--seeds", "-1"], "--seeds", 1),
    (["spikes", "--sweep", "0.5", "1.0", "0.5", "--sweep-seeds", "0"],
     "--sweep-seeds", 1),
    (["spikes", "--sweep", "0.5", "1.0", "0.5", "--sweep-seeds", "-3"],
     "--sweep-seeds", 1),
    (["coverage", "--agents", "0"], "--agents", 1),
    (["assemble", "--batch", "0"], "--batch", 1),
    (["fixation", "--points", "1"], "--points", 2),
], ids=["seeds-0", "seeds-neg", "sweep-seeds-0", "sweep-seeds-neg", "agents",
        "batch", "points"])
def test_count_flags_below_their_minimum_exit_2(tmp_path, capsys, argv, flag,
                                                minimum):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--output-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least {minimum}, got " in err
    assert not (tmp_path / "out").exists()


# ---------- seeds, env, determinism ----------

def test_csv_blocks_write_the_bytes_of_the_row_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 3)
    columns = [np.arange(7),
               ["a", "", "turn_left", "", "b c", "x", ""],
               np.array([1e-05, 1e16, -0.0, 0.1 + 0.2, 2.5, 1.0 / 3.0, 0.0]),
               [np.float64(v) for v in (0.1, 1e-300, -7.0, 1e22, 3.0, 0.5, 2.0)],
               [0.7, 1e-07, 5e-324, -1.5, 123456789.0, 0.25, 9.0]]
    header = ["id", "name", "a", "b", "c"]
    cli._write_csv(tmp_path / "t.csv", header, columns)
    rows = zip(*columns)
    old = "".join(",".join(map(str, row)) + "\n"
                  for row in [header, *rows])
    assert (tmp_path / "t.csv").read_bytes() == old.encode()


def test_csv_writer_takes_empty_tables_and_rejects_ragged_ones(tmp_path):
    for name, columns in (("none.csv", []), ("empty.csv", [[], np.array([])])):
        cli._write_csv(tmp_path / name, ["a", "b"], columns)
        assert (tmp_path / name).read_text() == "a,b\n"
    with pytest.raises(ValueError):
        cli._write_csv(tmp_path / "bad.csv", ["a", "b"], [[1, 2], [3]])
    with pytest.raises(ValueError):
        cli._write_csv(tmp_path / "bad.csv", ["a", "b"], [[1, 2]])
    assert not (tmp_path / "bad.csv").exists()


def test_env_seed_overrides_config_and_flag_wins(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "7")
    rc = cli.main(["assemble", "--output-dir", str(tmp_path / "a")])
    assert rc == 0
    assert json.loads((tmp_path / "a" / "assembly.json").read_text())["seed"] == 7

    rc = cli.main(["assemble", "--seed", "9",
                   "--output-dir", str(tmp_path / "b")])
    assert rc == 0
    assert json.loads((tmp_path / "b" / "assembly.json").read_text())["seed"] == 9


def test_env_output_dir_and_flag_priority(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path / "env_out"))
    assert cli.main(["assemble"]) == 0
    assert (tmp_path / "env_out" / "assembly.json").exists()

    assert cli.main(["assemble", "--output-dir", str(tmp_path / "flag_out")]) == 0
    assert (tmp_path / "flag_out" / "assembly.json").exists()


def test_bad_env_seed_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_SEED, "lots")
    rc = cli.main(["assemble", "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_shared_flags_work_in_both_positions(tmp_path):
    assert cli.main(["--seed", "5", "assemble",
                     "--output-dir", str(tmp_path / "a")]) == 0
    assert cli.main(["assemble", "--seed", "5",
                     "--output-dir", str(tmp_path / "b")]) == 0
    a = json.loads((tmp_path / "a" / "assembly.json").read_text())
    b = json.loads((tmp_path / "b" / "assembly.json").read_text())
    assert a == b


def test_unknown_config_file_key_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"schema_version": 1, "swram": {}})
    rc = cli.main(["assemble", "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "swram" in capsys.readouterr().err


def test_reruns_are_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, _quick_swarm_cfg(duration=10.0))
    for d in ("r1", "r2"):
        assert cli.main(["coverage", "--config", str(cfg),
                         "--output-dir", str(tmp_path / d)]) == 0
        assert cli.main(["spikes", "--synth", "2.0", "--config", str(cfg),
                         "--output-dir", str(tmp_path / d)]) == 0
    for name in ("summary.json", "coverage.csv", "trajectory.csv", "spikes.json"):
        b1 = (tmp_path / "r1" / name).read_bytes()
        b2 = (tmp_path / "r2" / name).read_bytes()
        assert b1 == b2, name


def test_no_temp_files_left_behind(tmp_path):
    assert cli.main(["assemble", "--output-dir", str(tmp_path / "out")]) == 0
    assert list((tmp_path / "out").glob("*.tmp")) == []
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "assembly.json", "event_log.csv"]
