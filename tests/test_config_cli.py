"""Strict config loading, digests, and the command line front end.

CLI checks run main() in-process and inspect exit codes, stdout, and the
files written to throwaway directories.
"""
import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biobotsim import cli, neurosignal as ns, seeding, swarm as sw, vision
from biobotsim.assembly import PayloadSpec, PixelToArmCalibration
from biobotsim.config import (
    ConfigError,
    RunConfig,
    agent_params_from_config,
    arena_from_config,
    config_digest,
    config_from_dict,
    config_to_dict,
    load_config,
)
from biobotsim.locomotion import AUTO_PRESET
from biobotsim.morphology import FixationRig, lifting_height
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


def test_config_blocks_are_the_domain_types():
    # one declaration per block: a config mirror of a domain class would
    # hold its keys and defaults a second time
    cfg = RunConfig()
    for block, cls in ((cfg.rig, FixationRig),
                       (cfg.assembly.calibration, PixelToArmCalibration),
                       (cfg.assembly.payload, PayloadSpec),
                       (cfg.neurosignal, ns.SpikeParams),
                       (cfg.swarm.uwb, sw.UwbSystem)):
        assert type(block) is cls


def test_schema_version_is_required_and_checked():
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict({})
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict({"schema_version": 2})
    # reported before the neurosignal rules that run while the block builds
    with pytest.raises(ConfigError, match="^schema_version: expected 1"):
        config_from_dict({"schema_version": 2,
                          "neurosignal": {"sample_rate_hz": 0}})


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
    ({"swarm": {"duration_s": 1e-10}}, "swarm", "duration"),
    ({"swarm": {"dt_s": 0.1}}, "swarm", "dt must lie in"),
    ({"swarm": {"cell_size_m": 0.3}}, "swarm", "does not tile"),
    ({"swarm": {"stim_period_s": 10.005}}, "swarm", "stim period"),
    ({"swarm": {"log_rate_hz": 30.0}}, "swarm", "log interval"),
    ({"swarm": {"duration_s": 0.5, "log_rate_hz": 1.0}}, "swarm",
     "log interval 1.0 does not divide the duration 0.5"),
    ({"swarm": {"duration_s": 30.9, "log_rate_hz": 1.0}}, "swarm",
     "log interval 1.0 does not divide the duration 30.9"),
    ({"rig": {"rod_a_initial_clearance_m": -1.0}}, "rig", "lowered_distance_d"),
    ({"swarm": {"uwb": {"anchors_m": [[0.0, 0.0], [1.0, 0.0]]}}}, "swarm.uwb",
     "need at least 3 anchors"),
    ({"swarm": {"uwb": {"range_noise_sd_m": -0.1}}}, "swarm.uwb",
     "range_noise_sd_m must be non-negative"),
    ({"swarm": {"uwb": {"anchors_m": [[0.0, 0.0]] * 3}}}, "swarm.uwb",
     "anchors must span an area"),
    ({"swarm": {"uwb": {"anchors_m": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}}},
     "swarm.uwb", "anchors must span an area"),
    ({"swarm": {"arena": {"width_m": 0.5}}}, "swarm.arena", "outside the arena"),
    ({"assembly": {"step_durations_s": dict(_STEPS, fix=True)}},
     "assembly.step_durations_s.fix", "expected a number"),
    ({"assembly": {"step_durations_s": dict(_STEPS, press="10")}},
     "assembly.step_durations_s.press", "expected a number"),
    ({"assembly": {"step_durations_s": dict(_STEPS, grasp=0.0)}},
     "assembly", "grasp"),
    ({"assembly": {"alpha_lower_deg": 170.0}}, "assembly", "infeasible"),
    ({"assembly": {"alpha_lower_deg": 1.0,
                   "alpha_upper_deg": 1.0000000000000002}}, "assembly",
     "its midpoint 1.0 does not lie strictly between"),
    ({"assembly": {"calibration": {"scale_x_m_per_px": 1e308}}},
     "assembly.calibration", "maps pixel (255, 255) to [inf, 255.0, 0.0]"),
    ({"assembly": {"approach_envelope_m": [-0.01, 0.01, 0.01]}},
     "assembly", "envelope"),
    ({"rig": {"saturation_height_h_max_m": 1e-4}}, "rig",
     "insufficient exposure"),
    ({"assembly": {"payload": {"gripper_mass_kg": 5.0}}}, "assembly.payload",
     "exceeds the arm payload limit"),
    ({"assembly": {"approach_envelope_m": [1.0, 1.0, 1.0]}}, "assembly",
     "does not fit the workspace box"),
    ({"assembly": {"handling_gap_s": -1}}, "assembly",
     "handling_gap must be non-negative"),
    ({"neurosignal": {"synth_noise_sd_v": -1.0}},
     "neurosignal.synth_noise_sd_v", "must be non-negative"),
    ({"neurosignal": {"synth_noise_sd_v": 1e307}},
     "neurosignal.synth_noise_sd_v", "must be at most 1e+300 V"),
    ({"neurosignal": {"synth_duration_s": 0.0}},
     "neurosignal.synth_duration_s", "must be positive"),
    ({"neurosignal": {"synth_duration_s": 0.0004, "blank_edge_times_s": [],
                      "r_max_hz": 100000.0}},
     "neurosignal.synth_duration_s", "too short to hold one 12-sample spikelet"),
    ({"neurosignal": {"sample_rate_hz": 1e10, "synth_duration_s": 1000.0}},
     "neurosignal.synth_duration_s", "gives more than 10000000 samples"),
    ({"neurosignal": {"r_max_hz": -5.0}}, "neurosignal.r_max_hz",
     "must be at least r_min"),
    ({"neurosignal": {"r_min_hz": -5.0}}, "neurosignal.r_min_hz",
     "must be non-negative"),
    ({"neurosignal": {"sample_rate_hz": 0}}, "neurosignal.sample_rate_hz",
     "must be positive"),
    ({"neurosignal": {"bandpass_low_hz": 0}}, "neurosignal.bandpass_low_hz",
     "must be positive"),
    ({"neurosignal": {"bandpass_high_hz": 200.0}},
     "neurosignal.bandpass_high_hz", "must be above"),
    ({"swarm": {"duration_s": 1e7}}, "swarm",
     "n_agents 4 over the duration 10000000.0 at dt 0.01 take 4e+09 "
     "agent-steps, more than 10000000"),
    ({"swarm": {"n_agents": 10 ** 7}}, "swarm",
     "n_agents 10000000 over the duration 631.0 at dt 0.01 take 6.31e+11 "
     "agent-steps, more than 10000000"),
    ({"swarm": {"duration_s": 1e308}}, "swarm", "take inf agent-steps"),
    ({"swarm": {"duration_s": 2600.0, "log_rate_hz": 100.0}}, "swarm",
     "n_agents 4 over the duration 2600.0 at log_rate_hz 100.0 log 1040004 "
     "ticks, more than 1000000"),
], ids=["duration", "duration-under-one-step", "dt-bound", "tiling",
        "stim-period", "log-interval", "log-past-the-end",
        "log-short-of-the-end", "rig", "uwb-anchors", "uwb-noise",
        "uwb-coincident-anchors", "uwb-collinear-anchors", "arena",
        "step-bool", "step-string", "step-zero", "corridor",
        "corridor-two-floats-wide", "calibration-overflow",
        "envelope", "exposure", "payload", "envelope-fit", "handling-gap",
        "synth-noise",
        "synth-noise-overflow", "synth-duration", "synth-too-short", "synth-too-long", "r-max", "r-min",
        "sample-rate", "band-low", "band-high-below-low", "agent-steps",
        "agents", "steps-overflow", "log-ticks"])
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
    out = subprocess.run([sys.executable, "-c", code], env=_env_with_src(),
                         check=True, capture_output=True, text=True).stdout
    return out.strip()


def _env_with_src():
    """The environment with the package's source on PYTHONPATH, for a
    child interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_loads_no_scipy():
    assert _modules_after_cli_import("scipy") == "[]"


def test_cli_import_loads_no_thread_pool():
    # the sweep and the batch run on forked processes, not a pool
    assert _modules_after_cli_import("concurrent") == "[]"


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_json_outputs_refuse_nan_and_infinity(tmp_path, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_json(tmp_path / "out.json", {"x": value})
    assert list(tmp_path.iterdir()) == []


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
    assert cfg.swarm.uwb.range_noise_sd_m == 0.0
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


def test_assemble_runs_the_rig_and_calibration_blocks(tmp_path):
    data = {"schema_version": 1, "rig": {"lowered_distance_d_m": 2.0e-3},
            "assembly": {"calibration": {
                "scale_x_m_per_px": 0.001, "scale_y_m_per_px": -0.002,
                "offset_x_m": 0.1, "offset_y_m": 0.2, "offset_z_m": 0.05}}}
    cfg_path = _write_cfg(tmp_path, data)
    assert cli.main(["assemble", "--config", str(cfg_path),
                     "--output-dir", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "assembly.json").read_text())
    cfg = load_config(cfg_path)
    p_r = vision.ReferencePoint(**doc["reference_point_px"])
    lift = lifting_height(cfg.rig, 2.0e-3)
    assert doc["pose_xyz_m"] == list(cfg.assembly.calibration.apply(p_r, lift))
    assert doc["pose_xyz_m"][2] == pytest.approx(0.05 + 1.9e-3 * 2.0 / 3.5)


def test_assemble_zero_lowering_fails_at_runtime(tmp_path):
    # config loading rejects this rig; a RunConfig built in code skips
    # loading, and the run applies the same exposure check
    cfg = RunConfig(rig=FixationRig(lowered_distance_d_m=0.0))
    with pytest.raises(ValueError, match="insufficient exposure"):
        cli.run_assemble(cfg, tmp_path / "out", None)


# ---------- spikes ----------

def test_spikes_zero_trace_detects_nothing(tmp_path, capsys, write_trace_csv):
    trace = ns.Trace(25000.0, np.zeros(30000))
    write_trace_csv(trace, tmp_path / "flat.csv")
    rc = cli.main(["spikes", "--input", str(tmp_path / "flat.csv"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    assert "n_spikes: 0" in capsys.readouterr().out
    doc = json.loads((tmp_path / "out" / "spikes.json").read_text())
    assert doc["n_spikes"] == 0
    assert doc["threshold_v"] == 0.0


def test_spikes_planted_fixture_binary_input(tmp_path, capsys,
                                            planted_spike_trace,
                                            write_trace_binary):
    write_trace_binary(planted_spike_trace(3), tmp_path / "planted.btrc")
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


def test_spikes_input_band_is_checked_at_the_trace_rate(tmp_path, capsys,
                                                        write_trace_csv):
    # the default 5 kHz upper edge lies above an 8 kHz trace's Nyquist
    write_trace_csv(ns.Trace(8000.0, np.zeros(8000)), tmp_path / "slow.csv")
    rc = cli.main(["spikes", "--input", str(tmp_path / "slow.csv"),
                   "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4, err
    assert "Nyquist" in err
    assert f"runtime error: {tmp_path / 'slow.csv'}: band" in err


@pytest.mark.parametrize("samples, text", [
    # finite samples whose filtered values overflow, and would warn
    (1.79e308 * np.random.default_rng(0).uniform(-1.0, 1.0, 30000),
     "the filtered trace overflows: its samples are too large for the "
     "bandpass"),
    # 0.4 s long: the default 0.5 s blank edge lies past its end
    (np.zeros(10000), "edge time 0.5 s outside the trace extent [0, 0.4] s"),
], ids=["overflow", "edge-past-the-end"])
def test_spikes_input_trace_faults_exit_4_naming_the_file(tmp_path, capsys,
                                                          samples, text,
                                                          write_trace_binary):
    path = tmp_path / "trace.btrc"
    write_trace_binary(ns.Trace(25000.0, samples), path)
    rc = cli.main(["spikes", "--input", str(path),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 4
    assert capsys.readouterr().err == f"runtime error: {path}: {text}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("# sample_rate_hz=nan\nvoltage_v\n0.0\n",
     "sample_rate must be finite and positive, got nan"),
    ("# sample_rate_hz=inf\nvoltage_v\n0.0\n",
     "sample_rate must be finite and positive, got inf"),
    ("# sample_rate_hz=25000.0\nvoltage_v\n0.0\nnan\n",
     "samples must be finite"),
], ids=["nan-rate", "inf-rate", "nan-sample"])
def test_spikes_input_trace_values_exit_3_naming_the_file(tmp_path, capsys,
                                                          text, message):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    rc = cli.main(["spikes", "--input", str(path),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == f"input error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_spikes_input_that_cannot_be_read_exits_3_naming_it(tmp_path, capsys):
    path = tmp_path / "tr.csv"
    path.mkdir()
    rc = cli.main(["spikes", "--input", str(path),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(f"input error: {path}: ")
    assert not (tmp_path / "out").exists()


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
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: neurosignal.blank_edge_times_s: edge time 0.5 s "
        "outside the trace extent [0, 0.4] s\n")
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["--synth", "3.0"], ["--sweep", "1", "2", "1", "--sweep-seeds", "2"],
    ["--synth", "3.0", "--sweep", "1", "2", "1"],
], ids=["synth", "sweep", "sweep-wins"])
def test_blank_edge_past_a_synthesized_trace_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(ns, "_synth_rows",
                        lambda *a, **k: calls.append(a))
    cfg = _write_cfg(tmp_path, {"schema_version": 1,
                                "neurosignal": {"synth_duration_s": 0.4}})
    rc = cli.main(["spikes", *argv, "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "config error: neurosignal.blank_edge_times_s: edge time 0.5 s")
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_blank_edges_are_checked_against_a_trace_file_not_the_config(
        tmp_path, capsys, write_trace_binary):
    # the config's 0.4 s would not hold the 0.5 s edge; the 1.2 s file does
    path = tmp_path / "trace.btrc"
    write_trace_binary(ns.Trace(25000.0, np.zeros(30000)), path)
    cfg = _write_cfg(tmp_path, {"schema_version": 1,
                                "neurosignal": {"synth_duration_s": 0.4}})
    rc = cli.main(["spikes", "--input", str(path), "--synth", "3.0",
                   "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err


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


def test_coverage_agents_flag_is_hashed_as_the_agent_count(tmp_path):
    # --agents 1 over a 4-agent config is the run of a 1-agent config, so
    # its config_sha256 is that config's
    four = _write_cfg(tmp_path, _quick_swarm_cfg(n_agents=4))
    assert cli.main(["coverage", "--config", str(four), "--agents", "1",
                     "--output-dir", str(tmp_path / "flag")]) == 0
    one = _write_cfg(tmp_path, _quick_swarm_cfg(n_agents=1), "one.json")
    assert cli.main(["coverage", "--config", str(one),
                     "--output-dir", str(tmp_path / "config")]) == 0
    for name in ("summary.json", "trajectory.csv"):
        assert ((tmp_path / "flag" / name).read_bytes()
                == (tmp_path / "config" / name).read_bytes())


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


def test_coverage_batch_runs_the_dispersion_batch(tmp_path):
    cfg_path = _write_cfg(tmp_path, _quick_swarm_cfg(duration=10.0))
    rc = cli.main(["coverage", "--config", str(cfg_path), "--seeds", "3",
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    cfg = load_config(cfg_path)
    runs = sw.dispersion_batch(
        arena_from_config(cfg.swarm.arena), cfg.swarm.uwb,
        [agent_params_from_config(cfg.locomotion)] * 2, 3, cfg.seed,
        duration=10.0)
    finals = [(run.seed, run.final_union_coverage) for run in runs]
    assert [s for s, _ in finals] == doc["run_seeds"]
    assert finals == [(p["seed"], p["final_union_coverage_pct"])
                      for p in doc["per_seed"]]


def test_coverage_batch_writes_the_same_bytes_on_any_worker_count(
        tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, _quick_swarm_cfg(duration=10.0))
    for workers in (1, 2):
        monkeypatch.setattr(seeding, "cpu_count", lambda: workers)
        assert cli.main(["coverage", "--config", str(cfg), "--seeds", "3",
                         "--output-dir", str(tmp_path / str(workers))]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    for name in ("coverage.csv", "summary.json"):
        assert ((tmp_path / "1" / name).read_bytes()
                == (tmp_path / "2" / name).read_bytes())


def test_spike_sweep_writes_the_same_bytes_on_any_worker_count(
        tmp_path, monkeypatch):
    for workers in (1, 2):
        monkeypatch.setattr(seeding, "cpu_count", lambda: workers)
        assert cli.main(["spikes", "--sweep", "0.5", "4.0", "0.5",
                         "--sweep-seeds", "5",
                         "--output-dir", str(tmp_path / str(workers))]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert ((tmp_path / "1" / "spike_sweep.csv").read_bytes()
            == (tmp_path / "2" / "spike_sweep.csv").read_bytes())


def test_agents_flag_is_bounded_like_the_config(tmp_path, capsys):
    rc = cli.main(["coverage", "--agents", str(10 ** 7),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "config error: swarm: n_agents 10000000 over the duration 631.0")
    assert not (tmp_path / "out").exists()


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
    # the fixes a child solved would not be counted here
    monkeypatch.setattr(seeding, "cpu_count", lambda: 1)
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
    assert lanes == [len(traj) - 1] == [2 * 101]


def test_far_anchor_keeps_finite_estimates(tmp_path):
    # the linear start overflows, so every fix starts at the centroid, where
    # (x - 1e200)**2 overflows: the solver takes hypot for that anchor.
    # Gauss-Newton left every fix at the centroid, x ~ 2.5e199 m
    # (5db22410...); Newton reaches the near anchors' fix
    data = _quick_swarm_cfg(duration=10.0)
    data["swarm"]["coverage_from"] = "estimated"
    data["swarm"]["uwb"] = {"anchors_m": [[0.0, 0.0], [3.6, 0.0],
                                          [1e200, 0.0], [0.0, 3.6]]}
    cfg = _write_cfg(tmp_path, data)
    rc = cli.main(["coverage", "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    traj = (tmp_path / "out" / "trajectory.csv").read_bytes()
    est = [[float(v) for v in row.split(b",")[4:6]]
           for row in traj.splitlines()[1:]]
    assert len(est) == 2 * 101 and np.isfinite(est).all()
    true = [[float(v) for v in row.split(b",")[2:4]]
            for row in traj.splitlines()[1:]]
    assert np.hypot(*(np.array(est) - true).T).max() < 0.5
    assert hashlib.sha256(traj).hexdigest() == (
        "d42b7e82f67dc18c03d024598958956ddfee2d93e53229c089f1d8c49335c257")


def test_trajectory_csv_rows_run_tick_major_with_positions_to_1_um(tmp_path):
    data = _quick_swarm_cfg(duration=25.0, n_agents=3)
    data["swarm"]["coverage_from"] = "estimated"
    cfg_path = _write_cfg(tmp_path, data)
    assert cli.main(["coverage", "--config", str(cfg_path),
                     "--output-dir", str(tmp_path / "out")]) == 0
    cfg = load_config(cfg_path)
    sc = cfg.swarm
    run = sw.simulate(
        arena_from_config(sc.arena), sc.uwb,
        [agent_params_from_config(cfg.locomotion)] * 3, seed=cfg.seed,
        stim_period=sc.stim_period_s, duration=sc.duration_s, dt=sc.dt_s,
        log_rate_hz=sc.log_rate_hz, coverage_from=sc.coverage_from,
        cell_size=sc.cell_size_m)
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    n = run.n_agents
    assert len(rows) == len(run.log_t) * n
    for j, (t_s, agent_id, *_, command) in enumerate(rows):
        k, i = divmod(j, n)
        assert (t_s, agent_id) == (str(run.log_t[k]), str(i))
        assert command == run.commands[i][k]
    assert any(row[-1] for row in rows)
    got = np.array([[float(v) for v in row[2:6]] for row in rows])
    want = np.concatenate([run.true_xy, run.est_xy], axis=2)
    assert np.abs(got - want.transpose(1, 0, 2).reshape(-1, 4)).max() <= 5e-7


@pytest.mark.parametrize("rate, digits", [(10.0, 1), (100.0, 2)])
def test_log_ticks_print_as_the_tick_itself(tmp_path, rate, digits):
    # tick k is k / rate, so no t_s cell carries float noise such as
    # 0.35000000000000003, and the last tick is the duration itself
    data = _quick_swarm_cfg(duration=20.0, n_agents=1)
    data["swarm"]["log_rate_hz"] = rate
    cfg = _write_cfg(tmp_path, data)
    assert cli.main(["coverage", "--config", str(cfg),
                     "--output-dir", str(tmp_path / "out")]) == 0
    for name in ("trajectory.csv", "coverage.csv"):
        lines = (tmp_path / "out" / name).read_text().splitlines()[1:]
        cells = [line.split(",", 1)[0] for line in lines]
        assert len(cells) == 20 * int(rate) + 1
        for k, cell in enumerate(cells):
            assert cell == repr(k / rate)
            assert len(cell) <= len(f"{k / rate:.{digits}f}")
        assert float(cells[-1]) == 20.0


@settings(max_examples=40, deadline=None)
@given(dt=st.sampled_from([0.005, 0.01, 0.02, 0.05]),
       k=st.integers(1, 200),
       log_rate_hz=st.sampled_from([1.0, 2.0, 5.0, 10.0, 100.0]),
       stim_period_s=st.sampled_from([0.5, 1.0, 10.0]),
       n_agents=st.integers(1, 2))
def test_coverage_timing_is_rejected_at_load_or_summarized_consistently(
        dt, k, log_rate_hz, stim_period_s, n_agents):
    """A timing block either exits 2 at load or gives a summary whose rate
    times the duration is the area its final coverage implies."""
    duration = k * dt
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write_cfg(Path(tmp), {"schema_version": 1, "swarm": {
            "dt_s": dt, "duration_s": duration, "log_rate_hz": log_rate_hz,
            "stim_period_s": stim_period_s, "n_agents": n_agents}})
        out = Path(tmp) / "out"
        rc = cli.main(["coverage", "--config", str(cfg),
                       "--output-dir", str(out)])
        assert rc in (0, 2)
        if rc == 0:
            doc = json.loads((out / "summary.json").read_text())
            # the default arena is 2 m x 2 m, 40,000 cm^2
            area = doc["final_union_coverage_pct"] / 100.0 * 40000.0
            assert doc["coverage_rate_cm2_per_s"] * doc["duration_s"] == (
                pytest.approx(area, rel=1e-9, abs=0))


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


def test_mask_script_dataset_feeds_metrics(tmp_path, capsys):
    assert cli.main(["masks", "--count", "3", "--rotation-deg", "2",
                     "--output-dir", str(tmp_path / "ds")]) == 0
    rc = cli.main(["metrics", "--pred", str(tmp_path / "ds" / "pred"),
                   "--truth", str(tmp_path / "ds" / "truth"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 + 1    # header, 3 pairs, mean row
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "m0000.pgm", "m0001.pgm", "m0002.pgm", "mean"]


@pytest.mark.parametrize("flag", [["--scale", "0"], ["--scale", "nan"],
                                  ["--scale", "1e-307"],
                                  ["--rotation-deg", "nan"],
                                  ["--rotation-deg", "inf"], ["--count", "0"]],
                         ids=" ".join)
def test_mask_script_rejects_bad_flags_before_writing(flag, tmp_path, capsys):
    out = tmp_path / "ds"
    with pytest.raises(SystemExit) as exc:
        cli.main(["masks", *flag, "--output-dir", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"error: argument {flag[0]}: " in err
    assert not out.exists()


def test_mask_script_exits_naming_a_mask_the_extractor_misreads(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(vision, "extract_reference_point",
                        lambda mask: vision.ReferencePoint(-1, -1))
    # an extractor mismatch is a runtime error
    assert cli.main(["masks", "--count", "2",
                     "--output-dir", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("runtime error: m0000.pgm: ")
    assert not (tmp_path / "truth" / "m0000.pgm").exists()
    assert not (tmp_path / "truth_points.csv").exists()


def test_mask_script_write_failing_mid_file_leaves_no_mask(
        tmp_path, monkeypatch, capsys):
    encode = vision.encode_pgm

    def failing(mask):
        header, body = encode(mask)
        yield header
        yield body[:1]
        raise OSError("No space left on device")

    monkeypatch.setattr(vision, "encode_pgm", failing)
    assert cli.main(["masks", "--count", "2",
                     "--output-dir", str(tmp_path)]) == 4
    assert "No space left on device" in capsys.readouterr().err
    # neither the mask nor its temp file is left
    assert list((tmp_path / "truth").iterdir()) == []


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


@pytest.mark.parametrize("name", ["a,b.pgm", 'q"x.pgm', "cr\rx.pgm",
                                  "line\nbreak.pgm"])
def test_metrics_mask_name_metrics_csv_cannot_hold_exits_3(tmp_path, capsys,
                                                           name):
    for d in ("pred", "truth"):
        (tmp_path / d).mkdir()
        for mask_name in ("m.pgm", name):
            write_pgm(_rect_mask(), tmp_path / d / mask_name)
    rc = cli.main(["metrics", "--pred", str(tmp_path / "pred"),
                   "--truth", str(tmp_path / "truth"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert repr(str(tmp_path / "truth" / name)) in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_metrics_mask_name_that_is_not_utf8_exits_3_before_reading(
        tmp_path, capsys, monkeypatch):
    name = os.fsdecode(b"m\xff.pgm")
    if name.isprintable():
        pytest.skip("the filesystem encoding decodes byte 0xff")
    for d in ("pred", "truth"):
        (tmp_path / d).mkdir()
        try:
            write_pgm(_rect_mask(), tmp_path / d / name)
        except OSError:
            pytest.skip("the filesystem refuses a name that is not UTF-8")
    monkeypatch.setattr(vision, "read_pgm",
                        lambda path: pytest.fail(f"read {path!r}"))
    rc = cli.main(["metrics", "--pred", str(tmp_path / "pred"),
                   "--truth", str(tmp_path / "truth"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert repr(str(tmp_path / "truth" / name)) in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_metrics_mask_that_cannot_be_read_exits_3_naming_it(tmp_path, capsys):
    for d in ("pred", "truth"):
        (tmp_path / d).mkdir()
    write_pgm(_rect_mask(0), tmp_path / "pred" / "m0.pgm")
    (tmp_path / "truth" / "m0.pgm").mkdir()
    rc = cli.main(["metrics", "--pred", str(tmp_path / "pred"),
                   "--truth", str(tmp_path / "truth"),
                   "--output-dir", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        f"input error: {tmp_path / 'truth' / 'm0.pgm'}: ")
    assert not (tmp_path / "out").exists()


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


def test_csv_default_format_writes_the_bytes_of_str_format(tmp_path):
    floats = np.array([0.1, 1e-05, 1e16, -0.0, 1.0 / 3.0, np.inf, np.nan])
    ints = np.array([0, -1, 2**40, 7, 3, 2**62, -2**63], dtype=np.int64)
    columns = [[0.1 + 0.2, 5e-324, -7.5, 1e22, 2.0, 1e-07, 123456789.0],
               [0, -3, 10**20, 1, 2, 3, 4],
               [True, False, True, True, False, False, True],
               ["a", "", "turn_left", "b c", "%s", "%d", "100%"],
               floats.tolist(), ints.tolist(), floats, ints]
    header = ["f", "i", "b", "s", "f64", "i64", "f64_array", "i64_array"]
    cli._write_csv(tmp_path / "t.csv", header, columns)
    fmt = ",".join(["{}"] * len(header)) + "\n"
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    old = ",".join(header) + "\n" + "".join(
        fmt.format(*row) for row in zip(*values))
    assert (tmp_path / "t.csv").read_bytes() == old.encode()


def test_csv_writer_rejects_formats_unlike_the_header(tmp_path):
    for columns in ([[1.5], [2]], []):
        for formats in (["%s"], ["%.6f", "%d", "%s"], []):
            with pytest.raises(ValueError, match="^bad.csv: 2 header fields"):
                cli._write_csv(tmp_path / "bad.csv", ["a", "b"], columns,
                               formats)
    assert not (tmp_path / "bad.csv").exists()
    cli._write_csv(tmp_path / "ok.csv", ["a", "b"], [[1.5], [2]],
                   ["%.6f", "%d"])
    assert (tmp_path / "ok.csv").read_text() == "a,b\n1.500000,2\n"


FIXED_FORMATS = ["%.0f", "%.1f", "%.3f", "%.6f", "%.9f"]


def _csv_text(columns, formats, block_rows):
    """What _write_csv writes for these columns at one block size."""
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):
        path = Path(d) / "t.csv"
        cli._write_csv(path, [f"c{j}" for j in range(len(columns))],
                       columns, formats)
        return path.read_bytes()


def _cell_by_cell(columns, formats):
    """The same table formatted one cell at a time by fmt % v."""
    header = ",".join(f"c{j}" for j in range(len(columns))) + "\n"
    rows = zip(*(c.tolist() for c in columns))
    return (header + "".join(
        ",".join(f % v for f, v in zip(formats, row)) + "\n"
        for row in rows)).encode()


def _fixed_point_edges():
    k = np.arange(-256, 257, dtype=np.float64)
    ties = np.concatenate([k / 128, k * 5e-7])
    big = 2.0 ** 52 / 10.0 ** np.array([0, 1, 3, 6, 9])
    near = np.concatenate([ties, big])
    values = np.concatenate([near, np.nextafter(near, np.inf),
                             np.nextafter(near, -np.inf),
                             [0.0, np.inf, np.nan, 5e-324, 1e300]])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("block_rows", [1, 3, 7])
def test_fixed_point_columns_write_the_bytes_of_percent_format(block_rows):
    x = _fixed_point_edges()
    columns = [x] * len(FIXED_FORMATS)
    assert (_csv_text(columns, FIXED_FORMATS, block_rows)
            == _cell_by_cell(columns, FIXED_FORMATS))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(width=64), min_size=1, max_size=40),
       block_rows=st.sampled_from([1, 3, 7]))
def test_fixed_point_columns_match_percent_format_on_any_float(values,
                                                               block_rows):
    x = np.array(values, dtype=np.float64)
    columns = [x] * len(FIXED_FORMATS)
    assert (_csv_text(columns, FIXED_FORMATS, block_rows)
            == _cell_by_cell(columns, FIXED_FORMATS))


@pytest.mark.parametrize("block_rows", [1, 3, 7])
def test_distinct_values_keep_signed_zeros_and_nan_payloads_apart(block_rows):
    payloads = np.array([0x7FF8000000000000, 0x7FF8000000000001,
                         0xFFF8000000000000, 0x7FF0000000000001],
                        dtype=np.uint64).view(np.float64)
    floats = np.array([0.0, -0.0, *payloads, -0.0, 0.0, *payloads[::-1], 1.5])
    ints = np.arange(len(floats)) % 3 - 1
    flags = ints > 0
    columns = [floats, floats, ints, flags]
    formats = ["%s", "%r", "%d", "%s"]
    assert (_csv_text(columns, formats, block_rows)
            == _cell_by_cell(columns, formats))


def test_text_cells_are_written_as_utf8(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 2)
    names = ["\u00b5m", "", "x", "\u00e9t\u00e9", "\u65e5\u672c"]
    cli._write_csv(tmp_path / "t.csv", ["id", "n"], [names, np.arange(5)])
    want = "id,n\n" + "".join(f"{a},{b}\n" for b, a in enumerate(names))
    assert (tmp_path / "t.csv").read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "cr\rx", "lf\nx",
                                  "nul\0x"])
def test_csv_writer_rejects_a_cell_it_cannot_write_unquoted(tmp_path, cell):
    for columns in ([["ok", cell]], [np.array(["ok", cell])],
                    [np.array([b"ok", cell.encode()])]):
        with pytest.raises(ValueError, match="^bad.csv: column 'id': cell"):
            cli._write_csv(tmp_path / "bad.csv", ["id"], columns)
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("block_rows", [1, 3, 7])
def test_bytes_columns_write_the_cells_formatted_once(block_rows):
    ticks = np.array([0.0, 0.01, 0.1 + 0.2, 1e16, 5e-324, 150.0, 2.5])
    rows = [["", "turn_left", "turn_left", "\u00e9t\u00e9", "", "x", ""],
            ["decelerate", "", "", "", "\u65e5", "x", "turn_right"]]
    names = [name for tick in zip(*rows) for name in tick]
    formatted = [np.repeat(cli._formatted(ticks, "%s", "t"), 2),
                 cli._name_column(rows)]
    assert formatted[0].dtype.kind == formatted[1].dtype.kind == "S"
    want = "c0,c1\n" + "".join(f"{t},{n}\n" for t, n in
                               zip(np.repeat(ticks, 2).tolist(), names))
    assert _csv_text(formatted, ["%s", "%s"], block_rows) == want.encode()
    assert _csv_text([formatted[0][:0]] * 2, ["%s", "%s"],
                     block_rows) == b"c0,c1\n"


def test_bytes_columns_take_only_the_str_format(tmp_path):
    for fmt in ("%r", "%d", "%.6f"):
        with pytest.raises(ValueError, match="format must be '%s'"):
            cli._write_csv(tmp_path / "bad.csv", ["t"],
                           [np.array([b"0.5"])], [fmt])
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
