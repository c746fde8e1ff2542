"""Run configuration: versioned JSON schema, strict loading, adapters.

Configs are plain JSON with unit-suffixed keys in SI units.  Loading is
strict: unknown keys anywhere in the tree are rejected with their full
path, so typos fail loudly instead of silently using defaults.  The
schema is thin: every default is read from the domain object or module
constant that owns it, and load-time validation runs the domain code's
own checks, reporting each failure at its config path.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from . import assembly as asm
from . import neurosignal as ns
from . import swarm as sw
from .assembly import PayloadSpec, PixelToArmCalibration, Workspace
from .locomotion import AgentParams, PRESETS
from .morphology import (ABDOMINAL_CUTICLE_LENGTH_RANGE,
                         ABDOMINAL_CUTICLE_THICKNESS_RANGE,
                         ANTENNA_DIAMETER_RANGE, BODY_LENGTH_RANGE,
                         FixationRig, PRONOTUM_LENGTH_RANGE,
                         PRONOTUM_THICKNESS_RANGE)
from .swarm import Arena, Rect, UwbSystem

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Invalid run configuration; message carries the offending path."""


# ---------- schema blocks ----------

@dataclass(frozen=True)
class MorphologyConfig:
    body_length_range_m: tuple[float, float] = BODY_LENGTH_RANGE
    pronotum_length_range_m: tuple[float, float] = PRONOTUM_LENGTH_RANGE
    pronotum_thickness_range_m: tuple[float, float] = PRONOTUM_THICKNESS_RANGE
    abdominal_cuticle_length_range_m: tuple[float, float] = ABDOMINAL_CUTICLE_LENGTH_RANGE
    abdominal_cuticle_thickness_range_m: tuple[float, float] = ABDOMINAL_CUTICLE_THICKNESS_RANGE
    antenna_diameter_range_m: tuple[float, float] = ANTENNA_DIAMETER_RANGE


@dataclass(frozen=True)
class RigConfig:
    rod_a_initial_clearance_m: float = FixationRig.rod_a_initial_clearance
    lowered_distance_d_m: float = FixationRig.lowered_distance_d
    saturation_d_m: float = FixationRig.saturation_d
    saturation_height_h_max_m: float = FixationRig.saturation_height_h_max
    electrode_thickness_m: float = FixationRig.electrode_thickness
    lifting_jitter_sd_m: float = 0.0


@dataclass(frozen=True)
class CalibrationConfig:
    scale_x_m_per_px: float = PixelToArmCalibration.scale_x
    scale_y_m_per_px: float = PixelToArmCalibration.scale_y
    offset_x_m: float = PixelToArmCalibration.offset_x
    offset_y_m: float = PixelToArmCalibration.offset_y
    offset_z_m: float = PixelToArmCalibration.offset_z


@dataclass(frozen=True)
class PayloadConfig:
    gripper_mass_kg: float = PayloadSpec.gripper_mass
    camera_mass_kg: float = PayloadSpec.camera_mass
    backpack_mass_kg: float = PayloadSpec.backpack_mass
    arm_payload_limit_kg: float = PayloadSpec.arm_payload_limit
    arm_reach_m: float = PayloadSpec.arm_reach
    camera_min_depth_m: float = PayloadSpec.camera_min_depth


@dataclass(frozen=True)
class AssemblyConfig:
    alpha_lower_deg: float = asm.DEFAULT_ALPHA_LOWER
    alpha_upper_deg: float = asm.DEFAULT_ALPHA_UPPER
    step_durations_s: dict[str, float] = field(
        default_factory=lambda: dict(asm.DEFAULT_STEP_DURATIONS))
    handling_gap_s: float = asm.DEFAULT_HANDLING_GAP
    workspace_box_m: tuple[float, float, float] = Workspace.box_dimensions
    approach_envelope_m: tuple[float, float, float] = (0.010, 0.010, 0.010)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    payload: PayloadConfig = field(default_factory=PayloadConfig)


@dataclass(frozen=True)
class NeuroConfig:
    sample_rate_hz: float = ns.DEFAULT_SAMPLE_RATE
    bandpass_low_hz: float = ns.DEFAULT_BAND[0]
    bandpass_high_hz: float = ns.DEFAULT_BAND[1]
    blank_window_s: float = ns.DEFAULT_BLANK_WINDOW
    blank_edge_times_s: tuple[float, ...] = ns.DEFAULT_EDGE_TIMES
    refractory_s: float = ns.DEFAULT_REFRACTORY
    synth_duration_s: float = ns.DEFAULT_SYNTH_DURATION
    synth_noise_sd_v: float = ns.DEFAULT_SYNTH_NOISE_SD
    r_min_hz: float = ns.DEFAULT_R_MIN
    r_max_hz: float = ns.DEFAULT_R_MAX


@dataclass(frozen=True)
class LocomotionConfig:
    preset: str = "auto"
    turn_angle_sd_deg: Optional[float] = None
    heading_diffusion_deg2_s: Optional[float] = None
    recovery_tau_s: Optional[float] = None
    command_duration_s: Optional[float] = None


@dataclass(frozen=True)
class ArenaConfig:
    width_m: float = Arena.width
    height_m: float = Arena.height
    release_corner: str = Arena.release_corner
    obstacles_m: Optional[tuple[tuple[float, float, float, float], ...]] = None


@dataclass(frozen=True)
class UwbConfig:
    anchors_m: tuple[tuple[float, float], ...] = UwbSystem.anchors
    range_noise_sd_m: float = UwbSystem.range_noise_sd


@dataclass(frozen=True)
class SwarmConfig:
    n_agents: int = 4
    stim_period_s: float = sw.DEFAULT_STIM_PERIOD
    duration_s: float = sw.DEFAULT_DURATION
    dt_s: float = sw.DEFAULT_DT
    log_rate_hz: float = sw.DEFAULT_LOG_RATE
    coverage_from: str = sw.DEFAULT_COVERAGE_FROM
    cell_size_m: float = sw.DEFAULT_CELL_SIZE
    arena: ArenaConfig = field(default_factory=ArenaConfig)
    uwb: UwbConfig = field(default_factory=UwbConfig)


@dataclass(frozen=True)
class RunConfig:
    schema_version: int = SCHEMA_VERSION
    seed: int = 42
    output_dir: str = "out"
    morphology: MorphologyConfig = field(default_factory=MorphologyConfig)
    rig: RigConfig = field(default_factory=RigConfig)
    assembly: AssemblyConfig = field(default_factory=AssemblyConfig)
    neurosignal: NeuroConfig = field(default_factory=NeuroConfig)
    locomotion: LocomotionConfig = field(default_factory=LocomotionConfig)
    swarm: SwarmConfig = field(default_factory=SwarmConfig)


# ---------- strict construction ----------

def _type_name(tp) -> str:
    return getattr(tp, "__name__", str(tp))


def _coerce(tp, value, path: str):
    origin = get_origin(tp)
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        return _build_dataclass(tp, value, path)
    if origin is Union:
        args = [a for a in get_args(tp) if a is not type(None)]
        if value is None:
            if type(None) in get_args(tp):
                return None
            raise ConfigError(f"{path}: null is not allowed")
        return _coerce(args[0], value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected an array")
        args = get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(args[0], v, f"{path}[{i}]")
                         for i, v in enumerate(value))
        if len(value) != len(args):
            raise ConfigError(
                f"{path}: expected {len(args)} entries, got {len(value)}"
            )
        return tuple(_coerce(a, v, f"{path}[{i}]")
                     for i, (a, v) in enumerate(zip(args, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object")
        return {k: _coerce(get_args(tp)[1], v, f"{path}.{k}")
                for k, v in value.items()}
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:   # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return value
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if tp is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    raise ConfigError(f"{path}: unsupported config field type {_type_name(tp)}")


def _build_dataclass(cls, data: dict, path: str):
    hints = get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        key = sorted(unknown)[0]
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"{where}: unknown key")
    kwargs = {}
    for name, f in fields.items():
        if name in data:
            sub = f"{path}.{name}" if path else name
            kwargs[name] = _coerce(hints[name], data[name], sub)
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    if "schema_version" not in data:
        raise ConfigError("schema_version: required key is missing")
    cfg = _build_dataclass(RunConfig, data, "")
    if cfg.schema_version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {cfg.schema_version}"
        )
    _validate(cfg)
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(data)


@contextmanager
def _at(path: str):
    """Report a ValueError raised by domain code as a config error at path."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# config key of each neurosignal.check_params parameter
_NEURO_KEYS = {"sample_rate": "sample_rate_hz", "low": "bandpass_low_hz",
               "high": "bandpass_high_hz", "blank_window": "blank_window_s",
               "refractory": "refractory_s"}


def _validate(cfg: RunConfig):
    """Run every block through the domain code that owns its rules."""
    ac, sc, nc = cfg.assembly, cfg.swarm, cfg.neurosignal
    try:
        ns.check_params(nc.sample_rate_hz,
                        (nc.bandpass_low_hz, nc.bandpass_high_hz),
                        nc.blank_window_s, nc.refractory_s)
    except ns.ParamError as exc:
        raise ConfigError(
            f"neurosignal.{_NEURO_KEYS[exc.name]}: {exc}") from exc
    with _at("rig"):
        from_config(FixationRig, cfg.rig)
    with _at("assembly"):
        asm.AssemblyProcess(step_durations=ac.step_durations_s)
        asm.solve_pitch(ac.alpha_lower_deg, ac.alpha_upper_deg)
        asm.check_workspace(workspace_from_config(ac), ac.approach_envelope_m)
    with _at("locomotion"):
        agent_params_from_config(cfg.locomotion)
    with _at("swarm.arena"):
        arena = arena_from_config(sc.arena)
    with _at("swarm.uwb"):
        uwb_from_config(sc.uwb)
    with _at("swarm"):
        sw.check_run(sc.n_agents, sc.stim_period_s, sc.duration_s, sc.dt_s,
                     sc.log_rate_hz, sc.coverage_from)
        sw.CoverageGrid.for_arena(arena, sc.cell_size_m)


# ---------- serialization ----------

def config_to_dict(cfg: RunConfig) -> dict:
    def unfold(value):
        if dataclasses.is_dataclass(value):
            return {f.name: unfold(getattr(value, f.name))
                    for f in dataclasses.fields(value)}
        if isinstance(value, tuple):
            return [unfold(v) for v in value]
        if isinstance(value, dict):
            return {k: unfold(v) for k, v in value.items()}
        return value

    return unfold(cfg)


def config_digest(cfg: RunConfig) -> str:
    """Hash of the scientific content of a config.

    output_dir is excluded: it decides where files land, not what is
    computed, and reruns into different directories must hash alike.
    """
    d = config_to_dict(cfg)
    d.pop("output_dir", None)
    canon = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------- adapters to domain objects ----------

# unit suffixes that config keys add to domain field names
_UNITS = ("_m_per_px", "_kg", "_m")


def from_config(domain_cls, block):
    """Build domain_cls from the config block that holds its fields under
    unit-suffixed names: FixationRig from rig, PixelToArmCalibration from
    assembly.calibration, PayloadSpec from assembly.payload."""
    kwargs = {}
    for f in dataclasses.fields(domain_cls):
        key = next(f.name + u for u in _UNITS if hasattr(block, f.name + u))
        kwargs[f.name] = getattr(block, key)
    return domain_cls(**kwargs)


def workspace_from_config(c: AssemblyConfig) -> Workspace:
    return Workspace(box_dimensions=c.workspace_box_m)


def agent_params_from_config(c: LocomotionConfig) -> AgentParams:
    if c.preset not in PRESETS:
        raise ValueError(
            f"preset must be one of {sorted(PRESETS)}, got {c.preset!r}")
    overrides = {name: value for name, value in (
        ("turn_angle_sd", c.turn_angle_sd_deg),
        ("heading_diffusion", c.heading_diffusion_deg2_s),
        ("recovery_tau", c.recovery_tau_s),
        ("command_duration", c.command_duration_s)) if value is not None}
    return dataclasses.replace(PRESETS[c.preset], **overrides)


def arena_from_config(c: ArenaConfig) -> Arena:
    if c.obstacles_m is None:
        obstacles = sw.DEFAULT_OBSTACLES
    else:
        obstacles = tuple(Rect(*r) for r in c.obstacles_m)
    return Arena(width=c.width_m, height=c.height_m, obstacles=obstacles,
                 release_corner=c.release_corner)


def uwb_from_config(c: UwbConfig) -> UwbSystem:
    return UwbSystem(anchors=c.anchors_m, range_noise_sd=c.range_noise_sd_m)
