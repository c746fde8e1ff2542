"""Run configuration: versioned JSON schema, strict loading, adapters.

Configs are plain JSON with unit-suffixed keys in SI units.  Loading is
strict: unknown keys anywhere in the tree are rejected with their full
path, so typos fail loudly instead of silently using defaults.  The
schema is thin.  The rig, assembly.calibration, assembly.payload,
neurosignal and swarm.uwb blocks are the domain classes themselves,
whose field names are the config keys; each checks its own rules when it
is built, and a failure is reported at the block's path (at the field's
path for a ParamError).  The arena and locomotion blocks are adapters,
because their JSON shape differs from the domain type's.  Other defaults
are read from the module constants that own them, and _validate runs the
checks that span fields or blocks.
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
from .assembly import PayloadSpec, PixelToArmCalibration
from .locomotion import AgentParams, PRESETS
from .morphology import FixationRig
from .swarm import Arena, Rect, UwbSystem

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Invalid run configuration; message carries the offending path."""


# ---------- schema blocks ----------

@dataclass(frozen=True)
class AssemblyConfig:
    alpha_lower_deg: float = asm.DEFAULT_ALPHA_LOWER
    alpha_upper_deg: float = asm.DEFAULT_ALPHA_UPPER
    step_durations_s: dict[str, float] = field(
        default_factory=lambda: dict(asm.DEFAULT_STEP_DURATIONS))
    handling_gap_s: float = asm.DEFAULT_HANDLING_GAP
    workspace_box_m: tuple[float, float, float] = asm.DEFAULT_WORKSPACE_BOX
    approach_envelope_m: tuple[float, float, float] = (0.010, 0.010, 0.010)
    calibration: PixelToArmCalibration = field(
        default_factory=PixelToArmCalibration)
    payload: PayloadSpec = field(default_factory=PayloadSpec)


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
class SwarmConfig:
    n_agents: int = 4
    stim_period_s: float = sw.DEFAULT_STIM_PERIOD
    duration_s: float = sw.DEFAULT_DURATION
    dt_s: float = sw.DEFAULT_DT
    log_rate_hz: float = sw.DEFAULT_LOG_RATE
    coverage_from: str = sw.DEFAULT_COVERAGE_FROM
    cell_size_m: float = sw.DEFAULT_CELL_SIZE
    arena: ArenaConfig = field(default_factory=ArenaConfig)
    uwb: UwbSystem = field(default_factory=UwbSystem)


@dataclass(frozen=True)
class RunConfig:
    schema_version: int = SCHEMA_VERSION
    seed: int = 42
    output_dir: str = "out"
    rig: FixationRig = field(default_factory=FixationRig)
    assembly: AssemblyConfig = field(default_factory=AssemblyConfig)
    neurosignal: ns.SpikeParams = field(default_factory=ns.SpikeParams)
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
    raise ConfigError(f"{path}: unsupported config field type {_type_name(tp)}")


def _key_path(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _build_dataclass(cls, data: dict, path: str):
    """cls built from data.  A ParamError that cls raises is reported at
    the path of the field it names, any other ValueError at path, the
    block's own."""
    hints = get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = set(data) - set(names)
    if unknown:
        raise ConfigError(f"{_key_path(path, sorted(unknown)[0])}: unknown key")
    kwargs = {name: _coerce(hints[name], data[name], _key_path(path, name))
              for name in names if name in data}
    try:
        return cls(**kwargs)
    except ns.ParamError as exc:
        raise ConfigError(f"{_key_path(path, exc.name)}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    if "schema_version" not in data:
        raise ConfigError("schema_version: required key is missing")
    # checked first: the other keys are read under this version's schema
    version = _coerce(int, data["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    cfg = _build_dataclass(RunConfig, data, "")
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


def _validate(cfg: RunConfig):
    """Run the checks that span a block's fields or several blocks, each
    through the domain code that owns it.  Each block checked its own
    fields when it was built."""
    ac = cfg.assembly
    with _at("rig"):
        asm.check_exposure(cfg.rig)
    with _at("assembly.payload"):
        asm.check_payload(ac.payload)
    with _at("assembly"):
        asm.AssemblyProcess(step_durations=ac.step_durations_s)
        asm.batch_assemble(1, ac.handling_gap_s)
        asm.solve_pitch(ac.alpha_lower_deg, ac.alpha_upper_deg)
        asm.check_workspace(ac.workspace_box_m, ac.approach_envelope_m)
    with _at("locomotion"):
        agent_params_from_config(cfg.locomotion)
    check_swarm(cfg.swarm)


def check_swarm(sc: SwarmConfig):
    """The checks that span the swarm block's fields, among them the bound
    on a run's size; run again once --agents has replaced n_agents."""
    with _at("swarm.arena"):
        arena = arena_from_config(sc.arena)
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

