"""Stochastic kinematic agent: calibrated presets, samplers and commands.

Stimulation commands are turns (heading tracks a sampled target angle at a
capped angular rate, left positive) or decelerations (speed ramps linearly
to a sampled minimum, then recovers after the command ends).  Between
commands the heading performs a diffusion random walk.  This module holds
the response parameters, their samplers and command activation; the one
integrator of these dynamics is swarm._walk.  With all spread parameters at
zero the dynamics are fully deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Optional

DEFAULT_COMMAND_DURATION = 0.4  # s


class StimKind(str, Enum):
    TURN_LEFT = "turn_left"
    TURN_RIGHT = "turn_right"
    DECELERATE = "decelerate"


@dataclass(frozen=True)
class StimCommand:
    kind: StimKind
    duration: float = DEFAULT_COMMAND_DURATION

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise ValueError("command duration must be positive and finite, "
                             f"got {self.duration!r}")


@dataclass(frozen=True)
class AgentParams:
    """Calibrated response parameters for one stimulation mode.

    Angles in degrees, speeds in m/s, times in seconds, heading diffusion
    in degrees^2 per second.  Every field must be finite.
    """

    turn_angle_left_mean: float
    turn_angle_right_mean: float
    max_ang_speed_left: float
    max_ang_speed_right: float
    walk_speed_mean: float
    decel_min_speed_mean: float
    turn_angle_sd: float = 15.0
    decel_min_speed_sd: float = 0.013
    decel_time: float = 0.33
    recovery_tau: float = 1.0
    heading_diffusion: float = 3000.0
    command_duration: float = DEFAULT_COMMAND_DURATION

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("max_ang_speed_left", "max_ang_speed_right",
                     "walk_speed_mean", "decel_time", "recovery_tau",
                     "command_duration"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("turn_angle_sd", "decel_min_speed_sd",
                     "heading_diffusion", "decel_min_speed_mean"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


# calibrated presets: responses under manual remote stimulation and under
# the automatic backpack stimulator
MANUAL_PRESET = AgentParams(
    turn_angle_left_mean=68.0,
    turn_angle_right_mean=82.6,
    max_ang_speed_left=275.8,
    max_ang_speed_right=298.2,
    walk_speed_mean=0.062,
    decel_min_speed_mean=0.015,
)
AUTO_PRESET = AgentParams(
    turn_angle_left_mean=70.9,
    turn_angle_right_mean=79.5,
    max_ang_speed_left=240.0,
    max_ang_speed_right=273.5,
    walk_speed_mean=0.063,
    decel_min_speed_mean=0.020,
)
PRESETS = {"manual": MANUAL_PRESET, "auto": AUTO_PRESET}


@dataclass(slots=True)
class ActiveCommand:
    kind: StimKind
    time_remaining: float
    turn_target: float = 0.0     # absolute target heading, unnormalized
    turn_remaining: float = 0.0  # unsigned degrees still to rotate
    turn_sign: float = 0.0       # +1 left, -1 right
    decel_v0: float = 0.0
    decel_vmin: float = 0.0
    decel_elapsed: float = 0.0


@dataclass(slots=True)
class AgentState:
    x: float
    y: float
    heading: float               # degrees; [0, 360) needed only in an initial state
    speed: float                 # m/s, >= 0
    active_command: Optional[ActiveCommand] = None


# ---------- samplers ----------

def sample_turn_angle(params: AgentParams, kind: StimKind, rng=None) -> float:
    """Turn magnitude in degrees, Normal draw clamped to [0, 180]."""
    if kind == StimKind.TURN_LEFT:
        mean = params.turn_angle_left_mean
    elif kind == StimKind.TURN_RIGHT:
        mean = params.turn_angle_right_mean
    else:
        raise ValueError(f"not a turn command: {kind}")
    if params.turn_angle_sd == 0.0:
        draw = mean
    else:
        if rng is None:
            raise ValueError("turn_angle_sd > 0 requires an rng")
        draw = mean + params.turn_angle_sd * rng.normal()
    return min(max(draw, 0.0), 180.0)


def sample_decel_minimum(params: AgentParams, rng=None) -> float:
    """Minimum speed during deceleration, m/s, clamped to [0, walk mean]."""
    if params.decel_min_speed_sd == 0.0:
        draw = params.decel_min_speed_mean
    else:
        if rng is None:
            raise ValueError("decel_min_speed_sd > 0 requires an rng")
        draw = params.decel_min_speed_mean + params.decel_min_speed_sd * rng.normal()
    return min(max(draw, 0.0), params.walk_speed_mean)


# ---------- command handling ----------

def apply_command(state: AgentState, params: AgentParams, command: StimCommand,
                  rng=None) -> AgentState:
    """Activate a stimulation command, sampling its target on the spot."""
    if command.kind == StimKind.DECELERATE:
        active = ActiveCommand(
            kind=command.kind,
            time_remaining=command.duration,
            decel_v0=state.speed,
            decel_vmin=sample_decel_minimum(params, rng),
        )
    else:
        angle = sample_turn_angle(params, command.kind, rng)
        sign = 1.0 if command.kind == StimKind.TURN_LEFT else -1.0
        active = ActiveCommand(
            kind=command.kind,
            time_remaining=command.duration,
            turn_target=state.heading + sign * angle,
            turn_remaining=angle,
            turn_sign=sign,
        )
    return replace(state, active_command=active)
