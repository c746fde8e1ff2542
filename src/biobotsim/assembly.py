"""Robotic assembly of the electrode backpack: pose solving, payload and
workspace feasibility, and the fixed eight-state process walk.

The process is a linear state machine; each step has a configurable
duration and exactly one legal event per state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Optional

from .morphology import FixationRig, exposure_sufficient, lifting_height
from .vision import DEFAULT_FRAME, ReferencePoint

# implantation pitch corridor bounds, degrees
DEFAULT_ALPHA_LOWER = 157.8
DEFAULT_ALPHA_UPPER = 167.5

# step event names in legal order with default durations, seconds
DEFAULT_STEP_DURATIONS = MappingProxyType({
    "fix": 8.0,
    "locate": 6.0,
    "grasp": 12.0,
    "implant": 16.0,
    "press": 10.0,
    "release": 6.0,
    "retract": 10.0,
})
EVENT_ORDER = tuple(DEFAULT_STEP_DURATIONS)

DEFAULT_HANDLING_GAP = 49.0  # cage swap and restocking time between units, s

# axis-aligned manipulation volume, and the approach envelope that must
# fit inside it, meters
DEFAULT_WORKSPACE_BOX = (0.065, 0.035, 0.025)
DEFAULT_APPROACH_ENVELOPE = (0.010, 0.010, 0.010)


class AssemblyState(str, Enum):
    IDLE = "Idle"
    FIXED = "Fixed"
    LOCATED = "Located"
    GRASPED = "Grasped"
    IMPLANTED = "Implanted"
    PRESSED = "Pressed"
    RELEASED = "Released"
    RETRACTED = "Retracted"


_STATE_ORDER = tuple(AssemblyState)
_NEXT_EVENT = {_STATE_ORDER[i]: EVENT_ORDER[i] for i in range(len(EVENT_ORDER))}
_NEXT_STATE = {EVENT_ORDER[i]: _STATE_ORDER[i + 1] for i in range(len(EVENT_ORDER))}


class IllegalTransitionError(ValueError):
    """Raised when an event does not match the single legal next step."""

    def __init__(self, state: AssemblyState, expected: Optional[str], received: str):
        self.state = state
        self.expected = expected
        self.received = received
        if expected is None:
            msg = (f"process in terminal state {state.value}; "
                   f"received event {received!r}")
        else:
            msg = (f"in state {state.value} the expected event is "
                   f"{expected!r}, received {received!r}")
        super().__init__(msg)


@dataclass(frozen=True)
class ImplantPose:
    """Target pose for electrode insertion, arm base frame."""

    reference_point_xyz: tuple[float, float, float]
    pitch_alpha: float
    alpha_lower: float = DEFAULT_ALPHA_LOWER
    alpha_upper: float = DEFAULT_ALPHA_UPPER

    def __post_init__(self):
        if not self.alpha_lower < self.pitch_alpha < self.alpha_upper:
            raise ValueError(
                f"pitch {self.pitch_alpha} outside the open corridor "
                f"({self.alpha_lower}, {self.alpha_upper})"
            )


@dataclass(frozen=True)
class PayloadSpec:
    """End-effector masses and arm limits, SI units, under the config's
    assembly.payload keys."""

    gripper_mass_kg: float = 1.0
    camera_mass_kg: float = 0.075
    backpack_mass_kg: float = 0.0023
    arm_payload_limit_kg: float = 3.0
    arm_reach_m: float = 0.5
    camera_min_depth_m: float = 0.28


@dataclass(frozen=True)
class PixelToArmCalibration:
    """Affine pixel-to-arm-frame map: xy = scale * pixel + offset, z from
    lift.  Its fields are the config's assembly.calibration keys.  Raises
    ValueError unless it maps every pixel of a DEFAULT_FRAME mask to a
    finite pose."""

    scale_x_m_per_px: float = 1.0
    scale_y_m_per_px: float = 1.0
    offset_x_m: float = 0.0
    offset_y_m: float = 0.0
    offset_z_m: float = 0.0

    def __post_init__(self):
        for px in (0, DEFAULT_FRAME - 1):   # x rests on px alone, y on py
            xyz = self.apply(ReferencePoint(px, px), 0.0)
            if not all(map(math.isfinite, xyz)):
                raise ValueError(f"maps pixel ({px}, {px}) to {list(xyz)}, "
                                 "which is not finite")

    def apply(self, p_r: ReferencePoint, h: float) -> tuple[float, float, float]:
        return (self.scale_x_m_per_px * p_r.x + self.offset_x_m,
                self.scale_y_m_per_px * p_r.y + self.offset_y_m,
                self.offset_z_m + h)


@dataclass(frozen=True)
class AssemblyProcess:
    state: AssemblyState = AssemblyState.IDLE
    elapsed: float = 0.0
    step_durations: Mapping[str, float] = field(default_factory=lambda: DEFAULT_STEP_DURATIONS)

    def __post_init__(self):
        extra = set(self.step_durations) - set(EVENT_ORDER)
        if extra:
            raise ValueError(f"step_durations has unknown steps {sorted(extra)}")
        missing = set(EVENT_ORDER) - set(self.step_durations)
        if missing:
            raise ValueError(f"step_durations is missing steps {sorted(missing)}")
        for name, dur in self.step_durations.items():
            if not dur > 0.0:
                raise ValueError(f"duration for {name!r} must be positive, got {dur!r}")

    @property
    def next_event(self) -> Optional[str]:
        return _NEXT_EVENT.get(self.state)

    @property
    def total_duration(self) -> float:
        return float(sum(self.step_durations[e] for e in EVENT_ORDER))


def advance(proc: AssemblyProcess, event: str) -> AssemblyProcess:
    """Apply one step event; returns a new process, never mutates."""
    expected = proc.next_event
    if expected is None or event != expected:
        raise IllegalTransitionError(proc.state, expected, event)
    return replace(proc, state=_NEXT_STATE[event],
                   elapsed=proc.elapsed + proc.step_durations[event])


def walk_all(proc: AssemblyProcess) -> tuple[AssemblyProcess, list[tuple[str, float, float]]]:
    """Run the full legal sequence; returns the final process and the
    event log rows (step_name, t_start_s, t_end_s)."""
    rows = []
    for event in EVENT_ORDER:
        t0 = proc.elapsed
        proc = advance(proc, event)
        rows.append((event, t0, proc.elapsed))
    return proc, rows


# ---------- feasibility checks ----------

def solve_pitch(alpha_lower: float = DEFAULT_ALPHA_LOWER,
                alpha_upper: float = DEFAULT_ALPHA_UPPER) -> float:
    """Midpoint of the implantation pitch corridor (degrees).  Raises
    ValueError unless it lies strictly inside, as ImplantPose requires."""
    pitch = (alpha_lower + alpha_upper) / 2.0
    if not alpha_lower < pitch < alpha_upper:
        raise ValueError(
            f"corridor is infeasible: its midpoint {pitch} does not lie "
            f"strictly between alpha_lower {alpha_lower} and alpha_upper "
            f"{alpha_upper}"
        )
    return pitch


def check_payload(spec: PayloadSpec):
    """Raise ValueError unless the arm can carry the tooling and still see
    the work surface."""
    total = spec.gripper_mass_kg + spec.camera_mass_kg + spec.backpack_mass_kg
    if not total <= spec.arm_payload_limit_kg:
        raise ValueError(f"tooling mass {total!r} kg exceeds the arm payload "
                         f"limit {spec.arm_payload_limit_kg!r} kg")
    if not spec.camera_min_depth_m < spec.arm_reach_m:
        raise ValueError(f"camera minimum depth {spec.camera_min_depth_m!r} m "
                         f"is not within the arm reach {spec.arm_reach_m!r} m")


def check_workspace(box_m: tuple[float, float, float],
                    approach_envelope_m: tuple[float, float, float]):
    """Raise ValueError unless the axis-aligned approach envelope fits
    inside the workspace box, both in meters.

    The fixture centers the approach corridor on the marked spot, so the
    check reduces to extent containment, boundary inclusive.
    """
    if any(e < 0.0 for e in approach_envelope_m):
        raise ValueError("approach envelope must be non-negative, "
                         f"got {approach_envelope_m}")
    if not all(e <= b for e, b in zip(approach_envelope_m, box_m)):
        raise ValueError(f"approach envelope {approach_envelope_m} does not "
                         f"fit the workspace box {box_m}")


def check_exposure(rig: FixationRig) -> float:
    """Lift at the rig's lowering distance.

    Raises ValueError unless that lift exposes the mounting gap past the
    electrode.
    """
    h = lifting_height(rig, rig.lowered_distance_d_m)
    if not exposure_sufficient(rig, h):
        raise ValueError(
            f"insufficient exposure: lift {h * 1e3:.3f} mm at "
            f"d = {rig.lowered_distance_d_m * 1e3:.3f} mm does not clear the "
            f"electrode thickness {rig.electrode_thickness_m * 1e3:.3f} mm"
        )
    return h


def plan_assembly(p_r: ReferencePoint, rig: FixationRig,
                  *, calibration: PixelToArmCalibration | None = None,
                  alpha_lower: float = DEFAULT_ALPHA_LOWER,
                  alpha_upper: float = DEFAULT_ALPHA_UPPER,
                  step_durations: Mapping[str, float] | None = None,
                  ) -> tuple[ImplantPose, AssemblyProcess]:
    """Plan one unit: implant pose from the vision reference point plus a
    fresh process in Idle.

    Requires the rig's configured lowering distance to expose the mounting
    gap (check_exposure).
    """
    if calibration is None:
        calibration = PixelToArmCalibration()
    h = check_exposure(rig)
    pose = ImplantPose(
        reference_point_xyz=calibration.apply(p_r, h),
        pitch_alpha=solve_pitch(alpha_lower, alpha_upper),
        alpha_lower=alpha_lower,
        alpha_upper=alpha_upper,
    )
    if step_durations is None:
        proc = AssemblyProcess()
    else:
        proc = AssemblyProcess(step_durations=dict(step_durations))
    return pose, proc


def batch_assemble(n: int, handling_gap: float = DEFAULT_HANDLING_GAP,
                   assembly_duration: float | None = None) -> float:
    """Total wall time in seconds for n sequential units.

    Each unit costs one full process walk plus the handling gap between
    cage-in and cage-out.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if handling_gap < 0.0:
        raise ValueError(f"handling_gap must be non-negative, got {handling_gap}")
    if assembly_duration is None:
        assembly_duration = AssemblyProcess().total_duration
    return n * (assembly_duration + handling_gap)
