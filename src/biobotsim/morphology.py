"""The rod-based pronotum fixation rig.

The fixation rig presses a pair of rods onto the insect platform; lowering
the rod by a distance d lifts the posterior pronotum edge by a height h that
grows linearly until the linkage saturates.  Electrode exposure requires the
lift to clear the electrode thickness.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FixationRig:
    """Rod fixation geometry, SI meters, under the config's rig keys."""

    rod_a_initial_clearance_m: float = 4.0e-3  # rod A rest height above platform
    lowered_distance_d_m: float = 3.5e-3       # operating lowering distance
    saturation_d_m: float = 3.5e-3             # d at which the lift saturates
    saturation_height_h_max_m: float = 1.9e-3  # plateau lift height
    electrode_thickness_m: float = 0.6e-3

    def __post_init__(self):
        d, clearance = self.lowered_distance_d_m, self.rod_a_initial_clearance_m
        if not 0.0 <= d <= clearance:
            raise ValueError("lowered_distance_d_m must lie in "
                             f"[0, rod_a_initial_clearance_m], got {d!r}")
        for name in ("rod_a_initial_clearance_m", "saturation_d_m",
                     "saturation_height_h_max_m", "electrode_thickness_m"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


def lifting_height(rig: FixationRig, d: float) -> float:
    """Pronotum lift h for a rod lowering distance d.

    Piecewise linear: h rises proportionally with d and plateaus at
    h_max once d reaches the saturation distance.
    """
    if d < 0.0 or d > rig.rod_a_initial_clearance_m:
        raise ValueError(
            f"d must lie in [0, {rig.rod_a_initial_clearance_m}], got {d!r}"
        )
    if d >= rig.saturation_d_m:
        return rig.saturation_height_h_max_m
    return rig.saturation_height_h_max_m * d / rig.saturation_d_m


def exposure_sufficient(rig: FixationRig, h: float) -> bool:
    """True when the lift exposes the mounting gap past the electrode."""
    return h > rig.electrode_thickness_m


def exposure_safety_margin(rig: FixationRig, h: float) -> bool:
    # stricter criterion: lift beyond twice the electrode thickness
    return h > 2.0 * rig.electrode_thickness_m
