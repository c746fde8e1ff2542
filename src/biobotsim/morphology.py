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
    """Rod fixation geometry, SI meters."""

    rod_a_initial_clearance: float = 4.0e-3   # rod A rest height above platform
    lowered_distance_d: float = 3.5e-3        # operating lowering distance
    saturation_d: float = 3.5e-3              # d at which the lift saturates
    saturation_height_h_max: float = 1.9e-3   # plateau lift height
    electrode_thickness: float = 0.6e-3

    def __post_init__(self):
        if not 0.0 <= self.lowered_distance_d <= self.rod_a_initial_clearance:
            raise ValueError(
                "lowered_distance_d must lie in [0, rod_a_initial_clearance], "
                f"got {self.lowered_distance_d!r}"
            )
        for name in ("rod_a_initial_clearance", "saturation_d",
                     "saturation_height_h_max", "electrode_thickness"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


def lifting_height(rig: FixationRig, d: float) -> float:
    """Pronotum lift h for a rod lowering distance d.

    Piecewise linear: h rises proportionally with d and plateaus at
    h_max once d reaches the saturation distance.
    """
    if d < 0.0 or d > rig.rod_a_initial_clearance:
        raise ValueError(
            f"d must lie in [0, {rig.rod_a_initial_clearance}], got {d!r}"
        )
    if d >= rig.saturation_d:
        return rig.saturation_height_h_max
    return rig.saturation_height_h_max * d / rig.saturation_d


def exposure_sufficient(rig: FixationRig, h: float) -> bool:
    """True when the lift exposes the mounting gap past the electrode."""
    return h > rig.electrode_thickness


def exposure_safety_margin(rig: FixationRig, h: float) -> bool:
    # stricter criterion: lift beyond twice the electrode thickness
    return h > 2.0 * rig.electrode_thickness
