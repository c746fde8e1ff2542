"""Insect body measurements and the rod-based pronotum fixation geometry.

The fixation rig presses a pair of rods onto the insect platform; lowering
the rod by a distance d lifts the posterior pronotum edge by a height h that
grows linearly until the linkage saturates.  Electrode exposure requires the
lift to clear the electrode thickness.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# population measurement ranges, SI meters
PRONOTUM_LENGTH_RANGE = (11.6e-3, 13.4e-3)
PRONOTUM_THICKNESS_RANGE = (0.5e-3, 0.6e-3)
BODY_LENGTH_RANGE = (5.0e-2, 6.0e-2)
ABDOMINAL_CUTICLE_LENGTH_RANGE = (3.8e-3, 5.0e-3)
ABDOMINAL_CUTICLE_THICKNESS_RANGE = (0.2e-3, 0.3e-3)
ANTENNA_DIAMETER_RANGE = (0.6e-3, 0.7e-3)


@dataclass(frozen=True)
class InsectMorphology:
    """Per-individual body dimensions in meters."""

    body_length: float
    pronotum_length: float
    pronotum_thickness: float
    abdominal_cuticle_length: float
    abdominal_cuticle_thickness: float
    antenna_diameter: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")


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


def lifting_height(rig: FixationRig, d: float, *, rng=None,
                   jitter_sd: float = 0.0) -> float:
    """Pronotum lift h for a rod lowering distance d.

    Piecewise linear: h rises proportionally with d and plateaus at
    h_max once d reaches the saturation distance.  An optional additive
    Gaussian jitter models per-insect spread; with the default
    jitter_sd = 0 the model is deterministic.
    """
    if d < 0.0 or d > rig.rod_a_initial_clearance:
        raise ValueError(
            f"d must lie in [0, {rig.rod_a_initial_clearance}], got {d!r}"
        )
    if d >= rig.saturation_d:
        h = rig.saturation_height_h_max
    else:
        h = rig.saturation_height_h_max * d / rig.saturation_d
    if jitter_sd > 0.0:
        if rng is None:
            raise ValueError("jitter_sd > 0 requires an rng")
        h = max(0.0, h + rng.normal(0.0, jitter_sd))
    return h


def exposure_sufficient(rig: FixationRig, h: float) -> bool:
    """True when the lift exposes the mounting gap past the electrode."""
    return h > rig.electrode_thickness


def exposure_safety_margin(rig: FixationRig, h: float) -> bool:
    # stricter criterion: lift beyond twice the electrode thickness
    return h > 2.0 * rig.electrode_thickness


def sample_morphology(seed: int, *,
                      body_length_range=BODY_LENGTH_RANGE,
                      pronotum_length_range=PRONOTUM_LENGTH_RANGE,
                      pronotum_thickness_range=PRONOTUM_THICKNESS_RANGE,
                      abdominal_cuticle_length_range=ABDOMINAL_CUTICLE_LENGTH_RANGE,
                      abdominal_cuticle_thickness_range=ABDOMINAL_CUTICLE_THICKNESS_RANGE,
                      antenna_diameter_range=ANTENNA_DIAMETER_RANGE,
                      ) -> InsectMorphology:
    """Draw one individual uniformly from the population ranges.

    The draw order is fixed, so a given seed always yields the same
    individual even when some ranges are overridden.
    """
    rng = np.random.default_rng(seed)

    def draw(lo_hi):
        lo, hi = lo_hi
        if not lo <= hi:
            raise ValueError(f"empty range ({lo!r}, {hi!r})")
        return float(rng.uniform(lo, hi))

    return InsectMorphology(
        body_length=draw(body_length_range),
        pronotum_length=draw(pronotum_length_range),
        pronotum_thickness=draw(pronotum_thickness_range),
        abdominal_cuticle_length=draw(abdominal_cuticle_length_range),
        abdominal_cuticle_thickness=draw(abdominal_cuticle_thickness_range),
        antenna_diameter=draw(antenna_diameter_range),
    )

