"""Fixation rig geometry and exposure flags."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from biobotsim.morphology import (
    FixationRig,
    exposure_safety_margin,
    exposure_sufficient,
    lifting_height,
)

RIG = FixationRig()


# ---------- lifting height ----------

def test_lift_is_zero_at_zero_lowering():
    assert lifting_height(RIG, 0.0) == 0.0


def test_lift_reaches_plateau_value_exactly():
    assert lifting_height(RIG, 3.5e-3) == 1.9e-3


def test_lift_halfway_point():
    assert lifting_height(RIG, 1.75e-3) == pytest.approx(0.95e-3, rel=1e-15)


def test_lift_plateau_extends_to_full_clearance():
    assert lifting_height(RIG, 4.0e-3) == lifting_height(RIG, 3.5e-3)


def test_lift_rejects_negative_lowering():
    with pytest.raises(ValueError):
        lifting_height(RIG, -1e-6)


def test_lift_rejects_lowering_past_clearance():
    with pytest.raises(ValueError):
        lifting_height(RIG, 4.0e-3 + 1e-9)


def test_lift_monotone_on_dense_grid():
    ds = np.linspace(0.0, RIG.rod_a_initial_clearance_m, 1000)
    hs = [lifting_height(RIG, float(d)) for d in ds]
    assert all(h2 >= h1 for h1, h2 in zip(hs, hs[1:]))


@given(st.floats(min_value=0.0, max_value=4.0e-3),
       st.floats(min_value=0.0, max_value=4.0e-3))
def test_lift_monotone_pairwise(d1, d2):
    lo, hi = sorted((d1, d2))
    assert lifting_height(RIG, lo) <= lifting_height(RIG, hi)


@given(st.floats(min_value=0.0, max_value=4.0e-3))
def test_lift_bounded_by_plateau(d):
    h = lifting_height(RIG, d)
    assert 0.0 <= h <= RIG.saturation_height_h_max_m


# ---------- exposure flags ----------

def test_plateau_lift_clears_electrode_with_margin():
    h = lifting_height(RIG, 3.5e-3)
    assert exposure_sufficient(RIG, h)
    assert exposure_safety_margin(RIG, h)


def test_lift_equal_to_electrode_thickness_is_insufficient():
    assert not exposure_sufficient(RIG, 0.6e-3)


def test_lift_between_one_and_two_thicknesses():
    assert exposure_sufficient(RIG, 0.7e-3)
    assert not exposure_safety_margin(RIG, 0.7e-3)


# ---------- rig validation ----------

def test_rig_rejects_lowering_outside_clearance():
    with pytest.raises(ValueError):
        FixationRig(lowered_distance_d_m=4.5e-3)
    with pytest.raises(ValueError):
        FixationRig(lowered_distance_d_m=-0.1e-3)


def test_default_rig_plateau_exceeds_twice_electrode():
    assert RIG.saturation_height_h_max_m > 2.0 * RIG.electrode_thickness_m

