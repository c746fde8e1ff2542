"""Fixation geometry and population sampling."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from biobotsim.morphology import (
    ABDOMINAL_CUTICLE_LENGTH_RANGE,
    ABDOMINAL_CUTICLE_THICKNESS_RANGE,
    ANTENNA_DIAMETER_RANGE,
    BODY_LENGTH_RANGE,
    PRONOTUM_LENGTH_RANGE,
    PRONOTUM_THICKNESS_RANGE,
    FixationRig,
    InsectMorphology,
    exposure_safety_margin,
    exposure_sufficient,
    lifting_height,
    sample_morphology,
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
    ds = np.linspace(0.0, RIG.rod_a_initial_clearance, 1000)
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
    assert 0.0 <= h <= RIG.saturation_height_h_max


def test_lift_jitter_requires_rng():
    with pytest.raises(ValueError):
        lifting_height(RIG, 2.0e-3, jitter_sd=0.1e-3)


def test_lift_jitter_is_seeded_and_nonnegative():
    a = lifting_height(RIG, 2.0e-3, rng=np.random.default_rng(5),
                       jitter_sd=0.1e-3)
    b = lifting_height(RIG, 2.0e-3, rng=np.random.default_rng(5),
                       jitter_sd=0.1e-3)
    assert a == b
    draws = [lifting_height(RIG, 0.1e-3, rng=np.random.default_rng(s),
                            jitter_sd=0.5e-3) for s in range(200)]
    assert min(draws) >= 0.0
    assert len(set(draws)) > 1


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
        FixationRig(lowered_distance_d=4.5e-3)
    with pytest.raises(ValueError):
        FixationRig(lowered_distance_d=-0.1e-3)


def test_default_rig_plateau_exceeds_twice_electrode():
    assert RIG.saturation_height_h_max > 2.0 * RIG.electrode_thickness


# ---------- population sampling ----------

def test_sampling_is_deterministic_per_seed():
    assert sample_morphology(123) == sample_morphology(123)
    assert sample_morphology(123) != sample_morphology(124)


def test_samples_stay_inside_population_ranges():
    ranges = {
        "body_length": BODY_LENGTH_RANGE,
        "pronotum_length": PRONOTUM_LENGTH_RANGE,
        "pronotum_thickness": PRONOTUM_THICKNESS_RANGE,
        "abdominal_cuticle_length": ABDOMINAL_CUTICLE_LENGTH_RANGE,
        "abdominal_cuticle_thickness": ABDOMINAL_CUTICLE_THICKNESS_RANGE,
        "antenna_diameter": ANTENNA_DIAMETER_RANGE,
    }
    for seed in range(100):
        m = sample_morphology(seed)
        for name, (lo, hi) in ranges.items():
            assert lo <= getattr(m, name) <= hi, name


def test_sampling_honours_range_overrides():
    m = sample_morphology(0, pronotum_length_range=(12.0e-3, 12.0e-3))
    assert m.pronotum_length == 12.0e-3


def test_sampling_rejects_empty_range():
    with pytest.raises(ValueError):
        sample_morphology(0, body_length_range=(6e-2, 5e-2))


def test_morphology_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        InsectMorphology(body_length=0.0, pronotum_length=12e-3,
                         pronotum_thickness=0.55e-3,
                         abdominal_cuticle_length=4e-3,
                         abdominal_cuticle_thickness=0.25e-3,
                         antenna_diameter=0.65e-3)

