"""Pose solving, feasibility checks, and the timed process walk."""
import pytest
from hypothesis import given, strategies as st

from biobotsim.assembly import (
    DEFAULT_STEP_DURATIONS,
    EVENT_ORDER,
    AssemblyProcess,
    AssemblyState,
    IllegalTransitionError,
    ImplantPose,
    PayloadSpec,
    PixelToArmCalibration,
    Workspace,
    advance,
    batch_assemble,
    check_payload,
    check_workspace,
    plan_assembly,
    solve_pitch,
    walk_all,
)
from biobotsim.morphology import FixationRig, sample_morphology
from biobotsim.vision import ReferencePoint

# full legal walk with default durations, frozen
EXPECTED_TIMELINE = [
    ("fix", 0.0, 8.0),
    ("locate", 8.0, 14.0),
    ("grasp", 14.0, 26.0),
    ("implant", 26.0, 42.0),
    ("press", 42.0, 52.0),
    ("release", 52.0, 58.0),
    ("retract", 58.0, 68.0),
]


# ---------- pitch corridor ----------

def test_default_corridor_midpoint():
    assert abs(solve_pitch(157.8, 167.5) - 162.65) < 1e-12


def test_midpoint_prints_to_one_decimal():
    assert f"{solve_pitch(157.8, 167.5):.1f}" == "162.7"


def test_symmetric_corridor_midpoint():
    assert solve_pitch(150.0, 170.0) == 160.0


def test_empty_corridor_is_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        solve_pitch(160.0, 160.0)
    with pytest.raises(ValueError, match="infeasible"):
        solve_pitch(170.0, 160.0)


@given(st.floats(min_value=-300, max_value=300),
       st.floats(min_value=1e-6, max_value=100),
       st.floats(min_value=-50, max_value=50))
def test_midpoint_shifts_with_the_corridor(lower, width, shift):
    base = solve_pitch(lower, lower + width)
    moved = solve_pitch(lower + shift, lower + width + shift)
    assert moved == pytest.approx(base + shift, abs=1e-9)


def test_pose_rejects_pitch_outside_corridor():
    with pytest.raises(ValueError, match="corridor"):
        ImplantPose(reference_point_xyz=(0.0, 0.0, 0.0), pitch_alpha=150.0)
    with pytest.raises(ValueError, match="corridor"):
        ImplantPose(reference_point_xyz=(0.0, 0.0, 0.0), pitch_alpha=157.8)


# ---------- payload and workspace ----------

def test_default_payload_is_feasible():
    spec = PayloadSpec()
    assert spec.gripper_mass + spec.camera_mass + spec.backpack_mass == pytest.approx(1.0773)
    assert check_payload(spec)


def test_payload_fails_under_small_arm_limit():
    assert not check_payload(PayloadSpec(arm_payload_limit=1.0))


def test_payload_fails_with_heavy_backpack():
    assert not check_payload(PayloadSpec(backpack_mass=2.5))


def test_payload_fails_when_camera_cannot_focus():
    assert not check_payload(PayloadSpec(camera_min_depth=0.6))


def test_small_envelope_fits_workspace():
    assert check_workspace(Workspace(), (0.01, 0.01, 0.01))


def test_oversized_envelope_fails_on_one_axis():
    assert not check_workspace(Workspace(), (0.07, 0.01, 0.01))


def test_exact_box_envelope_is_boundary_inclusive():
    assert check_workspace(Workspace(), (0.065, 0.035, 0.025))


def test_negative_envelope_rejected():
    with pytest.raises(ValueError):
        check_workspace(Workspace(), (-0.01, 0.01, 0.01))


# ---------- calibration ----------

def test_identity_calibration_passes_pixels_through():
    cal = PixelToArmCalibration()
    assert cal.apply(ReferencePoint(128, 200), 0.0019) == (128.0, 200.0, 0.0019)


def test_affine_calibration_scales_and_offsets():
    cal = PixelToArmCalibration(scale_x=0.001, scale_y=-0.002,
                                offset_x=0.1, offset_y=0.2, offset_z=0.05)
    x, y, z = cal.apply(ReferencePoint(100, 50), 0.001)
    assert x == pytest.approx(0.1 + 0.1)
    assert y == pytest.approx(0.2 - 0.1)
    assert z == pytest.approx(0.051)


# ---------- state machine ----------

def test_full_walk_matches_frozen_timeline():
    final, rows = walk_all(AssemblyProcess())
    assert rows == EXPECTED_TIMELINE
    assert final.state is AssemblyState.RETRACTED
    assert final.elapsed == 68.0


def test_default_durations_sum_to_total():
    assert AssemblyProcess().total_duration == 68.0
    assert sum(DEFAULT_STEP_DURATIONS.values()) == 68.0


def test_first_transition():
    proc = advance(AssemblyProcess(), "fix")
    assert proc.state is AssemblyState.FIXED
    assert proc.elapsed == 8.0


def test_out_of_order_event_names_expected_and_received():
    with pytest.raises(IllegalTransitionError) as exc:
        advance(AssemblyProcess(), "implant")
    assert exc.value.expected == "fix"
    assert exc.value.received == "implant"
    assert "fix" in str(exc.value) and "implant" in str(exc.value)


def test_terminal_state_accepts_nothing():
    final, _ = walk_all(AssemblyProcess())
    with pytest.raises(IllegalTransitionError):
        advance(final, "fix")


def test_advance_does_not_mutate_input():
    proc = AssemblyProcess()
    advance(proc, "fix")
    assert proc.state is AssemblyState.IDLE
    assert proc.elapsed == 0.0


@given(st.integers(min_value=0, max_value=6), st.sampled_from(EVENT_ORDER))
def test_only_the_next_event_is_ever_legal(n_steps, event):
    proc = AssemblyProcess()
    for e in EVENT_ORDER[:n_steps]:
        proc = advance(proc, e)
    if event == EVENT_ORDER[n_steps]:
        assert advance(proc, event).elapsed > proc.elapsed
    else:
        with pytest.raises(IllegalTransitionError):
            advance(proc, event)


def test_custom_durations_flow_into_the_walk():
    durations = {e: 1.0 for e in EVENT_ORDER}
    final, rows = walk_all(AssemblyProcess(step_durations=durations))
    assert final.elapsed == 7.0
    assert rows[-1] == ("retract", 6.0, 7.0)


def test_process_rejects_missing_or_unknown_steps():
    durations = dict(DEFAULT_STEP_DURATIONS)
    del durations["press"]
    with pytest.raises(ValueError, match="missing"):
        AssemblyProcess(step_durations=durations)
    durations = dict(DEFAULT_STEP_DURATIONS)
    durations["polish"] = 3.0
    with pytest.raises(ValueError, match="unknown"):
        AssemblyProcess(step_durations=durations)


def test_process_rejects_nonpositive_durations():
    durations = dict(DEFAULT_STEP_DURATIONS)
    durations["fix"] = 0.0
    with pytest.raises(ValueError):
        AssemblyProcess(step_durations=durations)


# ---------- planning ----------

def test_plan_assembly_defaults():
    pose, proc = plan_assembly(sample_morphology(0), ReferencePoint(128, 200),
                               FixationRig())
    assert pose.pitch_alpha == pytest.approx(162.65, abs=1e-12)
    assert pose.reference_point_xyz == (128.0, 200.0, 0.0019)
    assert proc.state is AssemblyState.IDLE
    assert proc.elapsed == 0.0


def test_plan_assembly_requires_exposure():
    rig = FixationRig(lowered_distance_d=0.0)
    with pytest.raises(ValueError, match="exposure"):
        plan_assembly(sample_morphology(0), ReferencePoint(10, 10), rig)


def test_plan_assembly_applies_calibration():
    cal = PixelToArmCalibration(scale_x=0.001, scale_y=0.001,
                                offset_x=-0.05, offset_y=-0.05, offset_z=0.1)
    pose, _ = plan_assembly(sample_morphology(0), ReferencePoint(100, 100),
                            FixationRig(), calibration=cal)
    assert pose.reference_point_xyz[0] == pytest.approx(0.05)
    assert pose.reference_point_xyz[1] == pytest.approx(0.05)
    assert pose.reference_point_xyz[2] == pytest.approx(0.1019)


# ---------- batching ----------

def test_batch_of_four_with_default_gap():
    assert batch_assemble(4) == 468.0


def test_single_unit_without_gap():
    assert batch_assemble(1, handling_gap=0.0) == 68.0


def test_two_units_short_gap():
    assert batch_assemble(2, handling_gap=10.0) == 156.0


def test_batch_rejects_bad_counts():
    with pytest.raises(ValueError):
        batch_assemble(0)
    with pytest.raises(ValueError):
        batch_assemble(True)
    with pytest.raises(ValueError):
        batch_assemble(2, handling_gap=-1.0)
