"""Agent kinematics: calibrated presets, turn and deceleration mechanics."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biobotsim.locomotion import (
    AUTO_PRESET,
    MANUAL_PRESET,
    MAX_DT,
    PRESETS,
    AgentParams,
    AgentState,
    StimCommand,
    StimKind,
    apply_command,
    sample_decel_minimum,
    sample_turn_angle,
    step,
)


def _det(preset: AgentParams) -> AgentParams:
    """Zero every spread so the dynamics run without an rng."""
    return replace(preset, turn_angle_sd=0.0, decel_min_speed_sd=0.0,
                   heading_diffusion=0.0)


def _walk(state, params, n, dt=0.01, rng=None):
    states = [state]
    for _ in range(n):
        state = step(state, params, dt, rng)
        states.append(state)
    return states


# ---------- presets ----------

def test_manual_preset_frozen_values():
    p = MANUAL_PRESET
    assert (p.turn_angle_left_mean, p.turn_angle_right_mean) == (68.0, 82.6)
    assert (p.max_ang_speed_left, p.max_ang_speed_right) == (275.8, 298.2)
    assert (p.walk_speed_mean, p.decel_min_speed_mean) == (0.062, 0.015)


def test_auto_preset_frozen_values():
    p = AUTO_PRESET
    assert (p.turn_angle_left_mean, p.turn_angle_right_mean) == (70.9, 79.5)
    assert (p.max_ang_speed_left, p.max_ang_speed_right) == (240.0, 273.5)
    assert (p.walk_speed_mean, p.decel_min_speed_mean) == (0.063, 0.020)


def test_shared_response_spreads():
    for p in (MANUAL_PRESET, AUTO_PRESET):
        assert p.turn_angle_sd == 15.0
        assert p.decel_min_speed_sd == 0.013
        assert p.decel_time == 0.33
        assert p.command_duration == 0.4
        assert p.body_length == 0.055


def test_preset_registry():
    assert set(PRESETS) == {"manual", "auto"}
    assert PRESETS["manual"] is MANUAL_PRESET
    assert PRESETS["auto"] is AUTO_PRESET


def test_decel_speed_reduction_fractions():
    manual = 100.0 * (1.0 - MANUAL_PRESET.decel_min_speed_mean
                      / MANUAL_PRESET.walk_speed_mean)
    auto = 100.0 * (1.0 - AUTO_PRESET.decel_min_speed_mean
                    / AUTO_PRESET.walk_speed_mean)
    assert manual == pytest.approx(75.806, abs=1e-3)
    assert auto == pytest.approx(68.254, abs=1e-3)
    assert abs(auto - 68.2) < 0.1


def test_params_validation():
    with pytest.raises(ValueError):
        replace(MANUAL_PRESET, walk_speed_mean=0.0)
    with pytest.raises(ValueError):
        replace(MANUAL_PRESET, turn_angle_sd=-1.0)
    with pytest.raises(ValueError):
        replace(MANUAL_PRESET, command_duration=0.0)
    with pytest.raises(ValueError):
        replace(MANUAL_PRESET, heading_diffusion=-5.0)


def test_command_duration_must_be_positive():
    with pytest.raises(ValueError):
        StimCommand(StimKind.TURN_LEFT, duration=0.0)


def test_command_kind_wire_names():
    assert StimKind.TURN_LEFT.value == "turn_left"
    assert StimKind.TURN_RIGHT.value == "turn_right"
    assert StimKind.DECELERATE.value == "decelerate"


# ---------- samplers ----------

def test_turn_sampler_zero_spread_returns_mean():
    p = _det(AUTO_PRESET)
    assert sample_turn_angle(p, StimKind.TURN_LEFT) == 70.9
    assert sample_turn_angle(p, StimKind.TURN_RIGHT) == 79.5


def test_turn_sampler_requires_rng_when_spread():
    with pytest.raises(ValueError):
        sample_turn_angle(MANUAL_PRESET, StimKind.TURN_LEFT)


def test_turn_sampler_rejects_decelerate():
    with pytest.raises(ValueError):
        sample_turn_angle(MANUAL_PRESET, StimKind.DECELERATE,
                          np.random.default_rng(0))


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=60)
def test_turn_sampler_clamped_to_half_circle(seed):
    p = replace(MANUAL_PRESET, turn_angle_sd=400.0)
    a = sample_turn_angle(p, StimKind.TURN_LEFT, np.random.default_rng(seed))
    assert 0.0 <= a <= 180.0


def test_decel_sampler_clamped_to_walk_mean():
    p = replace(MANUAL_PRESET, decel_min_speed_sd=1.0)
    rng = np.random.default_rng(2)
    draws = [sample_decel_minimum(p, rng) for _ in range(200)]
    assert all(0.0 <= d <= p.walk_speed_mean for d in draws)
    assert 0.0 in draws
    assert p.walk_speed_mean in draws


def test_decel_sampler_zero_spread_and_missing_rng():
    assert sample_decel_minimum(_det(MANUAL_PRESET)) == 0.015
    with pytest.raises(ValueError):
        sample_decel_minimum(MANUAL_PRESET)


# ---------- turns ----------

def test_left_turn_completes_at_exact_mean_angle():
    p = _det(AUTO_PRESET)
    s = AgentState(0.0, 0.0, 0.0, p.walk_speed_mean)
    s = apply_command(s, p, StimCommand(StimKind.TURN_LEFT))
    for _ in range(40):
        s = step(s, p, 0.01)
    assert s.heading == 70.9
    assert s.active_command is None


def test_right_turn_wraps_below_zero():
    p = _det(AUTO_PRESET)
    s = AgentState(0.0, 0.0, 10.0, p.walk_speed_mean)
    s = apply_command(s, p, StimCommand(StimKind.TURN_RIGHT))
    for _ in range(40):
        s = step(s, p, 0.01)
    assert s.heading == 290.5   # 10 - 79.5, renormalized


def test_turn_rate_never_exceeds_the_cap():
    p = _det(AUTO_PRESET)
    s = AgentState(0.0, 0.0, 180.0, p.walk_speed_mean)
    s = apply_command(s, p, StimCommand(StimKind.TURN_LEFT))
    dt = 0.01
    prev = s.heading
    for _ in range(40):
        s = step(s, p, dt)
        rate = abs(s.heading - prev) / dt
        assert rate <= p.max_ang_speed_left + 1e-9
        prev = s.heading


def test_heading_holds_target_until_command_expires():
    p = _det(AUTO_PRESET)
    s = AgentState(0.0, 0.0, 0.0, p.walk_speed_mean)
    s = apply_command(s, p, StimCommand(StimKind.TURN_LEFT))
    headings = [st_.heading for st_ in _walk(s, p, 40)[1:]]
    # the rotation needs ~0.30 s at 240 deg/s; the tail stays pinned
    assert headings[-1] == 70.9
    assert all(h == 70.9 for h in headings[31:])
    assert all(headings[i] <= headings[i + 1] + 1e-12 for i in range(39))


def test_turn_uses_per_side_rate_caps():
    p = replace(_det(AUTO_PRESET), max_ang_speed_left=100.0,
                max_ang_speed_right=400.0)
    s0 = AgentState(0.0, 0.0, 180.0, p.walk_speed_mean)
    left = step(apply_command(s0, p, StimCommand(StimKind.TURN_LEFT)), p, 0.05)
    right = step(apply_command(s0, p, StimCommand(StimKind.TURN_RIGHT)), p, 0.05)
    assert left.heading - 180.0 == pytest.approx(5.0)
    assert 180.0 - right.heading == pytest.approx(20.0)


# ---------- deceleration ----------

def test_decel_reaches_exact_minimum_and_holds():
    p = _det(MANUAL_PRESET)
    s = AgentState(0.0, 0.0, 0.0, p.walk_speed_mean)
    s = apply_command(s, p, StimCommand(StimKind.DECELERATE))
    speeds = [st_.speed for st_ in _walk(s, p, 40)[1:]]
    assert speeds[-1] == 0.015
    # ramp is non-increasing, then flat at the sampled minimum
    assert all(speeds[i + 1] <= speeds[i] + 1e-15 for i in range(39))
    assert all(v == 0.015 for v in speeds[34:])


def test_decel_ramp_is_linear_in_time():
    p = _det(MANUAL_PRESET)
    s = AgentState(0.0, 0.0, 0.0, p.walk_speed_mean)
    s = apply_command(s, p, StimCommand(StimKind.DECELERATE))
    for _ in range(11):   # 0.11 s = 1/3 of the ramp
        s = step(s, p, 0.01)
    expected = 0.062 + (0.015 - 0.062) * (0.11 / 0.33)
    assert s.speed == pytest.approx(expected, rel=1e-9)


def test_speed_recovers_toward_walk_mean_after_command():
    p = _det(MANUAL_PRESET)
    s = AgentState(0.0, 0.0, 0.0, p.walk_speed_mean)
    s = apply_command(s, p, StimCommand(StimKind.DECELERATE))
    for _ in range(40):
        s = step(s, p, 0.01)
    assert s.speed == 0.015
    trace = [st_.speed for st_ in _walk(s, p, 300)[1:]]  # 3 s = 3 recovery taus
    assert all(trace[i + 1] >= trace[i] for i in range(299))
    assert trace[-1] > 0.9 * p.walk_speed_mean
    assert trace[-1] < p.walk_speed_mean


def test_decel_to_zero_keeps_speed_nonnegative():
    p = replace(_det(MANUAL_PRESET), decel_min_speed_mean=0.0)
    s = AgentState(0.0, 0.0, 0.0, p.walk_speed_mean)
    s = apply_command(s, p, StimCommand(StimKind.DECELERATE))
    for st_ in _walk(s, p, 40)[1:]:
        assert st_.speed >= 0.0


# ---------- free walking ----------

def test_straight_walk_integrates_position():
    p = _det(MANUAL_PRESET)
    s = AgentState(0.0, 0.0, 0.0, p.walk_speed_mean)
    for _ in range(100):
        s = step(s, p, 0.01)
    assert s.x == pytest.approx(0.062, rel=1e-9)
    assert s.y == pytest.approx(0.0, abs=1e-15)


def test_heading_diffusion_magnitude():
    d, dt = 400.0, 0.01
    p = replace(_det(MANUAL_PRESET), heading_diffusion=d)
    rng = np.random.default_rng(0)
    s = AgentState(0.0, 0.0, 0.0, p.walk_speed_mean)
    increments = []
    for _ in range(4000):
        nxt = step(s, p, dt, rng)
        increments.append((nxt.heading - s.heading + 180.0) % 360.0 - 180.0)
        s = nxt
    assert np.std(increments) == pytest.approx(math.sqrt(d * dt), rel=0.08)


def test_diffusion_requires_rng():
    p = replace(_det(MANUAL_PRESET), heading_diffusion=10.0)
    with pytest.raises(ValueError):
        step(AgentState(0.0, 0.0, 0.0, 0.05), p, 0.01)


def test_no_diffusion_while_commanded():
    p = replace(_det(AUTO_PRESET), heading_diffusion=5000.0)
    s = AgentState(0.0, 0.0, 0.0, p.walk_speed_mean)
    s = apply_command(s, p, StimCommand(StimKind.TURN_LEFT))
    for _ in range(40):
        s = step(s, p, 0.01, rng=None)  # would raise if diffusion applied
    assert s.heading == 70.9


def test_step_rejects_bad_dt():
    p = _det(MANUAL_PRESET)
    s = AgentState(0.0, 0.0, 0.0, 0.05)
    for dt in (0.0, -0.01, MAX_DT * 1.01):
        with pytest.raises(ValueError):
            step(s, p, dt)


def test_step_returns_new_state():
    p = _det(MANUAL_PRESET)
    s = AgentState(1.0, 2.0, 30.0, 0.05)
    out = step(s, p, 0.01)
    assert out is not s
    assert (s.x, s.y, s.heading, s.speed) == (1.0, 2.0, 30.0, 0.05)


def test_apply_command_returns_new_state():
    p = _det(MANUAL_PRESET)
    s = AgentState(0.0, 0.0, 0.0, 0.05)
    out = apply_command(s, p, StimCommand(StimKind.DECELERATE))
    assert s.active_command is None
    assert out.active_command is not None


def test_trajectory_is_seed_reproducible():
    def run(seed):
        rng = np.random.default_rng(seed)
        s = AgentState(0.0, 0.0, 0.0, MANUAL_PRESET.walk_speed_mean)
        for k in range(200):
            if k % 50 == 10:
                s = apply_command(s, MANUAL_PRESET,
                                  StimCommand(StimKind.TURN_LEFT), rng)
            s = step(s, MANUAL_PRESET, 0.02, rng)
        return s.x, s.y, s.heading, s.speed

    assert run(123) == run(123)
    assert run(123) != run(124)


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=25),
       st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=40, deadline=None)
def test_state_invariants_under_arbitrary_commands(actions, seed):
    rng = np.random.default_rng(seed)
    s = AgentState(0.0, 0.0, 0.0, MANUAL_PRESET.walk_speed_mean)
    kinds = (StimKind.TURN_LEFT, StimKind.TURN_RIGHT, StimKind.DECELERATE)
    for a in actions:
        if a < 3:
            s = apply_command(s, MANUAL_PRESET, StimCommand(kinds[a]), rng)
        s = step(s, MANUAL_PRESET, 0.02, rng)
        assert 0.0 <= s.heading < 360.0
        assert s.speed >= 0.0
        assert math.isfinite(s.x) and math.isfinite(s.y)
