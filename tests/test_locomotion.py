"""Agent kinematics: calibrated presets, turn and deceleration mechanics.

The dynamics tests run one agent through swarm.simulate, the package's
only integrator, and read its logged heading, speed and position."""
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biobotsim.locomotion import (
    AUTO_PRESET,
    MANUAL_PRESET,
    PRESETS,
    AgentParams,
    AgentState,
    StimCommand,
    StimKind,
    apply_command,
    sample_decel_minimum,
    sample_turn_angle,
)
from biobotsim.swarm import MAX_DT, Arena, UwbSystem, simulate

# an obstacle-free 10 m x 10 m arena, entered at its centre
ARENA = Arena(width=10.0, height=10.0, obstacles=())
START = (5.0, 5.0)


def _det(preset: AgentParams) -> AgentParams:
    """Zero every spread so the dynamics run without an rng."""
    return replace(preset, turn_angle_sd=0.0, decel_min_speed_sd=0.0,
                   heading_diffusion=0.0)


def _run(params, n, heading, kind=None, dt=0.01):
    """One agent in simulate for n steps of dt, with a log tick at every
    step: from START at the walking speed along heading, under the command
    kind applied at the start if one is given, and no other command."""
    state = AgentState(*START, heading, params.walk_speed_mean)
    if kind is not None:
        state = apply_command(state, params, StimCommand(kind))
    return simulate(ARENA, UwbSystem(), [params], stim_period=(n + 1) * dt,
                    duration=n * dt, dt=dt, log_rate_hz=1.0 / dt,
                    initial_states=[state])


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(AgentParams)])
def test_params_reject_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        replace(MANUAL_PRESET, **{name: value})


def test_command_duration_must_be_positive():
    for duration in (0.0, -0.4, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be positive"):
            StimCommand(StimKind.TURN_LEFT, duration=duration)


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
    run = _run(p, 40, 0.0, StimKind.TURN_LEFT)
    assert run.heading_deg[0, 40] == 70.9
    assert run.commands[0][40] == ""


def test_right_turn_wraps_below_zero():
    p = _det(AUTO_PRESET)
    run = _run(p, 40, 10.0, StimKind.TURN_RIGHT)
    assert run.heading_deg[0, 40] == 290.5   # 10 - 79.5, renormalized


def test_turn_rate_never_exceeds_the_cap():
    p = _det(AUTO_PRESET)
    headings = _run(p, 40, 180.0, StimKind.TURN_LEFT).heading_deg[0]
    rates = np.abs(np.diff(headings)) / 0.01
    assert (rates <= p.max_ang_speed_left + 1e-9).all()


def test_heading_holds_target_until_command_expires():
    p = _det(AUTO_PRESET)
    headings = _run(p, 40, 0.0, StimKind.TURN_LEFT).heading_deg[0, 1:].tolist()
    # the rotation needs ~0.30 s at 240 deg/s; the tail stays pinned
    assert headings[-1] == 70.9
    assert all(h == 70.9 for h in headings[31:])
    assert all(headings[i] <= headings[i + 1] + 1e-12 for i in range(39))


def test_turn_uses_per_side_rate_caps():
    p = replace(_det(AUTO_PRESET), max_ang_speed_left=100.0,
                max_ang_speed_right=400.0)
    left = _run(p, 1, 180.0, StimKind.TURN_LEFT, dt=0.05).heading_deg[0, 1]
    right = _run(p, 1, 180.0, StimKind.TURN_RIGHT, dt=0.05).heading_deg[0, 1]
    assert left - 180.0 == pytest.approx(5.0)
    assert 180.0 - right == pytest.approx(20.0)


# ---------- deceleration ----------

def test_decel_reaches_exact_minimum_and_holds():
    p = _det(MANUAL_PRESET)
    speeds = _run(p, 40, 0.0, StimKind.DECELERATE).speed[0, 1:].tolist()
    assert speeds[-1] == 0.015
    # ramp is non-increasing, then flat at the sampled minimum
    assert all(speeds[i + 1] <= speeds[i] + 1e-15 for i in range(39))
    assert all(v == 0.015 for v in speeds[34:])


def test_decel_ramp_is_linear_in_time():
    p = _det(MANUAL_PRESET)
    # 0.11 s = 1/3 of the ramp
    speed = _run(p, 11, 0.0, StimKind.DECELERATE).speed[0, 11]
    expected = 0.062 + (0.015 - 0.062) * (0.11 / 0.33)
    assert speed == pytest.approx(expected, rel=1e-9)


def test_speed_recovers_toward_walk_mean_after_command():
    p = _det(MANUAL_PRESET)
    # the 0.4 s command, then 3 s = 3 recovery taus
    speeds = _run(p, 340, 0.0, StimKind.DECELERATE).speed[0].tolist()
    assert speeds[40] == 0.015
    trace = speeds[41:]
    assert all(trace[i + 1] >= trace[i] for i in range(299))
    assert trace[-1] > 0.9 * p.walk_speed_mean
    assert trace[-1] < p.walk_speed_mean


def test_decel_to_zero_keeps_speed_nonnegative():
    p = replace(_det(MANUAL_PRESET), decel_min_speed_mean=0.0)
    assert (_run(p, 40, 0.0, StimKind.DECELERATE).speed >= 0.0).all()


# ---------- free walking ----------

def test_straight_walk_integrates_position():
    p = _det(MANUAL_PRESET)
    x, y = _run(p, 100, 0.0).true_xy[0, 100]
    assert x - START[0] == pytest.approx(0.062, rel=1e-9)
    assert y == START[1]


def test_heading_diffusion_magnitude():
    d, dt = 400.0, 0.01
    p = replace(_det(MANUAL_PRESET), heading_diffusion=d)
    # 40 s at 0.062 m/s travels at most 2.48 m: no wall reflects it
    headings = _run(p, 4000, 0.0).heading_deg[0]
    increments = (np.diff(headings) + 180.0) % 360.0 - 180.0
    assert np.std(increments) == pytest.approx(math.sqrt(d * dt), rel=0.08)


def test_no_diffusion_while_commanded():
    p = replace(_det(AUTO_PRESET), heading_diffusion=5000.0)
    headings = _run(p, 40, 0.0, StimKind.TURN_LEFT).heading_deg[0]
    # any diffusion draw would move the heading off the snapped target
    assert (headings[31:] == 70.9).all()


def test_simulate_rejects_bad_dt():
    p = _det(MANUAL_PRESET)
    for dt in (0.0, -0.01, MAX_DT * 1.01):
        with pytest.raises(ValueError, match="dt must lie in"):
            simulate(ARENA, UwbSystem(), [p], duration=1.0, dt=dt)


def test_apply_command_returns_new_state():
    p = _det(MANUAL_PRESET)
    s = AgentState(0.0, 0.0, 0.0, 0.05)
    out = apply_command(s, p, StimCommand(StimKind.DECELERATE))
    assert s.active_command is None
    assert out.active_command is not None


def test_trajectory_is_seed_reproducible():
    def run(seed):
        r = simulate(ARENA, UwbSystem(), [MANUAL_PRESET], stim_period=0.5,
                     duration=4.0, seed=seed, dt=0.02,
                     initial_states=[AgentState(*START, 0.0,
                                                MANUAL_PRESET.walk_speed_mean)])
        return r.true_xy.tobytes(), r.heading_deg.tobytes(), r.speed.tobytes()

    assert run(123) == run(123)
    assert run(123) != run(124)


@given(st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=1, max_value=60),
       st.sampled_from(sorted(PRESETS)))
@settings(max_examples=40, deadline=None)
def test_state_invariants_under_arbitrary_commands(seed, stim_steps, preset):
    """Commands every 1 to 60 steps of 0.02 s, with every spread drawn."""
    p = PRESETS[preset]
    run = simulate(ARENA, UwbSystem(), [p], stim_period=stim_steps * 0.02,
                   duration=2.4, seed=seed, dt=0.02, log_rate_hz=50.0,
                   initial_states=[AgentState(*START, 0.0, p.walk_speed_mean)])
    assert ((run.heading_deg >= 0.0) & (run.heading_deg < 360.0)).all()
    assert (run.speed >= 0.0).all()
    assert np.isfinite(run.true_xy).all()
