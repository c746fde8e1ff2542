"""Arena geometry, coverage accounting, localization, and dispersion runs."""
import math
from dataclasses import replace

import numpy as np
import pytest

from biobotsim import swarm
from biobotsim.locomotion import AUTO_PRESET, AgentState, step
from biobotsim.seeding import child_seed
from biobotsim.swarm import (
    DEFAULT_OBSTACLES,
    Arena,
    CoverageGrid,
    Rect,
    SwarmRun,
    UwbSystem,
    _first_ticks,
    _fix_ranges,
    _reflect_move,
    _solve_fixes,
    coverage_percent,
    coverage_rate,
    default_anchors,
    multilaterate,
    simulate,
    simulate_ranges,
    spawn_states,
    update_coverage,
)

QUIET_UWB = UwbSystem(range_noise_sd=0.0)


def _det_params():
    return replace(AUTO_PRESET, turn_angle_sd=0.0, decel_min_speed_sd=0.0,
                   heading_diffusion=0.0)


# ---------- geometry ----------

def test_rect_validation_and_area():
    r = Rect(0.0, 0.0, 0.3, 0.25)
    assert r.area == pytest.approx(0.075)
    with pytest.raises(ValueError):
        Rect(0.5, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 1.0, 1.0, 0.5)


def test_rect_contains_is_strict_interior():
    r = Rect(0.0, 0.0, 1.0, 1.0)
    assert r.contains(0.5, 0.5)
    assert not r.contains(0.0, 0.5)
    assert not r.contains(0.5, 1.0)


def test_default_obstacles_cover_nine_percent():
    total = sum(r.area for r in DEFAULT_OBSTACLES)
    assert total / (2.0 * 2.0) == pytest.approx(0.09375)
    for i, a in enumerate(DEFAULT_OBSTACLES):
        for b in DEFAULT_OBSTACLES[i + 1:]:
            assert not a.overlaps(b)


def test_arena_validation():
    with pytest.raises(ValueError):
        Arena(width=0.0)
    with pytest.raises(ValueError):
        Arena(release_corner="center")
    with pytest.raises(ValueError):
        Arena(obstacles=(Rect(1.5, 1.5, 2.5, 1.8),))   # pokes outside
    with pytest.raises(ValueError):
        Arena(obstacles=(Rect(0.2, 0.2, 0.6, 0.6),
                         Rect(0.5, 0.5, 0.9, 0.9)))    # overlap
    with pytest.raises(ValueError):
        Arena(obstacles=(Rect(0.0, 0.0, 0.3, 0.3),))   # blocks the release cell


def test_release_cell_rects_by_corner():
    assert Arena(release_corner="sw").release_cell_rect() == Rect(0.0, 0.0, 0.1, 0.1)
    ne = Arena(release_corner="ne").release_cell_rect()
    assert (ne.x_min, ne.y_min) == pytest.approx((1.9, 1.9))


def test_default_anchor_square():
    assert default_anchors() == ((0.0, 0.0), (3.6, 0.0), (3.6, 3.6), (0.0, 3.6))


def test_uwb_validation():
    with pytest.raises(ValueError):
        UwbSystem(anchors=((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ValueError):
        UwbSystem(range_noise_sd=-0.1)


# ---------- coverage grid ----------

def test_grid_dimensions_for_default_arena():
    g = CoverageGrid.for_arena(Arena())
    assert (g.nx, g.ny, g.total_cells) == (20, 20, 400)
    assert g.visited_count == 0


def test_grid_requires_exact_tiling():
    with pytest.raises(ValueError):
        CoverageGrid.for_arena(Arena(), cell_size=0.3)


def test_cell_index_conventions():
    g = CoverageGrid.for_arena(Arena())
    assert g.cell_index(0.0, 0.0) == (0, 0)
    assert g.cell_index(0.05, 0.15) == (0, 1)
    assert g.cell_index(0.10, 0.0) == (1, 0)    # boundary belongs to the right cell
    assert g.cell_index(2.0, 2.0) == (19, 19)   # far edge clamps inward
    assert g.cell_index(-0.5, 3.0) == (0, 19)


def test_update_marks_once_and_never_unmarks():
    g = CoverageGrid.for_arena(Arena())
    update_coverage(g, (0.05, 0.05))
    update_coverage(g, (0.06, 0.04))
    assert g.visited_count == 1
    assert g.visited[0, 0]
    update_coverage(g, (1.55, 0.35))
    assert g.visited_count == 2
    assert g.visited[3, 15]


def test_coverage_percent_frozen_point():
    g = CoverageGrid.for_arena(Arena())
    flat = g.visited.ravel()
    flat[:321] = True
    assert coverage_percent(g) == 80.25


def test_coverage_rate_frozen_point():
    g = CoverageGrid.for_arena(Arena())
    g.visited.ravel()[:321] = True
    run = SwarmRun(seed=0, dt=0.01, stim_period=10.0, duration=631.0,
                   arena=Arena(), uwb=QUIET_UWB, n_agents=1,
                   log_t=np.array([0.0, 631.0]),
                   true_xy=np.zeros((1, 2, 2)), est_xy=np.zeros((1, 2, 2)),
                   est_converged=np.ones((1, 2), dtype=bool),
                   commands=[["", ""]],
                   agent_coverage_pct=np.zeros((1, 2)),
                   union_coverage_pct=np.array([0.0, 80.25]),
                   union_grid=g)
    assert coverage_rate(run) == pytest.approx(50.87, abs=0.01)
    assert run.final_union_coverage == 80.25


# ---------- localization ----------

def test_noiseless_ranges_are_exact_distances():
    ranges = simulate_ranges((1.2, 0.7), QUIET_UWB)
    expected = [math.hypot(1.2 - ax, 0.7 - ay) for ax, ay in QUIET_UWB.anchors]
    assert ranges == pytest.approx(expected, abs=0.0)


def test_noisy_ranges_require_rng_and_stay_nonnegative():
    with pytest.raises(ValueError):
        simulate_ranges((1.0, 1.0), UwbSystem())
    big = UwbSystem(range_noise_sd=5.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert min(simulate_ranges((0.1, 0.1), big, rng)) >= 0.0


def test_multilateration_recovers_noiseless_positions():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = (rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        res = multilaterate(simulate_ranges(p, QUIET_UWB), QUIET_UWB)
        assert res.converged
        assert res.iterations <= 50
        assert math.hypot(res.position[0] - p[0], res.position[1] - p[1]) < 1e-6
        assert res.rms_residual < 1e-6


def test_multilateration_error_under_ranging_noise():
    uwb = UwbSystem()   # 5 cm range noise
    rng = np.random.default_rng(3)
    sq = 0.0
    n = 300
    for _ in range(n):
        p = (rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        res = multilaterate(simulate_ranges(p, uwb, rng), uwb)
        sq += (res.position[0] - p[0]) ** 2 + (res.position[1] - p[1]) ** 2
    assert math.sqrt(sq / n) < 0.08


def test_multilateration_input_validation():
    with pytest.raises(ValueError):
        multilaterate([1.0, 2.0], QUIET_UWB)
    with pytest.raises(ValueError):
        multilaterate([1.0, -0.5, 1.0, 1.0], QUIET_UWB)


def test_multilateration_flags_degenerate_geometry():
    line = UwbSystem(anchors=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
                     range_noise_sd=0.0)
    res = multilaterate(simulate_ranges((1.0, 0.0), line), line)
    assert not res.converged


def test_warm_start_converges_fast():
    ranges = simulate_ranges((0.4, 1.6), QUIET_UWB)
    res = multilaterate(ranges, QUIET_UWB, initial_guess=(0.4, 1.6))
    assert res.converged
    assert res.iterations <= 3


# noisy ranges 4 cm from the anchor at (0, 0) that hit the 50-iteration cap
CAPPED_RANGES = [0.021413335492545683, 3.5287300647154427, 5.00106074650553,
                 3.4808339024089774]


def _one_row_calls_agree(uwb, ranges, starts):
    """Solve the lanes as one batch; assert each equals its own
    multilaterate call bit for bit; return (converged, iterations)."""
    xy, conv, its = _solve_fixes(np.array(ranges), uwb.anchors,
                                 np.array(starts))
    for row, start, pos, c, n in zip(ranges, starts, xy.tolist(), conv, its):
        res = multilaterate(row, uwb, start)
        assert res.position == tuple(pos)
        assert (res.converged, res.iterations) == (c, n)
    return conv.tolist(), its.tolist()


def test_fix_kernel_lanes_equal_one_row_calls():
    rng = np.random.default_rng(4)
    centroid = (1.8, 1.8)
    square = [simulate_ranges((0.7, 1.3), QUIET_UWB),           # noiseless
              simulate_ranges((1.1, 0.2), UwbSystem(), rng),    # noisy
              simulate_ranges((0.0, 0.0), QUIET_UWB),           # on an anchor
              [0.0, 3.6, 5.0, 3.6],                              # zero range
              CAPPED_RANGES]                                     # iteration cap
    starts = [centroid] * 5
    square.append(CAPPED_RANGES)                  # started on an anchor
    starts.append((0.0, 0.0))
    conv, its = _one_row_calls_agree(QUIET_UWB, square, starts)
    assert conv[:2] == [True, True]
    assert (conv[4], its[4]) == (False, 50)

    line = UwbSystem(anchors=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
                     range_noise_sd=0.0)
    rows = [simulate_ranges((1.0, 0.0), line), simulate_ranges((0.5, 0.4), line),
            simulate_ranges((1.5, 0.0), line)]
    # on the anchor line every unit vector is horizontal: det == 0 at once
    conv, its = _one_row_calls_agree(line, rows,
                                     [(1.0, 0.0), (1.0, 0.5), (0.3, 0.0)])
    assert conv == [False, True, False]
    assert its[0] == its[2] == 1


def test_block_ranging_noise_is_the_scalar_draw_stream():
    uwb = UwbSystem(range_noise_sd=0.5)
    xy = np.random.default_rng(1).uniform(0.0, 0.5, (37, 2))
    got = _fix_ranges(xy, uwb, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    want = [[max(np.hypot(x - ax, y - ay) + 0.5 * rng.normal(), 0.0)
             for ax, ay in uwb.anchors] for x, y in xy.tolist()]
    assert got.tolist() == want
    assert (got == 0.0).any()      # some noisy ranges clamp at zero


def test_simulate_fixes_are_cold_started_multilateration(monkeypatch):
    # small kernel blocks, so the run crosses several block boundaries
    monkeypatch.setattr(swarm, "_FIX_LANES", 10)
    uwb = UwbSystem()
    run = simulate(Arena(), uwb, [AUTO_PRESET] * 3, duration=5.0, seed=2)
    rng = np.random.default_rng(child_seed(2, "swarm.uwb"))
    for li in range(len(run.log_t)):       # ranging order: tick, agent
        for i in range(3):
            res = multilaterate(
                simulate_ranges(tuple(run.true_xy[i, li].tolist()), uwb, rng),
                uwb)
            assert res.position == tuple(run.est_xy[i, li].tolist())
            assert res.converged == run.est_converged[i, li]


def test_estimated_marking_matches_cell_index_per_fix():
    g = CoverageGrid.for_arena(Arena())
    edges = [(0.0, 0.0), (0.1, 0.0), (0.1 * 3, 0.7), (2.0, 2.0), (1.95, 2.0),
             (-0.5, 3.0), (2.5, -0.01), (0.05, 0.15), (0.0999999, 1.0)]
    xy = np.vstack([edges, np.random.default_rng(8).uniform(-0.3, 2.3, (300, 2)),
                    edges])
    never_seen = len(xy) + 1
    want = [never_seen] * g.total_cells
    for k, (x, y) in enumerate(xy.tolist()):
        ix, iy = g.cell_index(x, y)
        c = iy * g.nx + ix
        want[c] = min(want[c], k)
    assert _first_ticks(g, xy, never_seen).tolist() == want


# ---------- reflection ----------

def test_reflection_off_left_wall():
    arena = Arena(obstacles=())
    assert _reflect_move(arena, 0.05, 1.0, -0.05, 1.0, 180.0) == (0.05, 1.0, 0.0, 1, 0)


def test_reflection_off_bottom_wall():
    arena = Arena(obstacles=())
    x, y, h, fx, fy = _reflect_move(arena, 1.0, 0.05, 1.0, -0.03, 270.0)
    assert (x, y, h) == (1.0, 0.03, 90.0)
    assert (fx, fy) == (0, 1)


def test_reflection_off_obstacle_face():
    arena = Arena()
    x, y, h, fx, fy = _reflect_move(arena, 0.58, 0.50, 0.62, 0.50, 0.0)
    assert (x, y) == pytest.approx((0.58, 0.50))
    assert h == 180.0
    assert (fx, fy) == (1, 0)


def test_reflection_off_obstacle_corner_uses_both_faces():
    arena = Arena()
    x, y, h, fx, fy = _reflect_move(arena, 0.59, 0.34, 0.61, 0.36, 45.0)
    assert (x, y) == pytest.approx((0.59, 0.34))
    assert h == 225.0   # 45 -> 135 (x flip) -> 225 (y flip)
    assert (fx, fy) == (1, 1)


def test_interior_moves_pass_through():
    arena = Arena()
    assert _reflect_move(arena, 1.0, 1.5, 1.01, 1.51, 45.0) == (1.01, 1.51, 45.0, 0, 0)


# ---------- spawning ----------

def test_spawn_ring_inside_release_cell():
    arena = Arena()
    rngs = [np.random.default_rng(i) for i in range(4)]
    states = spawn_states(arena, [AUTO_PRESET] * 4, rngs)
    xs = [s.x for s in states]
    ys = [s.y for s in states]
    assert xs == pytest.approx([0.08, 0.05, 0.02, 0.05], abs=1e-9)
    assert ys == pytest.approx([0.05, 0.08, 0.05, 0.02], abs=1e-9)
    for s in states:
        assert s.speed == 0.063
        assert 0.0 <= s.heading < 360.0
        assert s.active_command is None


# ---------- full runs ----------

def test_straight_line_run_matches_hand_rasterization():
    """Single silent agent on an empty arena: the visited set must equal a
    cell-by-cell rasterization of the same Euler path."""
    arena = Arena(obstacles=())
    params = _det_params()
    start = AgentState(0.05, 0.05, 30.0, params.walk_speed_mean)
    run = simulate(arena, QUIET_UWB, [params], stim_period=40.0,
                   duration=20.0, seed=0, initial_states=[start])

    expected = np.zeros((20, 20), dtype=bool)
    x, y = 0.05, 0.05
    r = math.radians(30.0)
    vdt = params.walk_speed_mean * 0.01
    for _ in range(2001):   # the spawn position plus one mark per step
        expected[math.floor(y / 0.1), math.floor(x / 0.1)] = True
        x += vdt * math.cos(r)
        y += vdt * math.sin(r)
    assert np.array_equal(run.union_grid.visited, expected)
    assert run.final_union_coverage == 100.0 * expected.sum() / 400.0


def test_simulate_and_step_share_the_kinematics():
    """A free, uncommanded agent in simulate follows repeated step calls
    fed the same motion stream, bit for bit."""
    seed = 3
    start = AgentState(1.0, 1.0, 30.0, 0.04)   # speed relaxes toward the mean
    run = simulate(Arena(obstacles=()), QUIET_UWB, [AUTO_PRESET],
                   stim_period=20.0, duration=10.0, seed=seed,
                   initial_states=[start])
    assert run.commands[0] == [""] * 101

    rng = np.random.default_rng(child_seed(seed, "swarm.motion", 0))
    s = start
    expected = [(s.x, s.y)]
    for k in range(1, 1001):
        s = step(s, AUTO_PRESET, 0.01, rng)
        if k % 10 == 0:
            expected.append((s.x, s.y))
    expected = np.array(expected)
    # 10 s at walking speed cannot reach a wall 1 m away
    assert (np.abs(expected - 1.0) < 0.7).all()
    assert np.array_equal(run.true_xy[0], expected)


def test_run_is_seed_deterministic():
    params = [AUTO_PRESET] * 2
    a = simulate(Arena(), UwbSystem(), params, duration=20.0, seed=5)
    b = simulate(Arena(), UwbSystem(), params, duration=20.0, seed=5)
    c = simulate(Arena(), UwbSystem(), params, duration=20.0, seed=6)
    assert np.array_equal(a.true_xy, b.true_xy)
    assert np.array_equal(a.est_xy, b.est_xy)
    assert np.array_equal(a.union_coverage_pct, b.union_coverage_pct)
    assert not np.array_equal(a.true_xy, c.true_xy)


def test_union_dominates_individuals_and_grows():
    run = simulate(Arena(), UwbSystem(), [AUTO_PRESET] * 4, duration=60.0, seed=2)
    assert run.union_coverage_pct.shape == (601,)
    assert run.agent_coverage_pct.shape == (4, 601)
    assert (run.union_coverage_pct >= run.agent_coverage_pct.max(axis=0) - 1e-12).all()
    assert (np.diff(run.union_coverage_pct) >= 0.0).all()
    assert (np.diff(run.agent_coverage_pct, axis=1) >= 0.0).all()
    assert run.final_union_coverage > run.union_coverage_pct[0]


def test_agents_stay_inside_walls_and_outside_obstacles():
    arena = Arena()
    run = simulate(arena, UwbSystem(), [AUTO_PRESET] * 3, duration=60.0, seed=9)
    xs = run.true_xy[..., 0]
    ys = run.true_xy[..., 1]
    assert (xs >= 0.0).all() and (xs <= arena.width).all()
    assert (ys >= 0.0).all() and (ys <= arena.height).all()
    for i in range(run.n_agents):
        for x, y in run.true_xy[i]:
            for rect in arena.obstacles:
                assert not rect.contains(x, y)


def test_commands_fire_on_the_stim_schedule():
    run = simulate(Arena(), UwbSystem(), [AUTO_PRESET] * 2, duration=30.0, seed=4)
    # commands last 0.4 s, so the log row right after each 10 s mark shows one
    names = {"turn_left", "turn_right", "decelerate"}
    for i in range(2):
        for t_idx in (101, 201):   # 10.1 s and 20.1 s at 10 Hz logging
            assert run.commands[i][t_idx] in names
        assert run.commands[i][0] == ""


def test_zero_noise_estimates_track_truth():
    run = simulate(Arena(), QUIET_UWB, [AUTO_PRESET] * 2, duration=20.0, seed=7)
    err = np.hypot(run.est_xy[..., 0] - run.true_xy[..., 0],
                   run.est_xy[..., 1] - run.true_xy[..., 1])
    assert err.max() < 1e-6
    assert run.est_converged.all()


def test_estimated_coverage_marks_at_log_cadence_only():
    args = dict(duration=20.0, seed=7)
    truth = simulate(Arena(), QUIET_UWB, [AUTO_PRESET] * 2, **args)
    est = simulate(Arena(), QUIET_UWB, [AUTO_PRESET] * 2,
                   coverage_from="estimated", **args)
    assert est.union_grid.visited_count <= truth.union_grid.visited_count
    assert est.union_grid.visited_count > 0


def test_simulate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        simulate(Arena(), QUIET_UWB, [], duration=10.0)
    with pytest.raises(ValueError):
        simulate(Arena(), QUIET_UWB, [AUTO_PRESET], duration=10.0,
                 coverage_from="guessed")
    with pytest.raises(ValueError):
        simulate(Arena(), QUIET_UWB, [AUTO_PRESET], duration=10.003)
    with pytest.raises(ValueError):
        simulate(Arena(), QUIET_UWB, [AUTO_PRESET], duration=10.0,
                 stim_period=0.015)
    with pytest.raises(ValueError):
        simulate(Arena(), QUIET_UWB, [AUTO_PRESET], duration=10.0,
                 initial_states=[AgentState(5.0, 5.0, 0.0, 0.06)])
    with pytest.raises(ValueError):
        simulate(Arena(), QUIET_UWB, [AUTO_PRESET], duration=10.0,
                 initial_states=[AgentState(0.75, 0.45, 0.0, 0.06)])


def test_initial_states_length_must_match():
    with pytest.raises(ValueError):
        simulate(Arena(), QUIET_UWB, [AUTO_PRESET] * 2, duration=10.0,
                 initial_states=[AgentState(0.05, 0.05, 0.0, 0.06)])
