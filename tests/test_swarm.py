"""Arena geometry, coverage accounting, localization, and dispersion runs."""
import math
import os
import re
import sys
import time
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from biobotsim import seeding, swarm
from biobotsim.locomotion import (AUTO_PRESET, MANUAL_PRESET, ActiveCommand,
                                  AgentState, StimCommand, StimKind,
                                  apply_command)
from biobotsim.seeding import child_seed
from biobotsim.swarm import (
    DEFAULT_OBSTACLES,
    Arena,
    CoverageGrid,
    Rect,
    SwarmRun,
    UwbSystem,
    _first_ticks,
    _conjugate_command,
    _fix_ranges,
    _headings,
    _reflect_move,
    _solve_fixes,
    coverage_percent,
    coverage_rate,
    dispersion_batch,
    simulate,
    spawn_states,
)

QUIET_UWB = UwbSystem(range_noise_sd_m=0.0)
CENTROID = (1.8, 1.8)     # of the default anchors


def _det_params():
    return replace(AUTO_PRESET, turn_angle_sd=0.0, decel_min_speed_sd=0.0,
                   heading_diffusion=0.0)


# ---------- geometry ----------

def _area(r):
    return (r.x_max - r.x_min) * (r.y_max - r.y_min)


def test_rect_validation_and_area():
    r = Rect(0.0, 0.0, 0.3, 0.25)
    assert _area(r) == pytest.approx(0.075)
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
    total = sum(_area(r) for r in DEFAULT_OBSTACLES)
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
    assert UwbSystem().anchors_m == ((0.0, 0.0), (3.6, 0.0), (3.6, 3.6),
                                    (0.0, 3.6))


def test_uwb_validation():
    with pytest.raises(ValueError):
        UwbSystem(anchors_m=((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ValueError):
        UwbSystem(range_noise_sd_m=-0.1)
    # coincident, collinear, and 0.5 um off one line
    for anchors in (((0.0, 0.0),) * 3, ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
                    ((0.0, 0.0), (2.0, 0.0), (1.0, 5e-7))):
        with pytest.raises(ValueError, match="must span an area"):
            UwbSystem(anchors_m=anchors)
    # the tolerance is in metres, not relative to the spread: an anchor
    # 1e200 m away does not hide the 3.6 m triangle of the others, and a
    # triangle 2 um across spans an area
    far = ((1e200, 0.0), (0.0, 0.0), (3.6, 0.0), (0.0, 3.6))
    assert UwbSystem(anchors_m=far).anchors_m == far
    UwbSystem(anchors_m=((0.0, 0.0), (2e-6, 0.0), (0.0, 2e-6)))


# ---------- coverage grid ----------

def test_grid_dimensions_for_default_arena():
    g = CoverageGrid.for_arena(Arena())
    assert (g.nx, g.ny, g.total_cells) == (20, 20, 400)
    assert g.visited_count == 0


def test_grid_requires_exact_tiling():
    with pytest.raises(ValueError):
        CoverageGrid.for_arena(Arena(), cell_size=0.3)


def _cell_index(grid, x, y):
    """Cell (ix, iy) containing a position; boundary and outside positions
    clamp to the nearest cell.  The scalar rule that swarm._cell_ids
    applies to arrays of positions."""
    ix = int(math.floor(x / grid.cell_size))
    iy = int(math.floor(y / grid.cell_size))
    ix = min(max(ix, 0), grid.nx - 1)
    iy = min(max(iy, 0), grid.ny - 1)
    return ix, iy


def test_cell_index_conventions():
    g = CoverageGrid.for_arena(Arena())
    assert _cell_index(g, 0.0, 0.0) == (0, 0)
    assert _cell_index(g, 0.05, 0.15) == (0, 1)
    assert _cell_index(g, 0.10, 0.0) == (1, 0)    # boundary belongs to the right cell
    assert _cell_index(g, 2.0, 2.0) == (19, 19)   # far edge clamps inward
    assert _cell_index(g, -0.5, 3.0) == (0, 19)


def test_coverage_percent_frozen_point():
    assert coverage_percent(321, 400) == 80.25
    assert coverage_percent(np.array([0, 321, 400]), 400).tolist() == [
        0.0, 80.25, 100.0]


def test_coverage_rate_frozen_point():
    g = CoverageGrid.for_arena(Arena())
    g.visited.ravel()[:321] = True
    run = SwarmRun(seed=0, uwb=QUIET_UWB, n_agents=1,
                   log_t=np.array([0.0, 631.0]),
                   true_xy=np.zeros((1, 2, 2)), heading_deg=np.zeros((1, 2)),
                   speed=np.zeros((1, 2)), commands=[["", ""]],
                   agent_coverage_pct=np.zeros((1, 2)),
                   union_coverage_pct=np.array([0.0, 80.25]),
                   union_grid=g,
                   fixes=(np.zeros((1, 2, 2)), np.ones((1, 2), dtype=bool),
                          np.ones((1, 2), dtype=np.uint8)))
    assert coverage_rate(run) == pytest.approx(50.87, abs=0.01)
    assert run.final_union_coverage == 80.25


# ---------- localization ----------

def _solve(ranges, anchors):
    return _solve_fixes(np.array(ranges, dtype=float), anchors)


def _distance(dx, dy):
    # the solver's distance on Python floats
    d = math.sqrt(dx * dx + dy * dy)
    return math.hypot(dx, dy) if d == math.inf else d


def test_noiseless_ranges_are_exact_distances():
    for uwb in (QUIET_UWB, FAR_UWB):
        ranges = _fix_ranges(np.array([[1.2, 0.7]]), uwb, None)
        expected = [_distance(1.2 - ax, 0.7 - ay) for ax, ay in uwb.anchors_m]
        assert ranges.tolist() == [expected]


def test_multilateration_recovers_noiseless_positions():
    p = np.random.default_rng(11).uniform(0.0, 2.0, (100, 2))
    xy, conv, _ = _solve(_fix_ranges(p, QUIET_UWB, None), QUIET_UWB.anchors_m)
    assert conv.all()
    assert np.hypot(*(xy - p).T).max() < 1e-6


def test_warm_start_converges_fast():
    # on noiseless ranges the linear start is the fix up to rounding, so
    # the first step or the second falls below the step tolerance
    ranges = _fix_ranges(np.array([[0.4, 1.6]]), QUIET_UWB, None)
    _, conv, its = _solve(ranges, QUIET_UWB.anchors_m)
    assert conv[0]
    assert its[0] <= 2


# noisy ranges 4 cm from the anchor at (0, 0) on which Gauss-Newton from
# the anchor centroid hit the 50-iteration cap
CAPPED_RANGES = [0.021413335492545683, 3.5287300647154427, 5.00106074650553,
                 3.4808339024089774]


def _one_row_calls_agree(uwb, ranges):
    """Solve the lanes as one batch; assert each equals its own one-row
    _solve_fixes call bit for bit; return (converged, iterations)."""
    xy, conv, its = _solve(ranges, uwb.anchors_m)
    for row, pos, c, n in zip(ranges, xy, conv, its):
        one = _solve([row], uwb.anchors_m)
        assert one[0].tobytes() == pos.tobytes()
        assert (one[1][0], one[2][0]) == (c, n)
    return conv.tolist(), its.tolist()


def test_fix_kernel_lanes_equal_one_row_calls():
    rng = np.random.default_rng(4)

    def ranges(uwb, x, y):
        return _fix_ranges(np.array([[x, y]]), uwb, rng)[0].tolist()

    square = [ranges(QUIET_UWB, 0.7, 1.3),           # noiseless
              ranges(UwbSystem(), 1.1, 0.2),         # noisy
              ranges(QUIET_UWB, 0.0, 0.0),           # on an anchor
              [0.0, 3.6, 5.0, 3.6],                  # zero range
              CAPPED_RANGES]                         # Gauss-Newton's cap
    conv, its = _one_row_calls_agree(QUIET_UWB, square)
    assert conv == [True] * 5
    assert max(its) < swarm._FIX_MAX_ITER

    # the linear start of anchors on a line is not finite, so these lanes
    # start at the line's centroid (1, 0), which is an anchor.  On the line
    # every unit vector is horizontal or zero: the lane whose fix is the
    # start converges at once, and the others step along the line until H
    # is not positive definite, where the normal matrix is singular
    line = LINE_UWB
    rows = [ranges(line, 1.0, 0.0), ranges(line, 0.5, 0.4),
            ranges(line, 1.5, 0.0)]
    conv, its = _one_row_calls_agree(line, rows)
    assert conv == [True, False, False]
    assert its == [1, 2, 2]
    assert (_solve(rows, line.anchors_m)[0][:, 1] == 0.0).all()

    # from the far anchor's layout the linear start overflows; the lanes
    # start at the centroid and end finite, with no warning
    far = [ranges(FAR_UWB, 1.0, 1.0), ranges(FAR_UWB, 0.2, 1.7)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xy, _, _ = _solve(far, FAR_UWB.anchors_m)
        _one_row_calls_agree(FAR_UWB, far)
    assert np.isfinite(xy).all()


# collinear anchors span no area and UwbSystem rejects them, so the
# solver's singular lanes take them from a stand-in with UwbSystem's fields
LINE_UWB = SimpleNamespace(anchors_m=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
                           range_noise_sd_m=0.0)
# from its centroid, (x - 1e200)**2 overflows
FAR_UWB = UwbSystem(
    anchors_m=((0.0, 0.0), (3.6, 0.0), (1e200, 0.0), (0.0, 3.6)),
    range_noise_sd_m=0.0)


@st.composite
def _fix_lanes(draw):
    """A batch of fix lanes, each a row of ranges, all on the default square
    of anchors or all on the anchor line of LINE_UWB."""
    line = draw(st.booleans())
    coord = st.floats(0.0, 2.0)

    def ranges(uwb, x, y, noise_seed=None):
        if noise_seed is not None:
            uwb = replace(uwb, range_noise_sd_m=UwbSystem.range_noise_sd_m)
        rng = np.random.default_rng(noise_seed)
        return _fix_ranges(np.array([[x, y]]), uwb, rng)[0].tolist()

    if line:
        uwb = LINE_UWB
        kinds = st.one_of(
            st.builds(lambda x: ranges(uwb, x, 0.0), coord),   # on the line
            st.builds(lambda x, y: ranges(uwb, x, y), coord, st.floats(0.1, 2.0)))
    else:
        uwb = QUIET_UWB
        seeds = st.integers(0, 2 ** 32 - 1)
        kinds = st.one_of(
            st.builds(lambda x, y: ranges(uwb, x, y), coord, coord),  # noiseless
            st.builds(lambda x, y, seed: ranges(uwb, x, y, seed),
                      coord, coord, seeds),                           # noisy
            st.builds(lambda a, seed: ranges(uwb, *a, seed),
                      st.sampled_from(uwb.anchors_m),
                      st.none() | seeds),                             # on an anchor
            st.just(CAPPED_RANGES))
    return uwb, draw(st.lists(kinds, max_size=23))


def _anchor_sum(terms):
    # np.add.reduce over axis 0 adds the rows in anchor order
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def _reference_fix(ranges, anchors):
    """One fix by the kernel's arithmetic on Python floats, one anchor at a
    time: the linear start, then safeguarded Newton; returns ((x, y),
    converged, iterations)."""
    k = len(anchors)
    # the linear start: anchor 0's equation subtracted from the others'
    (x0, y0), rest = anchors[0], anchors[1:]
    gx = [2.0 * (ax - x0) for ax, _ in rest]
    gy = [2.0 * (ay - y0) for _, ay in rest]
    sxx = sxy = syy = 0.0
    for g, h in zip(gx, gy):
        sxx += g * g
        sxy += g * h
        syy += h * h
    det = sxx * syy - sxy * sxy
    inv = 1.0 / det if det else math.inf
    b = [(ranges[0] * ranges[0] - r * r) + (ax * ax + ay * ay - (x0 * x0 + y0 * y0))
         for (ax, ay), r in zip(rest, ranges[1:])]
    x = _anchor_sum([(syy * g - sxy * h) * inv * bi for g, h, bi in zip(gx, gy, b)])
    y = _anchor_sum([(sxx * h - sxy * g) * inv * bi for g, h, bi in zip(gx, gy, b)])
    if not (math.isfinite(x) and math.isfinite(y)):
        x, y = swarm._centroid(anchors)
    for it in range(1, swarm._FIX_MAX_ITER + 1):
        terms = []
        for (ax, ay), r in zip(anchors, ranges):
            dx, dy = x - ax, y - ay
            d = _distance(dx, dy)
            d = max(d, 1e-12)
            q = 1.0 / d
            ux, uy, c = dx * q, dy * q, q * r
            terms.append((r - d, ux, uy, c))
        g0 = _anchor_sum([f * ux for f, ux, _, _ in terms])
        g1 = _anchor_sum([f * uy for f, _, uy, _ in terms])
        h01 = _anchor_sum([c * ux * uy for _, ux, uy, c in terms])
        h11 = k - _anchor_sum([c * ux * ux for _, ux, _, c in terms])
        h00 = k - _anchor_sum([c * uy * uy for _, _, uy, c in terms])
        det = h00 * h11 - h01 * h01
        flat = False
        if det > 0.0 and h00 > 0.0:          # H positive definite: Newton
            sx = (g0 * h11 - g1 * h01) / det
            sy = (g1 * h00 - g0 * h01) / det
        else:                                # else Gauss-Newton
            j00 = _anchor_sum([ux * ux for _, ux, _, _ in terms])
            j01 = _anchor_sum([ux * uy for _, ux, uy, _ in terms])
            j11 = _anchor_sum([uy * uy for _, _, uy, _ in terms])
            jdet = j00 * j11 - j01 * j01
            flat = jdet == 0.0
            if flat:
                jdet = math.inf
            sx = (g0 * j11 - g1 * j01) / jdet
            sy = (g1 * j00 - g0 * j01) / jdet
        x += sx
        y += sy
        small = sx * sx + sy * sy < swarm._FIX_TOL ** 2
        if flat or small:
            return (x, y), small and not flat, it
    return (x, y), False, swarm._FIX_MAX_ITER


@pytest.mark.parametrize("width", [1, 2, 3, 7, 4096])
@settings(max_examples=40, deadline=None)
@given(batch=_fix_lanes())
@example(batch=(QUIET_UWB, []))
@example(batch=(QUIET_UWB, [CAPPED_RANGES] * 2 + [[0.0, 3.6, 5.0, 3.6]] * 9))
@example(batch=(FAR_UWB, [_fix_ranges(np.array([[1.0, 1.0]]), FAR_UWB,
                                      None)[0].tolist()] * 3))
def test_refilled_working_set_lanes_equal_one_row_calls(width, batch):
    uwb, lanes = batch
    ranges = np.array(lanes, dtype=float).reshape(-1, len(uwb.anchors_m))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(swarm, "_FIX_LANES", width)
        xy, conv, its = _solve_fixes(ranges, uwb.anchors_m)
        assert xy.shape == (len(lanes), 2)
        assert conv.shape == its.shape == (len(lanes),)
        for row, pos, c, n in zip(ranges, xy, conv, its):
            one = _solve_fixes(row[None], uwb.anchors_m)
            assert one[0][0].tobytes() == pos.tobytes()
            assert (one[1][0], one[2][0]) == (c, n)
            ref, ref_c, ref_n = _reference_fix(row.tolist(), uwb.anchors_m)
            assert np.array(ref).tobytes() == pos.tobytes()
            assert (ref_c, ref_n) == (c, n)
    assert ((1 <= its) & (its <= swarm._FIX_MAX_ITER)).all()


def test_fix_solve_allocates_only_a_working_set():
    # 60,004 lanes, as in a 150 s run of 4 agents logged at 100 Hz
    uwb = UwbSystem()
    p = np.random.default_rng(3).uniform(0.0, 2.0, (60_004, 2))
    ranges = _fix_ranges(p, uwb, np.random.default_rng(4))
    tracemalloc.start()
    try:
        out = _solve_fixes(ranges, uwb.anchors_m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the outputs plus at most 16 float64 arrays of [k, _FIX_LANES] (2.1 MB):
    # no temporary may grow with the number of lanes
    outputs = sum(a.nbytes for a in out)
    working_set = 16 * len(uwb.anchors_m) * swarm._FIX_LANES * 8
    assert peak <= outputs + working_set
    assert (out[2] > 0).all()


def test_block_ranging_noise_is_the_scalar_draw_stream():
    uwb = UwbSystem(range_noise_sd_m=0.5)
    xy = np.random.default_rng(1).uniform(0.0, 0.5, (37, 2))
    got = _fix_ranges(xy, uwb, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    want = [[max(_distance(x - ax, y - ay) + 0.5 * rng.normal(), 0.0)
             for ax, ay in uwb.anchors_m] for x, y in xy.tolist()]
    assert got.tolist() == want
    assert (got == 0.0).any()      # some noisy ranges clamp at zero


def test_simulate_fixes_are_cold_started_one_row_solves(monkeypatch):
    # small blocks, so the run's lanes span many of them
    monkeypatch.setattr(swarm, "_FIX_LANES", 10)
    uwb = UwbSystem()
    run = simulate(Arena(), uwb, [AUTO_PRESET] * 3, duration=5.0, seed=2)
    rng = np.random.default_rng(child_seed(2, "swarm.uwb"))
    for li in range(len(run.log_t)):       # ranging order: tick, agent
        for i in range(3):
            x, y = run.true_xy[i, li].tolist()
            row = [max(_distance(x - ax, y - ay)
                       + uwb.range_noise_sd_m * rng.normal(), 0.0)
                   for ax, ay in uwb.anchors_m]
            xy, conv, its = _solve([row], uwb.anchors_m)
            assert xy[0].tobytes() == run.est_xy[i, li].tobytes()
            assert conv[0] == run.est_converged[i, li]
            assert its[0] == run.est_iterations[i, li]


@pytest.mark.parametrize("first", ["est_xy", "est_converged"])
def test_fixes_are_solved_once_on_first_read(first, monkeypatch):
    lanes = []
    solve = swarm._solve_fixes

    def counted(ranges, *args, **kwargs):
        lanes.append(len(ranges))
        return solve(ranges, *args, **kwargs)

    monkeypatch.setattr(swarm, "_FIX_LANES", 10)
    monkeypatch.setattr(swarm, "_solve_fixes", counted)
    uwb = UwbSystem()
    run = simulate(Arena(), uwb, [AUTO_PRESET] * 3, duration=5.0, seed=4,
                   coverage_from="true")
    assert lanes == []
    second = "est_converged" if first == "est_xy" else "est_xy"
    got = {first: getattr(run, first)}
    assert lanes == [3 * 51]       # one kernel call solves the run
    got[second] = getattr(run, second)
    assert run.est_xy is got["est_xy"] and lanes == [3 * 51]

    xy, conv, its = swarm._localize(run.true_xy, uwb, np.random.default_rng(
        child_seed(4, "swarm.uwb")))
    assert got["est_xy"].tobytes() == xy.tobytes()
    assert got["est_converged"].tobytes() == conv.tobytes()
    assert run.est_iterations.tobytes() == its.tobytes()


def test_criterion_12_first_seed_fixes_all_converge():
    # the first run of criterion 12's batch: 25,244 fixes, of which
    # Gauss-Newton from the anchor centroid left 8 at its iteration cap,
    # all near the anchor at (0, 0)
    run = next(dispersion_batch(Arena(), UwbSystem(), [AUTO_PRESET] * 4,
                                20, seed=42))
    assert run.est_converged.all()
    assert run.est_iterations.max() < swarm._FIX_MAX_ITER


def test_estimated_marking_matches_cell_index_per_fix():
    g = CoverageGrid.for_arena(Arena())
    edges = [(0.0, 0.0), (0.1, 0.0), (0.1 * 3, 0.7), (2.0, 2.0), (1.95, 2.0),
             (-0.5, 3.0), (2.5, -0.01), (0.05, 0.15), (0.0999999, 1.0)]
    xy = np.vstack([edges, np.random.default_rng(8).uniform(-0.3, 2.3, (300, 2)),
                    edges])
    never_seen = len(xy) + 1
    want = [never_seen] * g.total_cells
    for k, (x, y) in enumerate(xy.tolist()):
        ix, iy = _cell_index(g, x, y)
        c = iy * g.nx + ix
        want[c] = min(want[c], k)
    assert _first_ticks(g, xy[:, 0], xy[:, 1], never_seen).tolist() == want


# ---------- reflection ----------

def test_reflection_off_left_wall():
    arena = Arena(obstacles=())
    assert _reflect_move(arena, 0.05, 1.0, -0.05, 1.0, 180.0) == (0.05, 1.0, 0.0, 1, 0)
    # a flip reduces an unwrapped heading into [0, 360)
    assert _reflect_move(arena, 0.05, 1.0, -0.05, 1.0, 540.0) == (0.05, 1.0, 0.0, 1, 0)
    assert _reflect_move(arena, 0.05, 1.0, -0.05, 1.0, -170.0)[2] == 350.0


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
    """A free step keeps its heading as it is, unwrapped."""
    arena = Arena()
    for heading in (45.0, 725.0, -30.0):
        assert (_reflect_move(arena, 1.0, 1.5, 1.01, 1.51, heading)
                == (1.01, 1.51, heading, 0, 0))


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


def test_run_is_seed_deterministic():
    params = [AUTO_PRESET] * 2
    a = simulate(Arena(), UwbSystem(), params, duration=20.0, seed=5)
    b = simulate(Arena(), UwbSystem(), params, duration=20.0, seed=5)
    c = simulate(Arena(), UwbSystem(), params, duration=20.0, seed=6)
    assert np.array_equal(a.true_xy, b.true_xy)
    assert np.array_equal(a.est_xy, b.est_xy)
    assert np.array_equal(a.union_coverage_pct, b.union_coverage_pct)
    assert not np.array_equal(a.true_xy, c.true_xy)


def test_dispersion_batch_holds_one_run_at_a_time(monkeypatch):
    """With the consumer dropping each run, no earlier run is alive when
    the next one starts, nor when it is yielded."""
    refs, alive_at_start = [], []
    simulate_one = swarm.simulate

    def tracked(*args, **kwargs):
        alive_at_start.append(sum(r() is not None for r in refs))
        run = simulate_one(*args, **kwargs)
        refs.append(weakref.ref(run))
        return run

    monkeypatch.setattr(swarm, "simulate", tracked)
    # the runs a child makes are not seen here
    monkeypatch.setattr(seeding, "cpu_count", lambda: 1)
    seeds = []
    for run in dispersion_batch(Arena(), QUIET_UWB, [AUTO_PRESET] * 2, 3, 7,
                                duration=5.0):
        assert sum(r() is not None for r in refs) == 1
        seeds.append(run.seed)
        del run
    assert alive_at_start == [0, 0, 0]
    assert len(set(seeds)) == 3


def _batch(monkeypatch, workers, n_seeds=3, **run_kwargs):
    """dispersion_batch's generator over seeds 0 .. n_seeds - 1 of seed 7
    on two agents, with the CPU count patched to workers."""
    monkeypatch.setattr(seeding, "cpu_count", lambda: workers)
    return dispersion_batch(Arena(), QUIET_UWB, [AUTO_PRESET] * 2, n_seeds, 7,
                            **run_kwargs)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_equal_runs(got, want):
    assert [r.seed for r in got] == [r.seed for r in want]
    for g, w in zip(got, want):
        for field in ("log_t", "true_xy", "heading_deg", "speed",
                      "agent_coverage_pct", "union_coverage_pct", "est_xy",
                      "est_converged", "est_iterations"):
            assert getattr(g, field).tobytes() == getattr(w, field).tobytes()
        assert g.commands == w.commands
        assert g.union_grid.visited.tobytes() == w.union_grid.visited.tobytes()


def test_batch_workers_fork_where_it_is_safe(monkeypatch):
    monkeypatch.setattr(seeding, "cpu_count", lambda: 4)
    forks = hasattr(os, "fork") and sys.platform != "darwin"
    assert [swarm._batch_workers(n) for n in (0, 1, 3, 9)] == (
        [1, 1, 3, 4] if forks else [1, 1, 1, 1])


@pytest.mark.parametrize("coverage_from", ["true", "estimated"])
def test_forked_batch_yields_the_runs_of_one_worker(monkeypatch,
                                                    coverage_from):
    """Arrays, commands and fixes, whichever worker made a run; with
    coverage from estimates the children deliver fixes they solved."""
    kwargs = dict(duration=20.0, coverage_from=coverage_from)
    want = list(_batch(monkeypatch, 1, 5, **kwargs))
    got = list(_batch(monkeypatch, 2, 5, **kwargs))
    _assert_no_child()
    _assert_equal_runs(got, want)


def test_forked_batch_closed_early_kills_its_children(monkeypatch):
    """Closing the batch after its first run ends children that are still
    running a seed, at once, and reaps them."""
    simulate_one, parent = swarm.simulate, os.getpid()

    def slow_in_a_child(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60.0)
        return simulate_one(*args, **kwargs)

    monkeypatch.setattr(swarm, "simulate", slow_in_a_child)
    start = time.monotonic()
    for run in _batch(monkeypatch, 3, 5, duration=5.0):
        break
    assert time.monotonic() - start < 30.0
    _assert_no_child()


def test_failing_seed_raises_at_its_position_and_leaves_no_child(monkeypatch):
    """Seed 1 fails on worker 1, the child; the batch raises there, after
    seed 0's run, as one worker does."""
    simulate_one = swarm.simulate
    bad = child_seed(7, "coverage.batch", 1)

    def failing(*args, seed, **kwargs):
        if seed == bad:
            raise ValueError(f"seed {seed} fails")
        return simulate_one(*args, seed=seed, **kwargs)

    monkeypatch.setattr(swarm, "simulate", failing)
    for workers in (1, 2):
        seeds = []
        with pytest.raises(ValueError, match=f"seed {bad} fails"):
            for run in _batch(monkeypatch, workers, 4, duration=5.0):
                seeds.append(run.seed)
        assert seeds == [child_seed(7, "coverage.batch", 0)]
        _assert_no_child()


def test_seeds_of_a_child_that_dies_run_in_the_parent(monkeypatch):
    want = list(_batch(monkeypatch, 1, 4, duration=5.0))
    simulate_one, parent = swarm.simulate, os.getpid()

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(9)
        return simulate_one(*args, **kwargs)

    monkeypatch.setattr(swarm, "simulate", dying)
    got = list(_batch(monkeypatch, 2, 4, duration=5.0))
    _assert_no_child()
    _assert_equal_runs(got, want)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_seeds_of_a_worker_that_cannot_fork_run_in_the_parent(monkeypatch):
    want = list(_batch(monkeypatch, 1, 4, duration=5.0))
    fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(len(forks))
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    got = list(_batch(monkeypatch, 3, 4, duration=5.0))
    _assert_no_child()
    _assert_equal_runs(got, want)
    assert len(forks) == (2 if swarm._batch_workers(4) == 3 else 0)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_fork_warns_nothing_in_a_threaded_process(monkeypatch):
    """Python 3.12's warning on a fork among threads, as OpenBLAS's are,
    is silenced."""
    fork = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, "
                      "use of fork() may lead to deadlocks in the child.",
                      DeprecationWarning)
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(list(_batch(monkeypatch, 2, 2, duration=5.0))) == 2
    _assert_no_child()


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
    for heading, speed in ((math.nan, 0.06), (math.inf, 0.06),
                           (0.0, math.inf), (0.0, -math.inf), (0.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            simulate(Arena(), QUIET_UWB, [AUTO_PRESET], duration=5.0,
                     initial_states=[AgentState(1.0, 1.0, heading, speed)])
    # every logged heading lies in [0, 360), the one at tick 0 too
    for heading in (-10.0, 360.0):
        with pytest.raises(ValueError, match=re.escape(
                f"initial heading {heading} must lie in [0, 360)")):
            simulate(Arena(), QUIET_UWB, [AUTO_PRESET], duration=5.0,
                     initial_states=[AgentState(1.0, 1.0, heading, 0.06)])
    for cmd in (ActiveCommand(StimKind.DECELERATE, 0.3, decel_v0=math.nan,
                              decel_vmin=0.02),
                ActiveCommand(StimKind.TURN_LEFT, 0.3, turn_target=math.inf,
                              turn_remaining=30.0, turn_sign=1.0),
                ActiveCommand(StimKind.TURN_RIGHT, math.inf, turn_target=-30.0,
                              turn_remaining=30.0, turn_sign=-1.0)):
        with pytest.raises(ValueError, match="must have finite fields"):
            simulate(Arena(), QUIET_UWB, [AUTO_PRESET], duration=5.0,
                     initial_states=[AgentState(1.0, 1.0, 0.0, 0.06, cmd)])
    # a negative speed is clamped by the first step, as _euler clamps it
    simulate(Arena(), QUIET_UWB, [AUTO_PRESET], duration=5.0,
             initial_states=[AgentState(1.0, 1.0, 0.0, -0.5)])
    # a finite time left past any step count keeps the command to the end
    cmd = ActiveCommand(StimKind.TURN_RIGHT, 1e307, turn_target=-30.0,
                        turn_remaining=30.0, turn_sign=-1.0)
    run = simulate(Arena(), QUIET_UWB, [AUTO_PRESET], duration=5.0,
                   initial_states=[AgentState(1.0, 1.0, 0.0, 0.06, cmd)])
    assert set(run.commands[0]) == {"turn_right"}
    # and one far below zero expires it at the first step
    cmd = replace(cmd, time_remaining=-1e307)
    run = simulate(Arena(), QUIET_UWB, [AUTO_PRESET], duration=5.0,
                   initial_states=[AgentState(1.0, 1.0, 0.0, 0.06, cmd)])
    assert run.commands[0][0] == "turn_right"
    assert set(run.commands[0][1:]) == {""}


def test_initial_states_length_must_match():
    with pytest.raises(ValueError):
        simulate(Arena(), QUIET_UWB, [AUTO_PRESET] * 2, duration=10.0,
                 initial_states=[AgentState(0.05, 0.05, 0.0, 0.06)])


# ---------- walk kernel against the scalar reference ----------

_TINY = 1e-12    # a command's time or turn left at or below this is spent


def _euler(params, dt):
    """The explicit-Euler update of one agent for one step size, the scalar
    kernel that the walk is pinned against.

    The returned kernel, ``advance(x, y, heading, speed, cmd, draw)``,
    returns the new ``(x, y, heading, speed, cmd)``.  It advances ``cmd``
    in place and returns None for it once it expires.  ``draw()`` gives the
    next standard normal for the heading diffusion, which runs only while
    no command is active.  Heading and speed are updated first, then the
    position advances with the updated values; the heading returned is
    heading + increment, or a turn's target at its snap, never reduced
    mod 360: only _reflect_move reduces a heading, at a flip.
    """
    walk = params.walk_speed_mean
    decay = math.exp(-dt / params.recovery_tau)
    sigma = math.sqrt(params.heading_diffusion * dt)
    step_left = params.max_ang_speed_left * dt
    step_right = params.max_ang_speed_right * dt
    diffuses = params.heading_diffusion > 0.0
    decel_time = params.decel_time
    radians, cos, sin = math.radians, math.cos, math.sin

    def advance(x, y, heading, speed, cmd, draw):
        if cmd is None:
            if diffuses:
                heading += sigma * draw()
            if speed != walk:
                speed = walk + (speed - walk) * decay
        elif cmd.kind != StimKind.DECELERATE:
            step_max = step_left if cmd.kind == StimKind.TURN_LEFT else step_right
            if cmd.turn_remaining > _TINY:
                if cmd.turn_remaining <= step_max:
                    heading = cmd.turn_target   # final snap: turn completes exactly
                    cmd.turn_remaining = 0.0
                else:
                    heading += cmd.turn_sign * step_max
                    cmd.turn_remaining -= step_max
            else:
                cmd.turn_remaining = 0.0
            if speed != walk:
                speed = walk + (speed - walk) * decay
        else:
            cmd.decel_elapsed += dt
            ratio = min(cmd.decel_elapsed / decel_time, 1.0)
            if ratio == 1.0:
                speed = cmd.decel_vmin   # ramp done: land on the minimum exactly
            else:
                speed = cmd.decel_v0 + (cmd.decel_vmin - cmd.decel_v0) * ratio
        if cmd is not None:
            cmd.time_remaining -= dt
            if cmd.time_remaining <= _TINY:
                cmd = None
        if speed < 0.0:
            speed = 0.0
        r = radians(heading)
        return (x + speed * dt * cos(r), y + speed * dt * sin(r),
                heading, speed, cmd)

    return advance


def _reference_walk(arena, grid, params, state, dt, n_steps, stim_steps,
                    log_steps, motion_rng, cmd_rng, xy, heading_log, speed_log,
                    first_tick):
    """The one-step-at-a-time walk the stretch kernel replaced: every step
    through the Euler kernel and _reflect_move, every step's cell marked,
    and the position, heading and speed recorded at every log tick."""
    def normals():
        while True:
            yield from motion_rng.normal(size=1024).tolist()

    advance = _euler(params, dt)
    draw = normals().__next__
    x, y, heading, speed = state.x, state.y, state.heading, state.speed
    cmd = None if state.active_command is None else replace(state.active_command)
    names = []
    tick = 0
    for k in range(n_steps + 1):
        if first_tick is not None:
            ix, iy = _cell_index(grid, x, y)
            c = iy * grid.nx + ix
            first_tick[c] = min(first_tick[c], tick)
        if k and k % stim_steps == 0:
            kind = swarm._COMMAND_KINDS[int(cmd_rng.integers(0, 3))]
            cmd = apply_command(AgentState(x, y, heading, speed), params,
                                StimCommand(kind, params.command_duration),
                                cmd_rng).active_command
        if k % log_steps == 0:
            xy[tick] = x, y
            heading_log[tick] = heading % 360.0 % 360.0
            speed_log[tick] = speed
            names.append("" if cmd is None else cmd.kind.value)
            tick += 1
        if k == n_steps:
            break
        new_x, new_y, heading, speed, cmd = advance(x, y, heading, speed,
                                                    cmd, draw)
        x, y, heading, flips_x, flips_y = _reflect_move(arena, x, y, new_x,
                                                        new_y, heading)
        if flips_x or flips_y:
            cmd = _conjugate_command(cmd, flips_x, flips_y)
    return names


def _walks(walk, arena, params, states, seed, n_steps, stim_steps, log_steps,
           dt, mark):
    """Run every agent through walk with simulate's streams; returns the
    logged positions, headings, speeds, command names, first ticks and
    motion rngs."""
    grid = CoverageGrid.for_arena(arena)
    n_log = n_steps // log_steps + 1
    motions = [np.random.default_rng(child_seed(seed, "swarm.motion", i))
               for i in range(len(params))]
    if states is None:
        states = spawn_states(arena, params, motions)
    out = []
    for i, (p, s, motion) in enumerate(zip(params, states, motions)):
        cmd = np.random.default_rng(child_seed(seed, "swarm.cmd", i))
        xy = np.empty((n_log, 2))
        headings, speeds = np.empty(n_log), np.empty(n_log)
        ticks = np.full(grid.total_cells, n_log + 1) if mark else None
        if mark and walk is _reference_walk:
            ticks = ticks.tolist()
        names = walk(arena, grid, p, s, dt, n_steps, stim_steps, log_steps,
                     motion, cmd, xy, headings, speeds, ticks)
        out.append((xy, headings, speeds, names,
                    None if ticks is None else list(ticks), motion))
    return out


CROWDED = Arena(width=1.0, height=1.0, obstacles=(
    Rect(0.2, 0.2, 0.3, 0.8), Rect(0.35, 0.1, 0.45, 0.15),
    Rect(0.5, 0.3, 0.9, 0.35), Rect(0.5, 0.5, 0.55, 0.95),
    Rect(0.7, 0.45, 0.95, 0.5), Rect(0.35, 0.9, 0.45, 1.0),
    Rect(0.6, 0.0, 0.65, 0.2), Rect(0.8, 0.8, 1.0, 1.0)))

# strong diffusion and a fast walk: headings cross 0/360 every few steps,
# and 3 mm steps reach walls and obstacles often
SPINNER = replace(AUTO_PRESET, heading_diffusion=20000.0, walk_speed_mean=0.3)

# 1 mm gaps between obstacles, narrower than one 3 mm SPINNER step: a
# bounce off one face lands inside the neighbour, and the next step backs off
GAPS = Arena(obstacles=(Rect(0.4, 0.2, 0.5, 0.8), Rect(0.501, 0.2, 0.6, 0.8),
                        Rect(1.2, 1.0, 1.8, 1.3), Rect(1.2, 1.301, 1.8, 1.5)))

LONG_COMMAND = replace(AUTO_PRESET, command_duration=15.0,
                       max_ang_speed_left=4.0, max_ang_speed_right=4.0,
                       decel_time=12.0, turn_angle_sd=40.0)

ORACLE_CASES = {
    "auto": dict(params=[AUTO_PRESET] * 3, duration=60.0),
    # one free, uncommanded agent whose speed relaxes toward the mean; 10 s
    # at walking speed cannot reach a wall 1 m away
    "free-walk": dict(params=[AUTO_PRESET], duration=10.0, stim_period=20.0,
                      arena=Arena(obstacles=()),
                      states=[AgentState(1.0, 1.0, 30.0, 0.04)]),
    "manual": dict(params=[MANUAL_PRESET] * 3, duration=60.0),
    "no-diffusion": dict(params=[replace(AUTO_PRESET, heading_diffusion=0.0)] * 2,
                         duration=40.0),
    "no-spread": dict(params=[_det_params()] * 2, duration=40.0),
    "slow-start": dict(params=[AUTO_PRESET, MANUAL_PRESET], duration=30.0,
                       states=[AgentState(1.0, 1.0, 10.0, 0.01),
                               AgentState(1.5, 1.9, 359.9, 0.25)]),
    "active-command": dict(
        params=[AUTO_PRESET, AUTO_PRESET], duration=20.0,
        states=[AgentState(1.0, 1.0, 350.0, 0.05, ActiveCommand(
                    StimKind.TURN_LEFT, 0.25, turn_target=380.0,
                    turn_remaining=30.0, turn_sign=1.0)),
                AgentState(0.2, 1.9, 90.0, 0.06, ActiveCommand(
                    StimKind.DECELERATE, 0.3, decel_v0=0.06,
                    decel_vmin=0.02, decel_elapsed=0.1))]),
    # a right turn from 10 deg snaps to -1e-20 at its fourth step and holds
    # it, unwrapped; every step is logged, as 0.0 and not as 360.0
    "snap-to-360": dict(
        params=[_det_params()], duration=2.0, log_rate_hz=100.0,
        arena=Arena(obstacles=()), states=[AgentState(1.0, 1.0, 10.0, 0.05, ActiveCommand(
            StimKind.TURN_RIGHT, 0.3, turn_target=-1e-20, turn_remaining=10.0,
            turn_sign=-1.0))]),
    "short-stim": dict(params=[replace(AUTO_PRESET, command_duration=0.4)] * 2,
                       duration=20.0, stim_period=0.2),
    "crowded": dict(params=[SPINNER] * 4, duration=60.0, arena=CROWDED),
    "crowded-quiet": dict(params=[replace(SPINNER, heading_diffusion=0.0)] * 3,
                          duration=60.0, arena=CROWDED, stim_period=2.0),
    "gaps": dict(params=[replace(SPINNER, heading_diffusion=0.0)] * 2
                 + [SPINNER] * 2, duration=30.0, arena=GAPS,
                 states=[AgentState(0.5005, 0.5, 10.0, 0.3),
                         AgentState(1.5, 1.3005, 95.0, 0.3),
                         AgentState(0.5005, 0.3, 80.0, 0.3),
                         AgentState(1.3, 1.3005, 265.0, 0.3)]),
    # 15 s commands outlast a 1,024-step segment (10.24 s): a turn snaps to
    # its target only if it is 60 deg or less, and a decelerate ramps for 12 s
    "long-command": dict(params=[LONG_COMMAND] * 4, duration=80.0,
                         stim_period=20.0),
    "long-command-crowded": dict(
        params=[replace(LONG_COMMAND, walk_speed_mean=0.3)] * 4, duration=80.0,
        stim_period=20.0, arena=CROWDED),
    "coarse-dt": dict(params=[AUTO_PRESET] * 2, duration=30.0, dt=0.05,
                      log_rate_hz=20.0),
    "100hz": dict(params=[AUTO_PRESET] * 2, duration=30.0, log_rate_hz=100.0),
    # a 25-step log interval over 20,000 steps: the marks' chunks of
    # _MARK_STEPS steps and the blocks of _DRAW_BLOCK draws end between ticks
    "4hz": dict(params=[AUTO_PRESET] * 2, duration=200.0, log_rate_hz=4.0),
    "long": dict(params=[AUTO_PRESET] * 2, duration=631.0),
}


# the 631 s run is checked once, with step marking
@pytest.mark.parametrize("case, coverage_from", [
    (case, source) for case in sorted(ORACLE_CASES)
    for source in ("true", "estimated") if (case, source) != ("long", "estimated")])
def test_stretch_walk_equals_the_scalar_walk(case, coverage_from):
    c = ORACLE_CASES[case]
    arena = c.get("arena", Arena())
    params = c["params"]
    states = c.get("states")
    kw = dict(dt=c.get("dt", 0.01), log_rate_hz=c.get("log_rate_hz", 10.0))
    stim = c.get("stim_period", 10.0)
    seed = 3
    run = simulate(arena, QUIET_UWB, params, stim_period=stim,
                   duration=c["duration"], seed=seed,
                   coverage_from=coverage_from, initial_states=states, **kw)
    n_steps, stim_steps, log_steps = swarm.check_run(
        len(params), stim, c["duration"], kw["dt"], kw["log_rate_hz"],
        coverage_from)
    args = (arena, params, states, seed, n_steps,
            stim_steps, log_steps, kw["dt"], coverage_from == "true")
    want = _walks(_reference_walk, *args)
    got = _walks(swarm._walk, *args)
    for w, g in zip(want, got):
        for logged_w, logged_g in zip(w[:3], g[:3]):   # xy, heading, speed
            assert logged_g.tobytes() == logged_w.tobytes()
        assert g[3:5] == w[3:5]                         # names, first ticks
        assert ((0.0 <= g[1]) & (g[1] < 360.0)).all()
    for field, logged in (("true_xy", 0), ("heading_deg", 1), ("speed", 2)):
        want_run = np.array([w[logged] for w in want])
        assert getattr(run, field).tobytes() == want_run.tobytes()
    assert run.commands == [w[3] for w in want]
    if params[0].heading_diffusion == 0.0:
        # no diffusion draws: the motion stream is where the spawn left it
        fresh = np.random.default_rng(child_seed(seed, "swarm.motion", 0))
        if states is None:
            fresh.uniform(-45.0, 45.0)
        assert got[0][5].bit_generator.state == fresh.bit_generator.state


def test_snap_to_360_logs_zero():
    """The turn's target -1e-20 is carried as it is, and the log reduces
    it twice, since -1e-20 % 360 is 360.0: every tick from the snap on
    reads 0.0."""
    c = ORACLE_CASES["snap-to-360"]
    run = simulate(c["arena"], QUIET_UWB, c["params"], duration=c["duration"],
                   seed=3, log_rate_hz=c["log_rate_hz"],
                   initial_states=c["states"])
    logged = run.heading_deg[0]
    assert logged[:4].tolist() == pytest.approx([10.0, 7.265, 4.53, 1.795])
    assert logged[4:].tobytes() == np.zeros(len(logged) - 4).tobytes()


def _record_reflections(monkeypatch):
    """Wrap swarm._reflect_move; each call appends (flips_x, flips_y,
    backed off) to the list returned."""
    seen = []
    reflect = swarm._reflect_move

    def recording(arena, old_x, old_y, new_x, new_y, heading):
        out = reflect(arena, old_x, old_y, new_x, new_y, heading)
        seen.append((out[3], out[4], out[:2] == (old_x, old_y)))
        return out

    monkeypatch.setattr(swarm, "_reflect_move", recording)
    return seen


def test_crowded_oracle_cases_bounce_and_back_off(monkeypatch):
    """The crowded cases reach the slow paths of _reflect_move: wall and
    obstacle bounces, and corner back-offs.  The walk calls it only at a
    step that leaves free space, so every call flips."""
    seen = _record_reflections(monkeypatch)
    for case in ("crowded", "crowded-quiet", "gaps"):
        c = ORACLE_CASES[case]
        simulate(c["arena"], QUIET_UWB, c["params"], duration=c["duration"],
                 stim_period=c.get("stim_period", 10.0), seed=3,
                 initial_states=c.get("states"))
    assert len(seen) > 100
    assert all(fx or fy for fx, fy, _ in seen)
    assert any(fx and fy and back for fx, fy, back in seen)


def test_default_batch_reflects_only_blocked_steps(monkeypatch):
    """The default coverage --seeds 3 --seed 11 batch calls _reflect_move
    at blocked steps only: 604 calls in 757,200 agent-steps, each one a
    bounce or a back-off."""
    seen = _record_reflections(monkeypatch)
    # the reflections a child makes are not seen here
    monkeypatch.setattr(seeding, "cpu_count", lambda: 1)
    for _ in dispersion_batch(Arena(), UwbSystem(), [AUTO_PRESET] * 4, 3, 11):
        pass
    assert seen
    assert all(fx or fy for fx, fy, _ in seen)


@pytest.mark.parametrize("case", ["crowded", "long-command"])
@pytest.mark.parametrize("draw, mark, stretch", [(1, 3, 7), (3, 7, 1), (7, 1, 3)])
def test_outputs_do_not_depend_on_block_sizes(monkeypatch, case, draw, mark,
                                              stretch):
    """The diffusion draw block, the marking chunk and the longest segment
    only group work: a run is byte for byte the same at any sizes."""
    c = ORACLE_CASES[case]

    def run():
        return simulate(c.get("arena", Arena()), QUIET_UWB, c["params"],
                        stim_period=c.get("stim_period", 10.0),
                        duration=c["duration"], seed=3)

    want = run()
    monkeypatch.setattr(swarm, "_DRAW_BLOCK", draw)
    monkeypatch.setattr(swarm, "_MARK_STEPS", mark)
    monkeypatch.setattr(swarm, "_STRETCH_STEPS", stretch)
    got = run()
    for field in ("true_xy", "heading_deg", "speed"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    assert got.commands == want.commands
    assert got.agent_coverage_pct.tobytes() == want.agent_coverage_pct.tobytes()
    assert got.union_coverage_pct.tobytes() == want.union_coverage_pct.tobytes()


def _free(arena, x, y):
    return (0.0 <= x <= arena.width and 0.0 <= y <= arena.height
            and not any(r.contains(x, y) for r in arena.obstacles))


@st.composite
def tight_layouts(draw):
    """An arena whose obstacles form a grid of cells that touch, sit 1 mm
    apart or leave corridors narrower than one 3 mm SPINNER step, some
    touching a wall, and up to 4 free start states in those gaps and
    around the grid."""
    gaps = st.sampled_from([0.0, 0.001, 0.002, 0.0025])

    def spans(lo):
        out, a = [], lo
        for _ in range(draw(st.integers(1, 3))):
            b = a + draw(st.floats(0.01, 0.3))
            out.append((a, b))
            a = b + draw(gaps)
        if draw(st.booleans()):
            out[-1] = (out[-1][0], 2.0)   # up to the far wall
        return out

    near = st.sampled_from([0.0]) | st.floats(0.15, 0.6)
    xs = spans(draw(near))
    # the release cell [0, 0.1]^2 stays clear
    ys = spans(draw(near if xs[0][0] > 0.0 else st.floats(0.15, 0.6)))
    arena = Arena(obstacles=tuple(Rect(x0, y0, x1, y1)
                                  for x0, x1 in xs for y0, y1 in ys))
    across_x = st.floats(ys[0][0], ys[-1][1])
    across_y = st.floats(xs[0][0], xs[-1][1])
    points = [((b + a) / 2.0, draw(across_x))
              for (_, b), (a, _) in zip(xs, xs[1:]) if a > b]
    points += [(draw(across_y), (b + a) / 2.0)
               for (_, b), (a, _) in zip(ys, ys[1:]) if a > b]
    points += [(xs[-1][1] + 0.001, draw(across_x)),
               (draw(across_y), ys[-1][1] + 0.001), (0.05, 0.05)]
    points = [p for p in points if _free(arena, *p)][:4]
    return arena, [AgentState(x, y, draw(st.floats(0.0, 359.0)), 0.3)
                   for x, y in points]


@settings(max_examples=40, deadline=None)
@given(tight_layouts(), st.integers(0, 2**32))
@example((GAPS, ORACLE_CASES["gaps"]["states"]), 3)
def test_reflection_never_leaves_an_agent_inside_an_obstacle(case, seed):
    """Every step lands in free space: every logged position, with a tick
    at every step, and every _reflect_move result."""
    arena, states = case
    reflect = swarm._reflect_move
    results = []

    def recording(*args):
        out = reflect(*args)
        results.append(out[:2])
        return out

    params = ([replace(SPINNER, heading_diffusion=0.0), SPINNER] * 2)[:len(states)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(swarm, "_reflect_move", recording)
        run = simulate(arena, QUIET_UWB, params, stim_period=0.5, duration=2.0,
                       log_rate_hz=100.0, seed=seed, initial_states=states)
    assert [p for p in results if not _free(arena, *p)] == []
    assert [p for p in run.true_xy.reshape(-1, 2).tolist()
            if not _free(arena, *p)] == []


def _scalar_headings(heading, inc, snap=-1, target=0.0):
    """The unwrapped chain one increment at a time: each step moves along,
    and carries, heading + its increment, or target at step snap."""
    moves = []
    for k, d in enumerate(inc):
        heading = target if k == snap else heading + d
        moves.append(heading)
    return moves


def _turn_headings(heading, ang_speed, sign, n_turn, hold, target, inc):
    """Move headings of the Euler kernel under a turn that steps n_turn
    times, snaps to target and holds for hold steps, then of free steps
    whose diffusion increments are inc."""
    params = replace(AUTO_PRESET, max_ang_speed_left=ang_speed,
                     max_ang_speed_right=ang_speed, heading_diffusion=100.0)
    advance = _euler(params, 0.01)      # diffusion step sd: exactly 1.0
    step_max = ang_speed * 0.01
    kind = StimKind.TURN_LEFT if sign > 0.0 else StimKind.TURN_RIGHT
    cmd = ActiveCommand(kind, (n_turn + hold + 0.5) * 0.01, turn_target=target,
                        turn_remaining=(n_turn + 0.5) * step_max, turn_sign=sign)
    draw = iter(inc).__next__
    moves = []
    for _ in range(n_turn + hold + 1 + len(inc)):
        _, _, heading, _, cmd = advance(0.0, 0.0, heading, 0.0, cmd, draw)
        moves.append(heading)
    assert cmd is None
    return step_max, moves


TARGETS = st.one_of(st.floats(-1000.0, 1000.0),
                    st.sampled_from([-1e-20, -360.0, 360.0, 720.0]))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 360.0, exclude_max=True),
       st.lists(st.one_of(st.floats(-400.0, 400.0),
                          st.floats(-1e-18, 1e-18),
                          st.sampled_from([0.0, -0.0, 360.0, -360.0])),
                min_size=1, max_size=60),
       st.sampled_from(["none", "first", "middle", "last"]), TARGETS,
       st.floats(1.0, 30000.0), st.sampled_from([1.0, -1.0]),
       st.integers(0, 30), st.integers(0, 3))
# a snap to -0.0 that holds: the Euler kernel leaves it -0.0
@example(0.0, [0.0], "none", -0.0, 1.0, 1.0, 0, 1)
def test_stretch_headings_match_the_scalar_chain(heading, inc, where, target,
                                                 ang_speed, sign, n_turn, hold):
    """_headings is the unwrapped chain byte for byte: no step reduces a
    heading mod 360, and a snap restarts the sum at its target as given."""
    snap = {"none": -1, "first": 0, "middle": len(inc) // 2,
            "last": len(inc) - 1}[where]
    got = _headings(heading, np.array(inc, dtype=float), snap, target)
    want = np.array(_scalar_headings(heading, inc, snap, target))
    assert got.tobytes() == want.tobytes()

    # a turn: steps of sign * step_max, the snap to an unnormalized target,
    # steps that hold it, then free diffusion steps, as the Euler kernel
    # moves them; the walk gives a step that adds nothing -0.0
    step_max, want = _turn_headings(heading, ang_speed, sign, n_turn, hold,
                                    target, inc)
    turn = np.array([sign * step_max] * n_turn + [-0.0] * (hold + 1) + inc)
    got = _headings(heading, turn, n_turn, target)
    assert got.tobytes() == np.array(want).tobytes()
