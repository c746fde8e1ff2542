"""Multi-agent dispersion in a walled arena with simulated UWB localization.

Agents follow the locomotion dynamics, reflect specularly off arena walls
and obstacle faces, and receive a random stimulation command every
stim_period seconds.  One array engine, _walk, integrates every step; it
is the package's only integrator.  Coverage is accounted on a square cell
grid, in percents by coverage_percent; position estimates from noisy
anchor ranges are logged at a fixed rate alongside the true position,
heading and speed, with a tick at the start and one at the end of the
run.  Every fix starts from its own ranges alone, so all fixes of a run are
solved by one call of one lane-wise Newton kernel, the only position
solver, in consecutive blocks of lanes, each solved to completion.
A run solves its fixes on first read of est_xy, est_converged or
est_iterations, so a run with coverage from true positions that never
reads them, such as every run of dispersion_batch, the one driver of a
seed batch, never solves them.  Seeds are independent, so a batch runs
them on one process per CPU where fork is safe, and streams each finished
run back to the calling process, which yields the runs in seed order.
check_run bounds a run's size before any step is taken.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import BinaryIO, Iterator, Optional, Sequence

import numpy as np

from .locomotion import (AgentParams, AgentState, StimCommand, StimKind,
                         apply_command)
from . import seeding
from .seeding import child_seed

DEFAULT_CELL_SIZE = 0.10      # m
DEFAULT_STIM_PERIOD = 10.0    # s
DEFAULT_DURATION = 631.0      # s
DEFAULT_DT = 0.01             # s
MAX_DT = 0.05                 # s
DEFAULT_LOG_RATE = 10.0       # Hz
DEFAULT_COVERAGE_FROM = "true"  # or "estimated"

_COMMAND_KINDS = (StimKind.TURN_LEFT, StimKind.TURN_RIGHT, StimKind.DECELERATE)
_CORNERS = ("sw", "se", "ne", "nw")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x_min, x_max] x [y_min, y_max], meters."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate rectangle {self}")

    def contains(self, x: float, y: float) -> bool:
        # strict interior: boundary contact is not penetration
        return self.x_min < x < self.x_max and self.y_min < y < self.y_max

    def overlaps(self, other: "Rect") -> bool:
        return (self.x_min < other.x_max and other.x_min < self.x_max
                and self.y_min < other.y_max and other.y_min < self.y_max)


# fixed default layout, about 9.4% of the default arena area
DEFAULT_OBSTACLES = (
    Rect(0.60, 0.35, 0.90, 0.60),
    Rect(1.35, 0.25, 1.65, 0.50),
    Rect(0.30, 1.10, 0.55, 1.40),
    Rect(1.00, 0.95, 1.30, 1.20),
    Rect(1.50, 1.45, 1.80, 1.70),
)


@dataclass(frozen=True)
class Arena:
    width: float = 2.0
    height: float = 2.0
    obstacles: tuple[Rect, ...] = DEFAULT_OBSTACLES
    release_corner: str = "sw"

    def __post_init__(self):
        if self.width <= 0.0 or self.height <= 0.0:
            raise ValueError("arena dimensions must be positive")
        if self.release_corner not in _CORNERS:
            raise ValueError(
                f"release_corner must be one of {_CORNERS}, got {self.release_corner!r}"
            )
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        for r in self.obstacles:
            if not (0.0 <= r.x_min and r.x_max <= self.width
                    and 0.0 <= r.y_min and r.y_max <= self.height):
                raise ValueError(f"obstacle {r} extends outside the arena")
        for i, a in enumerate(self.obstacles):
            for b in self.obstacles[i + 1:]:
                if a.overlaps(b):
                    raise ValueError(f"obstacles overlap: {a} and {b}")
        cell = self.release_cell_rect()
        for r in self.obstacles:
            if r.overlaps(cell):
                raise ValueError(
                    f"obstacle {r} obstructs the release corner cell"
                )

    def release_cell_rect(self, cell_size: float = DEFAULT_CELL_SIZE) -> Rect:
        x0 = 0.0 if self.release_corner in ("sw", "nw") else self.width - cell_size
        y0 = 0.0 if self.release_corner in ("sw", "se") else self.height - cell_size
        return Rect(x0, y0, x0 + cell_size, y0 + cell_size)


# anchors that all lie this close to one line span no area, m
_ANCHOR_LINE_TOL_M = 1e-6


def _off_line(anchors) -> float:
    """The largest distance of an anchor from the line through b, the
    anchor farthest from the first, and c, the anchor farthest from b; 0
    when all coincide.  The distance is absolute, not relative to the
    anchors' spread, so that one far anchor cannot hide the layout of the
    near ones."""
    bx, by = max(anchors, key=lambda a: math.hypot(a[0] - anchors[0][0],
                                                   a[1] - anchors[0][1]))
    cx, cy = max(anchors, key=lambda a: math.hypot(a[0] - bx, a[1] - by))
    length = math.hypot(cx - bx, cy - by)
    if length == 0.0:
        return 0.0
    ux, uy = (cx - bx) / length, (cy - by) / length
    return max(abs(ux * (y - by) - uy * (x - bx)) for x, y in anchors)


@dataclass(frozen=True)
class UwbSystem:
    """Anchor layout and ranging noise model, meters, under the config's
    swarm.uwb keys.  The default anchors sit on the corners of a 3.6 m
    square.  At least 3 anchors must span an area: anchors that all lie
    within _ANCHOR_LINE_TOL_M of one line leave every fix singular."""

    anchors_m: tuple[tuple[float, float], ...] = (
        (0.0, 0.0), (3.6, 0.0), (3.6, 3.6), (0.0, 3.6))
    range_noise_sd_m: float = 0.05

    def __post_init__(self):
        if len(self.anchors_m) < 3:
            raise ValueError("need at least 3 anchors for 2-D multilateration")
        if self.range_noise_sd_m < 0.0:
            raise ValueError("range_noise_sd_m must be non-negative")
        anchors = tuple((float(x), float(y)) for x, y in self.anchors_m)
        if not _off_line(anchors) > _ANCHOR_LINE_TOL_M:
            raise ValueError(f"anchors must span an area, but all lie within "
                             f"{_ANCHOR_LINE_TOL_M} m of one line")
        object.__setattr__(self, "anchors_m", anchors)


# ---------- coverage grid ----------

@dataclass(eq=False)
class CoverageGrid:
    """Boolean visit grid; visited cells are never unset."""

    cell_size: float
    visited: np.ndarray   # [ny, nx]

    @classmethod
    def for_arena(cls, arena: Arena, cell_size: float = DEFAULT_CELL_SIZE) -> "CoverageGrid":
        if not cell_size > 0.0:
            raise ValueError(f"cell_size must be positive, got {cell_size!r}")
        nx = int(round(arena.width / cell_size))
        ny = int(round(arena.height / cell_size))
        if abs(nx * cell_size - arena.width) > 1e-9 or abs(ny * cell_size - arena.height) > 1e-9:
            raise ValueError(
                f"cell_size {cell_size} does not tile the "
                f"{arena.width} x {arena.height} arena"
            )
        return cls(cell_size, np.zeros((ny, nx), dtype=bool))

    @property
    def nx(self) -> int:
        return self.visited.shape[1]

    @property
    def ny(self) -> int:
        return self.visited.shape[0]

    @property
    def total_cells(self) -> int:
        return self.visited.size

    @property
    def visited_count(self) -> int:
        return int(self.visited.sum())


def _cell_ids(grid: CoverageGrid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat ids iy * nx + ix of the cells holding positions x, y: the
    floor of each coordinate over the cell size, with boundary and outside
    positions clamped to the nearest cell, as the scalar rule _cell_index
    of tests/test_swarm.py does it one position at a time."""
    ix = np.floor(x / grid.cell_size)
    iy = np.floor(y / grid.cell_size)
    np.clip(ix, 0, grid.nx - 1, out=ix)
    np.clip(iy, 0, grid.ny - 1, out=iy)
    iy *= grid.nx
    iy += ix
    return iy.astype(np.intp)


# positions per np.minimum.at call when cells are marked
_MARK_STEPS = 4096


def _first_ticks(grid: CoverageGrid, x: np.ndarray, y: np.ndarray,
                 never_seen: int) -> np.ndarray:
    """Index of the first of the positions x, y that falls in each cell,
    never_seen for a cell none falls in.  The positions are marked
    _MARK_STEPS at a time, so no temporary spans a long walk."""
    ticks = np.full(grid.total_cells, never_seen)
    for k in range(0, len(x), _MARK_STEPS):
        np.minimum.at(ticks, _cell_ids(grid, x[k:k + _MARK_STEPS],
                                       y[k:k + _MARK_STEPS]),
                      np.arange(k, min(k + _MARK_STEPS, len(x))))
    return ticks


def coverage_percent(visited_cells, total_cells):
    """Percent of total_cells that visited_cells covers; ints or arrays."""
    return 100.0 * visited_cells / total_cells


# ---------- UWB localization ----------

# lanes in a block of the fix solver: bounds the kernel's temporaries.
# On a 2-vCPU Xeon, blocks of 4,096 lanes solved a 60,004-fix run in
# 18-19 ms, of 16,384 in 26-27 ms and of 1,024 in 28-29 ms (medians of 15
# calls, in each of two processes)
_FIX_LANES = 4096
_FIX_TOL = 1e-9        # m, the step norm below which a lane has converged
_FIX_MAX_ITER = 50


def _distances(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy), with hypot(dx, dy) where the sum of squares
    overflows, such as from an anchor at 1e200 m.  The caller ignores the
    overflow warning."""
    d = dx * dx
    d += dy * dy
    np.sqrt(d, out=d)
    if d.max() == np.inf:
        over = np.isinf(d)
        d[over] = np.hypot(dx[over], dy[over])
    return d


def _fix_ranges(xy: np.ndarray, uwb: UwbSystem, rng) -> np.ndarray:
    """Noisy anchor ranges [m, k] from true positions [m, 2].  The noise is
    the stream of scalar rng.normal() draws in (position, anchor) order,
    drawn in blocks of _FIX_LANES positions, which bound the temporaries."""
    ax, ay = np.array(uwb.anchors_m).T
    ranges = np.empty((len(xy), len(ax)))
    for i in range(0, len(xy), _FIX_LANES):
        x, y = xy[i:i + _FIX_LANES].T[:, :, None]
        with np.errstate(over="ignore"):
            d = _distances(x - ax, y - ay)
        if uwb.range_noise_sd_m > 0.0:
            noise = rng.standard_normal(d.shape)
            noise *= uwb.range_noise_sd_m
            d += noise
        np.maximum(d, 0.0, out=ranges[i:i + _FIX_LANES])
    return ranges


def _linear_start(anchors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The linear least-squares fix from range differences (Caffery, IEEE
    VTC 2000), as coefficients taken on Python floats.  Anchor 0's equation
    |p - a_0|^2 = r_0^2 subtracted from anchor i's leaves the row
    2 (a_i - a_0) . p = b_i, with b_i = r_0^2 - r_i^2 + kappa_i, for
    i = 1 .. k-1; the fix is x = sum_i wx_i b_i and y = sum_i wy_i b_i.
    Returns (kappa, wx, wy) as [k-1, 1] columns.  They are not finite when
    the anchors span no area or their squares overflow."""
    (x0, y0), rest = anchors[0], anchors[1:]
    gx = [2.0 * (x - x0) for x, _ in rest]
    gy = [2.0 * (y - y0) for _, y in rest]
    # a loop, not sum(), which compensates its sums from Python 3.12
    sxx = sxy = syy = 0.0
    for g, h in zip(gx, gy):
        sxx += g * g
        sxy += g * h
        syy += h * h
    det = sxx * syy - sxy * sxy
    inv = 1.0 / det if det else math.inf
    kappa = [x * x + y * y - (x0 * x0 + y0 * y0) for x, y in rest]
    wx = [(syy * g - sxy * h) * inv for g, h in zip(gx, gy)]
    wy = [(sxx * h - sxy * g) * inv for g, h in zip(gx, gy)]
    return (np.array(kappa)[:, None], np.array(wx)[:, None],
            np.array(wy)[:, None])


def _solve_fixes(ranges: np.ndarray, anchors
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares fixes, one lane per row of ranges [m, k]: each lane
    minimizes sum_i (r_i - |p - a_i|)^2 by safeguarded Newton.

    A lane starts from the linear least-squares fix of its own ranges
    (_linear_start), or from the anchor centroid where that is not finite.
    With c_i = r_i / |p - a_i| and unit vectors u_i from the anchors, the
    Hessian is H = sum_i c_i u_i u_i^T - (sum_i c_i - k) I.  A lane takes
    the Newton step where H is positive definite, else the Gauss-Newton
    step; a lane whose Gauss-Newton normal matrix is singular there stops
    where it is, unconverged.  A lane whose step norm drops below _FIX_TOL
    has converged, and lanes still moving after _FIX_MAX_ITER steps return
    their last iterate.  The lanes are solved in consecutive blocks of
    _FIX_LANES, each to completion before the next, and a lane's iteration
    count is the round in which it leaves its block.  A distance is
    sqrt(dx*dx + dy*dy), or hypot(dx, dy) where the sum of squares
    overflows.  Every lane's arithmetic is independent of the others, and
    each sum over anchors is one np.add.reduce over axis 0, in anchor
    order, so a lane gives the same bits alone or in any batch.  Returns
    positions [m, 2], converged [m] and iteration counts [m].
    """
    m, k = ranges.shape
    xy = np.empty((2, m))
    converged = np.zeros(m, dtype=bool)
    iterations = np.empty(m, dtype=np.uint8)      # at most _FIX_MAX_ITER
    # anchor terms are [k, lanes]: one row per anchor
    ax, ay = np.array(anchors, dtype=float).T[:, :, None]
    kappa, wx, wy = _linear_start(anchors)
    cx, cy = _centroid(anchors)
    # non-finite values arise only on lanes that the kernel then handles:
    # overflowed distances, non-finite starts and steps of lanes that
    # take the Gauss-Newton step
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, m, _FIX_LANES):
            # the block's unfinished lanes: ids, ranges [k, lanes], positions
            lane = np.arange(start, min(m, start + _FIX_LANES))
            r = ranges[start:start + _FIX_LANES].T.copy()
            sq = r * r
            b = sq[0] - sq[1:]
            b += kappa
            x = np.add.reduce(wx * b, axis=0)
            y = np.add.reduce(wy * b, axis=0)
            wild = ~(np.isfinite(x) & np.isfinite(y))
            x[wild] = cx
            y[wild] = cy
            for rnd in range(1, _FIX_MAX_ITER + 1):
                ux = x - ax
                uy = y - ay
                d = _distances(ux, uy)
                np.maximum(d, 1e-12, out=d)
                f = np.subtract(r, d)             # residual r - |p - a|
                c = np.divide(1.0, d, out=d)
                ux *= c
                uy *= c
                c *= r                            # c = r / |p - a|
                # the Newton step solves H s = g, with g = sum f u the
                # descent direction of the cost and H as above
                g0 = np.add.reduce(f * ux, axis=0)
                g1 = np.add.reduce(f * uy, axis=0)
                cu = np.multiply(c, ux, out=f)
                h01 = np.add.reduce(cu * uy, axis=0)
                cu *= ux
                h11 = k - np.add.reduce(cu, axis=0)
                c *= uy
                c *= uy
                h00 = k - np.add.reduce(c, axis=0)
                det = h00 * h11
                det -= h01 * h01
                sx = g0 * h11
                sx -= g1 * h01
                sx /= det
                sy = g1 * h00
                sy -= g0 * h01
                sy /= det
                flat = None
                # positive definite: det > 0 and h00 > 0, neither NaN
                newton = np.minimum(det, h00) > 0.0
                if not newton.all():
                    gn = np.flatnonzero(~newton)
                    vx, vy = ux[:, gn], uy[:, gn]
                    j00 = np.add.reduce(vx * vx, axis=0)
                    j01 = np.add.reduce(vx * vy, axis=0)
                    j11 = np.add.reduce(vy * vy, axis=0)
                    jdet = j00 * j11 - j01 * j01
                    singular = jdet == 0.0
                    # a zero step: singular lanes stay put
                    jdet[singular] = np.inf
                    g0, g1 = g0[gn], g1[gn]
                    sx[gn] = (g0 * j11 - g1 * j01) / jdet
                    sy[gn] = (g1 * j00 - g0 * j01) / jdet
                    if singular.any():
                        flat = gn[singular]
                x += sx
                y += sy
                sx *= sx
                sy *= sy
                sx += sy
                small = sx < _FIX_TOL ** 2
                done = small | (rnd == _FIX_MAX_ITER)
                if flat is not None:
                    done[flat] = True
                    small[flat] = False
                if done.any():
                    out = np.flatnonzero(done)
                    gone = lane.take(out)
                    xy[0, gone] = x.take(out)
                    xy[1, gone] = y.take(out)
                    converged[gone] = small.take(out)
                    iterations[gone] = rnd
                    keep = np.flatnonzero(~done)
                    if not len(keep):
                        break
                    lane = lane.take(keep)
                    x, y, r = x.take(keep), y.take(keep), r.take(keep, axis=1)
    return xy.T, converged, iterations


def _centroid(anchors) -> tuple[float, float]:
    return (sum(a[0] for a in anchors) / len(anchors),
            sum(a[1] for a in anchors) / len(anchors))


def _localize(true_xy: np.ndarray, uwb: UwbSystem, rng
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """UWB fixes of every agent at every log tick, each solved from its own
    ranges alone by one _solve_fixes call.  true_xy is [n_agents, n_log, 2];
    the ranging noise is one block draw in (tick, agent, anchor) order.
    Returns est_xy [n_agents, n_log, 2], est_converged and est_iterations
    [n_agents, n_log].
    """
    n_agents, n_log = true_xy.shape[:2]
    # tick-major lanes: lane order (tick, agent) is the ranging order
    ranges = _fix_ranges(true_xy.transpose(1, 0, 2).reshape(-1, 2), uwb, rng)
    xy, converged, iterations = _solve_fixes(ranges, uwb.anchors_m)
    # xy is the transpose of an (x, y) row pair, so this is a view
    return (xy.T.reshape(2, n_log, n_agents).transpose(2, 1, 0),
            converged.reshape(n_log, n_agents).T,
            iterations.reshape(n_log, n_agents).T)


def _run_fixes(true_xy: np.ndarray, uwb: UwbSystem, seed: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The UWB fixes of the run with this seed.  Its swarm.uwb stream feeds
    nothing but the ranging noise, so the fixes come out the same whenever
    they are solved."""
    return _localize(true_xy, uwb,
                     np.random.default_rng(child_seed(seed, "swarm.uwb")))


# ---------- reflection geometry ----------

def _walls(arena: Arena, x: float, y: float, h: float, px: int, py: int
           ) -> tuple[float, float, float, int, int]:
    """Mirror a position back inside the arena walls, at most three rounds."""
    for _ in range(3):
        bounced = False
        if x < 0.0:
            x = -x
            h = 180.0 - h
            px += 1
            bounced = True
        elif x > arena.width:
            x = 2.0 * arena.width - x
            h = 180.0 - h
            px += 1
            bounced = True
        if y < 0.0:
            y = -y
            h = -h
            py += 1
            bounced = True
        elif y > arena.height:
            y = 2.0 * arena.height - y
            h = -h
            py += 1
            bounced = True
        if not bounced:
            break
    return x, y, h, px, py


def _reflect_move(arena: Arena, old_x: float, old_y: float,
                  new_x: float, new_y: float, heading: float,
                  ) -> tuple[float, float, float, int, int]:
    """Specular reflection of one step off walls and obstacle faces.

    Returns the corrected position and heading plus the mirror parities
    (x-flips, y-flips) so active turn commands can be conjugated.  A
    flipped heading is reduced mod 360; a free step's heading passes as it
    is.  The position returned is free whenever the old one is: inside the
    walls and strictly inside no obstacle.
    """
    new_x, new_y, heading, fx, fy = _walls(arena, new_x, new_y, heading, 0, 0)
    for rect in arena.obstacles:
        if rect.contains(new_x, new_y):
            if old_x <= rect.x_min < new_x:
                new_x = 2.0 * rect.x_min - new_x
                heading = 180.0 - heading
                fx += 1
            elif old_x >= rect.x_max > new_x:
                new_x = 2.0 * rect.x_max - new_x
                heading = 180.0 - heading
                fx += 1
            if old_y <= rect.y_min < new_y:
                new_y = 2.0 * rect.y_min - new_y
                heading = -heading
                fy += 1
            elif old_y >= rect.y_max > new_y:
                new_y = 2.0 * rect.y_max - new_y
                heading = -heading
                fy += 1
            break
    new_x, new_y, heading, fx, fy = _walls(arena, new_x, new_y, heading, fx, fy)
    if (not (0.0 <= new_x <= arena.width and 0.0 <= new_y <= arena.height)
            or any(rect.contains(new_x, new_y) for rect in arena.obstacles)):
        # a grazed corner, a start on a face, or a mirror that landed in
        # an obstacle or past a wall: back off to the old position, which
        # is free, and turn around
        new_x, new_y = old_x, old_y
        heading += 180.0
        fx += 1
        fy += 1
    if fx or fy:
        heading %= 360.0
    return new_x, new_y, heading, fx, fy


def _conjugate_command(cmd, fx: int, fy: int):
    """Mirror an active turn command's target the same way the heading was
    mirrored by reflections."""
    if cmd is None or cmd.kind == StimKind.DECELERATE or (fx + fy) == 0:
        return cmd
    target = cmd.turn_target
    sign = cmd.turn_sign
    if fx % 2:
        target = 180.0 - target
        sign = -sign
    if fy % 2:
        target = -target
        sign = -sign
    cmd.turn_target = target
    cmd.turn_sign = sign
    return cmd


# ---------- swarm run ----------

@dataclass(eq=False)
class SwarmRun:
    """Record of one dispersion run."""

    seed: int
    uwb: UwbSystem
    n_agents: int
    log_t: np.ndarray                 # [n_log]
    true_xy: np.ndarray               # [n_agents, n_log, 2]
    heading_deg: np.ndarray           # [n_agents, n_log] carried heading
    speed: np.ndarray                 # [n_agents, n_log] m/s
    commands: list                    # [n_agents][n_log] active command name or ""
    agent_coverage_pct: np.ndarray    # [n_agents, n_log]
    union_coverage_pct: np.ndarray    # [n_log]
    union_grid: CoverageGrid
    # (est_xy, est_converged, est_iterations), or None until the first
    # read solves them
    fixes: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def _solved_fixes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.fixes is None:
            self.fixes = _run_fixes(self.true_xy, self.uwb, self.seed)
        return self.fixes

    @property
    def est_xy(self) -> np.ndarray:
        """UWB fixes [n_agents, n_log, 2], solved on first read."""
        return self._solved_fixes()[0]

    @property
    def est_converged(self) -> np.ndarray:
        """Converged flag of each fix [n_agents, n_log], solved on first read."""
        return self._solved_fixes()[1]

    @property
    def est_iterations(self) -> np.ndarray:
        """Solver iterations of each fix [n_agents, n_log], solved on first
        read."""
        return self._solved_fixes()[2]

    @property
    def final_union_coverage(self) -> float:
        return float(self.union_coverage_pct[-1])


def coverage_rate(run: SwarmRun) -> float:
    """Covered area over elapsed time at the final timestamp, cm^2/s.  The
    last log tick of a simulated run falls at its duration, which
    check_run keeps positive."""
    cell_cm2 = (run.union_grid.cell_size * 100.0) ** 2
    return run.union_grid.visited_count * cell_cm2 / float(run.log_t[-1])


def spawn_states(arena: Arena, params_per_agent: Sequence[AgentParams],
                 rngs) -> list[AgentState]:
    """Place agents on a small ring inside the release corner cell, headed
    roughly toward the arena center at their mean walking speed."""
    cell = arena.release_cell_rect()
    ccx = (cell.x_min + cell.x_max) / 2.0
    ccy = (cell.y_min + cell.y_max) / 2.0
    n_agents = len(params_per_agent)
    states = []
    for i, params in enumerate(params_per_agent):
        phi = 2.0 * math.pi * i / n_agents
        x = ccx + 0.03 * math.cos(phi)
        y = ccy + 0.03 * math.sin(phi)
        bearing = math.degrees(math.atan2(arena.height / 2.0 - y,
                                          arena.width / 2.0 - x))
        heading = (bearing + rngs[i].uniform(-45.0, 45.0)) % 360.0
        states.append(AgentState(x, y, heading, params.walk_speed_mean))
    return states


# steps per walk segment at most: bounds a segment's temporaries
_STRETCH_STEPS = 1024
# a command's time left, or a turn's degrees left, at or below this is spent
_TINY = 1e-12
# diffusion normals an agent draws at a time
_DRAW_BLOCK = 4096


def _headings(heading: float, inc: np.ndarray, snap: int = -1,
              target: float = 0.0) -> np.ndarray:
    """Move headings of steps, unwrapped, from the heading carried into the
    first step and each step's increment: a diffusion draw, a turn's step
    or -0.0.

    A step moves along h + inc and carries that sum into the next step, so
    the headings are one running sum.  Step snap >= 0 moves along target
    instead, as a turn's last step, and the sum restarts there.  Nothing is
    reduced mod 360: the trigonometry is periodic.
    """
    out = np.empty(len(inc) + 1)
    out[0] = heading
    out[1:] = inc
    if 0 <= snap < len(inc):
        np.add.accumulate(out[:snap + 1], out=out[:snap + 1])
        out[snap + 1] = target
        np.add.accumulate(out[snap + 1:], out=out[snap + 1:])
    else:
        np.add.accumulate(out, out=out)
    return out[1:]


def _first_blocked(arena: Arena, x: np.ndarray, y: np.ndarray) -> int | None:
    """Index of the first position outside the walls or strictly inside an
    obstacle, the first one _reflect_move would not pass as it is; None
    when every position is free."""
    x_lo, x_hi, y_lo, y_hi = x.min(), x.max(), y.min(), y.max()
    off = np.zeros(len(x), dtype=bool)
    if x_lo < 0.0 or x_hi > arena.width or y_lo < 0.0 or y_hi > arena.height:
        off |= (x < 0.0) | (x > arena.width) | (y < 0.0) | (y > arena.height)
    for r in arena.obstacles:
        # only an obstacle that overlaps the bounding box can hold a position
        if r.x_min < x_hi and x_lo < r.x_max and r.y_min < y_hi and y_lo < r.y_max:
            off |= (x > r.x_min) & (x < r.x_max) & (y > r.y_min) & (y < r.y_max)
    i = int(off.argmax())
    return i if off[i] else None


def _relax(speed: float, walk: float, decay: float, n: int) -> np.ndarray:
    """Speeds after each of n uncommanded steps, relaxed toward walk one
    explicit-Euler step at a time."""
    first = walk + (speed - walk) * decay
    if first < 0.0:
        # only from a negative start: relaxation keeps a speed >= 0 there
        first = 0.0
    if first == speed or not n:
        return np.full(n, speed)
    return np.fromiter(_relaxing(first, walk, decay), float, n)


def _relaxing(speed: float, walk: float, decay: float) -> Iterator[float]:
    """speed, then each explicit-Euler step from it toward walk, without
    end; a generator, so the loop reads walk and decay as locals."""
    while True:
        yield speed
        speed = walk + (speed - walk) * decay


def _running(start: float, step: float, n: int) -> np.ndarray:
    """The n + 1 values start, start + step, (start + step) + step, ..."""
    out = np.full(n + 1, step)
    out[0] = start
    return np.add.accumulate(out, out=out)


def _walk(arena: Arena, grid: CoverageGrid, params: AgentParams,
          state: AgentState, dt: float, n_steps: int, stim_steps: int,
          log_steps: int, motion_rng, cmd_rng, xy: np.ndarray,
          heading_log: np.ndarray, speed_log: np.ndarray,
          first_tick: np.ndarray | None) -> list[str]:
    """Integrate one agent over the whole run.

    Agents never interact, so each one runs on its own, in segments that
    end at each stim time and after at most _STRETCH_STEPS steps.  Until a
    step leaves free space, neither speed nor heading depends on the
    position, so both are built as arrays: an active command's counters
    are running sums and its steps draw no diffusion.  Positions are
    accumulated, into one buffer that holds every step of the run, up to
    the first step that leaves free space; that step goes through
    _reflect_move, which may mirror an active turn, and the segment
    restarts after it.  The heading is carried unwrapped; only a reflected
    step reduces it mod 360.  Writes the position at every log tick into
    xy, the heading carried into the next step, reduced into [0, 360), and
    the speed into heading_log and speed_log, and returns the active
    command name at every log tick.  Heading and speed at tick 0 are the
    initial state's.  When first_tick is given, every cell the agent enters
    gets the index of the first log tick that counts it:
    ceil(k / log_steps) for the first step k there.
    """
    walk = params.walk_speed_mean
    decay = math.exp(-dt / params.recovery_tau)
    sigma = math.sqrt(params.heading_diffusion * dt)
    diffuses = params.heading_diffusion > 0.0
    turn_steps = {StimKind.TURN_LEFT: params.max_ang_speed_left * dt,
                  StimKind.TURN_RIGHT: params.max_ang_speed_right * dt}
    x, y, heading, speed = state.x, state.y, state.heading, state.speed
    cmd = None if state.active_command is None else replace(state.active_command)
    names = [""] * len(xy)
    heading_log[0], speed_log[0] = heading, speed
    # the position at every step; a blocked step's slot is overwritten by
    # the position _reflect_move gives it
    xs = np.empty(n_steps + 1)
    ys = np.empty(n_steps + 1)
    noise, used = np.empty(0), 0

    def log(k, deg, speeds):
        """Log the steps whose positions land at k, k + 1, ...: the heading
        each carries and its speed, at the log ticks only."""
        lo, hi = -(-k // log_steps), -(-(k + len(deg)) // log_steps)
        first = lo * log_steps - k
        heading_log[lo:hi] = deg[first::log_steps]
        speed_log[lo:hi] = speeds[first::log_steps]

    def segment(k0, n, x, y, heading, speed, cmd):
        """Integrate the steps k0 .. k0 + n - 1, the first m of which carry
        the command cmd; returns the state and command at step k0 + n."""
        nonlocal noise, used
        # -0.0, as h + -0.0 is h for every h: a step that adds nothing
        # leaves the heading as it is, signed zero too
        inc = np.full(n, -0.0)
        m, turn_end, snap, target, after = 0, 0, -1, 0.0, cmd
        if cmd is not None:
            time_left = _running(cmd.time_remaining, -dt, n)[1:]
            expired = time_left <= _TINY
            m =int(expired.argmax()) + 1 if expired.any() else n
            cmd.time_remaining = time_left[m - 1].item()
            after = None if expired[m - 1] else cmd
            lo, hi = -(-k0 // log_steps), -(-(k0 + m) // log_steps)
            names[lo:hi] = [cmd.kind.value] * (hi - lo)
            if cmd.kind == StimKind.DECELERATE:
                elapsed = _running(cmd.decel_elapsed, dt, m)[1:]
                cmd.decel_elapsed = elapsed[-1].item()
                ratio = np.minimum(elapsed / params.decel_time, 1.0)
                ramp = np.where(ratio == 1.0, cmd.decel_vmin, cmd.decel_v0
                                + (cmd.decel_vmin - cmd.decel_v0) * ratio)
                ramp[ramp < 0.0] = 0.0
                speeds = np.concatenate(
                    (ramp, _relax(ramp[-1].item(), walk, decay, n - m)))
            else:
                # the turn steps while more than step_max is left (the fold
                # only falls), then snaps to its target unless <= _TINY is left
                step_max = turn_steps[cmd.kind]
                left = _running(cmd.turn_remaining, -step_max, m)
                turn_end = int((left[:m] > max(step_max, _TINY)).sum())
                cmd.turn_remaining = left[m].item() if turn_end == m else 0.0
                snap = turn_end if turn_end < m and left[turn_end] > _TINY else -1
                inc[:turn_end] = cmd.turn_sign * step_max
                target = cmd.turn_target
        if cmd is None or cmd.kind != StimKind.DECELERATE:
            speeds = _relax(speed, walk, decay, n)
        if diffuses and m < n:
            # a Generator's normal stream does not depend on how the
            # draws are grouped
            left = len(noise) - used
            if left < n - m:
                noise = np.concatenate((noise[used:], sigma * motion_rng.normal(
                    size=max(_DRAW_BLOCK, n - m - left))))
                used = 0
            inc[m:] = noise[used:used + n - m]
            used += n - m
        vdt = speeds * dt
        j = 0
        while j < n:
            deg = _headings(heading, inc[j:], snap - j, target)
            rad = np.radians(deg)
            px = xs[k0 + j:k0 + n + 1]
            py = ys[k0 + j:k0 + n + 1]
            px[0], py[0] = x, y
            np.multiply(vdt[j:], np.cos(rad), out=px[1:])
            np.multiply(vdt[j:], np.sin(rad), out=py[1:])
            np.add.accumulate(px, out=px)
            np.add.accumulate(py, out=py)
            i = _first_blocked(arena, px[1:], py[1:])
            if i is None:
                log(k0 + j + 1, deg, speeds[j:])
                return (px[-1].item(), py[-1].item(),
                        deg[-1].item(), speeds[-1].item(), after)
            x, y, heading, flips_x, flips_y = _reflect_move(
                arena, px[i].item(), py[i].item(), px[i + 1].item(),
                py[i + 1].item(), deg[i].item())
            deg[i] = heading    # the blocked step carries the mirrored heading
            log(k0 + j + 1, deg[:i + 1], speeds[j:j + i + 1])
            j += i + 1
            if j <= turn_end:
                # the blocked step turned: mirror the rest of the turn
                _conjugate_command(cmd, flips_x, flips_y)
                inc[j:turn_end] = cmd.turn_sign * step_max
                target = cmd.turn_target
        return x, y, heading, speeds[-1].item(), after

    k = 0
    while True:
        if k and k % stim_steps == 0:
            kind = _COMMAND_KINDS[int(cmd_rng.integers(0, len(_COMMAND_KINDS)))]
            cmd = apply_command(AgentState(x, y, heading, speed), params,
                                StimCommand(kind, params.command_duration),
                                cmd_rng).active_command
        if k == n_steps:
            break
        stop = min(k - k % stim_steps + stim_steps, n_steps, k + _STRETCH_STEPS)
        x, y, heading, speed, cmd = segment(k, stop - k, x, y, heading, speed, cmd)
        k = stop
    xs[n_steps], ys[n_steps] = x, y
    # into [0, 360): the second % maps 360.0, as from -1e-20 % 360, to 0.0
    heading_log %= 360.0
    heading_log %= 360.0
    xy[:, 0] = xs[::log_steps]
    xy[:, 1] = ys[::log_steps]
    names[-1] = "" if cmd is None else cmd.kind.value
    if first_tick is not None:
        # the first step in each cell; ceil is monotone, so its tick is the
        # first tick that counts the cell
        first = _first_ticks(grid, xs, ys, n_steps + 1)
        seen = first <= n_steps
        first_tick[seen] = np.minimum(first_tick[seen],
                                      -(-first[seen] // log_steps))
    return names


# the size of one run at most.  Agents walk one at a time, each into two
# float64 buffers of every step of the run, and a single coverage run from
# estimates holds ~140 B per agent log tick at its peak.  On a 2-vCPU Xeon,
# one agent for 99,990 s logged at 10 Hz, just inside both bounds, peaked
# 222 MB above the start of `coverage` and took 3.1 s of CPU
MAX_AGENT_STEPS = 10_000_000      # n_agents x duration / dt
MAX_LOG_TICKS = 1_000_000         # n_agents x (duration x log_rate_hz + 1)


def check_run(n_agents: int, stim_period: float, duration: float, dt: float,
              log_rate_hz: float, coverage_from: str) -> tuple[int, int, int]:
    """Check the set-up of a run before any step is taken.

    Raises ValueError for a bad agent count, coverage source or timing, a
    run of more than MAX_AGENT_STEPS agent-steps or MAX_LOG_TICKS agent log
    ticks, a dt that does not divide the duration, the stim period and the
    log interval exactly, or a log interval that does not divide the
    duration, so the last log tick falls at the end of the run.  Returns
    the integration step counts of the duration, stim period and log
    interval.
    """
    if n_agents < 1:
        raise ValueError(f"need at least one agent, got n_agents = {n_agents}")
    if coverage_from not in ("true", "estimated"):
        raise ValueError(f"coverage_from must be 'true' or 'estimated', got {coverage_from!r}")
    for name, value in (("stim_period", stim_period), ("duration", duration),
                        ("log_rate_hz", log_rate_hz)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt must lie in (0, {MAX_DT}], got {dt!r}")
    steps = duration / dt    # inf when the quotient overflows
    if not n_agents * steps < MAX_AGENT_STEPS + 0.5:
        raise ValueError(f"n_agents {n_agents} over the duration {duration} "
                         f"at dt {dt} take {n_agents * steps:.4g} agent-steps, "
                         f"more than {MAX_AGENT_STEPS}")
    n_steps = int(round(steps))
    if n_steps < 1 or abs(n_steps * dt - duration) > 1e-9:
        raise ValueError(f"dt {dt} does not divide the duration {duration}")
    stim_steps = int(round(stim_period / dt))
    if stim_steps < 1 or abs(stim_steps * dt - stim_period) > 1e-9:
        raise ValueError(f"dt {dt} does not divide the stim period {stim_period}")
    log_steps = int(round(1.0 / (log_rate_hz * dt)))
    if log_steps < 1 or abs(log_steps * dt - 1.0 / log_rate_hz) > 1e-9:
        raise ValueError(f"dt {dt} does not divide the log interval {1.0 / log_rate_hz}")
    if n_steps % log_steps:
        raise ValueError(f"the log interval {1.0 / log_rate_hz} does not "
                         f"divide the duration {duration}")
    ticks = n_agents * (n_steps // log_steps + 1)
    if ticks > MAX_LOG_TICKS:
        raise ValueError(f"n_agents {n_agents} over the duration {duration} "
                         f"at log_rate_hz {log_rate_hz} log {ticks} ticks, "
                         f"more than {MAX_LOG_TICKS}")
    return n_steps, stim_steps, log_steps


def simulate(arena: Arena, uwb: UwbSystem,
             params_per_agent: Sequence[AgentParams],
             stim_period: float = DEFAULT_STIM_PERIOD,
             duration: float = DEFAULT_DURATION,
             seed: int = 0, *,
             dt: float = DEFAULT_DT,
             log_rate_hz: float = DEFAULT_LOG_RATE,
             coverage_from: str = DEFAULT_COVERAGE_FROM,
             cell_size: float = DEFAULT_CELL_SIZE,
             initial_states: Sequence[AgentState] | None = None,
             ) -> SwarmRun:
    """Run one dispersion experiment.

    Every stim_period seconds each agent independently receives one command
    drawn uniformly from {turn left, turn right, decelerate}.  Coverage is
    marked from true positions at every integration step (or from UWB
    estimates at the logging cadence when coverage_from="estimated").
    Only that coverage solves the UWB fixes here; otherwise the run solves
    them on first read of est_xy, est_converged or est_iterations, with
    the same result.
    Fully deterministic for a given seed.
    """
    n_agents = len(params_per_agent)
    n_steps, stim_steps, log_steps = check_run(
        n_agents, stim_period, duration, dt, log_rate_hz, coverage_from)

    motion_rngs = [np.random.default_rng(child_seed(seed, "swarm.motion", i))
                   for i in range(n_agents)]
    cmd_rngs = [np.random.default_rng(child_seed(seed, "swarm.cmd", i))
                for i in range(n_agents)]

    if initial_states is None:
        states = spawn_states(arena, params_per_agent, motion_rngs)
    else:
        if len(initial_states) != n_agents:
            raise ValueError("initial_states length must match params_per_agent")
        states = list(initial_states)
    for s in states:
        if not (math.isfinite(s.heading) and math.isfinite(s.speed)):
            raise ValueError(f"initial heading {s.heading} and speed {s.speed} "
                             "must be finite")
        if not 0.0 <= s.heading < 360.0:
            raise ValueError(f"initial heading {s.heading} must lie in [0, 360)")
        cmd = s.active_command
        if cmd is not None and not all(
                math.isfinite(getattr(cmd, f.name))
                for f in fields(cmd) if f.name != "kind"):
            raise ValueError(f"initial active command {cmd} must have finite "
                             "fields")
        if not (0.0 <= s.x <= arena.width and 0.0 <= s.y <= arena.height):
            raise ValueError(f"initial position ({s.x}, {s.y}) outside the arena")
        for rect in arena.obstacles:
            if rect.contains(s.x, s.y):
                raise ValueError(f"initial position ({s.x}, {s.y}) inside obstacle {rect}")

    union_grid = CoverageGrid.for_arena(arena, cell_size)
    n_log = n_steps // log_steps + 1
    # first_tick[i][c]: index of the first log tick whose coverage counts
    # cell c for agent i, n_log for a cell never entered.  The union takes
    # the earliest tick over agents, which is the OR of the agent grids at
    # every tick.
    mark_steps = coverage_from == "true"
    first_tick = [np.full(union_grid.total_cells, n_log) if mark_steps
                  else None for _ in range(n_agents)]

    true_xy = np.empty((n_agents, n_log, 2))
    heading_deg = np.empty((n_agents, n_log))
    speed = np.empty((n_agents, n_log))
    commands = [_walk(arena, union_grid, params_per_agent[i], s, dt, n_steps,
                      stim_steps, log_steps, motion_rngs[i], cmd_rngs[i],
                      true_xy[i], heading_deg[i], speed[i], first_tick[i])
                for i, s in enumerate(states)]

    if mark_steps:
        fixes = None
        ticks = np.array(first_tick)
    else:
        fixes = _run_fixes(true_xy, uwb, seed)
        ticks = np.array([_first_ticks(union_grid, xy[:, 0], xy[:, 1], n_log)
                          for xy in fixes[0]])
    ticks = ticks.reshape(n_agents, union_grid.ny, union_grid.nx)
    union_ticks = ticks.min(axis=0)

    def curve(t):
        counts = np.bincount(t.ravel(), minlength=n_log).cumsum()
        return coverage_percent(counts[:n_log], union_grid.total_cells)

    union_grid.visited = union_ticks < n_log
    return SwarmRun(seed=seed, uwb=uwb, n_agents=n_agents,
                    log_t=np.arange(n_log) / log_rate_hz,
                    true_xy=true_xy, heading_deg=heading_deg, speed=speed,
                    commands=commands,
                    agent_coverage_pct=np.array([curve(t) for t in ticks]),
                    union_coverage_pct=curve(union_ticks),
                    union_grid=union_grid, fixes=fixes)


def _batch_workers(n_seeds: int) -> int:
    """Processes that run a batch of n_seeds: one per CPU this process may
    use, at most one per seed, and 1 where fork is not the platform's safe
    default: without os.fork, or on macOS, whose system libraries may
    crash in a forked child."""
    if not hasattr(os, "fork") or sys.platform == "darwin":
        return 1
    return max(1, min(seeding.cpu_count(), n_seeds))


def _fork_worker(run, indices, readers) -> tuple[int, BinaryIO]:
    """Fork a child that pickles run(i) for each i in indices, in order,
    into a pipe and ends with os._exit, 1 at its first exception; return
    its pid and the pipe's read end.  The child closes readers, the other
    children's read ends, which only this process reads."""
    import pickle
    import warnings

    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # From Python 3.12, fork warns in a process with other threads,
            # as a lock one of them holds stays held in the child.  The
            # threads here are OpenBLAS's, which numpy starts at import,
            # and the child only walks, marks and solves fixes, which call
            # no BLAS
            warnings.filterwarnings("ignore", ".*use of fork",
                                    DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            for reader in readers:
                reader.close()
            with os.fdopen(w, "wb") as out:
                for i in indices:
                    pickle.dump(run(i), out, pickle.HIGHEST_PROTOCOL)
                    out.flush()
            code = 0
        finally:
            # no exception leaves the child: the parent, reading no run,
            # runs the seed itself and raises it there
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def dispersion_batch(arena: Arena, uwb: UwbSystem, params_per_agent, n_seeds: int,
                     seed: int, **run_kwargs) -> Iterator[SwarmRun]:
    """Yield simulate(..., seed=child_seed(seed, "coverage.batch", i), **run_kwargs)
    for i < n_seeds, in that order.

    The seeds run on W = _batch_workers(n_seeds) processes.  This one is
    worker 0, and os.fork starts the others; seed i runs on worker i mod
    W.  Each child pickles every run it finishes into its own pipe, where
    it waits until this process reads it, and this process reads each run
    in its turn, so it holds one at a time: a consumer that drops each run
    holds one.  A run that a child does not deliver, as when it raised,
    runs here instead, and so do the rest of that child's seeds, as do the
    seeds of a worker that could not be forked: a failing seed raises
    here, at its position, as it does at W = 1.  However the generator
    ends, every child is reaped; one that ends early, closed or raising,
    kills its children first, while one that runs to its end has read
    every run, so its children are ending by themselves.  W = 1 is the
    same loop with no child.
    """
    seeds = [child_seed(seed, "coverage.batch", i) for i in range(n_seeds)]

    def run(i):
        return simulate(arena, uwb, params_per_agent, seed=seeds[i],
                        **run_kwargs)

    workers = _batch_workers(n_seeds)
    pids, readers = [], {}      # readers of the children still delivering
    if workers > 1:
        # numpy loads numpy.random lazily, at a run's first draw: load it
        # here, once, rather than again in every child
        import numpy.random

    def take(i):
        reader = readers.get(i % workers)
        if reader is not None:
            import pickle
            try:
                return pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                # the pipe ended early: the child raised or was killed
                del readers[i % workers]
                reader.close()
        return run(i)

    done = False
    try:
        for w in range(1, workers):
            try:
                pid, readers[w] = _fork_worker(
                    run, range(w, n_seeds, workers), list(readers.values()))
            except OSError:   # no process to spare: the rest run here
                break
            pids.append(pid)
        for i in range(n_seeds):
            yield take(i)
        done = True
    finally:
        for reader in readers.values():
            reader.close()
        if not done and pids:
            # a child may still be running.  Unreaped, a child that has
            # ended keeps its pid and takes the signal harmlessly
            import signal
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
