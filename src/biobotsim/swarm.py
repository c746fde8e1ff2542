"""Multi-agent dispersion in a walled arena with simulated UWB localization.

Agents follow the locomotion dynamics, reflect specularly off arena walls
and obstacle faces, and receive a random stimulation command every
stim_period seconds.  One array engine integrates every step.  Coverage is
accounted on a square cell grid, in percents by coverage_percent; position
estimates from noisy anchor ranges are logged at a fixed rate alongside
the truth, with a tick at the start and one at the end of the run.  Every
fix starts from the anchor centroid, so all fixes of a run are solved
together by one lane-wise Gauss-Newton kernel, the only position solver.
A run solves its fixes on first read of est_xy or est_converged, so a run
with coverage from true positions that never reads them, such as every run
of dispersion_batch, the one driver of a seed batch, never solves them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .locomotion import (_TINY, MAX_DT, AgentParams, AgentState,
                         StimCommand, StimKind, _free_walk, apply_command)
from .seeding import child_seed

DEFAULT_CELL_SIZE = 0.10      # m
DEFAULT_STIM_PERIOD = 10.0    # s
DEFAULT_DURATION = 631.0      # s
DEFAULT_DT = 0.01             # s
DEFAULT_LOG_RATE = 10.0       # Hz
DEFAULT_COVERAGE_FROM = "true"  # or "estimated"
DEFAULT_RANGE_NOISE_SD = 0.05  # m
DEFAULT_ANCHOR_SIDE = 3.6     # m, anchors sit on this square's corners

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

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

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


def default_anchors(side: float = DEFAULT_ANCHOR_SIDE) -> tuple[tuple[float, float], ...]:
    return ((0.0, 0.0), (side, 0.0), (side, side), (0.0, side))


@dataclass(frozen=True)
class UwbSystem:
    """Anchor layout and ranging noise model."""

    anchors: tuple[tuple[float, float], ...] = default_anchors()
    range_noise_sd: float = DEFAULT_RANGE_NOISE_SD

    def __post_init__(self):
        if len(self.anchors) < 3:
            raise ValueError("need at least 3 anchors for 2-D multilateration")
        if self.range_noise_sd < 0.0:
            raise ValueError("range_noise_sd must be non-negative")
        object.__setattr__(self, "anchors",
                           tuple((float(x), float(y)) for x, y in self.anchors))


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

    def cell_index(self, x: float, y: float) -> tuple[int, int]:
        """Cell (ix, iy) containing a position; boundary and outside
        positions clamp to the nearest cell."""
        ix = int(math.floor(x / self.cell_size))
        iy = int(math.floor(y / self.cell_size))
        ix = min(max(ix, 0), self.nx - 1)
        iy = min(max(iy, 0), self.ny - 1)
        return ix, iy


def _cell_ids(grid: CoverageGrid, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat ids iy * nx + ix of the cells holding positions x, y, with
    boundary and outside positions clamped as cell_index clamps them."""
    ix = np.floor(x / grid.cell_size)
    iy = np.floor(y / grid.cell_size)
    np.clip(ix, 0, grid.nx - 1, out=ix)
    np.clip(iy, 0, grid.ny - 1, out=iy)
    iy *= grid.nx
    iy += ix
    return iy.astype(np.intp)


def _first_ticks(grid: CoverageGrid, xy: np.ndarray, never_seen: int
                 ) -> np.ndarray:
    """Index of the first position in xy [n, 2] that falls in each cell,
    never_seen for a cell none falls in."""
    ticks = np.full(grid.total_cells, never_seen)
    np.minimum.at(ticks, _cell_ids(grid, xy[:, 0], xy[:, 1]),
                  np.arange(len(xy)))
    return ticks


def coverage_percent(visited_cells, total_cells):
    """Percent of total_cells that visited_cells covers; ints or arrays."""
    return 100.0 * visited_cells / total_cells


# ---------- UWB localization ----------

# lanes per Gauss-Newton block: bounds the kernel's temporaries, and
# 1,024-4,096 lanes ran fastest on a 2-vCPU Xeon
_FIX_LANES = 4096
_FIX_TOL = 1e-9        # m, the step norm below which a lane has converged
_FIX_MAX_ITER = 50


def _fix_ranges(xy: np.ndarray, uwb: UwbSystem, rng) -> np.ndarray:
    """Noisy anchor ranges [m, k] from true positions [m, 2].  The noise is
    one block draw, which is the stream of scalar rng.normal() draws in
    (position, anchor) order."""
    anchors = np.array(uwb.anchors)
    d = np.hypot(xy[:, :1] - anchors[:, 0], xy[:, 1:] - anchors[:, 1])
    if uwb.range_noise_sd > 0.0:
        d += uwb.range_noise_sd * rng.normal(size=d.shape)
    return np.maximum(d, 0.0, out=d)


def _solve_fixes(ranges: np.ndarray, anchors, start: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Newton least squares for many fixes at once, one lane per row
    of ranges [m, k], from start [m, 2]: each lane minimizes
    sum_i (r_i - |p - a_i|)^2.

    Each lane follows its own iteration: a lane whose normal matrix is
    singular stops where it is, unconverged, and a lane whose step norm
    drops below _FIX_TOL has converged.  Lanes still moving after
    _FIX_MAX_ITER steps return their last iterate.  Lanes leave the working
    set as they finish, and every lane's arithmetic is independent of the
    others, so a lane gives the same bits alone or in any batch.  Returns
    positions [m, 2], converged [m] and iteration counts [m].
    """
    m = len(ranges)
    xy = np.empty((m, 2))
    converged = np.zeros(m, dtype=bool)
    iterations = np.full(m, _FIX_MAX_ITER)
    lane = np.arange(m)
    x, y = start[:, 0].copy(), start[:, 1].copy()
    r = ranges.T.copy()
    for it in range(1, _FIX_MAX_ITER + 1):
        if not lane.size:
            break
        jtj00 = jtj01 = jtj11 = rhs0 = rhs1 = 0.0
        for (ax, ay), rk in zip(anchors, r):
            dx, dy = x - ax, y - ay
            d = np.maximum(np.hypot(dx, dy), 1e-12)
            ux, uy = dx / d, dy / d
            f = rk - d
            # residual f = r - |p - a|, Jacobian row = (-ux, -uy)
            jtj00 = jtj00 + ux * ux
            jtj01 = jtj01 + ux * uy
            jtj11 = jtj11 + uy * uy
            rhs0 = rhs0 + ux * f
            rhs1 = rhs1 + uy * f
        det = jtj00 * jtj11 - jtj01 * jtj01
        flat = det == 0.0
        det[flat] = np.inf          # a zero step: singular lanes stay put
        sx = (rhs0 * jtj11 - rhs1 * jtj01) / det
        sy = (rhs1 * jtj00 - rhs0 * jtj01) / det
        x += sx
        y += sy
        done = flat | (np.hypot(sx, sy) < _FIX_TOL)
        if done.any():
            gone = lane[done]
            xy[gone, 0] = x[done]
            xy[gone, 1] = y[done]
            converged[gone] = ~flat[done]
            iterations[gone] = it
            keep = ~done
            lane, x, y, r = lane[keep], x[keep], y[keep], r[:, keep]
    xy[lane, 0] = x
    xy[lane, 1] = y
    return xy, converged, iterations


def _centroid(anchors) -> tuple[float, float]:
    return (sum(a[0] for a in anchors) / len(anchors),
            sum(a[1] for a in anchors) / len(anchors))


def _localize(true_xy: np.ndarray, uwb: UwbSystem, rng
              ) -> tuple[np.ndarray, np.ndarray]:
    """UWB fixes of every agent at every log tick, each cold-started from
    the anchor centroid.  true_xy is [n_agents, n_log, 2]; the ranging noise
    is drawn in (tick, agent, anchor) order, one block of ticks at a time.
    Returns est_xy [n_agents, n_log, 2] and est_converged [n_agents, n_log].
    """
    n_agents, n_log = true_xy.shape[:2]
    est_xy = np.empty_like(true_xy)
    est_conv = np.empty((n_agents, n_log), dtype=bool)
    # tick-major views: lane order (tick, agent) is the ranging order
    by_tick = true_xy.transpose(1, 0, 2)
    est_by_tick = est_xy.transpose(1, 0, 2)
    conv_by_tick = est_conv.T
    start = np.array([_centroid(uwb.anchors)])
    block_ticks = max(1, _FIX_LANES // n_agents)
    for t0 in range(0, n_log, block_ticks):
        block = by_tick[t0:t0 + block_ticks].reshape(-1, 2)
        xy, converged, _ = _solve_fixes(
            _fix_ranges(block, uwb, rng), uwb.anchors,
            np.broadcast_to(start, block.shape))
        est_by_tick[t0:t0 + block_ticks] = xy.reshape(-1, n_agents, 2)
        conv_by_tick[t0:t0 + block_ticks] = converged.reshape(-1, n_agents)
    return est_xy, est_conv


def _run_fixes(true_xy: np.ndarray, uwb: UwbSystem, seed: int
               ) -> tuple[np.ndarray, np.ndarray]:
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
    (x-flips, y-flips) so active turn commands can be conjugated.  The
    position returned is free whenever the old one is: inside the walls
    and strictly inside no obstacle.
    """
    new_x, new_y, heading, fx, fy = _walls(arena, new_x, new_y, heading, 0, 0)
    for rect in arena.obstacles:
        if rect.contains(new_x, new_y):
            crossed = False
            if old_x <= rect.x_min < new_x:
                new_x = 2.0 * rect.x_min - new_x
                heading = 180.0 - heading
                fx += 1
                crossed = True
            elif old_x >= rect.x_max > new_x:
                new_x = 2.0 * rect.x_max - new_x
                heading = 180.0 - heading
                fx += 1
                crossed = True
            if old_y <= rect.y_min < new_y:
                new_y = 2.0 * rect.y_min - new_y
                heading = -heading
                fy += 1
                crossed = True
            elif old_y >= rect.y_max > new_y:
                new_y = 2.0 * rect.y_max - new_y
                heading = -heading
                fy += 1
                crossed = True
            if not crossed or rect.contains(new_x, new_y):
                # grazing corner or boundary start: back off and turn around
                new_x, new_y = old_x, old_y
                heading += 180.0
                fx += 1
                fy += 1
            break
    new_x, new_y, heading, fx, fy = _walls(arena, new_x, new_y, heading, fx, fy)
    if (not (0.0 <= new_x <= arena.width and 0.0 <= new_y <= arena.height)
            or any(rect.contains(new_x, new_y) for rect in arena.obstacles)):
        # a mirror landed in a neighbouring obstacle or past a wall: back
        # off to the old position, which is free, and turn around
        new_x, new_y = old_x, old_y
        heading += 180.0
        fx += 1
        fy += 1
    return new_x, new_y, heading % 360.0, fx, fy


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
    commands: list                    # [n_agents][n_log] active command name or ""
    agent_coverage_pct: np.ndarray    # [n_agents, n_log]
    union_coverage_pct: np.ndarray    # [n_log]
    union_grid: CoverageGrid
    # (est_xy, est_converged), or None until the first read solves them
    fixes: Optional[tuple[np.ndarray, np.ndarray]] = None

    def _solved_fixes(self) -> tuple[np.ndarray, np.ndarray]:
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
# bits of 360.0: as unsigned integers, the bits of a float in [0, 360) lie
# below these, and those of -0.0 and of every negative float above them
_BITS_360 = int(np.float64(360.0).view(np.uint64))


def _headings(heading: float, inc: np.ndarray, snap: int = -1,
              target: float = 0.0) -> np.ndarray:
    """Move headings of steps, from the heading carried into the first
    step and each step's increment: a diffusion draw, a turn's step or 0.

    A step moves along m = (h + inc) % 360 and carries m % 360 into the
    next step.  While the running sum stays in [0, 360) both moduli leave
    it as it is, so the sum is accumulated, and restarted from the carried
    heading at each step that leaves that range.  The two moduli differ
    only where m is 360.0, as for -1e-20 % 360.  Step snap >= 0 moves
    along target % 360 instead and restarts the sum, as a turn's last step.
    """
    n = len(inc)
    acc = np.empty(n + 1)
    acc[1:] = inc
    out = np.empty(n + 1)
    p, move = 0, heading
    while p < n:
        # slot p held the increment of the step that left the range, which
        # is spent; the sum restarts there from the carried heading
        acc[p] = heading
        np.add.accumulate(acc[p:], out=out[p:])
        out[p] = move
        off = out[p + 1:].view(np.uint64) >= _BITS_360
        if p <= snap:
            off[snap - p] = True
        i = int(off.argmax())
        if not off[i]:
            return out[1:]
        p += i + 1
        move = (target if p == snap + 1 else out[p].item()) % 360.0
        heading = move % 360.0
    out[p] = move
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


def _relax(speed: float, walk: float, decay: float, n: int) -> list[float]:
    """Speeds after each of n uncommanded steps, relaxed toward walk as the
    Euler kernel relaxes them."""
    first = walk + (speed - walk) * decay
    if first < 0.0:
        # only from a negative start: relaxation keeps a speed >= 0 there
        first = 0.0
    if first == speed or not n:
        return [speed] * n
    speed = first
    return [first] + [speed := walk + (speed - walk) * decay
                      for _ in range(n - 1)]


def _running(start: float, step: float, n: int) -> np.ndarray:
    """The n + 1 values start, start + step, (start + step) + step, ..."""
    out = np.full(n + 1, step)
    out[0] = start
    return np.add.accumulate(out, out=out)


def _walk(arena: Arena, grid: CoverageGrid, params: AgentParams,
          state: AgentState, dt: float, n_steps: int, stim_steps: int,
          log_steps: int, motion_rng, cmd_rng, xy: np.ndarray,
          first_tick: np.ndarray | None) -> list[str]:
    """Integrate one agent over the whole run.

    Agents never interact, so each one runs on its own, in segments that
    end at each stim time and after at most _STRETCH_STEPS steps.  Until a
    step leaves free space, neither speed nor heading depends on the
    position, so both are built as arrays: an active command's counters
    are running sums and its steps draw no diffusion.  Positions are
    accumulated up to the first step that leaves free space; that step goes
    through _reflect_move, which may mirror an active turn, and the segment
    restarts after it.  Writes the position at every log tick into xy and
    returns the active command name at every log tick.  When first_tick is
    given, every cell the agent enters gets the index of the first log
    tick that counts it.
    """
    walk, decay, sigma = _free_walk(params, dt)
    diffuses = params.heading_diffusion > 0.0
    turn_steps = {StimKind.TURN_LEFT: params.max_ang_speed_left * dt,
                  StimKind.TURN_RIGHT: params.max_ang_speed_right * dt}
    x, y, heading, speed = state.x, state.y, state.heading, state.speed
    cmd = None if state.active_command is None else replace(state.active_command)
    names = [""] * len(xy)

    def record(k0, xs, ys):
        """Log and mark the positions held at steps k0, k0 + 1, ..."""
        first = -k0 % log_steps
        t0 = (k0 + first) // log_steps
        logged = xs[first::log_steps]
        xy[t0:t0 + len(logged), 0] = logged
        xy[t0:t0 + len(logged), 1] = ys[first::log_steps]
        if first_tick is not None:
            # the position at step k counts from log tick ceil(k / log_steps)
            ticks = np.arange(k0 + log_steps - 1, k0 + len(xs) + log_steps - 1)
            np.minimum.at(first_tick, _cell_ids(grid, xs, ys),
                          ticks // log_steps)

    def segment(k0, n, x, y, heading, speed, cmd):
        """Integrate the steps k0 .. k0 + n - 1, the first m of which carry
        the command cmd; returns the state and command at step k0 + n."""
        inc = np.zeros(n)
        m, turn_end, snap, target, after = 0, 0, -1, 0.0, cmd
        if cmd is not None:
            time_left = _running(cmd.time_remaining, -dt, n)[1:]
            expired = time_left <= _TINY
            m = int(expired.argmax()) + 1 if expired.any() else n
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
                speeds = ramp.tolist() + _relax(ramp[-1].item(), walk, decay, n - m)
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
        if diffuses:
            inc[m:] = sigma * motion_rng.normal(size=n - m)
        vdt = np.array(speeds) * dt
        j = 0
        while j < n:
            deg = _headings(heading, inc[j:], snap - j, target)
            rad = np.radians(deg)
            px = np.empty(n - j + 1)
            py = np.empty(n - j + 1)
            px[0], py[0] = x, y
            np.multiply(vdt[j:], np.cos(rad), out=px[1:])
            np.multiply(vdt[j:], np.sin(rad), out=py[1:])
            np.add.accumulate(px, out=px)
            np.add.accumulate(py, out=py)
            i = _first_blocked(arena, px[1:], py[1:])
            if i is None:
                record(k0 + j, px[:-1], py[:-1])
                return (px[-1].item(), py[-1].item(),
                        deg[-1].item() % 360.0, speeds[-1], after)
            record(k0 + j, px[:i + 1], py[:i + 1])
            x, y, heading, flips_x, flips_y = _reflect_move(
                arena, px[i].item(), py[i].item(), px[i + 1].item(),
                py[i + 1].item(), deg[i].item())
            j += i + 1
            if j <= turn_end:
                # the blocked step turned: mirror the rest of the turn
                _conjugate_command(cmd, flips_x, flips_y)
                inc[j:turn_end] = cmd.turn_sign * step_max
                target = cmd.turn_target
        return x, y, heading, speeds[-1], after

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
    record(n_steps, np.array([x]), np.array([y]))
    names[-1] = "" if cmd is None else cmd.kind.value
    return names


def check_run(n_agents: int, stim_period: float, duration: float, dt: float,
              log_rate_hz: float, coverage_from: str) -> tuple[int, int, int]:
    """Check the set-up of a run before any step is taken.

    Raises ValueError for a bad agent count, coverage source or timing, a
    dt that does not divide the duration, the stim period and the log
    interval exactly, or a log interval that does not divide the duration,
    so the last log tick falls at the end of the run.  Returns the
    integration step counts of the duration, stim period and log interval.
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
    n_steps = int(round(duration / dt))
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
    them on first read of est_xy or est_converged, with the same result.
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
    commands = [_walk(arena, union_grid, params_per_agent[i], s, dt, n_steps,
                      stim_steps, log_steps, motion_rngs[i], cmd_rngs[i],
                      true_xy[i], first_tick[i])
                for i, s in enumerate(states)]

    if mark_steps:
        fixes = None
        ticks = np.array(first_tick)
    else:
        fixes = _run_fixes(true_xy, uwb, seed)
        ticks = np.array([_first_ticks(union_grid, xy, n_log)
                          for xy in fixes[0]])
    ticks = ticks.reshape(n_agents, union_grid.ny, union_grid.nx)
    union_ticks = ticks.min(axis=0)

    def curve(t):
        counts = np.bincount(t.ravel(), minlength=n_log).cumsum()
        return coverage_percent(counts[:n_log], union_grid.total_cells)

    union_grid.visited = union_ticks < n_log
    return SwarmRun(seed=seed, uwb=uwb, n_agents=n_agents,
                    log_t=np.arange(n_log) * log_steps * dt,
                    true_xy=true_xy, commands=commands,
                    agent_coverage_pct=np.array([curve(t) for t in ticks]),
                    union_coverage_pct=curve(union_ticks),
                    union_grid=union_grid, fixes=fixes)


def dispersion_batch(arena: Arena, uwb: UwbSystem, params_per_agent, n_seeds: int,
                     seed: int, **run_kwargs) -> Iterator[SwarmRun]:
    """Yield simulate(..., seed=child_seed(seed, "coverage.batch", i), **run_kwargs)
    for i < n_seeds.  It keeps no run: a consumer that drops each holds one."""
    for i in range(n_seeds):
        yield simulate(arena, uwb, params_per_agent,
                       seed=child_seed(seed, "coverage.batch", i), **run_kwargs)
