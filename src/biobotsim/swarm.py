"""Multi-agent dispersion in a walled arena with simulated UWB localization.

Agents follow the locomotion dynamics, reflect specularly off arena walls
and obstacle faces, and receive a random stimulation command every
stim_period seconds.  Coverage is accounted on a square cell grid from
true positions; position estimates from noisy anchor ranges are logged at
a fixed rate alongside the truth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .locomotion import (MAX_DT, AgentParams, AgentState, StimCommand,
                         StimKind, _euler, _normals, apply_command)
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


def update_coverage(grid: CoverageGrid, pos: tuple[float, float]) -> CoverageGrid:
    """Mark the cell containing pos; returns the same grid, updated."""
    ix, iy = grid.cell_index(pos[0], pos[1])
    grid.visited[iy, ix] = True
    return grid


def coverage_percent(grid: CoverageGrid) -> float:
    return 100.0 * grid.visited_count / grid.total_cells


# ---------- UWB localization ----------

def simulate_ranges(true_pos: tuple[float, float], uwb: UwbSystem,
                    rng=None) -> list[float]:
    """Anchor distances with additive Gaussian noise, clamped at zero."""
    if uwb.range_noise_sd > 0.0 and rng is None:
        raise ValueError("range_noise_sd > 0 requires an rng")
    x, y = true_pos
    out = []
    for ax, ay in uwb.anchors:
        d = math.hypot(x - ax, y - ay)
        if uwb.range_noise_sd > 0.0:
            d += uwb.range_noise_sd * rng.normal()
        out.append(max(d, 0.0))
    return out


@dataclass(frozen=True)
class MultilaterationResult:
    position: tuple[float, float]
    rms_residual: float
    converged: bool
    iterations: int


def multilaterate(ranges: Sequence[float], uwb: UwbSystem,
                  initial_guess: tuple[float, float] | None = None,
                  *, tol: float = 1e-9, max_iter: int = 50,
                  ) -> MultilaterationResult:
    """Planar position from anchor ranges by Gauss-Newton least squares.

    Minimizes sum_i (r_i - |p - a_i|)^2 from the anchor centroid (or the
    given guess), stopping when the step norm drops below tol.  If the
    iteration cap is hit first the best iterate is returned flagged as
    unconverged.
    """
    anchors = uwb.anchors
    if len(ranges) != len(anchors):
        raise ValueError(
            f"got {len(ranges)} ranges for {len(anchors)} anchors"
        )
    if any(r < 0.0 for r in ranges):
        raise ValueError("ranges must be non-negative")
    if initial_guess is None:
        x = sum(a[0] for a in anchors) / len(anchors)
        y = sum(a[1] for a in anchors) / len(anchors)
    else:
        x, y = float(initial_guess[0]), float(initial_guess[1])

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jtj00 = jtj01 = jtj11 = rhs0 = rhs1 = 0.0
        for (ax, ay), r in zip(anchors, ranges):
            dx, dy = x - ax, y - ay
            d = math.hypot(dx, dy)
            if d < 1e-12:
                d = 1e-12
            ux, uy = dx / d, dy / d
            f = r - d
            # residual f = r - |p - a|, Jacobian row = (-ux, -uy)
            jtj00 += ux * ux
            jtj01 += ux * uy
            jtj11 += uy * uy
            rhs0 += ux * f
            rhs1 += uy * f
        det = jtj00 * jtj11 - jtj01 * jtj01
        if det == 0.0:
            break
        sx = (rhs0 * jtj11 - rhs1 * jtj01) / det
        sy = (rhs1 * jtj00 - rhs0 * jtj01) / det
        x += sx
        y += sy
        if math.hypot(sx, sy) < tol:
            converged = True
            break

    ssq = 0.0
    for (ax, ay), r in zip(anchors, ranges):
        ssq += (r - math.hypot(x - ax, y - ay)) ** 2
    return MultilaterationResult((x, y), math.sqrt(ssq / len(anchors)),
                                 converged, iterations)


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
    (x-flips, y-flips) so active turn commands can be conjugated.
    """
    if 0.0 <= new_x <= arena.width and 0.0 <= new_y <= arena.height:
        for rect in arena.obstacles:
            if (rect.x_min < new_x < rect.x_max
                    and rect.y_min < new_y < rect.y_max):
                break
        else:
            # free space; Rect.contains is inlined because this runs every step
            return new_x, new_y, heading % 360.0, 0, 0

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
    """Complete record of one dispersion run."""

    seed: int
    dt: float
    stim_period: float
    duration: float
    arena: Arena
    uwb: UwbSystem
    n_agents: int
    log_t: np.ndarray                 # [n_log]
    true_xy: np.ndarray               # [n_agents, n_log, 2]
    est_xy: np.ndarray                # [n_agents, n_log, 2]
    est_converged: np.ndarray         # [n_agents, n_log]
    commands: list                    # [n_agents][n_log] active command name or ""
    agent_coverage_pct: np.ndarray    # [n_agents, n_log]
    union_coverage_pct: np.ndarray    # [n_log]
    union_grid: CoverageGrid

    @property
    def final_union_coverage(self) -> float:
        return float(self.union_coverage_pct[-1])


def coverage_rate(run: SwarmRun) -> float:
    """Covered area over elapsed time at the final timestamp, cm^2/s."""
    cell_cm2 = (run.union_grid.cell_size * 100.0) ** 2
    elapsed = float(run.log_t[-1])
    if elapsed <= 0.0:
        raise ValueError("run has no elapsed time")
    return run.union_grid.visited_count * cell_cm2 / elapsed


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


def _walk(arena: Arena, grid: CoverageGrid, params: AgentParams,
          state: AgentState, dt: float, n_steps: int, stim_steps: int,
          log_steps: int, motion_rng, cmd_rng, xy: np.ndarray,
          first_tick: list | None) -> list[str]:
    """Integrate one agent over the whole run.

    Agents never interact, so each one runs on its own, its state held in
    plain floats.  Writes the position at every log tick into xy and
    returns the active command name at every log tick.  When first_tick is
    given, every cell the agent enters gets the index of the first log
    tick that counts it.
    """
    advance = _euler(params, dt)
    draw = _normals(motion_rng).__next__
    x, y, heading, speed = state.x, state.y, state.heading, state.speed
    cmd = None if state.active_command is None else replace(state.active_command)
    cell, nx, floor = grid.cell_size, grid.nx, math.floor
    names: list[str] = []
    tick = 0
    # unclamped cell of the last marked position: the clamped cell can
    # change only when this one does, so most steps skip the marking
    cx = cy = None

    for k in range(n_steps + 1):
        if first_tick is not None:
            ux, uy = floor(x / cell), floor(y / cell)
            if ux != cx or uy != cy:
                cx, cy = ux, uy
                ix, iy = grid.cell_index(x, y)
                c = iy * nx + ix
                first_tick[c] = min(first_tick[c], tick)
        if k and k % stim_steps == 0:
            kind = _COMMAND_KINDS[int(cmd_rng.integers(0, len(_COMMAND_KINDS)))]
            cmd = apply_command(AgentState(x, y, heading, speed), params,
                                StimCommand(kind, params.command_duration),
                                cmd_rng).active_command
        if k % log_steps == 0:
            xy[tick] = x, y
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


def check_run(n_agents: int, stim_period: float, duration: float, dt: float,
              log_rate_hz: float, coverage_from: str) -> tuple[int, int, int]:
    """Check the set-up of a run before any step is taken.

    Raises ValueError for a bad agent count, coverage source or timing, or
    a dt that does not divide the duration, the stim period and the log
    interval exactly.  Returns the integration step counts of the three.
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
    if abs(n_steps * dt - duration) > 1e-9:
        raise ValueError(f"dt {dt} does not divide the duration {duration}")
    stim_steps = int(round(stim_period / dt))
    if stim_steps < 1 or abs(stim_steps * dt - stim_period) > 1e-9:
        raise ValueError(f"dt {dt} does not divide the stim period {stim_period}")
    log_steps = int(round(1.0 / (log_rate_hz * dt)))
    if log_steps < 1 or abs(log_steps * dt - 1.0 / log_rate_hz) > 1e-9:
        raise ValueError(f"dt {dt} does not divide the log interval {1.0 / log_rate_hz}")
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
    Fully deterministic for a given seed.
    """
    n_agents = len(params_per_agent)
    n_steps, stim_steps, log_steps = check_run(
        n_agents, stim_period, duration, dt, log_rate_hz, coverage_from)

    motion_rngs = [np.random.default_rng(child_seed(seed, "swarm.motion", i))
                   for i in range(n_agents)]
    cmd_rngs = [np.random.default_rng(child_seed(seed, "swarm.cmd", i))
                for i in range(n_agents)]
    uwb_rng = np.random.default_rng(child_seed(seed, "swarm.uwb"))

    if initial_states is None:
        states = spawn_states(arena, params_per_agent, motion_rngs)
    else:
        if len(initial_states) != n_agents:
            raise ValueError("initial_states length must match params_per_agent")
        states = list(initial_states)
    for s in states:
        if not (0.0 <= s.x <= arena.width and 0.0 <= s.y <= arena.height):
            raise ValueError(f"initial position ({s.x}, {s.y}) outside the arena")
        for rect in arena.obstacles:
            if rect.contains(s.x, s.y):
                raise ValueError(f"initial position ({s.x}, {s.y}) inside obstacle {rect}")

    union_grid = CoverageGrid.for_arena(arena, cell_size)
    n_log = n_steps // log_steps + 1
    # first_tick[i][c]: index of the first log tick whose coverage counts
    # cell c for agent i; n_log for a cell entered after the last tick,
    # never_seen for a cell never entered.  The union takes the earliest
    # tick over agents, which is the OR of the agent grids at every tick.
    never_seen = n_log + 1
    first_tick = [[never_seen] * union_grid.total_cells for _ in range(n_agents)]
    mark_steps = coverage_from == "true"

    true_xy = np.empty((n_agents, n_log, 2))
    commands = [_walk(arena, union_grid, params_per_agent[i], s, dt, n_steps,
                      stim_steps, log_steps, motion_rngs[i], cmd_rngs[i],
                      true_xy[i], first_tick[i] if mark_steps else None)
                for i, s in enumerate(states)]

    # localization runs tick by tick, agents in order, as the shared
    # ranging stream requires
    est_xy = np.empty((n_agents, n_log, 2))
    est_conv = np.zeros((n_agents, n_log), dtype=bool)
    guesses: list[tuple[float, float] | None] = [None] * n_agents
    for li in range(n_log):
        for i, pos in enumerate(true_xy[:, li].tolist()):
            ranges = simulate_ranges(pos, uwb, uwb_rng)
            res = multilaterate(ranges, uwb, guesses[i])
            guesses[i] = res.position
            est_xy[i, li] = res.position
            est_conv[i, li] = res.converged
            if not mark_steps:
                ix, iy = union_grid.cell_index(*res.position)
                c = iy * union_grid.nx + ix
                first_tick[i][c] = min(first_tick[i][c], li)

    ticks = np.array(first_tick).reshape(n_agents, union_grid.ny, union_grid.nx)
    union_ticks = ticks.min(axis=0)

    def curve(t):
        counts = np.bincount(t.ravel(), minlength=never_seen + 1).cumsum()
        return 100.0 * counts[:n_log] / union_grid.total_cells

    union_grid.visited = union_ticks <= n_log
    return SwarmRun(seed=seed, dt=dt, stim_period=stim_period,
                    duration=duration, arena=arena, uwb=uwb,
                    n_agents=n_agents, log_t=np.arange(n_log) * log_steps * dt,
                    true_xy=true_xy, est_xy=est_xy, est_converged=est_conv,
                    commands=commands,
                    agent_coverage_pct=np.array([curve(t) for t in ticks]),
                    union_coverage_pct=curve(union_ticks),
                    union_grid=union_grid)
