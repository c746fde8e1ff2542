"""Span tracing by wrapping module-level names from outside the program.

`Tracer.install` replaces the functions named in LAYERS with wrappers that
time each call.  A span's parent is the wrapped call open when it starts,
so a span's self time is its duration minus the durations of its child
spans, and the self times of all spans add up to the root span.  Spans
are folded into per-name totals and (parent, child) call counts as they
close; full (name, start, end, parent) records are kept only for the
shallow spans, which keeps memory flat however many calls a run makes.

Hooks compute the layer ratios from a call's arguments and result.  They
run after the span closes and their time is booked to the `trace.hooks`
pseudo-span, so it inflates no layer's self time.
"""
from __future__ import annotations

import os
import time

ROOT = "bench.body"
HOOKS = "trace.hooks"
SPAN_RECORD_DEPTH = 2     # root = depth 0


# ---------- hooks: (tracer, args, kwargs, result) -> None ----------

def _reflect_hook(tr, args, kwargs, result):
    # _reflect_move(arena, old_x, old_y, new_x, new_y, heading)
    #   -> (x, y, heading, x_flips, y_flips)
    x, y, _, fx, fy = result
    if fx or fy:
        tr.count("swarm.reflect.bounces")
        if fx and fy and (x, y) == (args[1], args[2]):
            tr.count("swarm.reflect.backoffs")


def _coverage_hook(tr, args, kwargs, result):
    # update_coverage returns the grid it marked; holding the grid keeps
    # its id unique, and its final visited count is the cells marked new
    tr.grids[id(result)] = result


def _multilaterate_hook(tr, args, kwargs, result):
    tr.count("swarm.multilaterate.iterations", result.iterations)
    if not result.converged:
        tr.count("swarm.multilaterate.unconverged")


def _blank_hook(tr, args, kwargs, result):
    import numpy as np
    tr.count("neurosignal.blank.samples", result.samples.size)
    tr.count("neurosignal.blank.zeroed", int(np.count_nonzero(result.samples == 0.0)))


def _bandpass_hook(tr, args, kwargs, result):
    tr.count("neurosignal.bandpass.bytes", result.samples.nbytes)


def _detect_hook(tr, args, kwargs, result):
    import numpy as np
    trace = args[0]
    thresh = args[1] if len(args) > 1 else kwargs["thresh"]
    above = np.abs(trace.samples) > thresh
    raw = int(above[0]) + int(np.count_nonzero(above[1:] & ~above[:-1]))
    tr.count("neurosignal.detect.raw_crossings", raw)
    tr.count("neurosignal.detect.kept", result.count)


def _file_bytes_hook(counter, path_index):
    def hook(tr, args, kwargs, result):
        path = args[path_index] if len(args) > path_index else kwargs["path"]
        tr.count(counter, os.path.getsize(path))
    return hook


# metric prefix -> (lookup sites as (module, attribute), hook).  A name is
# wrapped where its caller looks it up, e.g. swarm's own binding of the
# locomotion step.  A site that no longer exists is skipped, so its metric
# reads zero calls.
LAYERS = {
    "locomotion.step": ((("swarm", "step"), ("locomotion", "step")), None),
    "locomotion.apply_command": ((("swarm", "apply_command"),
                                  ("locomotion", "apply_command")), None),
    "swarm.reflect": ((("swarm", "_reflect_move"),), _reflect_hook),
    "swarm.update_coverage": ((("swarm", "update_coverage"),), _coverage_hook),
    "swarm.coverage_percent": ((("swarm", "coverage_percent"),), None),
    "swarm.simulate_ranges": ((("swarm", "simulate_ranges"),), None),
    "swarm.multilaterate": ((("swarm", "multilaterate"),), _multilaterate_hook),
    "swarm.simulate": ((("swarm", "simulate"),), None),
    "neurosignal.synth": ((("neurosignal", "synth_neural_response"),), None),
    "neurosignal.blank": ((("neurosignal", "blank_artifacts"),), _blank_hook),
    "neurosignal.bandpass": ((("neurosignal", "bandpass"),), _bandpass_hook),
    "neurosignal.threshold": ((("neurosignal", "threshold"),), None),
    "neurosignal.detect": ((("neurosignal", "detect_spikes"),), _detect_hook),
    "vision.synth_pronotum": ((("vision", "synth_pronotum"),), None),
    "vision.augment": ((("vision", "augment"),), None),
    "vision.write_pgm": ((("vision", "write_pgm"),),
                         _file_bytes_hook("vision.write_pgm.bytes", 1)),
    "vision.read_pgm": ((("vision", "read_pgm"),),
                        _file_bytes_hook("vision.read_pgm.bytes", 0)),
    "vision.extract_reference_point": ((("vision", "extract_reference_point"),), None),
    "vision.iou": ((("vision", "iou"),), None),
    "vision.dsc": ((("vision", "dsc"),), None),
    "cli": ((("cli", "main"),), None),
}


class Tracer:
    """Collects spans from wrapped calls; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}       # name -> [calls, total_s, self_s]
        self.callers: dict[str, dict[str, int]] = {}  # name -> parent -> calls
        self.spans: list[tuple[str, float, float, str]] = []
        self.counters: dict[str, float] = {}
        self.grids: dict[int, object] = {}
        self._stack: list[list] = [["", 0.0]]   # open spans: [name, child_s]
        self.stats[HOOKS] = [0, 0.0, 0.0]

    def count(self, name: str, n: float = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, hook=None):
        """Return fn wrapped so each call records a span named name."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        callers = self.callers.setdefault(name, {})
        hook_stats = self.stats[HOOKS]
        stack, spans, clock = self._stack, self.spans, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                callers[parent[0]] = callers.get(parent[0], 0) + 1
                if len(stack) <= SPAN_RECORD_DEPTH + 1:
                    spans.append((name, t0, t1, parent[0]))
            if hook is not None:
                hook(self, args, kwargs, result)
                dh = clock() - t1
                parent[1] += dh
                hook_stats[0] += 1
                hook_stats[1] += dh
                hook_stats[2] += dh
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> list[str]:
        """Wrap every LAYERS site found in modules (short name -> module).

        Returns the layer names that had at least one site.
        """
        found = []
        for name, (sites, hook) in LAYERS.items():
            self.stats.setdefault(name, [0, 0.0, 0.0])
            for mod_name, attr in sites:
                mod = modules.get(mod_name)
                fn = getattr(mod, attr, None)
                if fn is not None:
                    setattr(mod, attr, self.wrap(name, fn, hook))
                    if name not in found:
                        found.append(name)
        return found

    def run_root(self, fn, *args, **kwargs):
        """Call fn as the root span."""
        return self.wrap(ROOT, fn)(*args, **kwargs)

    def finish(self):
        """Fold collected state into counters; call once, after the body."""
        self.counters["swarm.update_coverage.new_cells"] = sum(
            getattr(g, "visited_count", 0) for g in self.grids.values())
        self.grids.clear()

    def summary(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "edges": sorted([p, c, n] for c, ps in self.callers.items()
                            for p, n in ps.items()),
            "spans": [list(s) for s in self.spans],
            "counters": dict(self.counters),
        }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats: dict, counters: dict, bodies: int) -> dict:
    """Per-layer metrics per body, from summed tracer stats and counters."""
    out = {}
    for name in LAYERS:
        calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
        if name == "cli":
            out["cli.self_s"] = self_s / bodies
            continue
        out[f"{name}.calls"] = calls / bodies
        out[f"{name}.self_s"] = self_s / bodies
        out[f"{name}.us_per_call"] = _ratio(self_s, calls) * 1e6
    c = counters
    out["swarm.reflect.bounce_frac"] = _ratio(
        c.get("swarm.reflect.bounces", 0), stats.get("swarm.reflect", [0])[0])
    out["swarm.reflect.backoff_count"] = c.get("swarm.reflect.backoffs", 0) / bodies
    out["swarm.update_coverage.new_cell_ratio"] = _ratio(
        c.get("swarm.update_coverage.new_cells", 0),
        stats.get("swarm.update_coverage", [0])[0])
    mcalls = stats.get("swarm.multilaterate", [0])[0]
    out["swarm.multilaterate.iters_per_call"] = _ratio(
        c.get("swarm.multilaterate.iterations", 0), mcalls)
    out["swarm.multilaterate.unconverged_frac"] = _ratio(
        c.get("swarm.multilaterate.unconverged", 0), mcalls)
    out["neurosignal.blank.frac"] = _ratio(
        c.get("neurosignal.blank.zeroed", 0), c.get("neurosignal.blank.samples", 0))
    out["neurosignal.detect.kept_ratio"] = _ratio(
        c.get("neurosignal.detect.kept", 0), c.get("neurosignal.detect.raw_crossings", 0))
    for name, key in (("neurosignal.bandpass", "neurosignal.bandpass.bytes"),
                      ("vision.read_pgm", "vision.read_pgm.bytes"),
                      ("vision.write_pgm", "vision.write_pgm.bytes")):
        out[f"{name}.mb_per_s"] = _ratio(c.get(key, 0) / 1e6,
                                         stats.get(name, [0, 0.0])[1])
    out["trace.root_s"] = stats.get(ROOT, [0, 0.0])[1] / bodies
    return out
