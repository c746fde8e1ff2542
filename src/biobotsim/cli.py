"""Command line front end.

Subcommands: assemble, spikes, coverage, masks, metrics, fixation.  All
runs are driven by a JSON config (defaults apply when none is given) plus
a seed; identical config and seed always produce byte-identical output
files.
Output files carry no timestamps and are written atomically.

Exit codes: 0 success, 2 config error, 3 input data error, 4 runtime error.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import assembly as asm
from . import neurosignal as ns
from . import swarm as sw
from . import vision
from .config import (SCHEMA_VERSION, ConfigError, RunConfig,
                     agent_params_from_config, arena_from_config,
                     check_swarm, config_digest, config_from_dict,
                     load_config)
from .morphology import (exposure_safety_margin, exposure_sufficient,
                         lifting_height)
from .seeding import child_seed

ENV_OUTPUT_DIR = "BIOBOTSIM_OUTPUT_DIR"
ENV_SEED = "BIOBOTSIM_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_RUNTIME = 4


class InputDataError(Exception):
    """Input files are missing, mismatched, or malformed."""


# ---------- deterministic, atomic output ----------

def _atomic_write(path: Path, chunks):
    """Write an iterable of byte strings to path through a temp file, so the
    path holds either the old file or the whole new one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_CSV_BLOCK_ROWS = 4096
_FIXED_POINT = re.compile(r"%\.(\d+)f")
# what a cell of these unquoted tables cannot hold; NUL pads cells as well
_CSV_UNSAFE = ',"\r\n'


def _text_cells(texts: list[str], where: str) -> np.ndarray:
    """The UTF-8 bytes of each text as one row of a NUL-padded uint8 matrix."""
    joined = "\0".join(texts) + "\0"      # a NUL ends each text
    if (joined.count("\0") != len(texts)
            or any(ch in joined for ch in _CSV_UNSAFE)):
        bad = next(t for t in texts
                   if any(ch in t for ch in _CSV_UNSAFE + "\0"))
        raise ValueError(f"{where}: cell {bad!r} holds a comma, quote, CR, "
                         "LF or NUL")
    data = np.frombuffer(joined.encode(), np.uint8)
    sizes = np.diff(np.flatnonzero(data == 0), prepend=-1) - 1
    cells = np.zeros((len(texts), sizes.max()), np.uint8)
    cells[np.arange(cells.shape[1]) < sizes[:, None]] = data[data != 0]
    return cells


def _fixed_point_cells(x: np.ndarray, decimals: int, where: str) -> np.ndarray:
    """The cells "%.<decimals>f" % v for each float64 v in x, as the rows of
    a NUL-padded uint8 matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(x) * 10.0 ** decimals
        q = np.rint(scaled)
        exact = (scaled < 2.0 ** 52) & (
            0.5 - np.abs(scaled - q) > scaled * 2.0 ** -50)
    fallback = np.flatnonzero(~exact)
    q[fallback] = 0
    top = int(q.max())
    q = q.astype(np.int32 if top < 2 ** 31 else np.int64)
    digits = max(len(str(top)), decimals + 1)
    cells = np.empty((len(x), 1 + digits + (decimals > 0)), np.uint8)
    col = cells.shape[1]
    rest = q
    for j in range(digits):
        col -= 1 + (j == decimals > 0)
        tens = rest // 10   # a scalar divisor is fast; % and divmod are not
        cells[:, col] = rest - 10 * tens
        rest = tens
    cells += ord("0")
    cells[:, 0] = np.signbit(x) * ord("-")
    if decimals:
        cells[:, -1 - decimals] = ord(".")
    # leading zeros of the whole part, whose last digit always prints
    cells[:, 1:digits - decimals][
        q[:, None] < 10 ** np.arange(digits - 1, decimals, -1)] = 0
    if len(fallback):
        fmt = f"%.{decimals}f"
        text = _text_cells([fmt % v for v in x[fallback].tolist()], where)
        if text.shape[1] > cells.shape[1]:
            cells = np.pad(cells,
                           ((0, 0), (0, text.shape[1] - cells.shape[1])))
        cells[fallback] = 0
        cells[fallback, :text.shape[1]] = text
    return cells


def _byte_cells(column: np.ndarray, fmt: str, where: str) -> np.ndarray:
    """The cells of a bytes (S) column, formatted before, as the rows of a
    NUL-padded uint8 matrix: numpy pads S values with NULs already."""
    if fmt != "%s":
        raise ValueError(f"{where}: a bytes column holds formatted cells, "
                         f"so its format must be '%s', not {fmt!r}")
    data = column.tobytes()
    cells = np.frombuffer(data, np.uint8).reshape(len(column), column.itemsize)
    # a cell's length runs to its last byte that is not NUL, so a NUL
    # before it makes the non-NUL bytes fall short of the lengths
    if (any(ch in data for ch in _CSV_UNSAFE.encode())
            or np.count_nonzero(cells) != np.strings.str_len(column).sum()):
        bad = next(cell for cell in column.tolist()
                   if any(ch in cell for ch in (_CSV_UNSAFE + "\0").encode()))
        raise ValueError(f"{where}: cell {bad!r} holds a comma, quote, CR, "
                         "LF or NUL")
    return cells


def _formatted(column, fmt: str, where: str) -> np.ndarray:
    """fmt % v for each cell of column as a bytes (S) array, which the
    writer takes as it is: a column formatted once for several tables."""
    cells = _column_cells(column, fmt, where)
    return cells.view(f"S{cells.shape[1]}").ravel()


def _column_cells(column, fmt: str, where: str) -> np.ndarray:
    """fmt % v for each cell of one column, as the rows of a NUL-padded
    uint8 matrix."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "S":
        return _byte_cells(column, fmt, where)
    if (isinstance(column, np.ndarray) and column.dtype.kind in "biuf"
            and column.itemsize <= 8):
        fixed = _FIXED_POINT.fullmatch(fmt)
        if fixed and column.dtype == np.float64 and int(fixed[1]) <= 22:
            return _fixed_point_cells(column, int(fixed[1]), where)
        # a float by its bit pattern, so 0.0 and -0.0, and NaNs with
        # different payloads, stay apart
        keys = (column.view(f"u{column.itemsize}")
                if column.dtype.kind == "f" else column)
        distinct, index = np.unique(keys, return_inverse=True)
        cells = _text_cells(list(map(fmt.__mod__, distinct.view(
            column.dtype).tolist())), where)
        return np.take(cells, index, axis=0)
    if isinstance(column, np.ndarray):
        column = column.tolist()
    # "%s" % (v,) is str(v), and map(str, ...) is the faster of the two
    return _text_cells(list(map(str, column)) if fmt == "%s"
                       else [fmt % (v,) for v in column], where)


def _write_csv(path: Path, header: list[str], columns, formats=None):
    """Write the header, then one row per index of the equal-length columns
    (lists, tuples or numpy arrays).  formats holds one %-style spec per
    column; the default "%s" prints a cell as str of its Python value, so
    a float prints as its shortest round-trip repr.  No columns, or empty
    ones, write the header alone.

    Rows are built a block of _CSV_BLOCK_ROWS at a time, column by column,
    so a long table is never held as text at once, and every cell's bytes
    are those of fmt % v.  A float64 array column under "%.Nf" is written
    from the integer q = rint(|v| * 10**N) and the sign bit of v.  That is
    exact when the scaled value s is below 2**52 and farther than
    s * 2**-50 (at least four ulps) from a half-integer: the product's
    rounding error, at most half an ulp since 10**N is exact for N <= 22,
    cannot then move it across the tie, so q is the correctly rounded value
    that fmt % v prints.  Every other cell of such a column, non-finite
    ones included, falls back to fmt % v.  Any other numeric array column
    formats each distinct value once (a float by its bit pattern); lists,
    tuples and other arrays format cell by cell.  A bytes (S) array column
    holds cells formatted before, by _formatted or as UTF-8, and is
    written as it is under "%s".  A cell holding a comma, a double quote,
    CR, LF or NUL raises ValueError, since the table does no quoting."""
    if formats is None:
        formats = ["%s"] * len(header)
    n = len(columns[0]) if columns else 0
    if (len(columns) not in (0, len(header)) or len(formats) != len(header)
            or any(len(c) != n for c in columns)):
        raise ValueError(f"{path.name}: {len(header)} header fields need "
                         "as many formats and columns of one length")

    def blocks():
        yield (",".join(header) + "\n").encode()
        for i in range(0, n, _CSV_BLOCK_ROWS):
            rows = min(_CSV_BLOCK_ROWS, n - i)
            comma, newline = (np.full((rows, 1), ord(ch), np.uint8)
                              for ch in ",\n")
            parts = []
            for name, column, fmt in zip(header, columns, formats):
                parts += [_column_cells(column[i:i + rows], fmt,
                                        f"{path.name}: column {name!r}"),
                          comma]
            parts[-1] = newline
            yield np.hstack(parts).tobytes().translate(None, b"\0")

    _atomic_write(path, blocks())


def _name_column(rows) -> np.ndarray:
    """The names in rows [n_agents][n_log] as one tick-major bytes (S)
    column, each distinct name encoded once."""
    names = sorted(set().union(*rows))
    code = {name: i for i, name in enumerate(names)}.__getitem__
    codes = np.array([np.fromiter(map(code, row), np.intp, len(row))
                      for row in rows])
    return np.array([name.encode() for name in names])[codes.T.ravel()]


def _write_json(path: Path, payload: dict):
    # allow_nan=False: NaN and Infinity are not JSON, so they raise here
    _atomic_write(path, [(json.dumps(payload, sort_keys=True, indent=2,
                                     allow_nan=False) + "\n").encode()])


# ---------- subcommands ----------

def run_assemble(cfg: RunConfig, out_dir: Path, batch: int | None) -> int:
    ac = cfg.assembly
    mask, p_r = vision.synth_pronotum(vision.PronotumShapeParams(),
                                      child_seed(cfg.seed, "assemble.mask"))
    extracted = vision.extract_reference_point(mask)

    pose, proc = asm.plan_assembly(
        extracted, cfg.rig, calibration=ac.calibration,
        alpha_lower=ac.alpha_lower_deg, alpha_upper=ac.alpha_upper_deg,
        step_durations=ac.step_durations_s)

    final, rows = asm.walk_all(proc)
    _write_csv(out_dir / "event_log.csv",
               ["step_name", "t_start_s", "t_end_s"], list(zip(*rows)))

    total = final.elapsed
    payload_doc = {
        "schema_version": 1,
        "seed": cfg.seed,
        "config_sha256": config_digest(cfg),
        "reference_point_px": {"x": extracted.x, "y": extracted.y},
        "pose_xyz_m": list(pose.reference_point_xyz),
        "pitch_deg": pose.pitch_alpha,
        "total_s": total,
    }
    if batch is not None:
        payload_doc["batch_n"] = batch
        payload_doc["batch_total_s"] = asm.batch_assemble(
            batch, ac.handling_gap_s, final.total_duration)
    _write_json(out_dir / "assembly.json", payload_doc)

    print(f"implant pitch: {pose.pitch_alpha:.1f} deg")
    print(f"{total:.1f} s")
    if batch is not None:
        print(f"{payload_doc['batch_total_s']:.1f} s")
    return EXIT_OK


def _load_trace(path: Path) -> ns.Trace:
    """The trace at path; a file that cannot be read, parsed or held as a
    Trace raises InputDataError naming path."""
    try:
        if path.suffix == ".csv":
            return ns.read_trace_csv(path)
        return ns.read_trace_binary(path)
    except OSError as exc:
        raise InputDataError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise InputDataError(f"{path}: {exc}") from exc


def run_spikes(cfg: RunConfig, out_dir: Path, input_path: Path | None,
               synth_voltage: float | None, sweep: list[float] | None,
               sweep_seeds: int) -> int:
    """sweep is the voltage grid of ns.sweep_voltages."""
    nc = cfg.neurosignal
    if sweep is not None or (input_path is None and synth_voltage is not None):
        # a synthesized trace's extent is the config's, so its edges are
        # checked before any work; a trace file's edges once it is read
        try:
            ns.synth_blank_spans(nc)
        except ValueError as exc:
            raise ConfigError(f"neurosignal.blank_edge_times_s: {exc}") from None

    if sweep is not None:
        counts = ns.voltage_sweep(sweep, sweep_seeds, cfg.seed, nc)
        _write_csv(out_dir / "spike_sweep.csv",
                   ["voltage_v", "mean_spikes", "sd_spikes"],
                   [sweep, counts.mean(axis=1), counts.std(axis=1)])
        print(f"sweep written: {len(sweep)} voltages x {sweep_seeds} seeds")
        return EXIT_OK

    if input_path is not None:
        trace = _load_trace(input_path)
    elif synth_voltage is not None:
        trace = ns.synth_neural_response(
            synth_voltage, child_seed(cfg.seed, "spikes.synth"), nc)
    else:
        raise InputDataError("spikes needs --input, --synth, or --sweep")

    try:
        train = ns.run_spike_pipeline(trace, nc)
    except ValueError as exc:   # the trace's rate, length or size
        if input_path is None:
            raise
        raise ValueError(f"{input_path}: {exc}") from exc
    # 12 significant digits: the last bits of the threshold follow the BLAS
    # build's GEMM kernel, and the count it sets does not
    threshold = float(f"{train.threshold_used:.12g}")
    _write_json(out_dir / "spikes.json", {
        "schema_version": 1,
        "seed": cfg.seed,
        "config_sha256": config_digest(cfg),
        "n_spikes": train.count,
        "threshold_v": threshold,
        "params": {
            "sample_rate_hz": trace.sample_rate,
            "bandpass_low_hz": nc.bandpass_low_hz,
            "bandpass_high_hz": nc.bandpass_high_hz,
            "blank_window_s": nc.blank_window_s,
            "blank_edge_times_s": list(nc.blank_edge_times_s),
            "refractory_s": nc.refractory_s,
        },
    })
    print(f"n_spikes: {train.count}")
    print(f"threshold: {threshold!r} V")
    return EXIT_OK


def run_coverage(cfg: RunConfig, out_dir: Path, seeds: int | None) -> int:
    sc = cfg.swarm
    arena = arena_from_config(sc.arena)
    params = [agent_params_from_config(cfg.locomotion)] * sc.n_agents
    common = dict(stim_period=sc.stim_period_s, duration=sc.duration_s,
                  dt=sc.dt_s, log_rate_hz=sc.log_rate_hz,
                  coverage_from=sc.coverage_from, cell_size=sc.cell_size_m)

    if seeds is None:
        run = sw.simulate(arena, sc.uwb, params, seed=cfg.seed, **common)
        # rows run tick-major: every agent at one tick, then the next tick
        true_x, true_y = run.true_xy.transpose(2, 1, 0).reshape(2, -1)
        est_x, est_y = run.est_xy.transpose(2, 1, 0).reshape(2, -1)
        # both tables' t_s cells
        ticks = _formatted(run.log_t, "%s", "t_s")
        _write_csv(out_dir / "trajectory.csv",
                   ["t_s", "agent_id", "x_true_m", "y_true_m",
                    "x_est_m", "y_est_m", "command"],
                   [np.repeat(ticks, run.n_agents),
                    np.tile(np.arange(run.n_agents), len(run.log_t)),
                    true_x, true_y, est_x, est_y,
                    _name_column(run.commands)],
                   # positions to 1 um, against 5 cm of ranging noise
                   ["%s", "%d"] + ["%.6f"] * 4 + ["%s"])
        _write_csv(out_dir / "coverage.csv",
                   ["t_s"] + [f"agent{i}" for i in range(run.n_agents)] + ["union"],
                   [ticks, *run.agent_coverage_pct, run.union_coverage_pct])
        rate = sw.coverage_rate(run)
        _write_json(out_dir / "summary.json", {
            "schema_version": 1,
            "seed": cfg.seed,
            "config_sha256": config_digest(cfg),
            "duration_s": sc.duration_s,
            "n_agents": run.n_agents,
            "final_union_coverage_pct": run.final_union_coverage,
            "coverage_rate_cm2_per_s": rate,
            "fixes_unconverged": int(np.count_nonzero(~run.est_converged)),
            "fix_iterations_mean": float(run.est_iterations.mean()),
            "per_agent": [
                {"agent_id": i,
                 "final_coverage_pct": float(run.agent_coverage_pct[i, -1])}
                for i in range(run.n_agents)
            ],
        })
        print(f"union coverage: {run.final_union_coverage:.2f} %")
        print(f"coverage rate: {rate:.2f} cm^2/s")
        return EXIT_OK

    # batch mode: runs merged in seed order, each dropped before the next;
    # closing the batch ends its worker processes, also on an error here
    per_seed, unions = [], []
    with contextlib.closing(sw.dispersion_batch(
            arena, sc.uwb, params, seeds, cfg.seed, **common)) as runs:
        for run in runs:
            per_seed.append((run.seed, run.final_union_coverage,
                             sw.coverage_rate(run)))
            unions.append(run.union_coverage_pct)
            log_t = run.log_t
            del run
    run_seeds, finals, rates = zip(*per_seed)
    stack = np.vstack(unions)
    _write_csv(out_dir / "coverage.csv",
               ["t_s", "union_mean_pct", "union_sd_pct"],
               [log_t, stack.mean(axis=0), stack.std(axis=0)])
    _write_json(out_dir / "summary.json", {
        "schema_version": 1,
        "seed": cfg.seed,
        "config_sha256": config_digest(cfg),
        "duration_s": sc.duration_s,
        "n_agents": len(params),
        "n_seeds": seeds,
        "run_seeds": run_seeds,
        "mean_final_union_coverage_pct": float(np.mean(finals)),
        "sd_final_union_coverage_pct": float(np.std(finals)),
        "mean_coverage_rate_cm2_per_s": float(np.mean(rates)),
        "per_seed": [
            {"seed": rs, "final_union_coverage_pct": f, "coverage_rate_cm2_per_s": r}
            for rs, f, r in per_seed
        ],
    })
    print(f"mean union coverage over {seeds} seeds: "
          f"{float(np.mean(finals)):.2f} % (sd {float(np.std(finals)):.2f})")
    return EXIT_OK


def run_masks(cfg: RunConfig, out_dir: Path, count: int, scale: float,
              rotation_deg: float) -> int:
    """Write count synthetic pronotum masks to truth/, a copy of each
    scaled and rotated about the image center to pred/, and their
    posterior-edge midpoints to truth_points.csv: a dataset that metrics
    scores as it is."""
    for d in ("truth", "pred"):
        (out_dir / d).mkdir(parents=True, exist_ok=True)
    perturbed = scale != 1.0 or rotation_deg != 0.0
    ids, points = [f"m{k:04d}" for k in range(count)], []
    for k, mask_id in enumerate(ids):
        mask, p_r = vision.synth_pronotum(vision.PronotumShapeParams(),
                                          child_seed(cfg.seed, "mask", k))
        # the generator's point is exact by construction; check it against
        # the extractor so a broken dataset never ships
        got = vision.extract_reference_point(mask)
        if got != p_r:
            raise ValueError(f"{mask_id}.pgm: the extractor finds {got}, "
                             f"the generator placed {p_r}")
        _atomic_write(out_dir / "truth" / f"{mask_id}.pgm",
                      vision.encode_pgm(mask))
        _atomic_write(out_dir / "pred" / f"{mask_id}.pgm", vision.encode_pgm(
            vision.augment(mask, scale, scale, rotation_deg)
            if perturbed else mask))
        points.append((p_r.x, p_r.y))
    _write_csv(out_dir / "truth_points.csv", ["id", "x_px", "y_px"],
               [ids, *zip(*points)])
    kind = (f"scale {scale}, rotation {rotation_deg} deg" if perturbed
            else "identical copies")
    print(f"mask pairs: {count} ({kind})")
    return EXIT_OK


def run_metrics(cfg: RunConfig, out_dir: Path, pred_dir: Path,
                truth_dir: Path) -> int:
    for d in (pred_dir, truth_dir):
        if not d.is_dir():
            raise InputDataError(f"not a directory: {d}")
    pred_names = sorted(p.name for p in pred_dir.glob("*.pgm"))
    truth_names = sorted(p.name for p in truth_dir.glob("*.pgm"))
    if not truth_names:
        raise InputDataError(f"no .pgm files in {truth_dir}")
    if pred_names != truth_names:
        missing = sorted(set(truth_names) - set(pred_names))
        extra = sorted(set(pred_names) - set(truth_names))
        raise InputDataError(
            "prediction and truth directories do not match; "
            f"missing from predictions: {missing}; "
            f"unmatched predictions: {extra}"
        )
    for name in truth_names:
        if any(ch in name for ch in _CSV_UNSAFE):
            raise InputDataError(
                f"{str(truth_dir / name)!r}: a mask name holding a comma, "
                "quote, CR or LF cannot be an id in metrics.csv")
        try:
            name.encode()
        except UnicodeEncodeError:
            raise InputDataError(
                f"{str(truth_dir / name)!r}: a mask name that is not valid "
                "UTF-8 cannot be an id in metrics.csv") from None
    preds, truths = [], []
    for name in truth_names:
        masks = []
        for path in (pred_dir / name, truth_dir / name):
            try:
                masks.append(vision.read_pgm(path))
            except OSError as exc:
                raise InputDataError(f"{path}: {exc.strerror or exc}") from exc
            except ValueError as exc:   # read_pgm's messages name the path
                raise InputDataError(str(exc)) from exc
        pm, tm = masks
        if pm.pixels.shape != tm.pixels.shape:
            raise InputDataError(
                f"{name}: mask dimensions differ: prediction "
                f"{pm.width}x{pm.height} vs truth {tm.width}x{tm.height}")
        if pm.foreground_count == 0 or tm.foreground_count == 0:
            raise InputDataError(f"{name}: empty mask has no reference point")
        preds.append(pm)
        truths.append(tm)
    metrics, rows = vision.evaluate_pairs(preds, truths)   # empty masks exit above
    ious, dscs, errs = zip(*rows)
    _write_csv(out_dir / "metrics.csv", ["id", "iou", "dsc", "pr_err_sq"],
               [truth_names + ["mean"], ious + (metrics.miou,),
                dscs + (metrics.mdsc,), errs + (metrics.mse_pr,)])
    print(f"pairs: {len(rows)}")
    print(f"mIoU: {metrics.miou:.4f}  mDSC: {metrics.mdsc:.4f}  "
          f"MSE(p_R): {metrics.mse_pr:.3f} px^2")
    return EXIT_OK


def run_fixation(cfg: RunConfig, points: int) -> int:
    rig = cfg.rig
    print("d_mm\th_mm\texposed\tsafety_margin")
    for i in range(points):
        d = rig.rod_a_initial_clearance_m * i / (points - 1)
        h = lifting_height(rig, d)
        print(f"{d * 1e3:.3f}\t{h * 1e3:.3f}"
              f"\t{'yes' if exposure_sufficient(rig, h) else 'no'}"
              f"\t{'yes' if exposure_safety_margin(rig, h) else 'no'}")
    return EXIT_OK


# ---------- entry ----------

def _count(minimum: int):
    """argparse type for a count flag: an integer of at least minimum."""
    def count(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {n}")
        return n
    return count


def _build_parser() -> argparse.ArgumentParser:
    # the shared flags live both on the top-level parser and on every
    # subparser, so "biobotsim --seed 1 coverage" and
    # "biobotsim coverage --seed 1" both work (the later position wins);
    # SUPPRESS keeps an omitted subcommand flag from erasing the top-level
    # value when the subparser writes its defaults into the namespace
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=argparse.SUPPRESS,
                        help="JSON run config (defaults used when omitted)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the config seed")
    common.add_argument("--output-dir", type=Path, default=argparse.SUPPRESS,
                        help="override the config output directory")

    parser = argparse.ArgumentParser(
        prog="biobotsim",
        description="Cyborg-insect assembly and swarm coverage simulator",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assemble", parents=[common],
                       help="plan one unit and walk the process")
    p.add_argument("--batch", type=_count(1), default=None,
                   help="also report total time for N sequential units")

    p = sub.add_parser("spikes", parents=[common],
                       help="run the spike detection pipeline")
    p.add_argument("--input", type=Path, default=None,
                   help="trace file (.csv text or binary frame)")
    p.add_argument("--synth", type=float, default=None, metavar="VOLTAGE",
                   help="generate a synthetic response at this voltage")
    p.add_argument("--sweep", type=float, nargs=3, default=None,
                   metavar=("START", "STOP", "STEP"),
                   help="voltage sweep; writes mean/sd spike counts")
    p.add_argument("--sweep-seeds", type=_count(1), default=50,
                   help="seeds per sweep voltage (default 50)")

    p = sub.add_parser("coverage", parents=[common],
                       help="run the dispersion experiment")
    p.add_argument("--seeds", type=_count(1), default=None,
                   help="run a batch of N seeds and aggregate")
    p.add_argument("--agents", type=_count(1), default=None,
                   help="override the configured agent count")

    p = sub.add_parser("masks", parents=[common],
                       help="write a synthetic mask dataset for metrics")
    p.add_argument("--count", type=_count(1), default=50,
                   help="number of mask pairs (default 50)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="isotropic scale applied to the pred copies")
    p.add_argument("--rotation-deg", type=float, default=0.0,
                   help="rotation applied to the pred copies")

    p = sub.add_parser("metrics", parents=[common],
                       help="score segmentation mask pairs")
    p.add_argument("--pred", type=Path, required=True,
                   help="directory of predicted .pgm masks")
    p.add_argument("--truth", type=Path, required=True,
                   help="directory of ground-truth .pgm masks")

    p = sub.add_parser("fixation", parents=[common],
                       help="print the lift-height table")
    p.add_argument("--points", type=_count(2), default=9,
                   help="table rows (default 9)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "synth", None) is not None:
        try:
            ns.check_voltage(args.synth)
        except ValueError as exc:
            parser.error(f"argument --synth: {exc}")
    if getattr(args, "sweep", None) is not None:
        try:
            args.sweep = ns.sweep_voltages(*args.sweep)
        except ValueError as exc:
            parser.error(f"argument --sweep: {exc}")
    if args.command == "masks":
        frame = vision.PronotumShapeParams().frame
        # at scale 1 only the rotation can fail, and once it has passed,
        # only the scale
        for flag, scale in (("--rotation-deg", 1.0), ("--scale", args.scale)):
            try:
                vision.check_augment((frame, frame), scale, scale,
                                     args.rotation_deg)
            except ValueError as exc:
                parser.error(f"argument {flag}: {exc}")
    config_path = getattr(args, "config", None)
    seed_flag = getattr(args, "seed", None)
    output_flag = getattr(args, "output_dir", None)
    try:
        cfg = (load_config(config_path) if config_path is not None
               else config_from_dict({"schema_version": SCHEMA_VERSION}))

        seed = cfg.seed
        if os.environ.get(ENV_SEED):
            try:
                seed = int(os.environ[ENV_SEED])
            except ValueError as exc:
                raise ConfigError(
                    f"{ENV_SEED} must be an integer, got "
                    f"{os.environ[ENV_SEED]!r}") from exc
        if seed_flag is not None:
            seed = seed_flag
        out = cfg.output_dir
        if os.environ.get(ENV_OUTPUT_DIR):
            out = os.environ[ENV_OUTPUT_DIR]
        if output_flag is not None:
            out = output_flag
        cfg = dataclasses.replace(cfg, seed=seed, output_dir=str(out))
        if getattr(args, "agents", None) is not None:
            cfg = dataclasses.replace(cfg, swarm=dataclasses.replace(
                cfg.swarm, n_agents=args.agents))
            check_swarm(cfg.swarm)   # the agent count bounds a run's size
        out_dir = Path(cfg.output_dir)

        if args.command == "assemble":
            return run_assemble(cfg, out_dir, args.batch)
        if args.command == "spikes":
            return run_spikes(cfg, out_dir, args.input, args.synth,
                              args.sweep, args.sweep_seeds)
        if args.command == "coverage":
            return run_coverage(cfg, out_dir, args.seeds)
        if args.command == "masks":
            return run_masks(cfg, out_dir, args.count, args.scale,
                             args.rotation_deg)
        if args.command == "metrics":
            return run_metrics(cfg, out_dir, args.pred, args.truth)
        if args.command == "fixation":
            return run_fixation(cfg, args.points)
        raise ValueError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputDataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
