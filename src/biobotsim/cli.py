"""Command line front end.

Subcommands: assemble, spikes, coverage, metrics, fixation.  All runs are
driven by a JSON config (defaults apply when none is given) plus a seed;
identical config and seed always produce byte-identical output files.
Output files carry no timestamps and are written atomically.

Exit codes: 0 success, 2 config error, 3 input data error, 4 runtime error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import assembly as asm
from . import neurosignal as ns
from . import swarm as sw
from . import vision
from .config import (ConfigError, RunConfig, agent_params_from_config,
                     arena_from_config, config_digest, from_config,
                     load_config, uwb_from_config, workspace_from_config)
from .morphology import (FixationRig, exposure_safety_margin,
                         exposure_sufficient, lifting_height)
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

def _atomic_write_lines(path: Path, lines):
    """Write an iterable of text lines to path through a temp file, so the
    path holds either the old file or the whole new one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, header: list[str], columns):
    """Write the header, then one row per index of the equal-length columns
    (lists, tuples or numpy arrays).  Rows are formatted a block at a time,
    so a long table is never held as text at once.  A cell prints as str
    of its Python value, so a float prints as its repr.  No columns, or
    empty ones, write the header alone."""
    n = len(columns[0]) if columns else 0
    if (len(columns) not in (0, len(header))
            or any(len(c) != n for c in columns)):
        raise ValueError(f"{path.name}: {len(header)} header fields need "
                         "as many columns of one length")
    fmt = ",".join(["{}"] * len(header)) + "\n"

    def lines():
        yield ",".join(header) + "\n"
        for i in range(0, n, _CSV_BLOCK_ROWS):
            cells = [c[i:i + _CSV_BLOCK_ROWS] for c in columns]
            yield "".join(map(fmt.format, *(
                c.tolist() if isinstance(c, np.ndarray) else c
                for c in cells)))

    _atomic_write_lines(path, lines())


def _write_json(path: Path, payload: dict):
    _atomic_write_lines(path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


# ---------- subcommands ----------

def run_assemble(cfg: RunConfig, out_dir: Path, batch: int | None) -> int:
    rig = from_config(FixationRig, cfg.rig)
    calibration = from_config(asm.PixelToArmCalibration,
                              cfg.assembly.calibration)
    payload = from_config(asm.PayloadSpec, cfg.assembly.payload)
    workspace = workspace_from_config(cfg.assembly)

    mask, p_r = vision.synth_pronotum(vision.PronotumShapeParams(),
                                      child_seed(cfg.seed, "assemble.mask"))
    extracted = vision.extract_reference_point(mask)

    pose, proc = asm.plan_assembly(
        extracted, rig, calibration=calibration,
        alpha_lower=cfg.assembly.alpha_lower_deg,
        alpha_upper=cfg.assembly.alpha_upper_deg,
        step_durations=cfg.assembly.step_durations_s)
    asm.check_payload(payload)
    asm.check_workspace(workspace, cfg.assembly.approach_envelope_m)

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
            batch, cfg.assembly.handling_gap_s, final.total_duration)
    _write_json(out_dir / "assembly.json", payload_doc)

    print(f"implant pitch: {pose.pitch_alpha:.1f} deg")
    print(f"{total:.1f} s")
    if batch is not None:
        print(f"{payload_doc['batch_total_s']:.1f} s")
    return EXIT_OK


def _load_trace(path: Path) -> ns.Trace:
    if not path.exists():
        raise InputDataError(f"trace file not found: {path}")
    try:
        if path.suffix == ".csv":
            return ns.read_trace_csv(path)
        return ns.read_trace_binary(path)
    except ValueError as exc:
        raise InputDataError(str(exc)) from exc


def run_spikes(cfg: RunConfig, out_dir: Path, input_path: Path | None,
               synth_voltage: float | None, sweep: list[float] | None,
               sweep_seeds: int) -> int:
    """sweep is the voltage grid of ns.sweep_voltages."""
    nc = cfg.neurosignal
    pipeline_kwargs = dict(edge_times=nc.blank_edge_times_s,
                           blank_window=nc.blank_window_s,
                           low=nc.bandpass_low_hz, high=nc.bandpass_high_hz,
                           refractory=nc.refractory_s)

    if sweep is not None:
        counts = ns.voltage_sweep(
            sweep, sweep_seeds, cfg.seed, sample_rate=nc.sample_rate_hz,
            duration=nc.synth_duration_s, noise_sd=nc.synth_noise_sd_v,
            r_min=nc.r_min_hz, r_max=nc.r_max_hz, **pipeline_kwargs)
        _write_csv(out_dir / "spike_sweep.csv",
                   ["voltage_v", "mean_spikes", "sd_spikes"],
                   [sweep, [float(np.mean(c)) for c in counts],
                    [float(np.std(c)) for c in counts]])
        print(f"sweep written: {len(sweep)} voltages x {sweep_seeds} seeds")
        return EXIT_OK

    if input_path is not None:
        trace = _load_trace(input_path)
    elif synth_voltage is not None:
        trace = ns.synth_neural_response(
            synth_voltage, child_seed(cfg.seed, "spikes.synth"),
            nc.sample_rate_hz, duration=nc.synth_duration_s,
            noise_sd=nc.synth_noise_sd_v,
            artifact_times=nc.blank_edge_times_s,
            r_min=nc.r_min_hz, r_max=nc.r_max_hz)
    else:
        raise InputDataError("spikes needs --input, --synth, or --sweep")

    train = ns.run_spike_pipeline(trace, **pipeline_kwargs)
    _write_json(out_dir / "spikes.json", {
        "schema_version": 1,
        "seed": cfg.seed,
        "config_sha256": config_digest(cfg),
        "n_spikes": train.count,
        "threshold_v": train.threshold_used,
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
    print(f"threshold: {train.threshold_used!r} V")
    return EXIT_OK


def run_coverage(cfg: RunConfig, out_dir: Path, seeds: int | None,
                 n_agents: int | None = None) -> int:
    sc = cfg.swarm
    arena = arena_from_config(sc.arena)
    uwb = uwb_from_config(sc.uwb)
    params = [agent_params_from_config(cfg.locomotion)] * (
        sc.n_agents if n_agents is None else n_agents)
    common = dict(stim_period=sc.stim_period_s, duration=sc.duration_s,
                  dt=sc.dt_s, log_rate_hz=sc.log_rate_hz,
                  coverage_from=sc.coverage_from, cell_size=sc.cell_size_m)

    if seeds is None:
        run = sw.simulate(arena, uwb, params, seed=cfg.seed, **common)
        # rows run tick-major: every agent at one tick, then the next tick
        true_x, true_y = run.true_xy.transpose(2, 1, 0).reshape(2, -1)
        est_x, est_y = run.est_xy.transpose(2, 1, 0).reshape(2, -1)
        _write_csv(out_dir / "trajectory.csv",
                   ["t_s", "agent_id", "x_true_m", "y_true_m",
                    "x_est_m", "y_est_m", "command"],
                   [np.repeat(run.log_t, run.n_agents),
                    np.tile(np.arange(run.n_agents), len(run.log_t)),
                    true_x, true_y, est_x, est_y,
                    [c for tick in zip(*run.commands) for c in tick]])
        _write_csv(out_dir / "coverage.csv",
                   ["t_s"] + [f"agent{i}" for i in range(run.n_agents)] + ["union"],
                   [run.log_t, *run.agent_coverage_pct, run.union_coverage_pct])
        rate = sw.coverage_rate(run)
        _write_json(out_dir / "summary.json", {
            "schema_version": 1,
            "seed": cfg.seed,
            "config_sha256": config_digest(cfg),
            "duration_s": sc.duration_s,
            "n_agents": run.n_agents,
            "final_union_coverage_pct": run.final_union_coverage,
            "coverage_rate_cm2_per_s": rate,
            "per_agent": [
                {"agent_id": i,
                 "final_coverage_pct": float(run.agent_coverage_pct[i, -1])}
                for i in range(run.n_agents)
            ],
        })
        print(f"union coverage: {run.final_union_coverage:.2f} %")
        print(f"coverage rate: {rate:.2f} cm^2/s")
        return EXIT_OK

    # batch mode: per-seed runs merged in deterministic seed order; each
    # run is dropped before the next starts, keeping only what is merged
    finals = []
    rates = []
    unions = []
    run_seeds = [child_seed(cfg.seed, "coverage.batch", i) for i in range(seeds)]
    for rs in run_seeds:
        run = sw.simulate(arena, uwb, params, seed=rs, **common)
        finals.append(run.final_union_coverage)
        rates.append(sw.coverage_rate(run))
        unions.append(run.union_coverage_pct)
        log_t = run.log_t
        del run
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
            for rs, f, r in zip(run_seeds, finals, rates)
        ],
    })
    print(f"mean union coverage over {seeds} seeds: "
          f"{float(np.mean(finals)):.2f} % (sd {float(np.std(finals)):.2f})")
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
    preds, truths = [], []
    for name in truth_names:
        try:
            pm = vision.read_pgm(pred_dir / name)
            tm = vision.read_pgm(truth_dir / name)
        except ValueError as exc:
            raise InputDataError(str(exc)) from exc
        if pm.pixels.shape != tm.pixels.shape:
            raise InputDataError(
                f"{name}: mask dimensions differ: prediction "
                f"{pm.width}x{pm.height} vs truth {tm.width}x{tm.height}")
        if pm.foreground_count == 0 or tm.foreground_count == 0:
            raise InputDataError(f"{name}: empty mask has no reference point")
        preds.append(pm)
        truths.append(tm)
    try:
        metrics, rows = vision.evaluate_pairs(preds, truths)
    except vision.EmptyMaskError as exc:
        raise InputDataError(str(exc)) from exc
    ious, dscs, errs = zip(*rows)
    _write_csv(out_dir / "metrics.csv", ["id", "iou", "dsc", "pr_err_sq"],
               [truth_names + ["mean"], ious + (metrics.miou,),
                dscs + (metrics.mdsc,), errs + (metrics.mse_pr,)])
    print(f"pairs: {len(rows)}")
    print(f"mIoU: {metrics.miou:.4f}  mDSC: {metrics.mdsc:.4f}  "
          f"MSE(p_R): {metrics.mse_pr:.3f} px^2")
    return EXIT_OK


def run_fixation(cfg: RunConfig, points: int) -> int:
    rig = from_config(FixationRig, cfg.rig)
    print("d_mm\th_mm\texposed\tsafety_margin")
    for i in range(points):
        d = rig.rod_a_initial_clearance * i / (points - 1)
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
    config_path = getattr(args, "config", None)
    seed_flag = getattr(args, "seed", None)
    output_flag = getattr(args, "output_dir", None)
    try:
        cfg = load_config(config_path) if config_path is not None else RunConfig()

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
        import dataclasses as _dc
        cfg = _dc.replace(cfg, seed=seed, output_dir=str(out))
        out_dir = Path(cfg.output_dir)

        if args.command == "assemble":
            return run_assemble(cfg, out_dir, args.batch)
        if args.command == "spikes":
            return run_spikes(cfg, out_dir, args.input, args.synth,
                              args.sweep, args.sweep_seeds)
        if args.command == "coverage":
            return run_coverage(cfg, out_dir, args.seeds, args.agents)
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
