#!/usr/bin/env python3
"""Generate a synthetic pronotum mask dataset with known reference points.

Writes a truth/ directory of binary .pgm masks with a CSV of ground-truth
posterior-edge midpoints, plus a pred/ directory holding an optionally
perturbed copy of each mask (scale and rotation applied about the image
center).  The pair of directories feeds the metrics subcommand directly:

    biobotsim metrics --pred <out>/pred --truth <out>/truth
"""
from __future__ import annotations

import argparse
import math
from pathlib import Path

from biobotsim.seeding import child_seed
from biobotsim.vision import (PronotumShapeParams, augment, check_augment,
                              extract_reference_point, synth_pronotum,
                              write_pgm)


def count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def positive(text: str) -> float:
    value = finite(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def parse_args():
    # bad flags exit 2 here, before any file is written
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=count, default=50,
                    help="number of mask pairs (default 50)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--scale", type=positive, default=1.0,
                    help="isotropic scale applied to the pred copies")
    ap.add_argument("--rotation-deg", type=finite, default=0.0,
                    help="rotation applied to the pred copies")
    ap.add_argument("--output-dir", type=Path, default=Path("out/masks"))
    args = ap.parse_args()
    frame = PronotumShapeParams().frame
    try:
        check_augment((frame, frame), args.scale, args.scale, args.rotation_deg)
    except ValueError as exc:   # finite flags: only --scale can be too small
        ap.error(f"argument --scale: {exc}")
    return args


def main():
    args = parse_args()
    truth_dir = args.output_dir / "truth"
    pred_dir = args.output_dir / "pred"
    truth_dir.mkdir(parents=True, exist_ok=True)
    pred_dir.mkdir(parents=True, exist_ok=True)

    shape = PronotumShapeParams()
    perturbed = args.scale != 1.0 or args.rotation_deg != 0.0
    lines = ["id,x_px,y_px"]
    for k in range(args.count):
        mask, p_r = synth_pronotum(shape, child_seed(args.seed, "mask", k))
        name = f"m{k:04d}.pgm"
        # the generator's reference point is exact by construction; check
        # it against the extractor so a broken dataset never ships
        got = extract_reference_point(mask)
        if got != p_r:
            raise SystemExit(f"{name}: the extractor finds {got}, the "
                             f"generator placed {p_r}")
        write_pgm(mask, truth_dir / name)
        pred = (augment(mask, args.scale, args.scale, args.rotation_deg)
                if perturbed else mask)
        write_pgm(pred, pred_dir / name)
        lines.append(f"m{k:04d},{p_r.x},{p_r.y}")
    (args.output_dir / "truth_points.csv").write_text("\n".join(lines) + "\n")

    kind = (f"scale {args.scale}, rotation {args.rotation_deg} deg"
            if perturbed else "identical copies")
    print(f"wrote {args.count} mask pairs to {args.output_dir} ({kind})")
    print(f"ground-truth points: {args.output_dir}/truth_points.csv")


if __name__ == "__main__":
    main()
