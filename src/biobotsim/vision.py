"""Binary pronotum masks: reference-point extraction, overlap metrics,
affine augmentation, synthetic mask generation, and PGM file I/O.

Masks are row-major binary grids.  Pixel coordinates are (x, y) with x the
column index and y the row index; the posterior direction defaults to +y
(row index increasing).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

DEFAULT_FRAME = 256  # pipeline-default mask side length, pixels


class EmptyMaskError(ValueError):
    """Raised when an operation needs at least one foreground pixel."""


# ---------- mask container ----------

@dataclass(frozen=True, eq=False)
class Mask:
    """Binary image; pixels[y, x] is True on foreground."""

    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {self.pixels.shape}")
        if self.pixels.dtype != np.bool_:
            object.__setattr__(self, "pixels", self.pixels.astype(bool))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def foreground_count(self) -> int:
        return int(self.pixels.sum())

    @classmethod
    def zeros(cls, width: int = DEFAULT_FRAME, height: int = DEFAULT_FRAME) -> "Mask":
        return cls(np.zeros((height, width), dtype=bool))

    @classmethod
    def from_array(cls, arr) -> "Mask":
        return cls(np.asarray(arr, dtype=bool))

    def same_bits(self, other: "Mask") -> bool:
        return bool(np.array_equal(self.pixels, other.pixels))


@dataclass(frozen=True)
class ReferencePoint:
    """Pixel location of the posterior pronotum midpoint."""

    x: int
    y: int


@dataclass(frozen=True)
class SegMetrics:
    miou: float
    mdsc: float
    mse_pr: float


# ---------- reference point ----------

def _round_half_away(v: float) -> int:
    return int(math.floor(v + 0.5)) if v >= 0.0 else -int(math.floor(-v + 0.5))


def extract_reference_point(mask: Mask,
                            posterior_direction: Literal["+y", "-y"] = "+y",
                            ) -> ReferencePoint:
    """Posterior-edge midpoint of a pronotum mask.

    y is the extreme occupied row along the posterior direction; x is the
    mean column index of the foreground pixels in that row, rounded half
    away from zero.
    """
    if posterior_direction not in ("+y", "-y"):
        raise ValueError(f"posterior_direction must be '+y' or '-y', got {posterior_direction!r}")
    rows = np.flatnonzero(mask.pixels.any(axis=1))
    if rows.size == 0:
        raise EmptyMaskError("cannot extract a reference point from an empty mask")
    y = int(rows[-1]) if posterior_direction == "+y" else int(rows[0])
    cols = np.flatnonzero(mask.pixels[y])
    x = _round_half_away(float(cols.mean()))
    return ReferencePoint(x=x, y=y)


# ---------- overlap metrics ----------

def _check_same_shape(a: Mask, b: Mask):
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(
            f"mask dimensions differ: {a.pixels.shape} vs {b.pixels.shape}"
        )


def iou(a: Mask, b: Mask) -> float:
    """Intersection over union; 1.0 when both masks are empty."""
    _check_same_shape(a, b)
    inter = int(np.logical_and(a.pixels, b.pixels).sum())
    union = int(np.logical_or(a.pixels, b.pixels).sum())
    if union == 0:
        return 1.0
    return inter / union


def dsc(a: Mask, b: Mask) -> float:
    """Dice similarity coefficient; 1.0 when both masks are empty."""
    _check_same_shape(a, b)
    inter = int(np.logical_and(a.pixels, b.pixels).sum())
    total = int(a.pixels.sum()) + int(b.pixels.sum())
    if total == 0:
        return 1.0
    return 2.0 * inter / total


def mse_pr(predicted: list[ReferencePoint], truth: list[ReferencePoint]) -> float:
    """Mean squared Euclidean pixel distance between paired reference points."""
    if len(predicted) != len(truth):
        raise ValueError(
            f"length mismatch: {len(predicted)} predicted vs {len(truth)} truth"
        )
    if not predicted:
        raise ValueError("mse_pr needs at least one pair")
    total = 0.0
    for p, t in zip(predicted, truth):
        total += (p.x - t.x) ** 2 + (p.y - t.y) ** 2
    return total / len(predicted)


# ---------- affine augmentation ----------

def augment(mask: Mask, scale_x: float, scale_y: float,
            rotation_deg: float) -> Mask:
    """Scale then rotate a mask about its center.

    The binary field is resampled with bilinear interpolation on the
    inverse-mapped grid and thresholded at 0.5.  Output dimensions equal
    input dimensions; content mapped from outside the frame is background.
    Identity parameters (1, 1, 0) reproduce the input bit for bit.
    """
    if scale_x <= 0.0 or scale_y <= 0.0:
        raise ValueError(f"scale factors must be positive, got ({scale_x}, {scale_y})")
    h, w = mask.pixels.shape
    cy = (h - 1) / 2.0
    cx = (w - 1) / 2.0
    theta = math.radians(rotation_deg)
    c, s = math.cos(theta), math.sin(theta)

    ys, xs = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float),
                         indexing="ij")
    dx = xs - cx
    dy = ys - cy
    # inverse map: undo rotation, then undo scaling
    sx = (c * dx + s * dy) / scale_x + cx
    sy = (-s * dx + c * dy) / scale_y + cy

    field = mask.pixels.astype(float)
    x0 = np.floor(sx).astype(int)
    y0 = np.floor(sy).astype(int)
    fx = sx - x0
    fy = sy - y0

    def at(yy, xx):
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        out = np.zeros_like(fx)
        out[valid] = field[yy[valid], xx[valid]]
        return out

    v00 = at(y0, x0)
    v01 = at(y0, x0 + 1)
    v10 = at(y0 + 1, x0)
    v11 = at(y0 + 1, x0 + 1)
    sampled = (v00 * (1 - fx) * (1 - fy) + v01 * fx * (1 - fy)
               + v10 * (1 - fx) * fy + v11 * fx * fy)
    return Mask(sampled >= 0.5)


# ---------- synthetic pronotum generator ----------

@dataclass(frozen=True)
class PronotumShapeParams:
    """Sampling ranges for the shield-shaped synthetic pronotum, pixels.

    Shapes are elliptical shields cut flat at the posterior edge.  The
    ranges keep every shape inside a central disk so +-30 degree rotations
    never clip at the frame border.
    """

    frame: int = DEFAULT_FRAME
    semi_axis_x: tuple[float, float] = (52.0, 86.0)
    semi_axis_y: tuple[float, float] = (60.0, 94.0)
    center_jitter: float = 12.0          # uniform +- jitter of the shape center
    posterior_cut: tuple[float, float] = (0.55, 0.80)  # cut depth, fraction of semi_axis_y
    asymmetry: float = 0.10              # max relative left/right semi-axis imbalance


def synth_pronotum(params: PronotumShapeParams, seed: int,
                   ) -> tuple[Mask, ReferencePoint]:
    """Generate one synthetic pronotum mask with a known reference point.

    Rows above the posterior cut follow the ellipse inclusion test; the
    posterior row itself is written as an explicit integer span, so the
    ground-truth reference point is exact by construction.
    """
    rng = np.random.default_rng(seed)
    n = params.frame
    ax = rng.uniform(*params.semi_axis_x)
    ay = rng.uniform(*params.semi_axis_y)
    wobble = rng.uniform(-params.asymmetry, params.asymmetry)
    ax_left = ax * (1.0 + wobble)
    ax_right = ax * (1.0 - wobble)
    cx = (n - 1) / 2.0 + rng.uniform(-params.center_jitter, params.center_jitter)
    cy = 0.46 * n + rng.uniform(-params.center_jitter, params.center_jitter)
    cut = rng.uniform(*params.posterior_cut)

    y_top = int(math.ceil(cy - ay))
    y_post = int(math.floor(cy + cut * ay))
    if y_top < 1 or y_post > n - 2 or y_post <= y_top:
        raise ValueError("shape parameters place the shield outside the frame")

    bits = np.zeros((n, n), dtype=bool)
    cols = np.arange(n, dtype=float)
    for y in range(y_top, y_post):
        ry = (y - cy) / ay
        rem = 1.0 - ry * ry
        if rem <= 0.0:
            continue
        span = np.where(cols < cx,
                        ((cols - cx) / ax_left) ** 2 <= rem,
                        ((cols - cx) / ax_right) ** 2 <= rem)
        bits[y] = span

    # explicit flat posterior edge: integer span, immune to float boundary ties
    ry = (y_post - cy) / ay
    shrink = math.sqrt(max(1.0 - ry * ry, 0.0))
    half_left = max(int(ax_left * shrink) - 1, 4)
    half_right = max(int(ax_right * shrink) - 1, 4)
    cxi = _round_half_away(cx)
    x_min = cxi - half_left
    x_max = cxi + half_right
    bits[y_post, x_min:x_max + 1] = True

    p_r = ReferencePoint(x=_round_half_away((x_min + x_max) / 2.0), y=y_post)
    return Mask(bits), p_r


def evaluate_pairs(predicted: list[Mask], truth: list[Mask],
                   posterior_direction: Literal["+y", "-y"] = "+y",
                   ) -> tuple[SegMetrics, list[tuple[float, float, float]]]:
    """Score prediction/truth mask pairs.

    Returns aggregate metrics plus one (iou, dsc, pr_err_sq) row per pair.
    """
    if len(predicted) != len(truth):
        raise ValueError(
            f"length mismatch: {len(predicted)} predicted vs {len(truth)} truth"
        )
    if not predicted:
        raise ValueError("evaluate_pairs needs at least one pair")
    rows = []
    for p, t in zip(predicted, truth):
        rp = extract_reference_point(p, posterior_direction)
        rt = extract_reference_point(t, posterior_direction)
        err = float((rp.x - rt.x) ** 2 + (rp.y - rt.y) ** 2)
        rows.append((iou(p, t), dsc(p, t), err))
    arr = np.asarray(rows)
    metrics = SegMetrics(miou=float(arr[:, 0].mean()),
                         mdsc=float(arr[:, 1].mean()),
                         mse_pr=float(arr[:, 2].mean()))
    return metrics, rows


# ---------- PGM I/O ----------

def write_pgm(mask: Mask, path: str | Path):
    """Write an ASCII PGM (P2, maxval 1); round-trips bit for bit."""
    lines = [f"P2", f"{mask.width} {mask.height}", "1"]
    for row in mask.pixels:
        lines.append(" ".join("1" if v else "0" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_pgm(path: str | Path) -> Mask:
    tokens: list[str] = []
    for line in Path(path).read_text().splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError(f"{path}: not an ASCII PGM (P2) file")
    if len(tokens) < 4:
        raise ValueError(f"{path}: truncated PGM header")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 1:
        raise ValueError(f"{path}: expected maxval 1, got {maxval}")
    values = tokens[4:]
    if len(values) != width * height:
        raise ValueError(
            f"{path}: expected {width * height} pixels, got {len(values)}"
        )
    arr = np.array([int(v) for v in values], dtype=int).reshape(height, width)
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{path}: pixel values must be 0 or 1")
    return Mask(arr.astype(bool))
