"""Binary pronotum masks: reference-point extraction, overlap metrics,
affine augmentation, synthetic mask generation, and PGM file I/O.

Masks are row-major binary grids.  Pixel coordinates are (x, y) with x the
column index and y the row index; the posterior direction defaults to +y
(row index increasing).
"""
from __future__ import annotations

import math
import re
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

    dx = np.arange(w, dtype=float) - cx
    dy = (np.arange(h, dtype=float) - cy)[:, None]
    # inverse map: undo rotation, then undo scaling.  The full-frame arrays
    # are updated in place, in the operation order of the plain expressions,
    # so that each call allocates few of them.
    fx = c * dx + s * dy
    fx /= scale_x
    fx += cx
    fy = -s * dx + c * dy
    fy /= scale_y
    fy += cy

    # a 2-pixel zero border stands in for everything outside the frame:
    # the floor of the source x clipped to [-2, w] keeps both x neighbours
    # in the padded field, and a pair wholly outside the frame still reads
    # two zeros
    pw = w + 4
    field = np.zeros((h + 4, pw))
    field[2:-2, 2:-2] = mask.pixels
    flat = field.ravel()
    row = np.floor(fy)
    fy -= row
    col = np.floor(fx)
    fx -= col
    # flat index of the top-left neighbour; integers this small are exact
    # in float64
    np.clip(row, -2, h, out=row)
    row += 2
    row *= pw
    np.clip(col, -2, w, out=col)
    row += col
    row += 2
    base = row.astype(np.intp)
    v00 = flat[base]
    v01 = flat[1:][base]
    v10 = flat[pw:][base]
    v11 = flat[pw + 1:][base]
    # v00 (1-fx)(1-fy) + v01 fx (1-fy) + v10 (1-fx) fy + v11 fx fy
    gx = 1 - fx
    gy = 1 - fy
    v00 *= gx
    v00 *= gy
    v01 *= fx
    v01 *= gy
    v00 += v01
    v10 *= gx
    v10 *= fy
    v00 += v10
    v11 *= fx
    v11 *= fy
    v00 += v11
    return Mask(v00 >= 0.5)


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
    half_axis = np.where(cols < cx, ax_left, ax_right)
    ry = (np.arange(y_top, y_post, dtype=float) - cy) / ay
    rem = (1.0 - ry * ry)[:, None]
    # a row with rem <= 0 stays empty, even at a column whose ellipse term is 0
    bits[y_top:y_post] = (((cols - cx) / half_axis) ** 2 <= rem) & (rem > 0.0)

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

# PGM whitespace: the six ASCII bytes that `bytes.split()` and C isspace() use
_PGM_SPACE = np.zeros(256, dtype=bool)
_PGM_SPACE[list(b" \t\n\v\f\r")] = True
_PGM_COMMENT = re.compile(rb"#[^\n\r]*")


def write_pgm(mask: Mask, path: str | Path):
    """Write an ASCII PGM (P2, maxval 1); round-trips bit for bit.

    The file is ``P2``, ``<width> <height>`` and ``1`` on three lines, then
    one line per mask row holding its pixels as ``0``/``1`` separated by
    single spaces.
    """
    h, w = mask.pixels.shape
    if h == 0 or w == 0:
        raise ValueError(f"cannot write an empty {w}x{h} mask as PGM")
    body = np.full((h, 2 * w), ord(" "), dtype=np.uint8)
    body[:, 0::2] = mask.pixels + ord("0")
    body[:, -1] = ord("\n")
    Path(path).write_bytes(f"P2\n{w} {h}\n1\n".encode() + body.tobytes())


def _pgm_header_int(path, name: str, token: bytes) -> int:
    value = int(token) if token.isdigit() else 0
    if value == 0:
        raise ValueError(
            f"{path}: PGM {name} must be a positive integer, got {token.decode()!r}")
    return value


def read_pgm(path: str | Path) -> Mask:
    """Read an ASCII PGM (P2, maxval 1) mask.

    Accepted grammar: the tokens ``P2``, width, height and maxval, then
    width x height pixel tokens, all separated by runs of ASCII whitespace
    (space, tab, LF, CR, VT, FF).  Width and height are positive decimal
    integers and maxval is 1.  Each pixel token is the single byte ``0`` or
    ``1``.  A comment runs from ``#`` to the next LF or CR, may hold any
    bytes and may appear anywhere.  Outside comments the file is ASCII.
    Every violation raises ValueError with a message that starts with the
    path.
    """
    data = _PGM_COMMENT.sub(b"", Path(path).read_bytes())
    if not data.isascii():
        bad = next(b for b in data if b > 0x7F)
        raise ValueError(f"{path}: not an ASCII PGM (P2) file: byte 0x{bad:02x}")
    parts = data.split(maxsplit=4)
    if not parts or parts[0] != b"P2":
        raise ValueError(f"{path}: not an ASCII PGM (P2) file")
    if len(parts) < 4:
        raise ValueError(f"{path}: truncated PGM header")
    width = _pgm_header_int(path, "width", parts[1])
    height = _pgm_header_int(path, "height", parts[2])
    maxval = _pgm_header_int(path, "maxval", parts[3])
    if maxval != 1:
        raise ValueError(f"{path}: expected maxval 1, got {maxval}")
    body = np.frombuffer(parts[4] if len(parts) == 5 else b"", dtype=np.uint8)
    space = _PGM_SPACE[body]
    starts = ~space
    starts[1:] &= space[:-1]
    count = int(starts.sum())
    if count != width * height:
        raise ValueError(f"{path}: expected {width * height} pixels, got {count}")
    bits = body[~space] - np.uint8(ord("0"))
    # more non-space bytes than tokens means a token longer than one byte
    if bits.size != count or (bits > 1).any():
        raise ValueError(f"{path}: pixel values must be 0 or 1")
    return Mask(bits.reshape(height, width).astype(bool))
