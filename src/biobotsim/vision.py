"""Binary pronotum masks: reference-point extraction, overlap metrics,
affine augmentation, synthetic mask generation, and PGM file I/O.

Masks are row-major binary grids.  Pixel coordinates are (x, y) with x the
column index and y the row index; the posterior direction is +y (row index
increasing).  evaluate_pairs scores mask pairs: mean IoU, mean DSC and the
mean squared reference-point error.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

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
        return int(np.count_nonzero(self.pixels))


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


def extract_reference_point(mask: Mask) -> ReferencePoint:
    """Posterior-edge midpoint of a pronotum mask.

    y is the last occupied row; x is the mean column index of the
    foreground pixels in that row, rounded half away from zero.
    """
    rows = np.flatnonzero(mask.pixels.any(axis=1))
    if rows.size == 0:
        raise EmptyMaskError("cannot extract a reference point from an empty mask")
    y = int(rows[-1])
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
    inter = int(np.count_nonzero(a.pixels & b.pixels))
    union = int(np.count_nonzero(a.pixels | b.pixels))
    if union == 0:
        return 1.0
    return inter / union


def dsc(a: Mask, b: Mask) -> float:
    """Dice similarity coefficient; 1.0 when both masks are empty."""
    _check_same_shape(a, b)
    inter = int(np.count_nonzero(a.pixels & b.pixels))
    total = int(np.count_nonzero(a.pixels)) + int(np.count_nonzero(b.pixels))
    if total == 0:
        return 1.0
    return 2.0 * inter / total


# ---------- affine augmentation ----------

# cells per band of augment's output window, and pixels per batch of its
# blends.  A band's float temporaries are 32 KB each, which the allocator
# reuses from call to call; a 256 x 256 frame temporary (512 KB) is mapped
# fresh and page-faulted on every call.  Only the window, the image of the
# foreground's widened box, can hold foreground, and only a pixel whose four
# source neighbours mix foreground and background needs a blend: four zeros
# blend to exactly 0.0, and four ones to 1 within a few ulps, since the
# bilinear weights sum to 1.
_AUGMENT_BAND_CELLS = 4096


def check_augment(shape: tuple[int, int], scale_x: float, scale_y: float,
                  rotation_deg: float):
    """The one check of augment's parameters for a mask of shape (h, w).

    Raises ValueError naming the parameter unless all three are finite, the
    scales are positive, and each scale is large enough that the inverse
    map stays finite.  That map divides offsets from the frame center by
    the scales, and the largest offset is a corner's, so the test is the
    kernel's own arithmetic at that corner.
    """
    for name, value in (("scale_x", scale_x), ("scale_y", scale_y),
                        ("rotation_deg", rotation_deg)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if scale_x <= 0.0 or scale_y <= 0.0:
        raise ValueError(f"scale factors must be positive, got ({scale_x}, {scale_y})")
    h, w = shape
    theta = math.radians(rotation_deg)
    c, s = abs(math.cos(theta)), abs(math.sin(theta))
    half_w, half_h = max(w - 1, 0) / 2.0, max(h - 1, 0) / 2.0
    for name, scale, reach in (("scale_x", scale_x, c * half_w + s * half_h),
                               ("scale_y", scale_y, s * half_w + c * half_h)):
        if not math.isfinite(reach / scale):
            raise ValueError(f"{name} {scale!r} is too small for a {w}x{h} "
                             f"mask: the inverse map overflows")


def _unscale(f: np.ndarray, scale: float, center: float):
    """f / scale + center in place, the last steps of augment's inverse map."""
    if scale != 1.0:   # x / 1.0 == x
        f /= scale
    f += center


def augment(mask: Mask, scale_x: float, scale_y: float,
            rotation_deg: float) -> Mask:
    """Scale then rotate a mask about its center.

    The binary field is resampled with bilinear interpolation on the
    inverse-mapped grid and thresholded at 0.5.  Output dimensions equal
    input dimensions; content mapped from outside the frame is background.
    Identity parameters (1, 1, 0) reproduce the input bit for bit.
    Parameters that check_augment rejects raise ValueError.

    Only a window of the output is resampled: the source foreground's
    bounding box, widened by 2 px, mapped forward through scale and then
    rotation, plus a 1-2 px margin, clipped to the frame.  Every pixel
    outside it has four background source neighbours and is background.
    Inside it, a pixel's code is the number of foreground pixels among its
    four source neighbours.  Code 0 is background and code 4 is foreground,
    because the four bilinear weights sum to 1 within a few ulps.  Only
    codes 1-3 are blended.  The window is computed one band of rows at a
    time, each band at most ``_AUGMENT_BAND_CELLS`` cells or one row, so no
    float temporary spans the frame.  A pixel's arithmetic depends neither
    on its band nor on the window.
    """
    check_augment(mask.pixels.shape, scale_x, scale_y, rotation_deg)
    scale_x, scale_y = float(scale_x), float(scale_y)
    h, w = mask.pixels.shape
    out = np.zeros((h, w), dtype=bool)
    fg_rows = np.flatnonzero(mask.pixels.any(axis=1))
    if fg_rows.size == 0:
        return Mask(out)
    fg_cols = np.flatnonzero(mask.pixels.any(axis=0))
    cy = (h - 1) / 2.0
    cx = (w - 1) / 2.0
    theta = math.radians(rotation_deg)
    c, s = math.cos(theta), math.sin(theta)

    # the window: map the widened box's corners forward on Python floats,
    # which overflow to inf where numpy scalars would warn.  A corner that
    # is not finite leaves the whole frame.
    xs, ys = [], []
    for u in (int(fg_cols[0]) - 2 - cx, int(fg_cols[-1]) + 2 - cx):
        for v in (int(fg_rows[0]) - 2 - cy, int(fg_rows[-1]) + 2 - cy):
            su, sv = u * scale_x, v * scale_y
            xs.append(c * su - s * sv + cx)
            ys.append(s * su + c * sv + cy)
    if all(map(math.isfinite, xs + ys)):
        x0, x1 = max(0, math.floor(min(xs)) - 1), min(w, math.floor(max(xs)) + 3)
        y0, y1 = max(0, math.floor(min(ys)) - 1), min(h, math.floor(max(ys)) + 3)
        if x0 >= x1 or y0 >= y1:
            return Mask(out)
    else:
        x0, x1, y0, y1 = 0, w, 0, h

    # a 2-pixel zero border stands in for everything outside the frame:
    # the floor of the source x clipped to [-2, w] keeps both x neighbours
    # in the padded field, and a pair wholly outside the frame still reads
    # two zeros
    pw = w + 4
    padded = np.zeros((h + 4, pw), dtype=np.uint8)
    padded[2:-2, 2:-2] = mask.pixels
    flat = padded.ravel()
    # code[k]: foreground count of the four neighbours whose top-left is flat[k]
    code = flat[:-pw - 1] + flat[1:-pw]
    code += flat[pw:-1]
    code += flat[pw + 1:]

    # the map is affine, so if the window's corners map inside
    # [-1, w-1] x [-1, h-1] every floor lies in the clip range already
    clip = False
    for x in (x0 - cx, x1 - 1 - cx):
        for y in (y0 - cy, y1 - 1 - cy):
            sx = (c * x + s * y) / scale_x + cx
            sy = (-s * x + c * y) / scale_y + cy
            clip |= not (-1.0 <= sx <= w - 1 and -1.0 <= sy <= h - 1)

    dx = np.arange(x0, x1, dtype=float) - cx
    dy = np.arange(y0, y1, dtype=float) - cy
    c_dx = c * dx
    ms_dx = -s * dx
    s_dy = s * dy
    c_dy = c * dy
    width = x1 - x0
    rows = max(1, _AUGMENT_BAND_CELLS // width)
    codes = np.empty((y1 - y0, width), dtype=np.uint8)
    for r0 in range(0, y1 - y0, rows):
        r1 = min(r0 + rows, y1 - y0)
        # inverse map: undo rotation, then undo scaling
        fx = c_dx + s_dy[r0:r1, None]
        _unscale(fx, scale_x, cx)
        fy = ms_dx + c_dy[r0:r1, None]
        _unscale(fy, scale_y, cy)
        row = np.floor(fy)
        col = np.floor(fx)
        if clip:
            np.clip(row, -2, h, out=row)
            np.clip(col, -2, w, out=col)
        # flat index of the top-left neighbour; integers this small are
        # exact in float64
        row *= pw
        row += col
        row += 2 * pw + 2
        code.take(row.astype(np.intp), out=codes[r0:r1])
    window = codes == 4

    # codes 1-3 are blended, at most a band's worth of pixels at a time,
    # after the same inverse map.  A clipped pixel reads four zeros, so
    # none of these was clipped.
    mixed = np.flatnonzero((codes > 0) & (codes < 4))
    for m0 in range(0, mixed.size, _AUGMENT_BAND_CELLS):
        m = mixed[m0:m0 + _AUGMENT_BAND_CELLS]
        i, j = np.divmod(m, width)
        fx = c_dx.take(j) + s_dy.take(i)
        _unscale(fx, scale_x, cx)
        fy = ms_dx.take(j) + c_dy.take(i)
        _unscale(fy, scale_y, cy)
        row = np.floor(fy)
        fy -= row
        col = np.floor(fx)
        fx -= col
        row *= pw
        row += col
        row += 2 * pw + 2
        base = row.astype(np.intp)
        # v00 (1-fx)(1-fy) + v01 fx (1-fy) + v10 (1-fx) fy + v11 fx fy, in
        # the operation order of the plain expression
        gx = 1 - fx
        gy = 1 - fy
        v = flat.take(base) * gx
        v *= gy
        t = flat[1:].take(base) * fx
        t *= gy
        v += t
        t = flat[pw:].take(base) * gx
        t *= fy
        v += t
        t = flat[pw + 1:].take(base) * fx
        t *= fy
        v += t
        window.put(m, v >= 0.5)
    out[y0:y1, x0:x1] = window
    return Mask(out)


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
        rp = extract_reference_point(p)
        rt = extract_reference_point(t)
        err = float((rp.x - rt.x) ** 2 + (rp.y - rt.y) ** 2)
        rows.append((iou(p, t), dsc(p, t), err))
    arr = np.asarray(rows)
    metrics = SegMetrics(miou=float(arr[:, 0].mean()),
                         mdsc=float(arr[:, 1].mean()),
                         mse_pr=float(arr[:, 2].mean()))
    return metrics, rows


# ---------- PGM I/O ----------

# PGM whitespace: the six ASCII bytes that `bytes.split()` and C isspace()
# use, space and the run \t \n \v \f \r (9-13)
_PGM_SPACE = b" \t\n\v\f\r"
_PGM_COMMENT = re.compile(rb"#[^\n\r]*")


def encode_pgm(mask: Mask) -> list:
    """The bytes of an ASCII PGM (P2, maxval 1) of mask, which round-trip
    bit for bit, as two chunks: the header and a uint8 array of the rows.

    The file is ``P2``, ``<width> <height>`` and ``1`` on three lines, then
    one line per mask row holding its pixels as ``0``/``1`` separated by
    single spaces.
    """
    h, w = mask.pixels.shape
    if h == 0 or w == 0:
        raise ValueError(f"cannot write an empty {w}x{h} mask as PGM")
    body = np.full((h, 2 * w), ord(" "), dtype=np.uint8)
    np.add(mask.pixels.view(np.uint8), ord("0"), out=body[:, 0::2])
    body[:, -1] = ord("\n")
    return [f"P2\n{w} {h}\n1\n".encode(), body]


def write_pgm(mask: Mask, path: str | Path):
    """Write encode_pgm(mask) to path in place, not through a temp file:
    an interrupted write leaves a truncated file."""
    header, body = encode_pgm(mask)
    with Path(path).open("wb") as f:
        f.write(header)
        f.write(body)


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
    data = Path(path).read_bytes()
    if b"#" in data:
        data = _PGM_COMMENT.sub(b"", data)
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
    body = parts[4] if len(parts) == 5 else b""
    codes = np.frombuffer(body, dtype=np.uint8)
    space = codes == ord(" ")
    space |= codes - 9 <= 4
    starts = ~space
    starts[1:] &= space[:-1]
    count = int(np.count_nonzero(starts))
    if count != width * height:
        raise ValueError(f"{path}: expected {width * height} pixels, got {count}")
    bits = np.frombuffer(body.translate(None, _PGM_SPACE), dtype=np.uint8)
    bits = bits - np.uint8(ord("0"))
    # more non-space bytes than tokens means a token longer than one byte
    if bits.size != count or (bits > 1).any():
        raise ValueError(f"{path}: pixel values must be 0 or 1")
    return Mask(bits.reshape(height, width).astype(bool))
