"""Mask metrics, reference-point geometry, augmentation, and PGM I/O."""
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biobotsim import vision
from biobotsim.vision import (
    EmptyMaskError,
    Mask,
    PronotumShapeParams,
    ReferencePoint,
    augment,
    dsc,
    evaluate_pairs,
    extract_reference_point,
    iou,
    read_pgm,
    synth_pronotum,
    write_pgm,
)


def _mask(rows):
    return Mask(np.array(rows, dtype=bool))


def _empty(width, height):
    return Mask(np.zeros((height, width), dtype=bool))


def _same(a, b):
    return np.array_equal(a.pixels, b.pixels)


# ---------- reference point ----------

def test_reference_point_posterior_row_and_mean_column():
    m = _mask([
        [0, 1, 1, 1, 0],
        [0, 1, 1, 1, 0],
        [0, 0, 1, 1, 0],
    ])
    # posterior row is y=2; columns {2, 3} average to 2.5, rounded away to 3
    assert extract_reference_point(m) == ReferencePoint(x=3, y=2)


def test_reference_point_single_pixel():
    arr = np.zeros((8, 8), dtype=bool)
    arr[5, 2] = True
    assert extract_reference_point(Mask(arr)) == ReferencePoint(x=2, y=5)


def test_reference_point_rejects_empty_mask():
    with pytest.raises(EmptyMaskError):
        extract_reference_point(_empty(4, 4))


# ---------- overlap metrics ----------

def test_identical_masks_score_unity():
    m, _ = synth_pronotum(PronotumShapeParams(), seed=0)
    assert iou(m, m) == 1.0
    assert dsc(m, m) == 1.0


def test_disjoint_masks_score_zero():
    a = np.zeros((10, 10), dtype=bool)
    b = np.zeros((10, 10), dtype=bool)
    a[:3, :3] = True
    b[6:, 6:] = True
    assert iou(Mask(a), Mask(b)) == 0.0
    assert dsc(Mask(a), Mask(b)) == 0.0


def test_half_overlap_analytic_values():
    # two 10x10 squares sharing a 5x10 strip: inter 50, union 150
    a = np.zeros((10, 20), dtype=bool)
    b = np.zeros((10, 20), dtype=bool)
    a[:, 0:10] = True
    b[:, 5:15] = True
    assert iou(Mask(a), Mask(b)) == 50 / 150
    assert dsc(Mask(a), Mask(b)) == 0.5


def test_both_empty_masks_score_unity():
    e = _empty(6, 6)
    assert iou(e, e) == 1.0
    assert dsc(e, e) == 1.0


def test_one_empty_mask_scores_zero():
    a = _empty(6, 6)
    b = Mask(np.ones((6, 6), dtype=bool))
    assert iou(a, b) == 0.0
    assert dsc(a, b) == 0.0


def test_metrics_reject_shape_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        iou(_empty(4, 4), _empty(5, 4))
    with pytest.raises(ValueError, match="dimensions"):
        dsc(_empty(4, 4), _empty(4, 5))


@st.composite
def small_mask_pairs(draw):
    h = draw(st.integers(min_value=1, max_value=12))
    w = draw(st.integers(min_value=1, max_value=12))
    bits = st.lists(st.booleans(), min_size=h * w, max_size=h * w)
    a = np.array(draw(bits), dtype=bool).reshape(h, w)
    b = np.array(draw(bits), dtype=bool).reshape(h, w)
    return Mask(a), Mask(b)


@given(small_mask_pairs())
def test_dice_dominates_iou(pair):
    a, b = pair
    assert dsc(a, b) >= iou(a, b)


@given(small_mask_pairs())
def test_overlap_metrics_are_symmetric(pair):
    a, b = pair
    assert iou(a, b) == iou(b, a)
    assert dsc(a, b) == dsc(b, a)


@given(small_mask_pairs())
def test_overlap_metrics_lie_in_unit_interval(pair):
    a, b = pair
    assert 0.0 <= iou(a, b) <= 1.0
    assert 0.0 <= dsc(a, b) <= 1.0


# ---------- reference point MSE ----------

def _dot(x, y):
    """8 x 8 mask whose one pixel, and so its reference point, is (x, y)."""
    pixels = np.zeros((8, 8), dtype=bool)
    pixels[y, x] = True
    return Mask(pixels)


def test_mse_single_unit_offset():
    metrics, _ = evaluate_pairs([_dot(1, 0)], [_dot(0, 0)])
    assert metrics.mse_pr == 1.0


def test_mse_averages_squared_distances():
    metrics, rows = evaluate_pairs([_dot(3, 4), _dot(0, 0)],
                                   [_dot(0, 0), _dot(0, 0)])
    assert [r[2] for r in rows] == [25.0, 0.0]
    assert metrics.mse_pr == 12.5  # (25 + 0) / 2


# ---------- augmentation ----------

def test_identity_augmentation_is_bit_exact():
    for seed in range(10):
        m, _ = synth_pronotum(PronotumShapeParams(), seed=seed)
        assert _same(augment(m, 1.0, 1.0, 0.0), m)


def test_augment_rejects_nonpositive_scales():
    m, _ = synth_pronotum(PronotumShapeParams(), seed=0)
    with pytest.raises(ValueError):
        augment(m, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        augment(m, 1.0, -2.0, 0.0)


@pytest.mark.parametrize("name,params", [
    ("scale_x", (math.nan, 1.0, 0.0)),
    ("scale_x", (math.inf, 1.0, 0.0)),
    ("scale_y", (1.0, math.nan, 0.0)),
    ("scale_y", (1.0, -math.inf, 0.0)),
    ("rotation_deg", (1.0, 1.0, math.nan)),
    ("rotation_deg", (1.0, 1.0, math.inf)),
    ("rotation_deg", (1.0, 1.0, -math.inf)),
])
def test_augment_rejects_non_finite_parameters(name, params):
    m, _ = synth_pronotum(PronotumShapeParams(), seed=0)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        augment(m, *params)


@pytest.mark.parametrize("name,params", [
    ("scale_x", (1e-307, 1.0, 0.0)),
    ("scale_x", (1e-310, 1.0, 0.0)),
    ("scale_y", (1.0, 1e-307, 0.0)),
    ("scale_y", (1.0, 1e-310, 0.0)),
    ("scale_x", (1e-306, 1.0, 45.0)),   # a rotated corner lies further out
])
def test_augment_rejects_scales_whose_inverse_map_overflows(name, params):
    m, _ = synth_pronotum(PronotumShapeParams(), seed=0)
    with pytest.raises(ValueError, match=f"^{name} .*the inverse map overflows"):
        augment(m, *params)


def test_augment_takes_a_tiny_scale_whose_inverse_map_is_finite():
    # offsets of up to 127.5 px divided by 1e-306 stay finite; any warning
    # from the kernel fails the test
    m, _ = synth_pronotum(PronotumShapeParams(), seed=0)
    assert not augment(m, 1e-306, 1e-306, 0.0).pixels.any()


def test_uniform_scaling_scales_area():
    m, _ = synth_pronotum(PronotumShapeParams(), seed=3)
    grown = augment(m, 1.3, 1.3, 0.0)
    ratio = grown.foreground_count / m.foreground_count
    assert ratio == pytest.approx(1.3 * 1.3, rel=0.03)


def test_rotation_round_trip_moves_reference_at_most_two_px():
    worst = 0.0
    for seed in range(30):
        m, p_true = synth_pronotum(PronotumShapeParams(), seed=seed)
        for deg in (-30.0, 30.0):
            back = augment(augment(m, 1.0, 1.0, deg), 1.0, 1.0, -deg)
            p = extract_reference_point(back)
            err = ((p.x - p_true.x) ** 2 + (p.y - p_true.y) ** 2) ** 0.5
            worst = max(worst, err)
    assert worst <= 2.0


def test_rotation_preserves_area_approximately():
    m, _ = synth_pronotum(PronotumShapeParams(), seed=1)
    rot = augment(m, 1.0, 1.0, 30.0)
    assert rot.foreground_count == pytest.approx(m.foreground_count, rel=0.02)


def _augment_reference(mask, scale_x, scale_y, rotation_deg):
    """Per-pixel bilinear resampling that reads zero outside the frame."""
    h, w = mask.pixels.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = math.radians(rotation_deg)
    c, s = math.cos(theta), math.sin(theta)

    def at(y, x):
        return float(mask.pixels[y, x]) if 0 <= y < h and 0 <= x < w else 0.0

    out = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            dx, dy = x - cx, y - cy
            sx = (c * dx + s * dy) / scale_x + cx
            sy = (-s * dx + c * dy) / scale_y + cy
            x0, y0 = math.floor(sx), math.floor(sy)
            fx, fy = sx - x0, sy - y0
            v = (at(y0, x0) * (1 - fx) * (1 - fy) + at(y0, x0 + 1) * fx * (1 - fy)
                 + at(y0 + 1, x0) * (1 - fx) * fy + at(y0 + 1, x0 + 1) * fx * fy)
            out[y, x] = v >= 0.5
    return Mask(out)


AUGMENT_CASES = [
    (1.0, 1.0, 0.0), (1.0, 1.0, 2.0), (0.8, 1.2, -25.0), (0.1, 0.1, 45.0),
    (5.0, 5.0, 10.0), (1e-3, 1e-3, 0.0), (0.5, 3.0, 180.0), (2.0, 0.7, -180.0),
    (1.0, 1.0, 90.0), (0.9, 0.9, -135.0),
]


@pytest.mark.parametrize("params", AUGMENT_CASES)
def test_augment_matches_per_pixel_reference_bit_for_bit(params):
    rng = np.random.default_rng(5)
    for shape in ((9, 6), (6, 9), (1, 1), (7, 7)):
        m = Mask(rng.random(shape) < 0.5)
        assert _same(augment(m, *params), _augment_reference(m, *params))


@pytest.mark.parametrize("cells", [1, 40])
@pytest.mark.parametrize("params", AUGMENT_CASES)
def test_augment_band_seams_match_the_per_pixel_reference(params, cells,
                                                          monkeypatch):
    # 40 cells make bands of 6, 4, 5 and 8 rows for these shapes, so each
    # frame spans two bands and ends on a partial one; 1 cell makes one
    # row per band
    monkeypatch.setattr(vision, "_AUGMENT_BAND_CELLS", cells)
    rng = np.random.default_rng(5)
    for shape in ((9, 6), (6, 9), (7, 7), (13, 5)):
        m = Mask(rng.random(shape) < 0.5)
        assert _same(augment(m, *params), _augment_reference(m, *params))
    for shape in ((0, 0), (3, 0), (0, 3)):
        assert augment(Mask(np.zeros(shape, dtype=bool)),
                       *params).pixels.shape == shape


@st.composite
def _blob_masks(draw):
    """Frames of up to 24 x 24 holding 1-3 blobs of 1-3 px a side, each
    placed anywhere, flush with an edge or in a corner."""
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 24))
    px = np.zeros((h, w), dtype=bool)
    for _ in range(draw(st.integers(1, 3))):
        bh, bw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        y = draw(st.one_of(st.sampled_from([0, max(h - bh, 0)]),
                           st.integers(0, h - 1)))
        x = draw(st.one_of(st.sampled_from([0, max(w - bw, 0)]),
                           st.integers(0, w - 1)))
        px[y:y + bh, x:x + bw] = True
    return Mask(px)


@settings(max_examples=300, deadline=None)
@given(m=_blob_masks(),
       scale_x=st.floats(0.05, 20.0), scale_y=st.floats(0.05, 20.0),
       rotation_deg=st.floats(-180.0, 180.0))
def test_augment_window_holds_every_foreground_pixel(m, scale_x, scale_y,
                                                     rotation_deg):
    # small blobs anywhere in the frame put the window's edges, its clip
    # test and the mixed-neighbour blends at every side of the frame
    params = (scale_x, scale_y, rotation_deg)
    assert _same(augment(m, *params), _augment_reference(m, *params))


@pytest.mark.parametrize("params", [
    (1e308, 1.0, 30.0), (1.0, 1e308, -120.0), (1e308, 1e308, 0.0),
    (np.float64(1e308), 1.0, 60.0), (1e-306, 1e-306, 0.0),
    (1e-306, 1e-306, 135.0),
])
def test_augment_matches_the_reference_at_extreme_scales_and_sizes(params):
    # a forward-mapped corner overflows at 1e308, also when the scale is a
    # numpy scalar, and the inverse map reaches ~1e307 at 1e-306; none of
    # them may warn
    rng = np.random.default_rng(9)
    corner = np.zeros((7, 5), dtype=bool)
    corner[-2:, -2:] = True
    for px in (rng.random((9, 6)) < 0.5, np.ones((3, 4), dtype=bool), corner,
               np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool),
               np.zeros((5, 7), dtype=bool), np.zeros((0, 0), dtype=bool),
               np.zeros((3, 0), dtype=bool)):
        m = Mask(px)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = augment(m, *params)
        assert _same(got, _augment_reference(m, *params))


# ---------- synthetic generator ----------

def test_synthetic_reference_point_matches_extraction_exactly():
    params = PronotumShapeParams()
    for seed in range(50):
        m, p_true = synth_pronotum(params, seed)
        assert extract_reference_point(m) == p_true, seed


def _shield_rows_reference(params, seed):
    """The row-by-row ellipse test the broadcast replaced: rows y_top up to
    the posterior cut, one np.where per row."""
    rng = np.random.default_rng(seed)
    n = params.frame
    ax = rng.uniform(*params.semi_axis_x)
    ay = rng.uniform(*params.semi_axis_y)
    wobble = rng.uniform(-params.asymmetry, params.asymmetry)
    cx = (n - 1) / 2.0 + rng.uniform(-params.center_jitter, params.center_jitter)
    cy = 0.46 * n + rng.uniform(-params.center_jitter, params.center_jitter)
    cut = rng.uniform(*params.posterior_cut)
    y_post = int(math.floor(cy + cut * ay))
    bits = np.zeros((n, n), dtype=bool)
    cols = np.arange(n, dtype=float)
    for y in range(int(math.ceil(cy - ay)), y_post):
        ry = (y - cy) / ay
        rem = 1.0 - ry * ry
        if rem <= 0.0:
            continue
        bits[y] = np.where(cols < cx,
                           ((cols - cx) / (ax * (1.0 + wobble))) ** 2 <= rem,
                           ((cols - cx) / (ax * (1.0 - wobble))) ** 2 <= rem)
    return bits[:y_post], y_post


def test_synthetic_shield_matches_the_row_loop():
    for params in (PronotumShapeParams(),
                   PronotumShapeParams(frame=160, semi_axis_x=(30.0, 50.0),
                                       semi_axis_y=(35.0, 55.0), asymmetry=0.0,
                                       center_jitter=0.0)):
        for seed in range(40):
            m, _ = synth_pronotum(params, seed)
            want, y_post = _shield_rows_reference(params, seed)
            assert np.array_equal(m.pixels[:y_post], want), seed


def test_synthetic_generator_is_deterministic():
    params = PronotumShapeParams()
    a, pa = synth_pronotum(params, 11)
    b, pb = synth_pronotum(params, 11)
    assert _same(a, b)
    assert pa == pb


def test_synthetic_masks_do_not_touch_the_border():
    m, _ = synth_pronotum(PronotumShapeParams(), seed=2)
    assert not m.pixels[0].any() and not m.pixels[-1].any()
    assert not m.pixels[:, 0].any() and not m.pixels[:, -1].any()


# ---------- pair evaluation ----------

def test_evaluate_pairs_identity_prediction():
    params = PronotumShapeParams()
    truths = [synth_pronotum(params, s)[0] for s in range(5)]
    metrics, rows = evaluate_pairs(truths, truths)
    assert metrics.miou == 1.0
    assert metrics.mdsc == 1.0
    assert metrics.mse_pr == 0.0
    assert len(rows) == 5


def test_evaluate_pairs_aggregates_are_row_means():
    params = PronotumShapeParams()
    truths = [synth_pronotum(params, s)[0] for s in range(4)]
    preds = [augment(t, 1.0, 1.0, 5.0) for t in truths]
    metrics, rows = evaluate_pairs(preds, truths)
    arr = np.asarray(rows)
    assert metrics.miou == pytest.approx(arr[:, 0].mean(), abs=0)
    assert metrics.mdsc == pytest.approx(arr[:, 1].mean(), abs=0)
    assert metrics.mse_pr == pytest.approx(arr[:, 2].mean(), abs=0)


def test_evaluate_pairs_rejects_mismatched_lengths():
    m, _ = synth_pronotum(PronotumShapeParams(), 0)
    with pytest.raises(ValueError):
        evaluate_pairs([m], [m, m])
    with pytest.raises(ValueError):
        evaluate_pairs([], [])


# ---------- PGM I/O ----------

def test_pgm_round_trip_is_bit_exact(tmp_path):
    m, _ = synth_pronotum(PronotumShapeParams(), seed=9)
    p = tmp_path / "m.pgm"
    write_pgm(m, p)
    assert _same(read_pgm(p), m)


@pytest.mark.parametrize("rows", [
    pytest.param([[1]], id="1x1"),
    pytest.param([[1, 0, 1], [0, 0, 1], [1, 1, 0], [0, 1, 0], [1, 0, 0]],
                 id="3-wide-5-high"),
])
def test_pgm_round_trip_small_and_non_square(rows, tmp_path):
    m = _mask(rows)
    p = tmp_path / "m.pgm"
    write_pgm(m, p)
    assert p.read_text().splitlines()[1] == f"{m.width} {m.height}"
    assert _same(read_pgm(p), m)


def test_pgm_reader_tolerates_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_text("P2\n# a comment line\n2 2\n1\n1 0\n# mid comment\n0 1\n")
    m = read_pgm(p)
    assert m.pixels.tolist() == [[True, False], [False, True]]


def test_pgm_reader_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_text("P5\n2 2\n1\n1 0 0 1\n")
    with pytest.raises(ValueError):
        read_pgm(p)


@pytest.mark.parametrize("text", [
    pytest.param(b"P2\r\n3 2\r\n1\r\n1 0 1\r\n0 1 1\r\n", id="crlf"),
    pytest.param(b"P2\t3   2\n\t1\n1\t\t0  1\n   0 1\t1\n",
                 id="tabs-and-runs-of-spaces"),
    pytest.param(b"P2\n3 2\n1\n1 0 1\n0 1 1", id="no-trailing-newline"),
    pytest.param(b"P2\n3 2\n1\n1 0 1 # row 0\n# between rows\n0 1#x\n1\n",
                 id="comments-in-the-body"),
    pytest.param(b"P2 3 2 1 1 0 1 0 1 1", id="one-line"),
    pytest.param(b"P2 # caf\xc3\xa9\n3 2 1 1 0 1 0 1 1", id="non-ascii-comment"),
    pytest.param(b"P2\v3\v2\v1\v1\v0\v1\v0\v1\v1\v", id="vertical-tabs"),
    pytest.param(b"P2\f3 2\f1\f\f1 0 1\f0 1 1", id="form-feeds"),
    pytest.param(b"P2\r3 2\r1\r1 0 1\r0\r1\r1\r", id="lone-carriage-returns"),
])
def test_pgm_reader_grammar(text, tmp_path):
    p = tmp_path / "g.pgm"
    p.write_bytes(text)
    assert read_pgm(p).pixels.tolist() == [[True, False, True],
                                           [False, True, True]]


_PGM_SPACE_RUNS = st.text(alphabet=" \t\n\v\f\r", min_size=1, max_size=4)
_PGM_COMMENTS = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\n\r"),
    max_size=6)


@st.composite
def p2_files(draw):
    """A P2 file of random 0/1 tokens joined by random whitespace runs and
    comments, and the same file with one token replaced by a bad one."""
    h = draw(st.integers(min_value=1, max_value=4))
    w = draw(st.integers(min_value=1, max_value=4))
    tokens = draw(st.lists(st.sampled_from([b"0", b"1"]),
                           min_size=h * w, max_size=h * w))

    def gap():
        run = draw(_PGM_SPACE_RUNS).encode()
        if draw(st.booleans()):
            run += (b"#" + draw(_PGM_COMMENTS).encode()
                    + draw(st.sampled_from([b"\n", b"\r"])))
        return run

    header = [str(w).encode(), str(h).encode(), b"1"]
    gaps = [gap() for _ in range(len(header) + len(tokens))]
    tail = gap() if draw(st.booleans()) else b""
    bad = list(tokens)
    bad[draw(st.integers(min_value=0, max_value=h * w - 1))] = draw(
        st.sampled_from([b"2", b"00", b"+1"]))

    def join(body):
        return b"P2" + b"".join(g + t for g, t in zip(gaps, header + body)) + tail

    return join(tokens), join(bad), h, w, tokens


@settings(max_examples=60, deadline=None)
@given(p2_files())
def test_pgm_reader_reads_tokens_across_every_whitespace_byte(case):
    good, bad, h, w, tokens = case
    want = np.array([t == b"1" for t in tokens]).reshape(h, w)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "h.pgm"
        p.write_bytes(good)
        assert np.array_equal(read_pgm(p).pixels, want)
        p.write_bytes(bad)
        with pytest.raises(ValueError) as exc:
            read_pgm(p)
        assert str(exc.value).startswith(f"{p}: ")


@pytest.mark.parametrize("text", [
    pytest.param(b"", id="empty-file"),
    pytest.param(b"P2\n3 2\n", id="truncated-header"),
    pytest.param(b"P2\nx 2\n1\n0 1\n", id="non-integer-width"),
    pytest.param(b"P2\n-2 -2\n1\n0 1 1 0\n", id="negative-dimensions"),
    pytest.param(b"P2\n0 2\n1\n", id="zero-width"),
    pytest.param(b"P2\n2 2\n2\n0 1 1 0\n", id="maxval-2"),
    pytest.param(b"P2\n2 2\n1\n0 1 \xff 0\n", id="non-ascii-byte"),
    pytest.param(b"P2\n2 2\n1\n0 1 2 0\n", id="pixel-value-2"),
    pytest.param(b"P2\n2 2\n1\n0 1 1 0 1\n", id="one-pixel-too-many"),
    pytest.param(b"P2\n2 2\n1\n0 1 1\n", id="one-pixel-too-few"),
    pytest.param(b"P2\n2 2\n1\n0 1 00 1\n", id="multi-digit-pixel-token"),
    pytest.param(b"P2\n2 2\n1\n0 1 +1 0\n", id="signed-pixel-token"),
])
def test_pgm_reader_rejects_malformed_files_naming_the_path(text, tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(text)
    with pytest.raises(ValueError) as exc:
        read_pgm(p)
    assert str(exc.value).startswith(f"{p}: ")


def test_pgm_writer_rejects_an_empty_mask(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        write_pgm(Mask(np.zeros((2, 0), dtype=bool)), tmp_path / "e.pgm")


def test_mask_kernels_allocate_no_full_frame_float_temporaries(tmp_path):
    # a 256 x 256 float64 frame is 512 KB; augment keeps byte-sized frames
    # and band-sized floats, read_pgm its byte-sized buffers
    m, _ = synth_pronotum(PronotumShapeParams(), seed=4)
    p = tmp_path / "m.pgm"
    write_pgm(m, p)
    for call, limit in ((lambda: augment(m, 1.1, 0.9, 12.0), 1_000_000),
                        (lambda: augment(m, 1.1, 0.9, 45.0), 1_000_000),
                        (lambda: read_pgm(p), 1_000_000)):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit
