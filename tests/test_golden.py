"""Golden digests of fixed-seed `coverage`, `spikes` and mask-path outputs.

These guard determinism across processes and code changes, not only
reruns in one process: any change to the swarm engine that alters a
single byte of trajectory.csv, coverage.csv or summary.json fails here,
and so does any change to the spike chain that alters spikes.json or
spike_sweep.csv, or any change to `synth_pronotum`, `augment`,
`write_pgm` or `read_pgm` that alters a written mask or the `metrics`
table.
A change that alters the numbers on purpose must say so and update the
digests below.
"""
import hashlib
import json

import pytest

from biobotsim import cli, vision

SEED = 11
DURATION_S = 60.0

GOLDEN = {
    "true": {
        "trajectory.csv":
            "8531cbb21fab7a6a74f308945b49aefc7b67f3a732f2f10d200229c2c296c14d",
        "coverage.csv":
            "78b72f8ce66c0b90843739511a20f488f9c99b8a1b6b409604f27f0f3762062d",
        "summary.json":
            "a7f07e7c547170ca6a546863fbb8aa72ed2be11c7aba519e34ab5ef510bacda8",
    },
    "estimated": {
        "trajectory.csv":
            "8531cbb21fab7a6a74f308945b49aefc7b67f3a732f2f10d200229c2c296c14d",
        "coverage.csv":
            "40f04abc18e941ef0be5cef3a0a0f9b0f1421991801e148e7d9d18a18e2a7710",
        "summary.json":
            "71cb25b4afd0691e459d917713afdb0a05fa3b2d65e76e3dd01643a52aa7653c",
    },
    "seeds3": {
        "coverage.csv":
            "9744d0f11c4f277b897ed6734b51631d26057c5ab84093fbdcf6128586f44af9",
        "summary.json":
            "3967d442c6128d30ab8a14aa352a38119fdb62ff1ab79a27a25c0b881f2b55c4",
    },
}


def _run(tmp_path, case):
    coverage_from = "true" if case == "seeds3" else case
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "swarm": {"duration_s": DURATION_S, "coverage_from": coverage_from},
    }))
    out = tmp_path / "out"
    argv = ["coverage", "--config", str(cfg), "--seed", str(SEED),
            "--output-dir", str(out)]
    if case == "seeds3":
        argv += ["--seeds", "3"]
    assert cli.main(argv) == 0
    return out


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_coverage_outputs_match_golden_digests(case, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    out = _run(tmp_path, case)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN[case]}
    assert got == GOLDEN[case]


# ---------- mask path ----------

MASK_SEEDS = (3, 17)

# (scale_x, scale_y, rotation_deg) applied by `augment`; None writes the
# mask as generated.  (0.1, 0.1, 45) samples most output pixels from
# outside the frame; (5, 5, 10) magnifies the shield over the whole frame.
AUGMENTS = {
    "generated": None,
    "identity": (1.0, 1.0, 0.0),
    "rot2": (1.0, 1.0, 2.0),
    "aniso": (0.8, 1.2, -25.0),
    "shrink": (0.1, 0.1, 45.0),
    "magnify": (5.0, 5.0, 10.0),
}

GOLDEN_MASKS = {
    "aniso": {
        3: "78cd722d6ca184dfda8aeeb796d83f21ccf7340f2e87fc4bef66b10a490f0d1b",
        17: "6a2850ed0829cf29f61606041956bf89498a999a044ef8d34e0636eacd7844a5",
    },
    "generated": {
        3: "30a8b81842e1eb2cc6d1db4b4d015431a9c9fbbf1077fda0fcc77837b90e1d0f",
        17: "e28f747a93bebbb39e484947a66b335b163190e4faf4007dcc607ce5fed59e55",
    },
    "identity": {
        3: "30a8b81842e1eb2cc6d1db4b4d015431a9c9fbbf1077fda0fcc77837b90e1d0f",
        17: "e28f747a93bebbb39e484947a66b335b163190e4faf4007dcc607ce5fed59e55",
    },
    "magnify": {
        3: "14fdcb4774d003db2a3017815e94ef33bb5937c5a388bfd8f1bcefeda403a41c",
        17: "a05cbde9539192c701edcf56379fd3cc7e4ca40576cb36c79da660060948323b",
    },
    "nonsquare": {
        3: "bce6171cf0f968e2102b434372ef6e6e6c8b553c7e57e5dd9ea1dc2843e0dce2",
        17: "e51c29b6efdc4d356fd939f89dd94692933604300706bad889e2abe77c7e7620",
    },
    "nonsquare_aniso": {
        3: "9d74d6397e560fd18adb0a3fdfc47e5947126195c9f062ea1c65ea00bc6f6fba",
        17: "8a63b3bd885f916c87eb7ffa69ef19bbc5d2c01ef6728292086caf84d184e709",
    },
    "rot2": {
        3: "490b9ede2ea2fe09796031c0033f526adb8fc52def4d9edec02dc27182efba16",
        17: "bdd6022eeabb5bc0f0ce05e45eb280bfaec8d863d319af07c28dd5cb3b14c180",
    },
    "shrink": {
        3: "f03bfccd2b21911b5c712f45bda0a767dd7ddc7b0260417f018a915251638bb2",
        17: "86215c1a270ac3a491b4e1765ab2e529ca4ea73b7a7329af093970651e598cd1",
    },
}

GOLDEN_METRICS_CSV = (
    "4e15dec55e8324485a9a69f1494b1520328ef493365d927b3feb80cacca90eca")


def _mask_case(seed, case):
    mask, _ = vision.synth_pronotum(vision.PronotumShapeParams(), seed)
    if case.startswith("nonsquare"):
        mask = vision.Mask(mask.pixels[16:240, 40:200])   # 224 rows x 160 cols
        case = "aniso" if case == "nonsquare_aniso" else "generated"
    params = AUGMENTS[case]
    return mask if params is None else vision.augment(mask, *params)


@pytest.mark.parametrize("case", sorted(GOLDEN_MASKS))
def test_written_masks_match_golden_digests(case, tmp_path):
    got = {}
    for seed in MASK_SEEDS:
        mask = _mask_case(seed, case)
        path = tmp_path / f"{case}_{seed}.pgm"
        vision.write_pgm(mask, path)
        got[seed] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert vision.read_pgm(path).same_bits(mask)
    assert got == GOLDEN_MASKS[case]


def test_metrics_csv_matches_golden_digest(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    pred, truth, out = tmp_path / "pred", tmp_path / "truth", tmp_path / "out"
    pred.mkdir()
    truth.mkdir()
    perturbed = [p for p in AUGMENTS.values() if p is not None]
    for k, seed in enumerate((3, 17, 5, 8, 21)):
        mask, _ = vision.synth_pronotum(vision.PronotumShapeParams(), seed)
        vision.write_pgm(mask, truth / f"m{k}.pgm")
        vision.write_pgm(vision.augment(mask, *perturbed[k]), pred / f"m{k}.pgm")
    assert cli.main(["metrics", "--pred", str(pred), "--truth", str(truth),
                     "--output-dir", str(out)]) == 0
    got = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    assert got == GOLDEN_METRICS_CSV


# ---------- spike path ----------

SPIKES_SEED = 3

# The numpy-only filter moved threshold_v in its last digits at 0.5, 2.0
# and 3.0 V (3.0 V: 2.731087163590139e-05 to 2.7310871635901424e-05);
# every n_spikes is unchanged.
GOLDEN_SPIKES_JSON = {
    0.5: "150da4a843a9206c8636a887149977392b9e99267246c16445a6dc2be1af8b16",
    2.0: "47723b3e20dbd6822f8a7b812a28d4ee7a24601fdfb8ec46a4564ccc96fb2702",
    3.0: "818c6092c4aa9c367f670ab755e21256209a09ae08edf1389e2a0365942bd5a0",
    4.0: "badb03e416ae5b71a3231191c054da0fb36dcf701b83d4e7468f6cbfb1c3e74f",
}

# the 15 x 50 sweep of the voltage-response protocol
GOLDEN_SPIKE_SWEEP_CSV = (
    "f15feec834a01fd877e92c2294dd0444c7eb5c3ee2e77f55c5ce3f69bea4120e")


def _spikes(tmp_path, monkeypatch, *args):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    out = tmp_path / "out"
    assert cli.main(["spikes", *args, "--seed", str(SPIKES_SEED),
                     "--output-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize("voltage", sorted(GOLDEN_SPIKES_JSON))
def test_spikes_json_matches_golden_digest(voltage, tmp_path, monkeypatch):
    out = _spikes(tmp_path, monkeypatch, "--synth", repr(voltage))
    got = hashlib.sha256((out / "spikes.json").read_bytes()).hexdigest()
    assert got == GOLDEN_SPIKES_JSON[voltage]


def test_spike_sweep_csv_matches_golden_digest(tmp_path, monkeypatch):
    out = _spikes(tmp_path, monkeypatch, "--sweep", "0.5", "4.0", "0.25",
                  "--sweep-seeds", "50")
    got = hashlib.sha256((out / "spike_sweep.csv").read_bytes()).hexdigest()
    assert got == GOLDEN_SPIKE_SWEEP_CSV
