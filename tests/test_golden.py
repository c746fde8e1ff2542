"""Golden digests of fixed-seed `coverage`, `spikes` and mask-path outputs.

These guard determinism across processes and code changes, not only
reruns in one process: any change to the swarm engine that alters a
single byte of trajectory.csv, coverage.csv or summary.json fails here,
and so does any change to the spike chain that alters spikes.json or
spike_sweep.csv, or any change to `synth_pronotum`, `augment`,
`write_pgm` or `read_pgm` that alters a written mask, the `masks`
dataset or the `metrics` table, or any change to the assembly line that alters `assemble --batch 3`'s
event_log.csv or assembly.json.
A change that alters the numbers on purpose must say so and update the
digests below.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biobotsim import cli, vision

SEED = 11
DURATION_S = 60.0

# trajectory.csv writes positions at %.6f (1 um); before that they were
# reprs (8531cbb2...).  t_s cells print tick k as k / log_rate_hz (0.35,
# not 0.35000000000000003); that change moved every trajectory.csv and
# coverage.csv digest, and no summary.json.  Solving the fixes by Newton
# from a linear start moved est cells of 7 (60 s) and 61 (30 s at 100 Hz)
# trajectory.csv rows, and every single-run summary.json gained
# fixes_unconverged and fix_iterations_mean; no coverage.csv moved.
GOLDEN = {
    "true": {
        "trajectory.csv":
            "7b396ded127cc939e4090196ae1c7cedb253e2fd5d97f851f8c8c618833b57db",
        "coverage.csv":
            "65f0aa11ee8628e9ea9cd4a1707133530b6c3136ed2cab7f12b374767385f668",
        "summary.json":
            "c1a9e458ae5bc0e02eb8130b3fabe8655bf684c628338ce4e8c08074c6dd7849",
    },
    "estimated": {
        "trajectory.csv":
            "7b396ded127cc939e4090196ae1c7cedb253e2fd5d97f851f8c8c618833b57db",
        "coverage.csv":
            "167bf6db16bcf42ed3cc2006e5879c27799a38b0d6c27506aace0771427045be",
        "summary.json":
            "ee0581cdd19ef38beeabce72f9304b54a1feb746a4a73d35d501c8431c97f90c",
    },
    "seeds3": {
        "coverage.csv":
            "fd4a1d854f4b8a7b4b7381795c803e6860957a8cf04c4206b21f2ff9b198e6c0",
        "summary.json":
            "3967d442c6128d30ab8a14aa352a38119fdb62ff1ab79a27a25c0b881f2b55c4",
    },
    # 30 s logged at 100 Hz: trajectory.csv's 12,004 rows span three of
    # the writer's 4,096-row blocks
    "estimated_100hz": {
        "trajectory.csv":
            "001841fb88645d5e8e60a97b5b6230ac4b5acfb30545beae9b41f811848b14b8",
        "coverage.csv":
            "07ea440bf1325eecd9d22b5f42f17feb23f7d59ff7182a9b17cc749411cdfc36",
        "summary.json":
            "2357060e700187c5af996cb2d134c5aa7131de07ea509ea04901d653347d574a",
    },
}

SWARM = {
    "true": {"duration_s": DURATION_S, "coverage_from": "true"},
    "estimated": {"duration_s": DURATION_S, "coverage_from": "estimated"},
    "seeds3": {"duration_s": DURATION_S, "coverage_from": "true"},
    "estimated_100hz": {"duration_s": 30.0, "log_rate_hz": 100.0,
                        "coverage_from": "estimated"},
}


def _run(tmp_path, case):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "swarm": SWARM[case]}))
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
        assert np.array_equal(vision.read_pgm(path).pixels, mask.pixels)
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


# `masks --count 3 --scale 0.9 --rotation-deg 2 --seed 42`, file by file:
# the bytes that scripts/make_mask_dataset.py, which the subcommand
# replaced, wrote at the same flags
GOLDEN_MASKS_DATASET = {
    "pred/m0000.pgm":
        "b75987ae0f6b7cf065a8ad3e88d43bd1cd2d0ea9e275fea12380566c7a942461",
    "pred/m0001.pgm":
        "9581f4fb4c3b334b29ac232e06ebfbc846c911c5635337b4091b7b5c7153504a",
    "pred/m0002.pgm":
        "6f64e8c3d1229a9b998bd28b783a5a412aeba71b5546a789440b043b9ebdf3e0",
    "truth/m0000.pgm":
        "a5f0a1e57e5760ce70dbc5bbe40df40651f8c156b6cb1134a1ae7f5a3c9f4330",
    "truth/m0001.pgm":
        "4a965c976d3103751fd869217d66e7830f8ce1ec0bd2074f700cd349a715a55a",
    "truth/m0002.pgm":
        "0087b634ea2933fb7cd5f8116615f750dc97da3332612c19e56ce0f13d131083",
    "truth_points.csv":
        "f810613af598c65fde182a982c015a9e4a28157c7adc3284989768e8d908c8c5",
}


def test_masks_dataset_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    out = tmp_path / "out"
    assert cli.main(["masks", "--count", "3", "--scale", "0.9",
                     "--rotation-deg", "2", "--seed", "42",
                     "--output-dir", str(out)]) == 0
    got = {path.relative_to(out).as_posix():
           hashlib.sha256(path.read_bytes()).hexdigest()
           for path in out.rglob("*") if path.is_file()}
    assert got == GOLDEN_MASKS_DATASET


# ---------- spike path ----------

SPIKES_SEED = 3

# The numpy-only filter moved threshold_v in its last digits at 0.5, 2.0
# and 3.0 V (3.0 V: 2.731087163590139e-05 to 2.7310871635901424e-05);
# every n_spikes is unchanged.  The filter's GEMM passes moved it again at
# 0.5 V (2.6760412141348537e-05 to 2.676041214134854e-05) and 2.0 V
# (2.697464706294614e-05 to 2.6974647062946128e-05): its last bits follow
# the BLAS build's GEMM kernel.  So threshold_v is written at 12
# significant digits, which moved all four digests (3.0 V:
# 2.7310871635901424e-05 to 2.73108716359e-05); every n_spikes is
# unchanged.
GOLDEN_SPIKES_JSON = {
    0.5: "f9166a416096eb6bd33466ae5a80ad28a60048b72f58108390d691ae2454b5c8",
    2.0: "afec945f6bdbf391432d32af873f8243883d9dd62d93277d362c60f858d5de59",
    3.0: "5a56ae5447057c5036dd9f1f0c2a21fda24bca22b2fa0f876371f2a21c67f905",
    4.0: "b634f21db7118bb0890dcf6e637b47f5db24b2304a405ec8f77263569ea093d0",
}

# the 15 x 50 sweep of the voltage-response protocol
GOLDEN_SPIKE_SWEEP_CSV = (
    "f15feec834a01fd877e92c2294dd0444c7eb5c3ee2e77f55c5ce3f69bea4120e")
SWEEP_ARGS = ["--sweep", "0.5", "4.0", "0.25", "--sweep-seeds", "50"]


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


def test_spikes_json_does_not_depend_on_the_blas_kernel(tmp_path):
    # an OpenBLAS built with DYNAMIC_ARCH takes its kernel for one process
    # from OPENBLAS_CORETYPE; Haswell is the kernel of AVX2 hosts without
    # AVX-512, and it sums the filter's GEMMs in another order.  The sweep
    # reruns too, as its GEMMs run in forked workers
    voltages = [repr(v) for v in sorted(GOLDEN_SPIKES_JSON)]
    code = ("import sys\nfrom biobotsim import cli\n"
            f"seed = ['--seed', '{SPIKES_SEED}']\n"
            "for v in sys.argv[1:]:\n"
            "    assert cli.main(['spikes', '--synth', v, *seed, "
            "'--output-dir', v]) == 0\n"
            f"assert cli.main(['spikes', *{SWEEP_ARGS!r}, *seed, "
            "'--output-dir', 'sweep']) == 0\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in (cli.ENV_SEED, cli.ENV_OUTPUT_DIR)}
    env.update(OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code, *voltages], cwd=tmp_path,
                   env=env, check=True, capture_output=True)
    got = {float(v): hashlib.sha256(
        (tmp_path / v / "spikes.json").read_bytes()).hexdigest()
        for v in voltages}
    assert got == GOLDEN_SPIKES_JSON
    assert hashlib.sha256((tmp_path / "sweep" / "spike_sweep.csv")
                          .read_bytes()).hexdigest() == GOLDEN_SPIKE_SWEEP_CSV


def test_spike_sweep_csv_matches_golden_digest(tmp_path, monkeypatch):
    out = _spikes(tmp_path, monkeypatch, *SWEEP_ARGS)
    got = hashlib.sha256((out / "spike_sweep.csv").read_bytes()).hexdigest()
    assert got == GOLDEN_SPIKE_SWEEP_CSV


# ---------- assembly path ----------

ASSEMBLE_SEED = 11

GOLDEN_ASSEMBLE_BATCH3 = {
    "event_log.csv":
        "b4346d49746253d2743fed7388ccc4ad33926c405e136aed26b0be46be88d830",
    "assembly.json":
        "1ae8b004342271594c2cb48fe988e4805a654485051ee70cba5342eed2aeb306",
}


def test_assemble_batch_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    out = tmp_path / "out"
    assert cli.main(["assemble", "--batch", "3", "--seed", str(ASSEMBLE_SEED),
                     "--output-dir", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN_ASSEMBLE_BATCH3}
    assert got == GOLDEN_ASSEMBLE_BATCH3
