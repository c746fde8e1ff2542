"""Acceptance gate: fifteen end-to-end checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.
Each check prints exactly one line, "criterion NN PASS -- <summary>" or
"criterion NN FAIL -- <summary>", the latter immediately followed by the
assertion failure.
"""
import contextlib
import json
import math
import time

import numpy as np
import pytest

from biobotsim import assembly as asm
from biobotsim import cli
from biobotsim import neurosignal as ns
from biobotsim import swarm as sw
from biobotsim import vision
from biobotsim.locomotion import (AUTO_PRESET, MANUAL_PRESET, AgentState,
                                  StimCommand, StimKind, apply_command)
from biobotsim.morphology import FixationRig, lifting_height

FS = 25000.0


@contextlib.contextmanager
def _verdict(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num:02d} FAIL -- {text}")
        raise
    print(f"\ncriterion {num:02d} PASS -- {text}")


def _zero_spread(preset):
    import dataclasses
    return dataclasses.replace(preset, turn_angle_sd=0.0, decel_min_speed_sd=0.0,
                               heading_diffusion=0.0)


def test_criterion_01_threshold_formula():
    with _verdict(1, "noise threshold lands at 5 sigma within 5%, under 1 s"):
        # the pipeline's kernel: 5 x median(|x|) / 0.6745 per row
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 1.0, 100000)
        t0 = time.perf_counter()
        level = float(ns._thresholds(np.abs(x)[None])[0])
        elapsed = time.perf_counter() - t0
        assert 4.75 <= level <= 5.25
        assert elapsed < 1.0


def test_criterion_02_bandpass_against_analytic_oracle():
    with _verdict(2, "filter gains at 50 Hz / 1.2 kHz / 10 kHz match the "
                     "closed-form magnitude within 0.5 dB"):
        def warp(f):
            return 2.0 * FS * math.tan(math.pi * f / FS)

        def oracle_db(f, low=300.0, high=5000.0):
            w1, w2 = warp(low), warp(high)
            bw = w2 - w1
            wf = warp(f)
            mag = bw * wf / math.hypot(w1 * w2 - wf * wf, bw * wf)
            return 20.0 * math.log10(mag)

        freqs = (50.0, 1200.0, 10000.0)
        n = int(2.0 * FS)
        t = np.arange(n) / FS
        rows = np.sin(2.0 * np.pi * np.array(freqs)[:, None] * t)
        tail = slice(n // 2, None)
        # the pipeline's kernel filters the three tones as rows of one call
        for freq, x, y in zip(freqs, rows, ns.bandpass_rows(rows, FS)):
            measured = 20.0 * math.log10(
                math.sqrt(float(np.mean(y[tail] ** 2) / np.mean(x[tail] ** 2))))
            assert measured == pytest.approx(oracle_db(freq), abs=0.5), freq


def test_criterion_03_planted_spike_recovery(planted_spike_trace):
    with _verdict(3, "7 planted spikes at 4x threshold recovered exactly in "
                     ">= 99 of 100 seeds"):
        exact = 0
        for seed in range(100):
            train = ns.run_spike_pipeline(
                planted_spike_trace(seed), ns.SpikeParams(blank_edge_times_s=()))
            if train.count == 7:
                exact += 1
        assert exact >= 99, f"exactly-7 in {exact}/100 seeds"


def test_criterion_04_voltage_response_shape():
    with _verdict(4, "mean detected counts: monotone 0.5-3.0 V, flat "
                     "3.0-3.5 V, 23.5 +- 5 pp drop at 4.0 V"):
        # the CLI's sweep: 0.5-4.0 V by 0.5 V, 200 traces per voltage,
        # since the bounds lie within the sampling noise of 50 traces
        counts = ns.voltage_sweep(ns.sweep_voltages(0.5, 4.0, 0.5), 200, 4)
        means = counts.mean(axis=1).tolist()
        ramp = means[:6]
        assert all(ramp[i] <= ramp[i + 1] for i in range(5)), ramp
        m30, m35, m40 = means[5], means[6], means[7]
        assert abs(m35 - m30) <= 0.05 * m30, (m30, m35)
        drop_pct = 100.0 * (1.0 - m40 / m35)
        assert 18.5 <= drop_pct <= 28.5, drop_pct


def test_criterion_05_lifting_height_curve():
    with _verdict(5, "h(3.5 mm) = 1.9 mm exactly, monotone over 1000 points, "
                     "plateau at 3.5 vs 4.0 mm"):
        rig = FixationRig()
        assert lifting_height(rig, 3.5e-3) == 1.9e-3
        ds = np.linspace(0.0, rig.rod_a_initial_clearance_m, 1000)
        hs = [lifting_height(rig, float(d)) for d in ds]
        assert all(hs[i] <= hs[i + 1] for i in range(999))
        assert lifting_height(rig, 4.0e-3) == lifting_height(rig, 3.5e-3)


def test_criterion_06_pitch_midpoint():
    with _verdict(6, "pitch corridor midpoint 162.65, printed as 162.7"):
        pitch = asm.solve_pitch(157.8, 167.5)
        assert abs(pitch - 162.65) <= 1e-12
        assert f"{pitch:.1f}" == "162.7"


def test_criterion_07_assembly_timing():
    with _verdict(7, "default process walk totals 68.0 s and a batch of 4 "
                     "totals 468.0 s"):
        final, rows = asm.walk_all(asm.AssemblyProcess())
        assert final.elapsed == 68.0
        assert len(rows) == 7
        assert asm.batch_assemble(4) == 468.0


def _stimulated(params, kind, n):
    """One agent in simulate, the production walk: n steps of 0.01 s, each
    logged, on an obstacle-free arena from (0.5, 0.5) at heading 0 and the
    walking speed, under the command kind applied at the start and no
    other command."""
    start = apply_command(AgentState(0.5, 0.5, 0.0, params.walk_speed_mean),
                          params, StimCommand(kind))
    return sw.simulate(sw.Arena(obstacles=()), sw.UwbSystem(), [params],
                       stim_period=10.0, duration=n * 0.01, log_rate_hz=100.0,
                       initial_states=[start])


def test_criterion_08_deterministic_stimulation_responses():
    with _verdict(8, "auto turn-left lands exactly 70.9 deg under the 240 "
                     "deg/s cap; manual deceleration hits 1.5 cm/s at 0.33 s"):
        auto = _zero_spread(AUTO_PRESET)
        run = _stimulated(auto, StimKind.TURN_LEFT, 40)
        headings = run.heading_deg[0].tolist()
        for prev, heading in zip(headings, headings[1:]):
            assert abs(heading - prev) / 0.01 <= 240.0 + 1e-9
        assert headings[40] == 70.9
        assert run.commands[0][40] == ""

        manual = _zero_spread(MANUAL_PRESET)
        speeds = _stimulated(manual, StimKind.DECELERATE, 34).speed[0].tolist()
        assert speeds[33] == pytest.approx(0.015, abs=1e-12)   # 0.33 s of the ramp
        assert speeds[34] == 0.015


def test_criterion_09_deceleration_ratio():
    with _verdict(9, "auto-preset speed reduction is 68.25%, within 0.1 pp "
                     "of 68.2%"):
        auto = _zero_spread(AUTO_PRESET)
        low = _stimulated(auto, StimKind.DECELERATE, 40).speed[0, 1:].min()
        reduction = 100.0 * (1.0 - low / auto.walk_speed_mean)
        assert reduction == pytest.approx(68.25, abs=0.005)
        assert abs(reduction - 68.2) <= 0.1


def test_criterion_10_multilateration_accuracy():
    with _verdict(10, "position solver: < 1e-6 m noiseless, RMSE < 0.08 m "
                      "with 5 cm range noise, every fix converged in "
                      "<= 50 iterations"):
        # the two kernels _localize runs, on 100 noiseless then 1,000 noisy
        # positions
        rng = np.random.default_rng(10)

        def solve(n, uwb):
            p = rng.uniform(0.0, 2.0, (n, 2))
            xy, conv, its = sw._solve_fixes(sw._fix_ranges(p, uwb, rng),
                                            uwb.anchors_m)
            return np.hypot(*(xy - p).T), conv, its

        err, conv, its = solve(100, sw.UwbSystem(range_noise_sd_m=0.0))
        assert conv.all() and (its <= 50).all()
        assert err.max() < 1e-6

        err, conv, its = solve(1000, sw.UwbSystem())
        assert conv.all() and (its <= 50).all()
        assert math.sqrt(np.mean(err ** 2)) < 0.08


def test_criterion_11_coverage_accounting():
    with _verdict(11, "straight-line run matches a hand rasterization; 321 "
                      "cells report 80.25% and 50.87 cm^2/s at 631 s"):
        arena = sw.Arena(obstacles=())
        params = _zero_spread(AUTO_PRESET)
        start = AgentState(0.05, 0.05, 30.0, params.walk_speed_mean)
        run = sw.simulate(arena, sw.UwbSystem(range_noise_sd_m=0.0), [params],
                          stim_period=40.0, duration=20.0, seed=0,
                          initial_states=[start])
        expected = np.zeros((20, 20), dtype=bool)
        x, y = 0.05, 0.05
        r = math.radians(30.0)
        vdt = params.walk_speed_mean * 0.01
        for _ in range(2001):
            expected[math.floor(y / 0.1), math.floor(x / 0.1)] = True
            x += vdt * math.cos(r)
            y += vdt * math.sin(r)
        assert np.array_equal(run.union_grid.visited, expected)
        assert run.final_union_coverage == sw.coverage_percent(expected.sum(), 400)

        assert sw.coverage_percent(321, 400) == 80.25
        grid = sw.CoverageGrid.for_arena(sw.Arena())
        grid.visited.ravel()[:321] = True
        stub = sw.SwarmRun(seed=0, uwb=sw.UwbSystem(), n_agents=1,
                           log_t=np.array([0.0, 631.0]),
                           true_xy=np.zeros((1, 2, 2)),
                           heading_deg=np.zeros((1, 2)),
                           speed=np.zeros((1, 2)),
                           commands=[["", ""]],
                           agent_coverage_pct=np.zeros((1, 2)),
                           union_coverage_pct=np.array([0.0, 80.25]),
                           union_grid=grid,
                           fixes=(np.zeros((1, 2, 2)),
                                  np.ones((1, 2), dtype=bool),
                                  np.ones((1, 2), dtype=np.uint8)))
        assert f"{sw.coverage_rate(stub):.2f}" == "50.87"


def test_criterion_12_dispersion_experiment():
    with _verdict(12, "20-seed 631 s dispersion: mean union coverage in "
                      "[70, 90]%, union dominates every agent, monotone, "
                      "under 60 s"):
        arena = sw.Arena()
        uwb = sw.UwbSystem()
        params = [AUTO_PRESET] * 4
        finals = []
        t0 = time.perf_counter()
        for run in sw.dispersion_batch(arena, uwb, params, 20, seed=42):
            finals.append(run.final_union_coverage)
            union = run.union_coverage_pct
            assert (np.diff(union) >= 0.0).all()
            # all agents start in the shared release cell, so equality is
            # the floor early on; the union must dominate throughout and
            # strictly exceed every individual once dispersed
            assert (union >= run.agent_coverage_pct.max(axis=0)).all()
            assert (run.agent_coverage_pct[:, -1] < union[-1]).all()
            del run
        elapsed = time.perf_counter() - t0
        mean_final = float(np.mean(finals))
        assert 70.0 <= mean_final <= 90.0, finals
        assert elapsed < 60.0, f"batch took {elapsed:.1f} s"


def test_criterion_13_overlap_metrics():
    with _verdict(13, "DSC >= IoU on 1000 random pairs; identity, disjoint, "
                      "and half-overlap scores exact"):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            density_a = rng.uniform(0.0, 1.0)
            density_b = rng.uniform(0.0, 1.0)
            a = vision.Mask(rng.random((24, 24)) < density_a)
            b = vision.Mask(rng.random((24, 24)) < density_b)
            assert vision.dsc(a, b) >= vision.iou(a, b) - 1e-12

        base = np.zeros((20, 20), dtype=bool)
        base[5:15, 0:10] = True
        ident = vision.Mask(base.copy())
        assert vision.iou(ident, ident) == 1.0
        assert vision.dsc(ident, ident) == 1.0
        apart = np.zeros((20, 20), dtype=bool)
        apart[5:15, 10:20] = True
        assert vision.iou(ident, vision.Mask(apart)) == 0.0
        assert vision.dsc(ident, vision.Mask(apart)) == 0.0
        half = np.zeros((20, 20), dtype=bool)
        half[5:15, 5:15] = True   # 100 px each side, 50 px shared
        assert vision.iou(ident, vision.Mask(half)) == 50 / 150
        assert vision.dsc(ident, vision.Mask(half)) == 0.5

        print("\nnote: published segmentation benchmark scores need the "
              "original labeled recordings, which are not distributable; "
              "the synthetic self-consistency check (criterion 14) "
              "substitutes for them")


def test_criterion_14_reference_point_extraction():
    with _verdict(14, "reference point exact on 200 synthetic masks and "
                      "after identity augmentation; within 2 px after a "
                      "30-degree rotation round trip"):
        shape = vision.PronotumShapeParams()
        for seed in range(200):
            mask, truth = vision.synth_pronotum(shape, seed)
            assert vision.extract_reference_point(mask) == truth
            same = vision.augment(mask, 1.0, 1.0, 0.0)
            assert vision.extract_reference_point(same) == truth
            angle = 30.0 if seed % 2 == 0 else -30.0
            spun = vision.augment(vision.augment(mask, 1.0, 1.0, angle),
                                  1.0, 1.0, -angle)
            got = vision.extract_reference_point(spun)
            err = math.hypot(got.x - truth.x, got.y - truth.y)
            assert err <= 2.0, (seed, err)


def test_criterion_15_byte_identical_reruns(tmp_path, capsys, monkeypatch):
    with _verdict(15, "every subcommand rerun with the same config and seed "
                      "writes byte-identical outputs"):
        monkeypatch.delenv(cli.ENV_SEED, raising=False)
        monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"schema_version": 1, "swarm": {"duration_s": 20.0, "n_agents": 2}}))

        for d in ("pred", "truth"):
            (tmp_path / d).mkdir()
        for k in range(4):
            mask, _ = vision.synth_pronotum(vision.PronotumShapeParams(), k)
            for d in ("pred", "truth"):
                vision.write_pgm(mask, tmp_path / d / f"m{k}.pgm")

        def run_all(tag):
            base = tmp_path / tag
            assert cli.main(["assemble", "--batch", "4", "--config",
                             str(cfg_path), "--output-dir", str(base / "a")]) == 0
            assert cli.main(["spikes", "--synth", "2.0", "--config",
                             str(cfg_path), "--output-dir", str(base / "s")]) == 0
            assert cli.main(["coverage", "--config", str(cfg_path),
                             "--output-dir", str(base / "c")]) == 0
            assert cli.main(["masks", "--count", "2", "--scale", "0.9",
                             "--rotation-deg", "2", "--config", str(cfg_path),
                             "--output-dir", str(base / "k")]) == 0
            assert cli.main(["metrics", "--pred", str(tmp_path / "pred"),
                             "--truth", str(tmp_path / "truth"),
                             "--output-dir", str(base / "m")]) == 0
            assert cli.main(["fixation", "--config", str(cfg_path)]) == 0
            return base

        r1 = run_all("r1")
        text1 = capsys.readouterr().out
        r2 = run_all("r2")
        text2 = capsys.readouterr().out
        assert text1 == text2

        files1 = sorted(p.relative_to(r1) for p in r1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(r2) for p in r2.rglob("*") if p.is_file())
        assert files1 == files2 and files1
        for rel in files1:
            assert (r1 / rel).read_bytes() == (r2 / rel).read_bytes(), rel
