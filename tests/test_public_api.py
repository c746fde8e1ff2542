"""The public API is what the pipelines run.

Every CLI subcommand runs in-process at tiny sizes under a profiler that
records each Python function called, on the main thread and on the
threads the runs start.  Every function that biobotsim/__init__.py
exports must be among them.
"""
import inspect
import json
import sys
import threading

import numpy as np

import biobotsim
from biobotsim import cli
from biobotsim import neurosignal as ns


def _exported_functions():
    return {name: obj for name, obj in vars(biobotsim).items()
            if inspect.isfunction(obj)
            and obj.__module__.startswith("biobotsim.")}


def test_every_exported_function_runs_on_a_pipeline(tmp_path, monkeypatch,
                                                    capsys, write_trace_csv):
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "swarm": {
        "n_agents": 2, "duration_s": 20.0}}))
    trace = tmp_path / "trace.csv"
    write_trace_csv(ns.Trace(ns.SpikeParams.sample_rate_hz, np.zeros(30000)),
                    trace)
    out = tmp_path / "out"
    runs = [["masks", "--count", "2", "--scale", "0.9", "--rotation-deg", "2"],
            ["assemble", "--batch", "2"], ["fixation", "--points", "3"],
            ["spikes", "--synth", "3.0"], ["spikes", "--input", str(trace)],
            ["spikes", "--sweep", "1.0", "2.0", "1.0", "--sweep-seeds", "2"],
            ["coverage", "--config", str(cfg)],
            ["coverage", "--config", str(cfg), "--seeds", "2"],
            ["metrics", "--pred", str(out / "pred"),
             "--truth", str(out / "truth")]]

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        codes = [cli.main([*argv, "--output-dir", str(out)]) for argv in runs]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert codes == [0] * len(runs), capsys.readouterr().err

    unrun = sorted(name for name, fn in _exported_functions().items()
                   if fn.__code__ not in called)
    assert unrun == []
