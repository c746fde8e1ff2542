"""One launch of a workload body in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC_JSON TRACE(0|1) RESULT_JSON

Runs from the launch directory.  Imports `biobotsim.cli`, records the
monotonic time at which it is ready for its first call, then runs the
body once: the mask write phase if the spec has one, then `cli.main` on
the spec's argv.  Writes timings, peak RSS and, when traced, the span
summary to RESULT_JSON.
"""
import json
import sys
import time
from pathlib import Path

spec_path, trace_flag, result_path = sys.argv[1:4]

import biobotsim.cli as cli  # noqa: E402

t_ready = time.monotonic()

import resource  # noqa: E402

with open(spec_path) as f:
    spec = json.load(f)

tracer = None
if trace_flag == "1":
    import tracer as tracing
    tracer = tracing.Tracer()
    tracer.install({"cli": cli, "swarm": cli.sw, "neurosignal": cli.ns,
                    "vision": cli.vision,
                    "locomotion": sys.modules["biobotsim.locomotion"]})


def write_masks(vision, masks):
    pred_dir, truth_dir = Path(masks["pred_dir"]), Path(masks["truth_dir"])
    pred_dir.mkdir(parents=True, exist_ok=True)
    truth_dir.mkdir(parents=True, exist_ok=True)
    params = vision.PronotumShapeParams()
    for i, seed in enumerate(masks["seeds"]):
        truth, _ = vision.synth_pronotum(params, seed)
        pred = vision.augment(truth, 1.0, 1.0, masks["rotation_deg"])
        name = f"m{i:03d}.pgm"
        vision.write_pgm(truth, truth_dir / name)
        vision.write_pgm(pred, pred_dir / name)


def body():
    if "masks" in spec:
        write_masks(cli.vision, spec["masks"])
    return cli.main(spec["argv"])


c0 = time.process_time()
w0 = time.perf_counter()
exit_code = tracer.run_root(body) if tracer else body()
run_s = time.perf_counter() - w0
cpu_s = time.process_time() - c0

result = {
    "t_ready": t_ready,
    "run_s": run_s,
    "cpu_s": cpu_s,
    "exit_code": exit_code,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "cli_file": cli.__file__,
}
if tracer is not None:
    tracer.finish()
    result["trace"] = tracer.summary()
with open(result_path, "w") as f:
    json.dump(result, f)
