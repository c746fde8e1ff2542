"""biobotsim benchmark driver (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout.  The driver writes the workload's
inputs from --seed, then launches perfbench/worker.py in a fresh
interpreter, one launch at a time (a closed loop with one caller), until
--seconds have passed.  Each launch imports `biobotsim.cli` from ./src and
runs one body, as a user's CLI invocation does; the driver then checks the
launch's output files.

--trace 0 prints the end-to-end metrics: medians over launches of set-up
time, body wall and CPU time, throughput and peak RSS.  --trace 1
alternates untraced and traced launches and prints the per-layer metrics
from the traced ones, the tracing overhead, and import times taken with
`python -X importtime`.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Everything the driver
writes goes under ./.perfbench.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
LAUNCH_TIMEOUT_S = 150.0
MIN_LAUNCHES = 3

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s",
                    "work_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".mb_per_s", "MB/s"), ("_s", "s"),
                         (".us_per_call", "us"), ("frac", "ratio"), ("ratio", "ratio"),
                         ("_count", "count"), (".iters_per_call", "count"),
                         ("_bytes", "B"), ("_px2", "px2")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name!r}")


def per_layer_names() -> list[str]:
    names = list(tracer.layer_metrics({}, {}, 1))
    return names + ["cli.output_bytes", "setup.import_biobotsim_s",
                    "setup.import_scipy_signal_s", "trace.overhead_frac",
                    "vision.mse_pr_px2"]


# ---------- environment and child processes ----------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if head.returncode != 0 or status.returncode != 0:
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    commit, dirty = git_state()
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": versions["numpy"], "scipy": versions["scipy"],
            "git_commit": commit, "git_dirty": dirty}


def run_child(argv: list[str], cwd: Path, log: Path) -> int:
    with open(log, "w") as f:
        try:
            return subprocess.run(argv, cwd=cwd, env=child_env(), stdout=f,
                                  stderr=f, timeout=LAUNCH_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return -1


def parse_importtime(text: str) -> dict:
    """setup.* seconds from `python -X importtime -c 'import biobotsim.cli'`.

    biobotsim is every top-level biobotsim entry.  scipy.signal is its own
    entry if it has one; scipy loads it lazily through importlib, which
    importtime does not log, so otherwise it is the scipy entries among the
    siblings of its shallowest submodule.
    """
    entries = []   # (depth, name, cumulative_us), in importtime's post-order
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        stripped = name.lstrip()
        entries.append(((len(name) - len(stripped) - 1) // 2, stripped, int(parts[1])))
    biobotsim_us = sum(c for d, n, c in entries
                       if d == 0 and (n == "biobotsim" or n.startswith("biobotsim.")))
    scipy_signal_us = next((c for d, n, c in entries if n == "scipy.signal"), None)
    subs = [(d, i) for i, (d, n, _) in enumerate(entries) if n.startswith("scipy.signal.")]
    if scipy_signal_us is None and subs:
        depth, first = min(subs)
        lo = max((i for i in range(first) if entries[i][0] < depth), default=-1)
        hi = next((i for i in range(first, len(entries)) if entries[i][0] < depth),
                  len(entries))
        scipy_signal_us = sum(c for d, n, c in entries[lo + 1:hi]
                              if d == depth and n.startswith("scipy"))
    return {"setup.import_biobotsim_s": biobotsim_us / 1e6,
            "setup.import_scipy_signal_s": (scipy_signal_us or 0) / 1e6}


def import_times(run_dir: Path) -> dict:
    log = run_dir / "importtime.log"
    rc = run_child([sys.executable, "-X", "importtime", "-c", "import biobotsim.cli"],
                   run_dir, log)
    if rc != 0:
        raise RuntimeError(f"importtime run failed; see {log}")
    return parse_importtime(log.read_text())


def file_digests(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[p.relative_to(root).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def launch(workload: str, spec: dict, spec_path: Path, run_dir: Path, traced: bool) -> dict:
    """One worker process: set-up plus one body, then the output checks."""
    launch_dir = run_dir / "launch"
    shutil.rmtree(launch_dir, ignore_errors=True)
    launch_dir.mkdir(parents=True)
    result_path = run_dir / "result.json"
    result_path.unlink(missing_ok=True)
    t0 = time.monotonic()
    rc = run_child([sys.executable, str(HERE / "worker.py"), str(spec_path),
                    "1" if traced else "0", str(result_path)],
                   launch_dir, run_dir / "worker.log")
    try:
        res = json.loads(result_path.read_text())
    except (OSError, ValueError):
        res = {}
    ok = rc == 0 and res.get("exit_code") == 0
    if ok and not Path(res["cli_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"biobotsim was imported from {res['cli_file']}, not {SRC}")
    out_dir = launch_dir / "out"
    attempted, failed, info = checks.CHECKERS[workload](spec, out_dir)
    if not ok:
        failed = attempted
    return {
        "ok": ok, "attempted": attempted, "failed": failed, "info": info,
        "setup_s": res["t_ready"] - t0 if ok else None,
        "run_s": res.get("run_s"), "cpu_s": res.get("cpu_s"),
        "peak_rss_mb": res.get("peak_rss_mb"), "trace": res.get("trace"),
        "digests": file_digests(launch_dir),
        "output_bytes": sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        if out_dir.is_dir() else 0,
    }


# ---------- one workload run ----------

def _median(launches: list[dict], key: str) -> float:
    return statistics.median(x[key] for x in launches if x["ok"])


def _sum_traces(launches: list[dict]) -> tuple[dict, dict]:
    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    for x in launches:
        for name, (calls, total, self_s) in x["trace"]["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, v in x["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + v
    return stats, counters


def compare_digests(workload: str, seed: int, size: str, launches: list[dict],
                    env: dict) -> list[str]:
    """Notes on output digests: launches that disagree, and files that
    differ from the stored record of the last run of this workload and
    seed.  Stores this run's digests as the new record."""
    notes = []
    first = launches[0]["digests"]
    if any(x["digests"] != first for x in launches[1:]):
        notes.append("outputs differ between launches of this run")
    store = WORK / "digests" / f"{workload}-{size}-seed{seed}.json"
    if store.exists():
        prev = json.loads(store.read_text())
        changed = sorted(k for k in set(prev["files"]) | set(first)
                         if prev["files"].get(k) != first.get(k))
        if changed:
            notes.append(f"outputs changed since commit {prev['git_commit']}: "
                         + ", ".join(changed))
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({"workload": workload, "seed": seed, "size": size,
                                 "git_commit": env["git_commit"],
                                 "git_dirty": env["git_dirty"], "files": first},
                                indent=1, sort_keys=True) + "\n")
    return notes


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 size: str, env: dict) -> dict:
    run_dir = WORK / "runs" / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = workloads.prepare(workload, seed, size, run_dir / "inputs")
    spec_path = run_dir / "inputs" / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1) + "\n")

    # compile bytecode and warm the file cache before anything is timed
    if run_child([sys.executable, "-c", "import biobotsim.cli"], run_dir,
                 run_dir / "warmup.log") != 0:
        raise RuntimeError(f"cannot import biobotsim.cli; see {run_dir / 'warmup.log'}")
    setup_layers = import_times(run_dir) if traced else {}

    plain, traced_launches = [], []
    t_start = time.monotonic()
    while True:
        if traced and len(traced_launches) < len(plain):
            traced_launches.append(launch(workload, spec, spec_path, run_dir, True))
        else:
            plain.append(launch(workload, spec, spec_path, run_dir, False))
        enough = (len(traced_launches) >= 1 if traced else len(plain) >= MIN_LAUNCHES)
        if enough and time.monotonic() - t_start >= seconds:
            break
    launches = plain + traced_launches
    if not any(x["ok"] for x in plain) or (traced and not any(x["ok"] for x in traced_launches)):
        raise RuntimeError(f"every launch failed; see {run_dir / 'worker.log'}")
    attempted = sum(x["attempted"] for x in launches)
    failed = sum(x["failed"] for x in launches)
    info = launches[0]["info"]

    run_s = _median(plain, "run_s")
    if traced:
        good = [x for x in traced_launches if x["ok"]]
        stats, counters = _sum_traces(good)
        metrics = tracer.layer_metrics(stats, counters, len(good))
        metrics.update(setup_layers)
        metrics["cli.output_bytes"] = statistics.median(x["output_bytes"] for x in launches)
        metrics["trace.overhead_frac"] = _median(traced_launches, "run_s") / run_s - 1.0
        metrics["vision.mse_pr_px2"] = info.get("mse_pr_px2", 0.0)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {"setup_s": _median(plain, "setup_s"), "run_s": run_s,
                   "cpu_s": _median(plain, "cpu_s"),
                   "work_per_s": spec["units"] / run_s,
                   "peak_rss_mb": _median(plain, "peak_rss_mb")}
        units = END_TO_END_UNITS
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
        "size": size, "env": env, "units_per_body": spec["units"], "unit": spec["unit"],
        "launches": len(plain), "traced_launches": len(traced_launches),
        "attempted": attempted, "failed": failed, "info": info,
        "samples": {k: [x[k] for x in plain] for k in ("setup_s", "run_s", "cpu_s",
                                                      "peak_rss_mb")},
        "digest_notes": compare_digests(workload, seed, size, launches, env),
        "digests": launches[0]["digests"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "correct": failed == 0 and all(x["ok"] for x in launches),
    }
    if traced:
        record["trace"] = [x["trace"] for x in traced_launches if x["ok"]]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-{size}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def print_record(rec: dict):
    print(f"== {rec['workload']} seed {rec['seed']} trace {int(rec['traced'])}: "
          f"{rec['launches']} untraced + {rec['traced_launches']} traced launches, "
          f"{rec['units_per_body']} {rec['unit']}s per body")
    for name, m in rec["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"  {'ops_failed_frac':44s} {frac:.6g} ratio ({rec['failed']}/{rec['attempted']})")
    for k, v in rec["info"].items():
        print(f"  result {k} = {v:.6g}")
    for note in rec["digest_notes"]:
        print(f"  digest: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WHY) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal input sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "biobotsim" / "cli.py").is_file():
        print(f"error: no biobotsim source under {SRC}", file=sys.stderr)
        return 2
    size = "tiny" if args.tiny else "full"
    env = environment()
    names = list(workloads.WHY) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace), size, env)
                   for w in names]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for rec in records:
        print_record(rec)
    print("env " + json.dumps(env, sort_keys=True))
    correct = all(r["correct"] for r in records)
    summary = {"correct": correct,
               "attempted": sum(r["attempted"] for r in records),
               "failed": sum(r["failed"] for r in records)}
    if len(records) == 1:
        summary["metrics"] = records[0]["metrics"]
    else:
        summary["workloads"] = {r["workload"]: r["metrics"] for r in records}
    print(json.dumps(summary, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
