"""addkrig benchmark: one command, three workloads, end-to-end or traced metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload gfunction --seed 0 --seconds 20 --trace 0

The workload runs in a child process (worker.py) that imports addkrig from
./src with BLAS pinned to one thread.  Set-up time is taken from process
start to the child's ``ready`` line, in SETUP_SAMPLES processes, and reported
as the median.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-module metrics of one traced pass; BENCHMARK.json at the root names
the workloads and metrics.  The last stdout line is one JSON object
{correct, attempted, failed, metrics}; the exit code is 0 only when every
correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 3  # set-up-only processes plus the measuring one
DEADLINE_S = 170.0
SEED_MODULUS = 2**32  # numpy seeds must be non-negative

# Single-threaded BLAS baseline: set-up and passes are closed-loop, one call
# at a time, so extra BLAS threads would only add scheduling noise.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Workload-level metrics that only some workloads produce; a traced run
# reports them on every workload, 0 where they do not apply.
WORKLOAD_ONLY = ("predict_pts_per_s", "effects_s", "q2_mean", "nll_median.d6")


def environment() -> dict:
    """Machine description recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "platform": platform.platform(),
        "threads": THREAD_VARS,
        "note": ("the last-level cache is shared and large (300 MiB here), so a bandwidth "
                 "measurement at 4x its size is impractical; bytes are computed counts"),
    }


def source_lines() -> dict[str, int]:
    """Informational, not gated: line count per addkrig module."""
    lines = {f"src.lines.{p.stem.strip('_')}": len(p.read_text().splitlines())
             for p in sorted((SRC / "addkrig").glob("*.py"))}
    lines["src.lines.total"] = sum(lines.values())
    return lines


def spawn(args, workdir: Path, setup_only: bool, deadline: float):
    """Start worker.py; return (process, seconds from start to its ready line)."""
    env = {**os.environ, **THREAD_VARS, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed % SEED_MODULUS), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup_s


def finish(proc, deadline: float) -> str:
    """Wait for the worker within the deadline; return its remaining stdout."""
    try:
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the deadline") from None
    return rest


def measure(args) -> tuple[dict, list[float]]:
    deadline = time.perf_counter() + DEADLINE_S
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            workdir.mkdir(parents=True)
            proc, setup_s = spawn(args, workdir, True, deadline)
            finish(proc, deadline)
            setups.append(setup_s)
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        proc, setup_s = spawn(args, workdir, False, deadline)
        setups.append(setup_s)
        rest = finish(proc, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1]), setups


def main() -> int:
    spec = json.loads(SPEC.read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "addkrig" / "__init__.py").is_file():
        print(f"error: addkrig sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        res, setups = measure(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = res["values"]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["pass_s"]),
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "failed_frac": res["failed"] / res["attempted"],
    }
    e2e.update({k: values[k] for k in WORKLOAD_ONLY if k in values})
    info = source_lines()
    env = {**environment(), "versions": res["versions"]}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "pass_s": res["pass_s"], "setup_samples_s": setups, "environment": env,
              "end_to_end": e2e, "counts": values, "info": info, "failures": res["failures"]}

    print(f"# environment: {json.dumps(env)}")
    print(f"# info, not gated: {json.dumps(info)}")
    print(f"# {args.workload} seed={args.seed}: {len(res['pass_s'])} untraced pass(es), "
          f"set-up samples {[round(s, 3) for s in setups]} s")
    shown = {**e2e, **{k: v for k, v in sorted(values.items()) if k not in e2e}}
    if args.trace:
        shown.update(res["layers"])
    for name, value in shown.items():
        print(f"{name:<30} {value:>14.6g} {units.get(name, 'count')}")
    for line in res["failures"]:
        print(f"# FAILED: {line}")

    if args.trace:
        layers = {**{k: 0.0 for k in WORKLOAD_ONLY}, **e2e, **res["layers"], **info}
        detail["per_layer"] = layers
        names = [m["name"] for m in spec["per_layer"]]
    else:
        layers = e2e
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {k: {"value": layers[k], "unit": units[k]} for k in names}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n")

    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
