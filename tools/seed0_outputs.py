"""Write the seed-0 CLI outputs of this checkout, hash them, and check them against a record.

    python tools/seed0_outputs.py ROOT      # write the outputs into ROOT and print their sha256
    python tools/seed0_outputs.py --record  # write them in a temporary directory into RECORD
    python tools/seed0_outputs.py --check   # write them in a temporary directory, compare with RECORD
    python tools/seed0_outputs.py --margins # print criteria 1, 2 and 8 at master seeds 0-11 as JSON

ROOT must not exist yet.  The script runs, each in its own process with this checkout's ``src``
first on the path and BLAS on one thread:

- ``bench gfunction`` and ``bench paths`` at their defaults and ``--seed 0``;
- ``fit --seed 0`` for every valid (method, kernel, composition) on a fixed 60-point, 3-d CSV;
- ``predict`` on 1203 fixed points and ``effects`` for directions 1 and 3 on a 777-point grid,
  on each fitted model (a tensor model's ``effects`` exits 2, and that is recorded too);
- every ``--help``.

Each command runs in ROOT, writes into ``<name>/`` and leaves its argv, exit code, stdout and
stderr in ``<name>/console.txt``.  Every path on a command line is relative to ROOT, so the
hashes do not depend on where ROOT is.

RECORD (``tools/seed0_record.txt``) holds one hash per file under a header naming the Python,
numpy and scipy versions, the OpenBLAS builds that numpy and scipy load (version and CPU
kernel), the CPU model and the BLAS thread setting.  The floats depend on all of these, so
``--check`` compares hashes only when the header matches this machine, and otherwise prints
"not comparable" and exits 2.  It exits 1 and names each file that differs, is missing or is
new, and exits 0 when every file matches.  A change that moves floats on purpose rewrites the
record with ``--record`` in the same commit.

``--margins`` shows how far such a change moves the oracle.  For each master seed 0-11 it runs
both studies at their defaults, each seed in its own process as above, and prints as JSON the
values of acceptance criteria 1, 2 and 8 with pass or fail, the monotone count of criterion 2,
and the objective calls per method.  It ends with how many seeds pass each criterion and at
which seeds each clause of criterion 8 fails.  The frozen suite checks seed 0 only; the other
seeds show whether a pass there is a margin or a coin flip.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # loads scipy's OpenBLAS, so that its configuration can be read

SRC = Path(__file__).resolve().parents[1] / "src"
RECORD = Path(__file__).resolve().with_name("seed0_record.txt")
THREADS = {"OPENBLAS_NUM_THREADS": "1"}
MARGIN_SEEDS = range(12)

FITS = [("rlm", "gaussian", "additive"), ("rlm", "matern32", "additive"),
        ("ulm", "gaussian", "additive"), ("ulm", "matern32", "additive"),
        ("ulm", "gaussian", "tensor"), ("ulm", "matern32", "tensor")]


def write_rows(path: Path, header, rows) -> None:
    """A CSV of floats in repr form, written here so that no library writer shapes the inputs."""
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def run(root: Path, name: str, *argv: str) -> None:
    """Run the CLI in ROOT with ``argv`` and ``--out name`` (except for --help) and keep its
    console."""
    args = list(argv) if "--help" in argv else [*argv, "--out", name]
    env = {**os.environ, "PYTHONPATH": str(SRC), **THREADS}
    proc = subprocess.run([sys.executable, "-m", "addkrig.cli", *args], env=env, cwd=root,
                          capture_output=True, text=True)
    out = root / name
    out.mkdir(parents=True, exist_ok=True)
    (out / "console.txt").write_text(f"argv: {args}\nexit: {proc.returncode}\n"
                                     f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")


def write_outputs(root: Path) -> dict[str, str]:
    """Run every command into ``root`` (made here) and return {relative path: sha256}."""
    root.mkdir(parents=True)
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(60, 3))
    y = np.sin(6.0 * X[:, 0]) + X[:, 1] ** 2 + 0.5 * X[:, 2] + 0.05 * rng.standard_normal(60)
    write_rows(root / "data.csv", ["x1", "x2", "x3", "y"], np.column_stack([X, y]))
    write_rows(root / "points.csv", ["x1", "x2", "x3"], rng.uniform(size=(1203, 3)))

    # Jobs of commands that run in order (a model is fitted before it is used); two jobs at a time.
    jobs = [[(f"bench-{study}", "bench", study, "--seed", "0")] for study in ("gfunction", "paths")]
    for method, kernel, comp in FITS:
        fit = f"fit-{method}-{kernel}-{comp}"
        model = f"{fit}/model.json"
        jobs.append([(fit, "fit", "--data", "data.csv", "--method", method, "--kernel", kernel,
                      "--composition", comp, "--seed", "0"),
                     (f"{fit}-predict", "predict", "--model", model, "--points", "points.csv")]
                    + [(f"{fit}-effects{direction}", "effects", "--model", model, "--direction",
                        direction, "--grid-size", "777") for direction in ("1", "3")])
    jobs.append([(f"help-{command or 'main'}", *filter(None, [command]), "--help")
                 for command in ("", "fit", "predict", "effects", "bench")])
    with ThreadPoolExecutor(2) as pool:
        list(pool.map(lambda job: [run(root, *command) for command in job], jobs))
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def seed_margins(seed: int) -> dict:
    """Criteria 1, 2 and 8 as ``tests/test_acceptance.py`` computes them, at master seed ``seed``,
    and the objective calls per study and method."""
    from addkrig.bench import (GFunctionBenchConfig, PathsBenchConfig, run_gfunction_benchmark,
                               run_paths_benchmark)

    g = run_gfunction_benchmark(GFunctionBenchConfig(master_seed=seed))
    p = run_paths_benchmark(PathsBenchConfig(master_seed=seed))
    q2 = {m: g.q2_stats(m)[0] for m in ("rlm-additive", "ulm-additive", "ulm-tensor")}
    rlm = g.by_method("rlm-additive")
    monotone = 0
    for r in rlm:
        taus = g.traces[r.run_id].noise_by_iteration()
        seq = [taus[k] for k in sorted(taus) if k >= 2]
        monotone += all(b <= 1.1 * a for a, b in zip(seq, seq[1:]))
    small = sum(r.tau2_final <= 0.05 for r in rlm)
    gaps = {d: float(np.median(p.final_l("ulm-additive", d)) - np.median(p.final_l("rlm-additive", d)))
            for d in (3, 6)}
    calls = {}
    for study, report in (("gfunction", g), ("paths", p)):
        for r in report.records:
            key = f"{study}/{r.method}"
            calls[key] = calls.get(key, 0) + report.traces[r.run_id].total_calls
    for study in ("gfunction", "paths"):
        calls[study] = sum(v for k, v in calls.items() if k.startswith(f"{study}/"))
    return {
        "seed": seed,
        "criterion_1": {"pass": bool(not g.failures and 0.85 <= q2["rlm-additive"] <= 0.95
                                     and 0.80 <= q2["ulm-additive"] <= 0.95
                                     and q2["ulm-tensor"] < q2["rlm-additive"]),
                        "mean_q2": q2},
        "criterion_2": {"pass": small >= 15 and monotone >= 15, "tau2_small": small,
                        "monotone": monotone, "of": len(rlm)},
        "criterion_8": {"pass": bool(not p.failures and 0 <= gaps[3] <= gaps[6]),
                        "gap_d3": gaps[3], "gap_d6": gaps[6]},
        "failed_runs": len(g.failures) + len(p.failures),
        "calls": calls,
    }


def margins() -> dict:
    """:func:`seed_margins` at every seed of MARGIN_SEEDS, each in its own process, and a tally."""
    tools = str(Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), tools]), **THREADS}
    seeds = []
    for seed in MARGIN_SEEDS:
        code = f"import json, seed0_outputs; print(json.dumps(seed0_outputs.seed_margins({seed})))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              check=True)
        seeds.append(json.loads(proc.stdout))
    gaps = {s["seed"]: (s["criterion_8"]["gap_d3"], s["criterion_8"]["gap_d6"]) for s in seeds}
    return {
        **header(),
        "seeds": seeds,
        "passing": {f"criterion_{k}": sum(s[f"criterion_{k}"]["pass"] for s in seeds) for k in (1, 2, 8)},
        "criterion_8_fails": {  # by clause: RLM's median l above ULM's at d = 3, or a gap that shrinks with d
            "d3_gap_negative": [seed for seed, (g3, _) in gaps.items() if g3 < 0],
            "gap_shrinks_with_d": [seed for seed, (g3, g6) in gaps.items() if g6 < g3],
        },
    }


def blas_builds() -> str:
    """The configuration string (version and CPU kernel) of each OpenBLAS this process has
    loaded, read from the libraries themselves; scipy's build information where they cannot be
    found."""
    configs = []
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config"):
            if hasattr(handle, symbol):
                getattr(handle, symbol).restype = ctypes.c_char_p
                configs.append(" ".join(getattr(handle, symbol)().decode().split()))
                break
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return " | ".join(configs) or f"{blas['name']} {blas['version']}"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def header() -> dict[str, str]:
    """What the recorded bytes hold for: the versions, BLAS builds, CPU and thread setting."""
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": blas_builds(), "cpu": cpu_model(), **THREADS}


def read_record(path: Path) -> tuple[dict[str, str], dict[str, str]]:
    """(header, {relative path: sha256}) of a record file."""
    head, hashes = {}, {}
    for line in path.read_text().splitlines():
        if line.startswith("# ") and ": " in line:
            key, value = line[2:].split(": ", 1)
            head[key] = value
        elif line and not line.startswith("#"):
            digest, name = line.split(maxsplit=1)
            hashes[name] = digest
    return head, hashes


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        hashes = write_outputs(Path(tmp) / "root")
    lines = ["# Seed-0 output hashes of tools/seed0_outputs.py; rewrite with --record."]
    lines += [f"# {key}: {value}" for key, value in header().items()]
    lines += [f"{digest}  {name}" for name, digest in hashes.items()]
    RECORD.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(hashes)} hashes to {RECORD}")


def check() -> int:
    want_head, want = read_record(RECORD)
    here = header()
    if want_head != here:
        for key in sorted(set(want_head) | set(here)):
            if want_head.get(key) != here.get(key):
                print(f"  {key}: recorded {want_head.get(key)!r}, here {here.get(key)!r}")
        print(f"not comparable: {RECORD.name} was taken on another machine or build")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        got = write_outputs(Path(tmp) / "root")
    bad = [f"differs: {name}" for name in want if name in got and got[name] != want[name]]
    bad += [f"missing: {name}" for name in want if name not in got]
    bad += [f"new: {name}" for name in got if name not in want]
    print("\n".join(bad) or f"all {len(want)} files match {RECORD.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("root", nargs="?", type=Path, help="directory to write the outputs into")
    mode.add_argument("--record", action="store_true", help=f"write {RECORD.name}")
    mode.add_argument("--check", action="store_true", help=f"compare with {RECORD.name}")
    mode.add_argument("--margins", action="store_true", help="print criteria 1, 2 and 8 at seeds 0-11")
    args = parser.parse_args()
    if args.margins:
        print(json.dumps(margins(), indent=1))
    elif args.record:
        record()
    elif args.check:
        sys.exit(check())
    else:
        for name, digest in write_outputs(args.root).items():
            print(digest, name)
