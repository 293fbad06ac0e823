"""Write the seed-0 CLI outputs of this checkout, hash them, and check them against a record.

    python tools/seed0_outputs.py ROOT      # write the outputs into ROOT and print their sha256
    python tools/seed0_outputs.py --record  # write them in a temporary directory into RECORD
    python tools/seed0_outputs.py --check   # write them in a temporary directory, compare with RECORD

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
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # loads scipy's OpenBLAS, so that its configuration can be read

SRC = Path(__file__).resolve().parents[1] / "src"
RECORD = Path(__file__).resolve().with_name("seed0_record.txt")
THREADS = {"OPENBLAS_NUM_THREADS": "1"}

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

    for study in ("gfunction", "paths"):
        run(root, f"bench-{study}", "bench", study, "--seed", "0")
    for method, kernel, comp in FITS:
        fit = f"fit-{method}-{kernel}-{comp}"
        run(root, fit, "fit", "--data", "data.csv", "--method", method, "--kernel", kernel,
            "--composition", comp, "--seed", "0")
        model = f"{fit}/model.json"
        run(root, f"{fit}-predict", "predict", "--model", model, "--points", "points.csv")
        for direction in ("1", "3"):
            run(root, f"{fit}-effects{direction}", "effects", "--model", model,
                "--direction", direction, "--grid-size", "777")
    for command in ("", "fit", "predict", "effects", "bench"):
        run(root, f"help-{command or 'main'}", *filter(None, [command]), "--help")
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


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
    args = parser.parse_args()
    if args.record:
        record()
    elif args.check:
        sys.exit(check())
    else:
        for name, digest in write_outputs(args.root).items():
            print(digest, name)
