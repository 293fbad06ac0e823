"""Write the seed-0 CLI outputs of this checkout into fixed directories and print their sha256.

    python tools/seed0_outputs.py ROOT

ROOT must not exist yet.  The script runs, each in its own process with this checkout's ``src``
first on the path and BLAS on one thread:

- ``bench gfunction`` and ``bench paths`` at their defaults and ``--seed 0``;
- ``fit --seed 0`` for every valid (method, kernel, composition) on a fixed 60-point, 3-d CSV;
- ``predict`` on 1203 fixed points and ``effects`` for directions 1 and 3 on a 777-point grid,
  on each fitted model (a tensor model's ``effects`` exits 2, and that is recorded too);
- every ``--help``.

Each command writes into ``ROOT/<name>/`` and leaves its argv, exit code, stdout and stderr in
``ROOT/<name>/console.txt``.  ``config_echo.json`` records the ``--out`` and ``--data`` paths,
so two checkouts are compared by running each with the same ROOT in turn (removing it between
the runs) and diffing the printed lines.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

FITS = [("rlm", "gaussian", "additive"), ("rlm", "matern32", "additive"),
        ("ulm", "gaussian", "additive"), ("ulm", "matern32", "additive"),
        ("ulm", "gaussian", "tensor"), ("ulm", "matern32", "tensor")]


def write_rows(path: Path, header, rows) -> None:
    """A CSV of floats in repr form, written here so that no library writer shapes the inputs."""
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def run(root: Path, name: str, *argv: str) -> None:
    """Run the CLI with ``argv`` and ``--out ROOT/name`` (except for --help) and keep its console."""
    out = root / name
    args = list(argv) if "--help" in argv else [*argv, "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "addkrig.cli", *args], env=env,
                          capture_output=True, text=True)
    out.mkdir(parents=True, exist_ok=True)
    (out / "console.txt").write_text(f"argv: {args}\nexit: {proc.returncode}\n"
                                     f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")


def main(root: Path) -> None:
    root.mkdir(parents=True)
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(60, 3))
    y = np.sin(6.0 * X[:, 0]) + X[:, 1] ** 2 + 0.5 * X[:, 2] + 0.05 * rng.standard_normal(60)
    data, points = root / "data.csv", root / "points.csv"
    write_rows(data, ["x1", "x2", "x3", "y"], np.column_stack([X, y]))
    write_rows(points, ["x1", "x2", "x3"], rng.uniform(size=(1203, 3)))

    for study in ("gfunction", "paths"):
        run(root, f"bench-{study}", "bench", study, "--seed", "0")
    for method, kernel, comp in FITS:
        fit = f"fit-{method}-{kernel}-{comp}"
        run(root, fit, "fit", "--data", str(data), "--method", method, "--kernel", kernel,
            "--composition", comp, "--seed", "0")
        model = str(root / fit / "model.json")
        run(root, f"{fit}-predict", "predict", "--model", model, "--points", str(points))
        for direction in ("1", "3"):
            run(root, f"{fit}-effects{direction}", "effects", "--model", model,
                "--direction", direction, "--grid-size", "777")
    for command in ("", "fit", "predict", "effects", "bench"):
        run(root, f"help-{command or 'main'}", *filter(None, [command]), "--help")

    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(root))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(Path(sys.argv[1]))
