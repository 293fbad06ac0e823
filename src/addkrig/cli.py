"""Command-line front end.

Subcommands: ``fit``, ``predict``, ``effects``, ``bench``.  Every command is
deterministic given its resolved configuration (flags override values from an
optional JSON config file) and writes an echo of that configuration next to
its outputs.  No plotting: outputs are CSV/JSON shaped for external plotting.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 partial
benchmark failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .bench import GFunctionBenchConfig, PathsBenchConfig
from .estimate import additivity_ratio, default_bounds, estimate_rlm, estimate_ulm, write_traces
from .gp import (CholeskyFailure, Dataset, FittedGP, centered_effect, fit_gp, predict_mean,
                 predict_var, sub_model)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_PARTIAL = 4


class InputError(Exception):
    pass


def _load_config_file(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    return cfg


def _resolve(args, defaults: dict) -> tuple[dict, dict]:
    """(config, config-file values): file values merged under explicit flags; flags win."""
    file_cfg = _load_config_file(args.config)
    cfg = {**defaults, **file_cfg}
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg, file_cfg


def _int(cfg: dict, key: str) -> int:
    try:
        return int(cfg[key])
    except (TypeError, ValueError):
        raise InputError(f"{key} must be an integer, got {cfg[key]!r}") from None


def _echo_config(out_dir: Path, cfg: dict) -> None:
    with open(out_dir / "config_echo.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _out_dir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_fit(args) -> int:
    cfg, _ = _resolve(args, {
        "data": None, "kernel": "gaussian", "composition": "additive",
        "method": "rlm", "iterations": 5, "seed": 0, "out": "out",
    })
    if cfg["data"] is None:
        raise InputError("fit requires --data")
    iterations, seed = _int(cfg, "iterations"), _int(cfg, "seed")
    if cfg["method"] == "rlm" and iterations < 1:
        raise InputError("rlm needs at least one iteration")
    if cfg["method"] == "rlm" and cfg["composition"] != "additive":
        raise InputError("rlm only applies to additive kernels")
    try:
        dataset = Dataset.from_csv(cfg["data"])
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load {cfg['data']}: {exc}") from None
    out = _out_dir(cfg)
    _echo_config(out, cfg)

    centered = Dataset(dataset.X, dataset.Y - np.mean(dataset.Y))
    try:
        bounds = default_bounds(dataset)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if cfg["method"] == "rlm":
        result = estimate_rlm(centered, family=cfg["kernel"], bounds=bounds,
                              n_iterations=iterations)
    else:
        result = estimate_ulm(centered, family=cfg["kernel"],
                              composition=cfg["composition"], bounds=bounds,
                              seed=seed)
    try:
        model = fit_gp(result.params.to_kernel(), dataset, result.params.noise)
    except CholeskyFailure as exc:
        print(exc.report.describe(), file=sys.stderr)
        return EXIT_NUMERIC
    model.save(out / "model.json")
    result.trace.to_csv(out / "trace.csv", run_id="fit")
    print(f"final l: {result.best_value:.6g}")
    print(f"tau2: {result.params.noise:.6g}")
    print(f"additivity ratio: {additivity_ratio(result.params):.6g}")
    return EXIT_OK if result.converged else EXIT_NUMERIC


def cmd_predict(args) -> int:
    cfg, _ = _resolve(args, {"model": None, "points": None, "out": "out"})
    if cfg["model"] is None or cfg["points"] is None:
        raise InputError("predict requires --model and --points")
    model = _load_model(cfg["model"])
    pts = _load_points(cfg["points"], model.dataset.d)
    out = _out_dir(cfg)
    _echo_config(out, cfg)
    means = predict_mean(model, pts)
    variances = predict_var(model, pts)
    with open(out / "predictions.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mean", "variance"])
        for m, v in zip(means, variances):
            w.writerow([repr(float(m)), repr(float(v))])
    return EXIT_OK


def _load_model(path) -> FittedGP:
    try:
        return FittedGP.load(path)
    except (OSError, ValueError, KeyError) as exc:
        raise InputError(f"cannot load model: {exc}") from None


def _load_points(path, d) -> np.ndarray:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        start = 1 if rows and not _is_float_row(rows[0]) else 0
        pts = np.array([[float(v) for v in r] for r in rows[start:] if r], dtype=float)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read points file {path}: {exc}") from None
    if pts.ndim != 2 or pts.shape[1] != d:
        raise InputError(f"points have dimension {pts.shape[-1] if pts.size else 0}, model expects {d}")
    if not np.all(np.isfinite(pts)):
        raise InputError(f"points file {path} contains non-finite values")
    return pts


def _is_float_row(row) -> bool:
    try:
        [float(v) for v in row]
        return True
    except ValueError:
        return False


def cmd_effects(args) -> int:
    cfg, _ = _resolve(args, {"model": None, "direction": 1, "grid_size": 101, "out": "out"})
    if cfg["model"] is None:
        raise InputError("effects requires --model")
    model = _load_model(cfg["model"])
    if not model.kernel.is_additive:
        raise InputError("effects require an additive model")
    direction = _int(cfg, "direction") - 1  # CLI is 1-based like the x1..xd headers
    if not 0 <= direction < model.dataset.d:
        raise InputError(f"direction must be in 1..{model.dataset.d}")
    grid_size = _int(cfg, "grid_size")
    if grid_size < 1:
        raise InputError("grid size must be at least 1")
    out = _out_dir(cfg)
    _echo_config(out, cfg)
    grid = np.linspace(0.0, 1.0, grid_size)
    m, v = sub_model(model, direction, grid)
    m_star, v_star = centered_effect(model, direction, grid)
    with open(out / "effects.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "m", "v", "m_star", "v_star"])
        for row in zip(grid, m, v, m_star, v_star):
            w.writerow([repr(float(val)) for val in row])
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg, file_cfg = _resolve(args, {"experiment": None, "seed": 0, "out": "out"})
    experiments = {"gfunction": (GFunctionBenchConfig, bench_mod.run_gfunction_benchmark),
                   "paths": (PathsBenchConfig, bench_mod.run_paths_benchmark)}
    if cfg["experiment"] not in experiments:
        raise InputError("bench experiment must be 'gfunction' or 'paths'")
    config_cls, run = experiments[cfg["experiment"]]
    seed = _int(cfg, "seed")
    out = _out_dir(cfg)
    _echo_config(out, {**cfg, **file_cfg})
    opts = {k: v for k, v in file_cfg.items() if k in config_cls.__dataclass_fields__}
    opts.setdefault("master_seed", seed)
    report = run(config_cls(**_tupled(opts)))
    report.to_csv(out / "report.csv")
    report.save_summary(out / "summary.json")
    write_traces(out / "traces.csv", report.traces)
    for line in report.failures:
        print(f"failed: {line}", file=sys.stderr)
    return EXIT_PARTIAL if report.failures else EXIT_OK


def _tupled(opts: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in opts.items()}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="addkrig", description="Additive kriging toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="estimate hyperparameters and persist a model")
    fit.add_argument("--data", help="CSV with header x1,...,xd,y")
    fit.add_argument("--kernel", choices=["gaussian", "matern32"])
    fit.add_argument("--composition", choices=["additive", "tensor"])
    fit.add_argument("--method", choices=["rlm", "ulm"])
    fit.add_argument("--iterations", type=int)
    fit.add_argument("--seed", type=int)
    fit.add_argument("--out")
    fit.add_argument("--config")
    fit.set_defaults(func=cmd_fit)

    pred = sub.add_parser("predict", help="kriging mean/variance at query points")
    pred.add_argument("--model")
    pred.add_argument("--points")
    pred.add_argument("--out")
    pred.add_argument("--config")
    pred.set_defaults(func=cmd_predict)

    eff = sub.add_parser("effects", help="univariate sub-model and centered effect on a grid")
    eff.add_argument("--model")
    eff.add_argument("--direction", type=int, help="1-based direction index")
    eff.add_argument("--grid-size", dest="grid_size", type=int)
    eff.add_argument("--out")
    eff.add_argument("--config")
    eff.set_defaults(func=cmd_effects)

    bn = sub.add_parser("bench", help="run a benchmark experiment")
    bn.add_argument("experiment", choices=["gfunction", "paths"])
    bn.add_argument("--seed", type=int)
    bn.add_argument("--out")
    bn.add_argument("--config")
    bn.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CholeskyFailure as exc:
        print(exc.report.describe(), file=sys.stderr)
        return EXIT_NUMERIC
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
