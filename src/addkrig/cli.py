"""Command-line front end.

Subcommands: ``fit``, ``predict``, ``effects``, ``bench``.  Every command is
deterministic given its resolved configuration (flags override values from an
optional JSON config file) and writes an echo of that configuration next to
its outputs.  No plotting: outputs are CSV/JSON shaped for external plotting.

Exit codes: 0 success, 2 input error (a study or data too large for memory
included), 3 numerical failure, 4 partial benchmark failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .bench import GFunctionBenchConfig, PathsBenchConfig, _as_type_of
from .estimate import additivity_ratio, default_bounds, estimate_rlm, estimate_ulm, write_traces
from .gp import CholeskyFailure, Dataset, FittedGP, _pass, _read_csv, _write_csv, _write_json, fit_gp
from .kernels import _COMPOSITIONS, _FAMILIES

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_PARTIAL = 4

# Each command's settings and their defaults: each is a flag (--grid-size for grid_size) and a
# config-file key.  A setting with a default takes values of the default's type, and one without
# (an input file) a string.
_SETTINGS = {
    "fit": {"data": None, "kernel": "gaussian", "composition": "additive", "method": "rlm",
            "iterations": 5, "seed": 0, "out": "out"},
    "predict": {"model": None, "points": None, "out": "out"},
    "effects": {"model": None, "direction": 1, "grid_size": 101, "out": "out"},
    "bench": {"seed": 0, "out": "out"},
}

# Allowed values of the fit settings that are names, for flags and config files alike.
_FIT_CHOICES = {"kernel": _FAMILIES, "composition": _COMPOSITIONS, "method": ("rlm", "ulm")}

_STUDIES = {"gfunction": (GFunctionBenchConfig, bench_mod.run_gfunction_benchmark),
            "paths": (PathsBenchConfig, bench_mod.run_paths_benchmark)}


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


def _resolve(args, study_fields=()) -> dict:
    """The command's settings: defaults, then config-file values, then explicit flags, with
    every setting that has a default converted to its default's type.  A config-file key that is
    neither one of the command's settings nor a study field is an error, not ignored."""
    settings = _SETTINGS[args.command]
    cfg = _load_config_file(args.config)
    unknown = sorted(set(cfg) - set(settings) - set(study_fields))
    if unknown:
        raise InputError(f"unknown config key(s) {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(sorted({*settings, *study_fields}))}")
    cfg = {**settings, **cfg}
    for key, default in settings.items():
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
        if default is not None:
            try:
                cfg[key] = _as_type_of(key, cfg[key], default)
            except ValueError as exc:
                raise InputError(str(exc)) from None
        elif not isinstance(cfg[key], (str, type(None))):  # a file path: open() would take a number
            raise InputError(f"{key} must be a file path, got {json.dumps(cfg[key])}")
    return cfg


def _out_dir(cfg) -> Path:
    """The output directory, made if need be, with the echo of ``cfg`` written into it."""
    out = Path(cfg["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file in the way, no permission, or a NUL in the path
        raise InputError(f"cannot make output directory {out}: {exc}") from None
    _write_json(out / "config_echo.json", cfg)
    return out


def cmd_fit(args) -> int:
    cfg = _resolve(args)
    if cfg["data"] is None:
        raise InputError("fit requires --data")
    for key, allowed in _FIT_CHOICES.items():
        if cfg[key] not in allowed:
            raise InputError(f"{key} must be one of {', '.join(allowed)}, got {cfg[key]!r}")
    if cfg["seed"] < 0:
        raise InputError(f"seed must be >= 0, got {cfg['seed']}")
    if cfg["method"] == "rlm" and cfg["iterations"] < 1:
        raise InputError("rlm needs at least one iteration")
    if cfg["method"] == "rlm" and cfg["composition"] != "additive":
        raise InputError("rlm only applies to additive kernels")
    try:
        dataset = Dataset.from_csv(cfg["data"])
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load {cfg['data']}: {exc}") from None
    try:
        bounds = default_bounds(dataset)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    out = _out_dir(cfg)
    if cfg["method"] == "rlm":
        result = estimate_rlm(dataset, family=cfg["kernel"], bounds=bounds,
                              n_iterations=cfg["iterations"])
    else:
        result = estimate_ulm(dataset, family=cfg["kernel"],
                              composition=cfg["composition"], bounds=bounds)
    fit_gp(result.params, dataset, result.params.noise).save(out / "model.json")
    write_traces(out / "trace.csv", {"fit": result.trace})
    print(f"final l: {result.best_value:.6g}")
    print(f"tau2: {result.params.noise:.6g}")
    if result.params.is_additive:
        print(f"additivity ratio: {additivity_ratio(result.params):.6g}")
    return EXIT_OK if result.converged else EXIT_NUMERIC


def cmd_predict(args) -> int:
    cfg = _resolve(args)
    if cfg["model"] is None or cfg["points"] is None:
        raise InputError("predict requires --model and --points")
    model = _load_model(cfg["model"])
    try:
        mean, variance = _pass(model, _read_csv(cfg["points"])[1], 2)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot use points file {cfg['points']}: {exc}") from None
    _write_csv(_out_dir(cfg) / "predictions.csv", ["mean", "variance"], zip(mean, variance))
    return EXIT_OK


def _load_model(path) -> FittedGP:
    try:
        return FittedGP.load(path)
    except (OSError, ValueError, KeyError) as exc:
        raise InputError(f"cannot load model: {exc}") from None


def cmd_effects(args) -> int:
    cfg = _resolve(args)
    if cfg["model"] is None:
        raise InputError("effects requires --model")
    model = _load_model(cfg["model"])
    if not model.kernel.is_additive:
        raise InputError("effects require an additive model")
    direction = cfg["direction"] - 1  # CLI is 1-based like the x1..xd headers
    if not 0 <= direction < model.dataset.d:
        raise InputError(f"direction must be in 1..{model.dataset.d}")
    if cfg["grid_size"] < 1:
        raise InputError("grid size must be at least 1")
    grid = np.linspace(0.0, 1.0, cfg["grid_size"])
    _write_csv(_out_dir(cfg) / "effects.csv", ["x", "m", "v", "m_star", "v_star"],
               zip(grid, *_pass(model, grid, 4, direction)))
    return EXIT_OK


def cmd_bench(args) -> int:
    config_cls, run = _STUDIES[args.experiment]  # argparse has checked the name
    # The study fields are config-file keys too, all but master_seed: the seed is set as seed.
    cfg = _resolve(args, set(config_cls.__dataclass_fields__) - {"master_seed"})
    study = [key for key in cfg if key in config_cls.__dataclass_fields__]
    try:
        config = config_cls(**{key: cfg[key] for key in study}, master_seed=cfg["seed"])
    except ValueError as exc:  # a study field of the wrong type or out of range
        raise InputError(str(exc)) from None
    cfg.update({key: getattr(config, key) for key in study})  # the echo records the values that run
    cfg["experiment"] = args.experiment
    out = _out_dir(cfg)
    report = run(config)
    report.to_csv(out / "report.csv")
    report.save_summary(out / "summary.json")
    write_traces(out / "traces.csv", report.traces)
    for line in report.failures:
        print(f"failed: {line}", file=sys.stderr)
    return EXIT_PARTIAL if report.failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="addkrig", description="Additive kriging toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    commands = {
        "fit": ("estimate hyperparameters and persist a model", cmd_fit),
        "predict": ("kriging mean/variance at query points", cmd_predict),
        "effects": ("univariate sub-model and centered effect on a grid", cmd_effects),
        "bench": ("run a benchmark experiment", cmd_bench),
    }
    helps = {"data": "CSV with header x1,...,xd,y", "direction": "1-based direction index"}
    for command, (text, func) in commands.items():
        cmd = sub.add_parser(command, help=text)
        if command == "bench":
            cmd.add_argument("experiment", choices=list(_STUDIES))
        for key, default in _SETTINGS[command].items():
            cmd.add_argument(f"--{key.replace('_', '-')}", type=int if isinstance(default, int) else None,
                             choices=_FIT_CHOICES.get(key), help=helps.get(key))
        cmd.add_argument("--config")
        cmd.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # numpy's _ArrayMemoryError too: sizes asked of the machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CholeskyFailure as exc:
        print(exc.report.describe(), file=sys.stderr)
        return EXIT_NUMERIC
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
