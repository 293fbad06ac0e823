import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from test_gp import RECT4, gauss2

from addkrig import Dataset, FittedGP, centered_effect, fit_gp, make_kernel, sub_model
from addkrig import bench, cli
from addkrig import gp as gp_mod
from addkrig.bench import _MAX_POINTS, GFunctionBenchConfig, PathsBenchConfig
from addkrig.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_PARTIAL, main
from addkrig.gp import _BLOCK as BLOCK
from addkrig.kernels import cross_cov


@pytest.fixture()
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(15, 2))
    Y = np.sin(4 * X[:, 0]) + X[:, 1] ** 2 + 0.05 * rng.standard_normal(15)
    path = tmp_path / "data.csv"
    Dataset(X, Y).to_csv(path)
    return path


def fit(tmp_path, data_csv, *extra):
    out = tmp_path / "fit_out"
    code = main([
        "fit", "--data", str(data_csv), "--kernel", "matern32",
        "--method", "rlm", "--iterations", "2", "--out", str(out), *extra,
    ])
    return code, out


class TestFit:
    def test_outputs(self, tmp_path, data_csv, capsys):
        code, out = fit(tmp_path, data_csv)
        assert code == EXIT_OK
        assert (out / "model.json").is_file()
        assert (out / "trace.csv").is_file()
        assert (out / "config_echo.json").is_file()
        stdout = capsys.readouterr().out
        assert "final l:" in stdout
        assert "tau2:" in stdout
        assert "additivity ratio:" in stdout

    def test_rerun_is_byte_identical(self, tmp_path, data_csv):
        _, out1 = fit(tmp_path / "a", data_csv)
        _, out2 = fit(tmp_path / "b", data_csv)
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_trace_has_expected_shape(self, tmp_path, data_csv):
        _, out = fit(tmp_path, data_csv)
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run_id", "iteration", "direction", "n_calls_cum", "best_value", "tau2"]
        assert all(r[0] == "fit" for r in rows[1:])
        values = [float(r[4]) for r in rows[1:]]
        assert values == sorted(values, reverse=True)

    def test_zero_iterations_rejected(self, tmp_path, data_csv, capsys):
        code, _ = fit(tmp_path, data_csv, "--iterations", "0")
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_seed_does_not_change_a_ulm_fit(self, tmp_path, data_csv):
        # ULM makes one run, from the box midpoint: nothing in fit draws random numbers.
        outs = []
        for seed in ("0", "7"):
            out = tmp_path / f"seed{seed}"
            assert main(["fit", "--data", str(data_csv), "--method", "ulm", "--seed", seed,
                         "--out", str(out)]) == EXIT_OK
            outs.append(out)
        for name in ("model.json", "trace.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_tensor_fit_prints_no_additivity_ratio(self, tmp_path, data_csv, capsys):
        # A tensor fit's variances multiply, so no share of them is additive.
        main(["fit", "--data", str(data_csv), "--method", "ulm", "--composition", "tensor",
              "--out", str(tmp_path / "o")])
        stdout = capsys.readouterr().out
        assert "final l:" in stdout and "additivity ratio" not in stdout

    def test_rlm_tensor_rejected(self, tmp_path, data_csv):
        out = tmp_path / "out"
        code = main(["fit", "--data", str(data_csv), "--method", "rlm",
                     "--composition", "tensor", "--out", str(out)])
        assert code == EXIT_INPUT

    def test_missing_data_flag(self, capsys):
        assert main(["fit"]) == EXIT_INPUT

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,y\n0.1,0.2\n")
        code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT

    def test_non_finite_data(self, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("x1,x2,y\n0.1,0.2,1.0\n0.5,0.6,nan\n0.9,0.3,0.5\n")
        code = main(["fit", "--data", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT

    def test_config_file_with_flag_override(self, tmp_path, data_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernel": "gaussian", "iterations": 1, "method": "rlm"}))
        out = tmp_path / "out"
        code = main(["fit", "--data", str(data_csv), "--kernel", "matern32",
                     "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        echo = json.loads((out / "config_echo.json").read_text())
        # Flag wins over the config file; unflagged values come from the file.
        assert echo["kernel"] == "matern32"
        assert echo["iterations"] == 1
        model = json.loads((out / "model.json").read_text())
        assert model["kernel"]["family"] == "matern32"


class TestPredict:
    @pytest.fixture()
    def model_path(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.uniform(size=(10, 2)), rng.standard_normal(10))
        gp_model = __import__("addkrig").fit_gp(
            make_kernel("matern32", [1.0, 0.8], [0.4, 0.5]), ds, 1e-6
        )
        path = tmp_path / "model.json"
        gp_model.save(path)
        return path, ds

    def test_round_trip(self, tmp_path, model_path):
        path, ds = model_path
        pts = tmp_path / "points.csv"
        with open(pts, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2"])
            for row in ds.X:
                w.writerow([repr(float(v)) for v in row])
        out = tmp_path / "pred"
        assert main(["predict", "--model", str(path), "--points", str(pts),
                     "--out", str(out)]) == EXIT_OK
        with open(out / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mean", "variance"]
        means = np.array([float(r[0]) for r in rows[1:]])
        variances = np.array([float(r[1]) for r in rows[1:]])
        # At the (nearly noise-free) design points the model interpolates.
        np.testing.assert_allclose(means, ds.Y, atol=1e-3)
        assert np.all(variances < 1e-3)

    def test_away_from_design_variance_grows(self, tmp_path, model_path):
        path, _ = model_path
        pts = tmp_path / "far.csv"
        pts.write_text("1.0,0.0\n")
        out = tmp_path / "pred"
        assert main(["predict", "--model", str(path), "--points", str(pts),
                     "--out", str(out)]) == EXIT_OK
        with open(out / "predictions.csv", newline="") as fh:
            variance = float(list(csv.reader(fh))[1][1])
        assert variance > 1e-3

    def test_dimension_mismatch(self, tmp_path, model_path, capsys):
        path, _ = model_path
        pts = tmp_path / "bad.csv"
        for text, reason in (("0.5\n", "points have shape (1, 1), need 2 columns"),
                             ("0.5,0.5,0.5\n", "points have shape (1, 3), need 2 columns"),
                             ("", "no data rows"), ("x1,x2\n", "no data rows")):
            pts.write_text(text)
            assert main(["predict", "--model", str(path), "--points", str(pts),
                         "--out", str(tmp_path / "o")]) == EXIT_INPUT
            assert not (tmp_path / "o").exists()
            assert f"cannot use points file {pts}: {reason}\n" in capsys.readouterr().err

    def test_non_finite_points(self, tmp_path, model_path, capsys):
        path, _ = model_path
        pts = tmp_path / "bad.csv"
        for row in ("nan,0.2", "0.2,inf", "-inf,0.2"):
            pts.write_text(f"0.5,0.5\n{row}\n")
            assert main(["predict", "--model", str(path), "--points", str(pts),
                         "--out", str(tmp_path / "o")]) == EXIT_INPUT
            assert not (tmp_path / "o").exists()
            assert f"cannot use points file {pts}: points must be finite" in capsys.readouterr().err

    def test_unknown_schema_version(self, tmp_path, model_path):
        path, _ = model_path
        obj = json.loads(path.read_text())
        obj["schema_version"] = 99
        path.write_text(json.dumps(obj))
        pts = tmp_path / "points.csv"
        pts.write_text("0.5,0.5\n")
        assert main(["predict", "--model", str(path), "--points", str(pts),
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT
        assert main(["effects", "--model", str(path), "--out", str(tmp_path / "o")]) == EXIT_INPUT

    @pytest.mark.parametrize("m", [5, 2 * BLOCK + 3])
    def test_one_kernel_evaluation_per_block(self, tmp_path, model_path, monkeypatch, m):
        # Mean and variance come from one pass: ceil(m / B) cross-covariance blocks, not twice that.
        path, _ = model_path
        pts = tmp_path / "points.csv"
        rows = np.random.default_rng(5).uniform(size=(m, 2)).tolist()
        pts.write_text("".join(f"{u!r},{w!r}\n" for u, w in rows))
        calls = []
        monkeypatch.setattr(gp_mod, "cross_cov", lambda *a: calls.append(len(a[1])) or cross_cov(*a))
        assert main(["predict", "--model", str(path), "--points", str(pts),
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        assert len(calls) == math.ceil(m / BLOCK)
        assert sum(calls) == m

    def test_missing_model(self, tmp_path):
        assert main(["predict", "--model", str(tmp_path / "none.json"),
                     "--points", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT


class TestEffects:
    @pytest.fixture()
    def model_path(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.uniform(size=(12, 2)), rng.standard_normal(12))
        gp_model = __import__("addkrig").fit_gp(
            make_kernel("gaussian", [1.0, 0.5], [0.4, 0.6]), ds, 1e-4
        )
        path = tmp_path / "model.json"
        gp_model.save(path)
        return path

    def test_outputs(self, tmp_path, model_path):
        out = tmp_path / "eff"
        assert main(["effects", "--model", str(model_path), "--direction", "2",
                     "--grid-size", "201", "--out", str(out)]) == EXIT_OK
        with open(out / "effects.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "m", "v", "m_star", "v_star"]
        data = np.array([[float(v) for v in r] for r in rows[1:]])
        assert data.shape == (201, 5)
        grid, m_star, v_star = data[:, 0], data[:, 3], data[:, 4]
        assert np.trapezoid(m_star, grid) == pytest.approx(0.0, abs=1e-4)
        assert np.all(v_star >= -1e-12)

    def test_one_pass_matches_library(self, tmp_path, model_path, monkeypatch):
        # m, v, m_star and v_star come from one blocked pass over the grid.
        grid_size = 2 * BLOCK + 3
        calls = []
        monkeypatch.setattr(gp_mod, "cross_cov", lambda *a: calls.append(len(a[1])) or cross_cov(*a))
        out = tmp_path / "eff"
        assert main(["effects", "--model", str(model_path), "--direction", "1",
                     "--grid-size", str(grid_size), "--out", str(out)]) == EXIT_OK
        assert len(calls) == math.ceil(grid_size / BLOCK)
        monkeypatch.undo()
        with open(out / "effects.csv", newline="") as fh:
            data = np.array([[float(v) for v in r] for r in list(csv.reader(fh))[1:]])
        model, grid = FittedGP.load(model_path), np.linspace(0.0, 1.0, grid_size)
        want = np.column_stack([grid, *sub_model(model, 0, grid), *centered_effect(model, 0, grid)])
        np.testing.assert_array_equal(data, want)

    def test_direction_out_of_range(self, tmp_path, model_path):
        assert main(["effects", "--model", str(model_path), "--direction", "3",
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT
        assert main(["effects", "--model", str(model_path), "--direction", "0",
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT

    def test_tensor_model_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.uniform(size=(8, 2)), rng.standard_normal(8))
        gp_model = __import__("addkrig").fit_gp(
            make_kernel("gaussian", [1.0, 1.0], [0.4, 0.6], "tensor"), ds, 1e-4
        )
        path = tmp_path / "tensor.json"
        gp_model.save(path)
        assert main(["effects", "--model", str(path), "--direction", "1",
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT


class TestBench:
    def test_small_gfunction(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_designs": 1, "design_size": 12, "test_size": 100, "lhs_steps": 50,
            "rlm_iterations": 1, "ulm_max_evals": 150, "rlm_max_evals_inner": 40,
            "methods": ["rlm-additive"],
        }))
        out = tmp_path / "bench"
        assert main(["bench", "gfunction", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        assert (out / "report.csv").is_file()
        assert (out / "traces.csv").is_file()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["methods"]["rlm-additive"]["n_runs"] == 1
        assert summary["n_failures"] == 0

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "smoke", "--out", str(tmp_path / "o")])

    def test_small_paths(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dims": [2], "n_paths": 1, "points_per_dim": 5, "lhs_steps": 50,
            "rlm_iterations": 1, "ulm_max_evals": 100, "rlm_max_evals_inner": 30,
        }))
        out = tmp_path / "bench"
        assert main(["bench", "paths", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        rows = (out / "report.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 methods x 1 path

    @pytest.mark.parametrize("study, config, runs", [
        # A zero true variance makes every path constant, so no path can be fitted.
        ("paths", {"true_variance": 0.0, "n_paths": 2, "dims": [2], "points_per_dim": 4,
                   "lhs_steps": 5}, ["d2-p000", "d2-p001"]),
        # Coefficients this large round every g-function response to 1.
        ("gfunction", {"a": [1e17, 1e17], "n_designs": 1, "design_size": 5, "test_size": 10,
                       "lhs_steps": 5}, ["g000"]),
    ], ids=["paths", "gfunction"])
    def test_constant_responses_exit_partial(self, tmp_path, capsys, study, config, runs):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "bench"
        assert main(["bench", study, "--config", str(cfg), "--out", str(out)]) == EXIT_PARTIAL
        assert capsys.readouterr().err.splitlines() == [
            f"failed: {run}: constant responses: nothing to estimate" for run in runs]
        assert (out / "summary.json").is_file()

    def test_a_failed_fit_is_recorded_and_exits_partial(self, tmp_path, capsys, monkeypatch):
        # A fit that ends in LinAlgError is that run's failure; the study goes on with the others.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("objective never evaluated successfully")

        monkeypatch.setattr(bench, "estimate_ulm", fail)
        out = tmp_path / "bench"
        assert main(["bench", "paths", "--config", _write(tmp_path / "c.json", json.dumps(SMALL_PATHS)),
                     "--out", str(out)]) == EXIT_PARTIAL
        assert capsys.readouterr().err.splitlines() == [
            "failed: d2-p000-ulm-additive: objective never evaluated successfully"]
        with open(out / "report.csv", newline="") as fh:
            assert [row["method"] for row in csv.DictReader(fh)] == ["rlm-additive"]
        assert json.loads((out / "summary.json").read_text())["n_failures"] == 1

    def test_constant_test_sample_exits_partial(self, tmp_path, capsys):
        # At seed 6 these coefficients round both test responses to one value but not the
        # design's: the design cannot be scored, so it is not fitted.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": [1.2e16, 1.2e16], "n_designs": 1, "design_size": 5, "test_size": 2,
                                   "lhs_steps": 5, "methods": ["ulm-additive"], "ulm_max_evals": 20}))
        out = tmp_path / "bench"
        assert main(["bench", "gfunction", "--config", str(cfg), "--seed", "6", "--out", str(out)]) == EXIT_PARTIAL
        assert capsys.readouterr().err.splitlines() == [
            "failed: g000: test sample: constant reference values: Q2 undefined"]
        assert (out / "summary.json").is_file()

    # Sizes past numpy's index range would end in its ValueError; these are refused before any
    # array is allocated.
    @pytest.mark.parametrize("study, config, message", [
        ("paths", {"points_per_dim": 1e308, "dims": [2], "n_paths": 1}, "points_per_dim * 2 must be <= 1000000"),
        ("gfunction", {"design_size": 1e19, "n_designs": 1}, "design_size must be <= 1000000"),
        ("gfunction", {"test_size": 1e19, "n_designs": 1}, "test_size must be <= 1000000"),
    ], ids=["points-per-dim", "design-size", "test-size"])
    def test_study_too_large_is_an_input_error(self, tmp_path, capsys, study, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["bench", study, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {message}, got ")
        assert not (tmp_path / "o").exists()

    def test_point_cap_is_inclusive(self):
        GFunctionBenchConfig(design_size=_MAX_POINTS, test_size=_MAX_POINTS)
        PathsBenchConfig(dims=(1, 4), points_per_dim=_MAX_POINTS // 4)
        for config in (lambda: GFunctionBenchConfig(design_size=_MAX_POINTS + 1),
                       lambda: GFunctionBenchConfig(test_size=_MAX_POINTS + 1),
                       lambda: PathsBenchConfig(dims=(1, 4), points_per_dim=_MAX_POINTS // 4 + 1)):
            with pytest.raises(ValueError, match=f"must be <= {_MAX_POINTS}"):
                config()

    def test_out_of_memory_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        # A smaller study may still not fit: numpy's MemoryError ends in exit 2, not a traceback.
        def exhausted(config):
            raise MemoryError("Unable to allocate 26.8 GiB for an array with shape (60000, 60000)")

        monkeypatch.setitem(cli._STUDIES, "paths", (PathsBenchConfig, exhausted))
        assert main(["bench", "paths", "--out", str(tmp_path / "o")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 26.8 GiB for an array with shape (60000, 60000)\n")

    def test_seed_flag_wins_and_is_echoed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dims": [2], "n_paths": 1, "points_per_dim": 5, "lhs_steps": 50,
            "rlm_iterations": 1, "ulm_max_evals": 50, "rlm_max_evals_inner": 20, "seed": 3,
        }))
        out = tmp_path / "bench"
        assert main(["bench", "paths", "--config", str(cfg), "--seed", "5",
                     "--out", str(out)]) == EXIT_OK
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["seed"] == 5 and "master_seed" not in echo
        with open(out / "report.csv", newline="") as fh:
            seeds = {row["seed"] for row in csv.DictReader(fh)}
        assert seeds == {str(5 + 10000 * 2)}  # path seed = master seed + 10000 d + path


def _write(path, text) -> str:
    path.write_text(text)
    return str(path)


def _model_file(tmp_path, edit) -> str:
    rng = np.random.default_rng(4)
    ds = Dataset(rng.uniform(size=(6, 2)), rng.standard_normal(6))
    obj = __import__("addkrig").fit_gp(make_kernel("gaussian", [1.0, 0.5], [0.4, 0.6]), ds, 1e-4).to_json()
    return _write(tmp_path / "model.json", json.dumps(edit(obj)))


def _kernel_edit(**fields):
    return lambda obj: {**obj, "kernel": {**obj["kernel"], **fields}}


# Each case builds an argv from (tmp_path, data_csv); it runs in tmp_path, where the default
# --out lands.
MALFORMED_INPUTS = {
    "csv-without-rows": lambda t, d: ["fit", "--data", _write(t / "e.csv", "x1,x2,y\n")],
    "fit-config-is-list": lambda t, d: ["fit", "--data", str(d), "--config", _write(t / "c.json", "[1, 2]")],
    "bench-config-is-list": lambda t, d: ["bench", "paths", "--config", _write(t / "c.json", "[1, 2]")],
    "non-integer-iterations": lambda t, d: [
        "fit", "--data", str(d), "--config", _write(t / "c.json", '{"iterations": "abc"}')],
    "negative-grid-size": lambda t, d: ["effects", "--model", _model_file(t, lambda o: o), "--grid-size", "-3"],
    "short-variance-list": lambda t, d: ["effects", "--model", _model_file(t, _kernel_edit(variance=[1.0]))],
    "scalar-range": lambda t, d: ["effects", "--model", _model_file(t, _kernel_edit(range=0.5))],
    "model-is-list": lambda t, d: [
        "predict", "--model", _model_file(t, lambda o: [o]), "--points", _write(t / "p.csv", "0.5,0.5\n")],
    "null-noise": lambda t, d: [
        "predict", "--model", _model_file(t, lambda o: {**o, "noise": None}), "--points", _write(t / "p.csv", "0.5,0.5\n")],
    "nan-noise": lambda t, d: [  # json reads NaN; fit_gp's noise check refuses it
        "predict", "--model", _model_file(t, lambda o: {**o, "noise": float("nan")}), "--points", _write(t / "p.csv", "0.5,0.5\n")],
    "null-dims": lambda t, d: ["effects", "--model", _model_file(t, _kernel_edit(dims=None))],
    "text-n-paths": lambda t, d: ["bench", "paths", "--config", _write(t / "c.json", '{"n_paths": "abc"}')],
    "text-dims": lambda t, d: ["bench", "paths", "--config", _write(t / "c.json", '{"dims": "ab"}')],
    "unknown-family": lambda t, d: ["bench", "paths", "--config", _write(t / "c.json", '{"family": "foo"}')],
    "unknown-method": lambda t, d: ["bench", "gfunction", "--config", _write(t / "c.json", '{"methods": ["foo"]}')],
    "negative-a": lambda t, d: ["bench", "gfunction", "--config", _write(t / "c.json", '{"a": [-1.0]}')],
    "zero-dim": lambda t, d: ["bench", "paths", "--config", _write(t / "c.json", '{"dims": [0]}')],
    "one-point-design": lambda t, d: ["bench", "gfunction", "--config", _write(t / "c.json", '{"design_size": 1}')],
    "zero-points-per-dim": lambda t, d: [
        "bench", "paths", "--config", _write(t / "c.json", '{"points_per_dim": 0}')],
    "zero-rlm-iterations": lambda t, d: [
        "bench", "paths", "--config", _write(t / "c.json", '{"rlm_iterations": 0}')],
    "negative-bench-seed": lambda t, d: ["bench", "paths", "--seed", "-50"],
    "fit-unknown-method": lambda t, d: [
        "fit", "--data", str(d), "--config", _write(t / "c.json", '{"method": "foo"}')],
    "fit-unknown-kernel": lambda t, d: [
        "fit", "--data", str(d), "--config", _write(t / "c.json", '{"kernel": "foo"}')],
    "fit-unknown-composition": lambda t, d: [
        "fit", "--data", str(d), "--method", "ulm", "--config", _write(t / "c.json", '{"composition": "foo"}')],
    "fit-negative-seed": lambda t, d: ["fit", "--data", str(d), "--seed", "-1", "--method", "ulm"],
    "fit-out-is-a-file": lambda t, d: ["fit", "--data", str(d), "--out", _write(t / "o", "a file\n")],
    "bench-out-is-a-file": lambda t, d: ["bench", "paths", "--out", _write(t / "o", "a file\n")],
    "non-string-out": lambda t, d: ["bench", "paths", "--config", _write(t / "c.json", '{"out": 5}')],
    "fractional-iterations": lambda t, d: [
        "fit", "--data", str(d), "--config", _write(t / "c.json", '{"iterations": 1.7}')],
    "bool-seed": lambda t, d: ["fit", "--data", str(d), "--config", _write(t / "c.json", '{"seed": true}')],
    "fractional-n-paths": lambda t, d: ["bench", "paths", "--config", _write(t / "c.json", '{"n_paths": 1.5}')],
    "fractional-dims": lambda t, d: ["bench", "paths", "--config", _write(t / "c.json", '{"dims": [2.5]}')],
    "bool-dims": lambda t, d: ["bench", "paths", "--config", _write(t / "c.json", '{"dims": [2, true]}')],
    "bool-true-variance": lambda t, d: [
        "bench", "paths", "--config", _write(t / "c.json", '{"true_variance": true}')],
    "huge-true-variance": lambda t, d: [
        "bench", "paths", "--config", _write(t / "c.json", '{"true_variance": 1%s}' % ("0" * 400))],
    "bool-a": lambda t, d: ["bench", "gfunction", "--config", _write(t / "c.json", '{"a": [true, 0.5]}')],
    "bench-empty-a": lambda t, d: ["bench", "gfunction", "--config", _write(t / "c.json", '{"a": []}')],
    "nan-a": lambda t, d: ["bench", "gfunction", "--config", _write(t / "c.json", '{"a": [NaN, 2.0]}')],
    "infinite-a": lambda t, d: ["bench", "gfunction", "--config", _write(t / "c.json", '{"a": [Infinity, 2.0]}')],
    "list-family": lambda t, d: [
        "effects", "--model", _model_file(t, _kernel_edit(family=["gaussian", "gaussian"]))],
    "fit-misspelled-key": lambda t, d: [
        "fit", "--data", str(d), "--config", _write(t / "c.json", '{"iteratons": 1, "kernal": "matern32"}')],
    "bench-misspelled-key": lambda t, d: ["bench", "paths", "--config", _write(t / "c.json", '{"n_path": 1}')],
    "bench-master-seed-key": lambda t, d: [  # the seed has one name in a config file: seed
        "bench", "paths", "--config", _write(t / "c.json", '{"seed": 3, "master_seed": 5}')],
    "repeated-method": lambda t, d: [
        "bench", "gfunction", "--config", _write(t / "c.json", '{"methods": ["rlm-additive", "rlm-additive"]}')],
    "repeated-dims": lambda t, d: ["bench", "paths", "--config", _write(t / "c.json", '{"dims": [2, 2]}')],
    "bench-experiment-key": lambda t, d: [
        "bench", "paths", "--config", _write(t / "c.json", '{"experiment": "gfunction", "n_paths": 0}')],
    "effects-unknown-key": lambda t, d: [
        "effects", "--model", _model_file(t, lambda o: o), "--config", _write(t / "c.json", '{"grid": 5}')],
    "string-variance": lambda t, d: ["effects", "--model", _model_file(t, _kernel_edit(variance=["1.0", "0.5"]))],
    "bool-range": lambda t, d: ["effects", "--model", _model_file(t, _kernel_edit(range=[0.4, True]))],
    "string-noise": lambda t, d: ["effects", "--model", _model_file(t, lambda o: {**o, "noise": "0.5"})],
    "bool-noise": lambda t, d: ["effects", "--model", _model_file(t, lambda o: {**o, "noise": True})],
    "string-x": lambda t, d: [
        "effects", "--model", _model_file(t, lambda o: {**o, "x": [[str(v) for v in r] for r in o["x"]]})],
    "fit-constant-y": lambda t, d: ["fit", "--data", _write(t / "c.csv", "x1,x2,y\n0.1,0.2,1\n0.5,0.6,1\n")],
    "fit-y-only": lambda t, d: ["fit", "--data", _write(t / "c.csv", "y\n1\n2\n")],
    "missing-config-file": lambda t, d: ["fit", "--data", str(d), "--config", str(t / "absent.json")],
    "predict-without-points": lambda t, d: ["predict", "--model", _model_file(t, lambda o: o)],
    "effects-without-model": lambda t, d: ["effects"],
    "ragged-points": lambda t, d: [
        "predict", "--model", _model_file(t, lambda o: o), "--points", _write(t / "p.csv", "0.5,0.5\n0.5\n")],
    "list-kernel": lambda t, d: ["effects", "--model", _model_file(t, lambda o: {**o, "kernel": [o["kernel"]]})],
    # A number setting takes a JSON number, not a string that int() or float() would parse.
    "string-iterations": lambda t, d: [
        "fit", "--data", str(d), "--config", _write(t / "c.json", '{"iterations": "1"}')],
    "string-n-paths": lambda t, d: ["bench", "paths", "--config", _write(t / "c.json", '{"n_paths": "0"}')],
    "string-a": lambda t, d: [
        "bench", "gfunction", "--config", _write(t / "c.json", '{"a": ["1.5"], "n_designs": 0}')],
    "nul-out": lambda t, d: [
        "bench", "paths", "--config", _write(t / "c.json", '{"out": "o\\u0000x", "n_paths": 0}')],
    # An input file setting takes a path string only: open() would take a number as a file descriptor.
    "number-data": lambda t, d: ["fit", "--config", _write(t / "c.json", '{"data": 2.5}')],
    "list-model": lambda t, d: [
        "predict", "--points", _write(t / "p.csv", "0.5,0.5\n"), "--config", _write(t / "c.json", '{"model": ["m.json"]}')],
    "object-points": lambda t, d: [
        "predict", "--model", _model_file(t, lambda o: o), "--config", _write(t / "c.json", '{"points": {"p": 1}}')],
    "number-effects-model": lambda t, d: ["effects", "--config", _write(t / "c.json", '{"model": 1.0}')],
    # Below the smallest normal float sqrt(3) r / theta overflows: the Matern kernel would be NaN.
    "subnormal-gaussian-range": lambda t, d: [
        "predict", "--model", _model_file(t, _kernel_edit(family="gaussian", range=[1e-310, 0.6])),
        "--points", _write(t / "p.csv", "0.5,0.5\n")],
    "subnormal-matern-range": lambda t, d: [
        "predict", "--model", _model_file(t, _kernel_edit(family="matern32", range=[1e-310, 0.6])),
        "--points", _write(t / "p.csv", "0.5,0.5\n")],
}

# The stderr text a case must print, where it is pinned: "error:" otherwise.
MALFORMED_MESSAGES = {
    "csv-without-rows": "e.csv: no data rows\n",
    "fit-constant-y": "error: constant responses",
    "fit-y-only": "c.csv: dataset needs at least one point and one input column",
    "missing-config-file": "error: cannot read config file",
    "predict-without-points": "error: predict requires --model and --points",
    "effects-without-model": "error: effects requires --model",
    "ragged-points": "p.csv: rows of unequal width",
    "list-kernel": "error: cannot load model: kernel description must be a JSON object",
    "string-iterations": "error: iterations must be an integer, got '1'",
    "nul-out": "error: cannot make output directory",
    "number-data": "error: data must be a file path, got 2.5",
    "list-model": 'error: model must be a file path, got ["m.json"]',
    "object-points": 'error: points must be a file path, got {"p": 1}',
    "number-effects-model": "error: model must be a file path, got 1.0",
    "subnormal-gaussian-range": "error: cannot load model: lengthscale must be finite and >= 2.2250738585072014e-308",
    "subnormal-matern-range": "error: cannot load model: lengthscale must be finite and >= 2.2250738585072014e-308",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_an_input_error(case, tmp_path, data_csv, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(MALFORMED_INPUTS[case](tmp_path, data_csv)) == EXIT_INPUT
    assert MALFORMED_MESSAGES.get(case, "error:") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # an input error writes nothing, not even the echo


def test_integral_float_runs_and_is_echoed_as_an_integer(tmp_path):
    model = _model_file(tmp_path, lambda o: o)
    out = tmp_path / "e"
    assert main(["effects", "--model", model, "--out", str(out),
                 "--config", _write(tmp_path / "c.json", '{"grid_size": 3.0}')]) == EXIT_OK
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["grid_size"] == 3 and isinstance(echo["grid_size"], int)
    assert len((out / "effects.csv").read_text().splitlines()) == 1 + 3


def test_integral_float_dims_run_and_are_echoed_as_integers(tmp_path):
    out = tmp_path / "b"
    cfg = ('{"dims": [3.0], "n_paths": 1, "points_per_dim": 3, "lhs_steps": 5, "rlm_iterations": 1, '
           '"ulm_max_evals": 30, "rlm_max_evals_inner": 10}')
    assert main(["bench", "paths", "--out", str(out), "--config", _write(tmp_path / "c.json", cfg)]) == EXIT_OK
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["dims"] == [3] and isinstance(echo["dims"][0], int)
    rows = list(csv.DictReader((out / "report.csv").read_text().splitlines()))
    assert rows and all(r["d"] == "3" for r in rows)


def test_ulm_on_full_factorial_grid_is_refit(tmp_path):
    # On a 5x5 grid the additive covariance is singular but for tau^2, which
    # ULM drives to its floor; the model it accepts must still be written.
    g = np.linspace(0.0, 1.0, 5)
    X = np.array([[a, b] for a in g for b in g])
    data = tmp_path / "grid.csv"
    Dataset(X, np.sin(6 * X[:, 0]) + X[:, 1] ** 2).to_csv(data)
    out = tmp_path / "fit"
    assert main(["fit", "--data", str(data), "--method", "ulm", "--kernel", "gaussian",
                 "--out", str(out)]) == EXIT_OK
    model = str(out / "model.json")
    points = _write(tmp_path / "p.csv", "0.3,0.6\n0.9,0.1\n")
    assert main(["predict", "--model", model, "--points", points, "--out", str(tmp_path / "p")]) == EXIT_OK
    assert main(["effects", "--model", model, "--out", str(tmp_path / "e")]) == EXIT_OK


def test_tiny_gaussian_lengthscale_runs_without_a_warning(tmp_path, capsys):
    # At theta = 1e-300 (r / theta)^2 overflows to inf, whose exp(-inf) = 0 is the right correlation.
    model = _model_file(tmp_path, _kernel_edit(range=[1e-300, 0.6]))
    out = tmp_path / "e"
    assert main(["effects", "--model", model, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    with open(out / "effects.csv", newline="") as fh:
        assert np.isfinite([[float(v) for v in r] for r in list(csv.reader(fh))[1:]]).all()


def test_inconsistent_factor_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # A variance below the round-off window ends predict in exit 3, not in a traceback.  The
    # query point is a design point, where half the factor gives about -3 times the prior.
    load = cli._load_model

    def halved(path):
        model = load(path)
        return dataclasses.replace(model, factor=0.5 * model.factor)

    monkeypatch.setattr(cli, "_load_model", halved)
    points = _write(tmp_path / "p.csv", "0.5,0.5\n")
    model = _model_file(tmp_path, lambda o: {**o, "x": [[0.5, 0.5]] + o["x"][1:]})
    assert main(["predict", "--model", model, "--points", points, "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: variance") and "Traceback" not in err


def test_singular_model_is_a_numerical_failure(tmp_path, capsys):
    # Without noise the RECT4 design's covariance is singular, so loading the model fails in
    # fit_gp; main reports the diagnosis and exits 3 instead of raising.
    obj = fit_gp(gauss2(), Dataset(RECT4, [1.0, 2.0, -0.5, 0.5]), 1e-2).to_json()
    model = _write(tmp_path / "model.json", json.dumps({**obj, "noise": 0.0}))
    points = _write(tmp_path / "p.csv", "0.5,0.5\n")
    for argv in (["predict", "--points", points], ["effects"]):
        assert main([*argv, "--model", model, "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "design covariance has rank 3" in err and "Traceback" not in err


# (command, setting, value): the flag --<setting> and the config key <setting> set the same value.
FLAG_AND_KEY = [("fit", "iterations", 1), ("fit", "kernel", "matern32"), ("effects", "grid_size", 7),
                ("effects", "direction", 2), ("bench", "seed", 3)]
SMALL_PATHS = {"dims": [2], "n_paths": 1, "points_per_dim": 5, "lhs_steps": 50, "rlm_iterations": 1,
               "ulm_max_evals": 50, "rlm_max_evals_inner": 20}


@pytest.mark.parametrize("command, key, value", FLAG_AND_KEY)
def test_flag_and_config_key_give_the_same_run(command, key, value, tmp_path, data_csv, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = {"fit": ["fit", "--data", str(data_csv), "--method", "rlm"],
            "effects": ["effects", "--model", _model_file(tmp_path, lambda o: o)],
            "bench": ["bench", "paths"]}[command]
    study = SMALL_PATHS if command == "bench" else {}
    outputs = []
    for extra, cfg in (([f"--{key.replace('_', '-')}", str(value)], study), ([], {**study, key: value})):
        assert main([*base, *extra, "--config", _write(tmp_path / "c.json", json.dumps(cfg)),
                     "--out", "o"]) == EXIT_OK
        files = sorted((tmp_path / "o").iterdir())
        outputs.append({f.name: f.read_bytes() for f in files})
        for f in files:
            f.unlink()
    assert "config_echo.json" in outputs[0]
    assert outputs[0] == outputs[1]


def test_bench_rerun_from_its_own_echo_is_identical(tmp_path):
    # The echo records the values the study config ran (2.0 as 2, a list for a tuple), so it
    # serves as the config of an identical run once its experiment key, the positional, is gone.
    cfg = {**SMALL_PATHS, "dims": [2.0], "true_variance": 1}
    assert main(["bench", "paths", "--out", str(tmp_path / "a"),
                 "--config", _write(tmp_path / "c.json", json.dumps(cfg))]) == EXIT_OK
    echo = json.loads((tmp_path / "a" / "config_echo.json").read_text())
    assert echo.pop("experiment") == "paths"
    assert echo["dims"] == [2] and echo["true_variance"] == 1.0
    assert main(["bench", "paths", "--out", str(tmp_path / "b"),
                 "--config", _write(tmp_path / "echo.json", json.dumps(echo))]) == EXIT_OK
    for name in ("report.csv", "summary.json", "traces.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# The flags of each subcommand: one per setting, plus --config and --help.
CLI_FLAGS = {
    "fit": {"--data", "--kernel", "--composition", "--method", "--iterations", "--seed", "--out"},
    "predict": {"--model", "--points", "--out"},
    "effects": {"--model", "--direction", "--grid-size", "--out"},
    "bench": {"--seed", "--out"},
}


@pytest.mark.parametrize("command", sorted(CLI_FLAGS))
def test_help_lists_the_flags(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    assert set(re.findall(r"--[a-z-]+", text)) == CLI_FLAGS[command] | {"--config", "--help"}
    if command == "bench":
        assert "{gfunction,paths}" in text
