import csv
import json

import numpy as np
import pytest

from addkrig import Dataset, FittedGP, make_kernel
from addkrig.cli import EXIT_INPUT, EXIT_OK, main


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

    def test_dimension_mismatch(self, tmp_path, model_path):
        path, _ = model_path
        pts = tmp_path / "bad.csv"
        pts.write_text("0.5\n")
        assert main(["predict", "--model", str(path), "--points", str(pts),
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT

    def test_non_finite_points(self, tmp_path, model_path):
        path, _ = model_path
        pts = tmp_path / "nan.csv"
        pts.write_text("0.5,0.5\nnan,0.2\n")
        assert main(["predict", "--model", str(path), "--points", str(pts),
                     "--out", str(tmp_path / "o")]) == EXIT_INPUT

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


# Each case builds an argv (minus --out) from (tmp_path, data_csv).
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
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_an_input_error(case, tmp_path, data_csv, capsys):
    argv = MALFORMED_INPUTS[case](tmp_path, data_csv) + ["--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


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
