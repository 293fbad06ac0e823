import copy
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

from addkrig import (
    CholeskyFailure,
    Dataset,
    DegeneracyReport,
    centered_effect,
    cov_matrix,
    detect_degenerate_design,
    fit_gp,
    make_kernel,
    predict_mean,
    predict_var,
    sub_model,
)
from addkrig import bench, estimate
from addkrig import gp as gp_mod
from addkrig._lbfgsb import minimize
from addkrig.bench import GFunctionSpec, lhs_maximin, sample_gp_path
from addkrig.estimate import HyperParams, estimate_rlm
from addkrig.gp import _BLOCK as BLOCK
from addkrig.kernels import cross_cov, double_integral_univariate, integral_univariate

RECT3 = np.array([[0.2, 0.3], [0.7, 0.3], [0.2, 0.8]])
CORNER = np.array([0.7, 0.8])
RECT4 = np.vstack([RECT3, CORNER])


def gauss2(v=(1.0, 1.0), t=(0.6, 0.6)):
    return make_kernel("gaussian", v, t)


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.1, 0.2], [0.1, 0.2]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([[1.4, 0.2]]), np.array([1.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([[0.4, 0.2]]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("x, y", [
        ([[np.nan, 0.2], [0.5, 0.6]], [1.0, 2.0]),
        ([[0.1, 0.2], [0.5, 0.6]], [np.nan, 2.0]),
        ([[0.1, 0.2], [0.5, 0.6]], [1.0, np.inf]),
    ])
    def test_rejects_non_finite(self, x, y):
        with pytest.raises(ValueError):
            Dataset(np.array(x), np.array(y))

    def test_rejects_a_3d_design(self):
        # The point rule of kernels._check_design: a design is a 2-d array, not a stack of them.
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"points have shape \(5, 2, 2\)"):
            Dataset(rng.uniform(size=(5, 2, 2)), np.arange(5.0))

    @pytest.mark.parametrize("n", [1, 3])
    def test_needs_an_input_column(self, n):
        with pytest.raises(ValueError, match="one input column"):
            Dataset(np.empty((n, 0)), np.arange(float(n)))

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.uniform(size=(7, 3)), rng.standard_normal(7))
        path = tmp_path / "data.csv"
        ds.to_csv(path)
        back = Dataset.from_csv(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.Y, ds.Y)

    def test_csv_skips_blank_lines(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("\nx1,x2,y\n0.1,0.2,1.0\n\n0.5,0.6,2.0\n")
        back = Dataset.from_csv(p)
        np.testing.assert_array_equal(back.X, [[0.1, 0.2], [0.5, 0.6]])
        np.testing.assert_array_equal(back.Y, [1.0, 2.0])

    def test_csv_rejects_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n0.1,0.2\n")
        with pytest.raises(ValueError):
            Dataset.from_csv(p)


class TestFit:
    def test_single_point_centered_weights(self):
        # One point is its own mean: the centered response and the weights are 0, and the model
        # predicts that mean everywhere.
        ds = Dataset(np.array([[0.4, 0.7]]), np.array([3.0]))
        gp = fit_gp(gauss2(), ds, 0.0)
        assert gp.y_mean == 3.0
        np.testing.assert_array_equal(gp.weights, [0.0])
        np.testing.assert_array_equal(predict_mean(gp, np.array([[0.4, 0.7], [0.9, 0.1]])), [3.0, 3.0])

    def test_degenerate_design_raises_with_report(self):
        ds = Dataset(RECT4, np.array([1.0, 2.0, -0.5, 0.5]))
        with pytest.raises(CholeskyFailure) as exc:
            fit_gp(gauss2(), ds, 0.0)
        rep = exc.value.report
        assert rep.rank == 3
        assert rep.dependent_point_indices == (3,)
        assert rep.pivot_indices == (0, 1, 2)
        np.testing.assert_allclose(rep.coefficients[0], [-1.0, 1.0, 1.0], atol=1e-6)

    def test_jitter_restores_definiteness(self):
        ds = Dataset(RECT4, np.array([1.0, 2.0, -0.5, 0.5]))
        gp = fit_gp(gauss2(), ds, 1e-2)
        K = cov_matrix(gp.kernel, ds.X, 1e-2)
        assert np.linalg.eigvalsh(K).min() > 0

    def test_factor_reconstructs_covariance(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.uniform(size=(8, 3)), rng.standard_normal(8))
        k = make_kernel("matern32", [1.0, 0.4, 0.9], [0.3, 0.5, 0.2])
        gp = fit_gp(k, ds, 0.05)
        K = cov_matrix(k, ds.X, 0.05)
        assert np.max(np.abs(gp.factor @ gp.factor.T - K)) <= 1e-10 * np.max(np.abs(K))

    def test_log_det(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.uniform(size=(6, 2)), rng.standard_normal(6))
        gp = fit_gp(gauss2(), ds, 0.1)
        _, ref = np.linalg.slogdet(cov_matrix(gp.kernel, ds.X, 0.1))
        assert 2.0 * np.sum(np.log(np.diag(gp.factor))) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -1e-6])
    def test_bad_noise_raises_before_any_factorization(self, noise, monkeypatch):
        calls = []
        monkeypatch.setattr(gp_mod, "dpotrf", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match="noise"):
            fit_gp(gauss2(), Dataset(RECT3, np.array([1.0, 2.0, -0.5])), noise)
        assert calls == []

    def test_fits_and_paths_factor_once_through_one_helper(self, monkeypatch):
        # fit_gp and sample_gp_path share the likelihood's helper, but not estimate.cholesky, the
        # name the benchmark's tracer counts.
        assert bench._factor is gp_mod._factor is estimate.cholesky
        calls, real = [], gp_mod._factor
        for owner in (gp_mod, bench):
            monkeypatch.setattr(owner, "_factor", lambda *a: calls.append(1) or real(*a))
        monkeypatch.setattr(estimate, "cholesky", None)  # a call through it would raise
        fit_gp(gauss2(), Dataset(RECT3, np.array([1.0, 2.0, -0.5])), 1e-6)
        assert len(calls) == 1
        sample_gp_path(gauss2(), RECT4, seed=3)
        assert len(calls) == 2


class TestPrediction:
    def test_interpolation(self):
        rng = np.random.default_rng(6)
        ds = Dataset(rng.uniform(size=(7, 2)), rng.standard_normal(7))
        gp = fit_gp(gauss2(), ds, 0.0)
        for i in range(ds.n):
            assert predict_mean(gp, ds.X[i]) == pytest.approx(ds.Y[i], abs=1e-9)
            assert predict_var(gp, ds.X[i]) <= 1e-9

    def test_corner_variance_vanishes(self):
        ds = Dataset(RECT3, np.array([1.0, 2.0, -0.5]))
        gp = fit_gp(gauss2(), ds, 0.0)
        assert predict_var(gp, CORNER) <= 1e-8

    def test_corner_mean_is_linear_combination(self):
        Y = np.array([1.0, 2.0, -0.5])
        ds = Dataset(RECT3, Y)
        gp = fit_gp(gauss2(), ds, 0.0)
        # brute-force oracle: direct dense solve
        K = cov_matrix(gp.kernel, RECT3, 0.0)
        k4 = cross_cov(gp.kernel, CORNER[None, :], RECT3)[0]
        oracle = float(k4 @ np.linalg.solve(K, Y - Y.mean())) + Y.mean()
        assert predict_mean(gp, CORNER) == pytest.approx(Y[1] + Y[2] - Y[0], abs=1e-8)
        assert predict_mean(gp, CORNER) == pytest.approx(oracle, abs=1e-10)

    def test_predictor_rectangle_identity(self):
        rng = np.random.default_rng(8)
        ds = Dataset(rng.uniform(size=(9, 2)), rng.standard_normal(9))
        gp = fit_gp(make_kernel("matern32", [1.0, 0.6], [0.25, 0.4]), ds, 1e-4)
        for _ in range(100):
            x1, x2, y1, y2 = rng.uniform(size=4)
            lhs = predict_mean(gp, [x1, x2]) + predict_mean(gp, [y1, y2])
            rhs = predict_mean(gp, [x1, y2]) + predict_mean(gp, [y1, x2])
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_rejects_non_finite_points(self):
        gp = fit_gp(gauss2(), Dataset(RECT3, np.array([1.0, 2.0, -0.5])))
        for f in (predict_mean, predict_var):
            with pytest.raises(ValueError):
                f(gp, np.array([[0.5, 0.5], [np.nan, 0.2]]))

    def test_variance_bounded_by_prior(self):
        rng = np.random.default_rng(9)
        ds = Dataset(rng.uniform(size=(6, 3)), rng.standard_normal(6))
        k = make_kernel("gaussian", [1.0, 0.5, 2.0], [0.3, 0.6, 0.2])
        gp = fit_gp(k, ds, 0.01)
        for x in rng.uniform(size=(50, 3)):
            prior = float(cross_cov(k, x[None, :], x[None, :])[0, 0])
            assert 0.0 <= predict_var(gp, x) <= prior + 0.01 + 1e-12


class TestSubModels:
    def test_sum_equals_full_predictor(self):
        rng = np.random.default_rng(10)
        ds = Dataset(rng.uniform(size=(8, 3)), rng.standard_normal(8))
        k = make_kernel("gaussian", [1.0, 0.7, 0.4], [0.3, 0.5, 0.6])
        gp = fit_gp(k, ds, 1e-3)
        for x in rng.uniform(size=(20, 3)):
            total = sum(sub_model(gp, i, x[i])[0] for i in range(3))
            assert total == pytest.approx(predict_mean(gp, x), abs=1e-10)

    def test_inactive_direction_is_null(self):
        rng = np.random.default_rng(11)
        Y = rng.standard_normal(6)
        ds = Dataset(rng.uniform(size=(6, 2)), Y - Y.mean())
        k = make_kernel("gaussian", [1.0, 0.0], [0.3, 0.5])
        gp = fit_gp(k, ds, 1e-6)
        m, v = sub_model(gp, 1, np.linspace(0, 1, 11))
        np.testing.assert_allclose(m, 0.0, atol=1e-12)
        np.testing.assert_allclose(v, 0.0, atol=1e-12)

    def test_variance_bounded_by_direction_prior(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            ds = Dataset(rng.uniform(size=(7, 2)), rng.standard_normal(7))
            v0, v1 = rng.uniform(0.3, 2.0, 2)
            k = make_kernel("matern32", [v0, v1], rng.uniform(0.1, 0.8, 2))
            gp = fit_gp(k, ds, 1e-4)
            for x in np.linspace(0, 1, 13):
                _, v = sub_model(gp, 0, x)
                assert v <= v0 + 1e-12

    def test_tensor_composition_unsupported(self):
        rng = np.random.default_rng(13)
        ds = Dataset(rng.uniform(size=(5, 2)), rng.standard_normal(5))
        gp = fit_gp(make_kernel("gaussian", [1, 1], [0.5, 0.5], "tensor"), ds, 1e-3)
        with pytest.raises(ValueError):
            sub_model(gp, 0, 0.5)
        with pytest.raises(ValueError):
            centered_effect(gp, 0, 0.5)

    @pytest.mark.parametrize("fn", [sub_model, centered_effect])
    def test_direction_out_of_range(self, fn):
        rng = np.random.default_rng(15)
        ds = Dataset(rng.uniform(size=(5, 2)), rng.standard_normal(5))
        gp = fit_gp(make_kernel("gaussian", [1.0, 0.5], [0.4, 0.6]), ds, 1e-3)
        for direction in (-1, 2):
            with pytest.raises(ValueError, match="direction index out of range"):
                fn(gp, direction, 0.5)

    @pytest.mark.parametrize("fn", [sub_model, centered_effect])
    def test_two_dimensional_points_rejected_with_expected_shape(self, fn):
        rng = np.random.default_rng(17)
        ds = Dataset(rng.uniform(size=(5, 2)), rng.standard_normal(5))
        gp = fit_gp(make_kernel("gaussian", [1.0, 0.5], [0.4, 0.6]), ds, 1e-3)
        for x_i in (np.full((3, 1), 0.5), np.full((1, 3), 0.5), np.full((2, 2), 0.5)):
            with pytest.raises(ValueError, match=r"shape \(\d, \d\), a direction takes a scalar or a 1-d array"):
                fn(gp, 0, x_i)

    @pytest.mark.parametrize("fn", [sub_model, centered_effect])
    def test_scalar_gives_floats_and_array_gives_arrays(self, fn):
        rng = np.random.default_rng(18)
        ds = Dataset(rng.uniform(size=(5, 2)), rng.standard_normal(5))
        gp = fit_gp(make_kernel("matern32", [1.0, 0.5], [0.4, 0.6]), ds, 1e-3)
        grid = np.array([0.1, 0.5, 0.9])
        batch = fn(gp, 1, grid)
        assert len(batch) == 2 and all(isinstance(a, np.ndarray) and a.shape == (3,) for a in batch)
        for j, x in enumerate(grid):
            one = fn(gp, 1, x)
            assert len(one) == 2 and all(type(a) is float for a in one)
            assert one == pytest.approx((batch[0][j], batch[1][j]), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("fn", [sub_model, centered_effect])
    @pytest.mark.parametrize("x_i", [[np.nan, 0.5], [np.inf]])
    def test_non_finite_points_rejected_without_warning(self, fn, x_i):
        # Warnings are errors under the test configuration, so a kernel warning before the
        # ValueError fails the test.
        rng = np.random.default_rng(16)
        ds = Dataset(rng.uniform(size=(5, 2)), rng.standard_normal(5))
        gp = fit_gp(make_kernel("matern32", [1.0, 0.5], [0.4, 0.6]), ds, 1e-3)
        with pytest.raises(ValueError, match="finite"):
            fn(gp, 0, x_i)


class TestCenteredEffects:
    def fixed_model(self):
        rng = np.random.default_rng(42)
        ds = Dataset(rng.uniform(size=(5, 2)), rng.standard_normal(5))
        k = make_kernel("gaussian", [1.0, 0.7], [0.35, 0.5])
        return fit_gp(k, ds, 0.01)

    def test_mean_integrates_to_zero(self):
        gp = self.fixed_model()
        t, w = np.polynomial.legendre.leggauss(128)
        grid = 0.5 * (t + 1.0)
        for i in range(2):
            m, _ = centered_effect(gp, i, grid)
            assert 0.5 * float(np.sum(w * m)) == pytest.approx(0.0, abs=1e-8)

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(14)
        for trial in range(5):
            ds = Dataset(rng.uniform(size=(6, 2)), rng.standard_normal(6))
            k = make_kernel("matern32", rng.uniform(0.3, 1.5, 2), rng.uniform(0.2, 0.7, 2))
            gp = fit_gp(k, ds, 1e-3)
            for i in range(2):
                _, v = centered_effect(gp, i, np.linspace(0, 1, 21))
                assert np.all(v >= 0.0)

    def test_variance_against_mc_conditional_simulation(self):
        # 1e5 conditional path draws of direction 0 on a 64-point grid with
        # trapezoid integration of each path.
        gp = self.fixed_model()
        grid = np.linspace(0, 1, 64)
        spec = gp.kernel.components[0]
        Kgg = spec.variance * spec.corr(grid[:, None], grid[None, :])
        C = spec.variance * spec.corr(grid[:, None], gp.dataset.X[None, :, 0])
        K = cov_matrix(gp.kernel, gp.dataset.X, gp.noise)
        L = cholesky(K, lower=True)
        Sig = Kgg - C @ cho_solve((L, True), C.T)
        Sig = 0.5 * (Sig + Sig.T) + 1e-12 * np.eye(64)
        Lc = np.linalg.cholesky(Sig)
        draws = np.random.default_rng(7).standard_normal((100000, 64)) @ Lc.T
        w = np.full(64, 1 / 63.0)
        w[0] *= 0.5
        w[-1] *= 0.5
        mc_var = (draws - (draws @ w)[:, None]).var(axis=0)
        _, v_star = centered_effect(gp, 0, grid)
        rel = np.abs(mc_var - v_star) / np.maximum(v_star, 1e-12)
        assert rel.max() <= 0.02


def reference_detect_degenerate_design(kernel, X):
    """The unblocked diagnosis that detect_degenerate_design replaced, kept verbatim as its
    reference: one Python-level dot product per (pivot, column) pair."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    K = cov_matrix(kernel, X, 0.0)
    n = K.shape[0]
    tol = 1e-8 * np.trace(K) / n
    pivots: list[int] = []
    dependents: list[int] = []
    L_rows: list[np.ndarray] = []
    for j in range(n):
        w = np.empty(len(pivots))
        for m, p in enumerate(pivots):
            w[m] = (K[p, j] - L_rows[m][:m] @ w[:m]) / L_rows[m][m]
        r2 = K[j, j] - w @ w
        if r2 > tol:
            pivots.append(j)
            L_rows.append(np.append(w, math.sqrt(r2)))
        else:
            dependents.append(j)
    block = K[np.ix_(pivots, pivots)]
    coeffs = tuple(np.linalg.lstsq(block, K[pivots, j], rcond=None)[0] for j in dependents)
    return DegeneracyReport(len(pivots), tuple(pivots), tuple(dependents), coeffs)


SIX_POINTS = np.array([[0.1, 0.2], [0.6, 0.2], [0.1, 0.9], [0.6, 0.9], [0.35, 0.5], [0.8, 0.05]])
GRID5 = np.array([[a, b] for a in np.linspace(0.0, 1.0, 5) for b in np.linspace(0.0, 1.0, 5)])


def corner_design(n, seed=0):
    """n - 4 uniform points with a rectangle's four corners appended: under a short Matern
    lengthscale only the last corner depends on the others."""
    return np.vstack([np.random.default_rng(seed).uniform(size=(n - 4, 2)), RECT4])


SHORT_MATERN = make_kernel("matern32", [1.0, 1.0], [0.02, 0.02])


class TestDegeneracyDetection:
    @pytest.mark.parametrize("kernel, X", [
        (gauss2(), RECT4), (gauss2(), SIX_POINTS), (gauss2(), GRID5),
        (make_kernel("matern32", [1.0, 0.5], [0.3, 0.7]), GRID5), (SHORT_MATERN, corner_design(400)),
        (make_kernel("gaussian", [0.0, 0.0], [0.5, 0.5]), GRID5),  # rank 0: every point dependent
    ], ids=["rectangle", "six-points", "grid5-gaussian", "grid5-matern", "corners-400", "zero-kernel"])
    def test_blocked_diagnosis_matches_the_reference(self, kernel, X):
        rep, want = detect_degenerate_design(kernel, X), reference_detect_degenerate_design(kernel, X)
        assert (rep.rank, rep.pivot_indices, rep.dependent_point_indices) == \
            (want.rank, want.pivot_indices, want.dependent_point_indices)
        assert rep.describe() == want.describe()
        assert rep.is_degenerate
        for c, c_want in zip(rep.coefficients, want.coefficients, strict=True):
            np.testing.assert_allclose(c, c_want, atol=1e-10)

    def test_corner_report_names_the_other_three_corners(self):
        rep = detect_degenerate_design(SHORT_MATERN, corner_design(800))
        assert rep.describe().splitlines()[1:] == \
            ["  Z(x[799]) = -1*Z(x[796]) + +1*Z(x[797]) + +1*Z(x[798]) (almost surely)"]
        assert len(rep.coefficients[0]) == 799  # describe() leaves out round-off terms only

    def test_rank_zero_report_writes_zero_for_an_all_zero_column(self):
        rep = detect_degenerate_design(make_kernel("gaussian", [0.0, 0.0], [0.5, 0.5]), RECT3)
        assert rep.describe().splitlines() == ["design covariance has rank 0"] + [
            f"  Z(x[{j}]) = 0 (almost surely)" for j in range(3)]

    def test_empty_design(self, recwarn):
        rep = detect_degenerate_design(SHORT_MATERN, np.empty((0, 2)))
        assert (rep.rank, rep.is_degenerate, rep.describe()) == (0, False, "design is full rank (0)")
        assert sample_gp_path(SHORT_MATERN, np.empty((0, 2))).shape == (0,)
        assert not recwarn.list

    def test_rectangle(self):
        rep = detect_degenerate_design(gauss2(), RECT4)
        assert rep.rank == 3
        assert rep.dependent_point_indices == (3,)
        np.testing.assert_allclose(rep.coefficients[0], [-1.0, 1.0, 1.0], atol=1e-6)

    def test_report_invariant_removal_restores_definiteness(self):
        rep = detect_degenerate_design(gauss2(), RECT4)
        keep = [i for i in range(4) if i not in rep.dependent_point_indices]
        K = cov_matrix(gauss2(), RECT4[keep], 0.0)
        np.linalg.cholesky(K)  # must not raise

    def test_six_point_configuration_rank_five(self):
        # Rectangle cycle embedded in a 6-point design: exactly one linear
        # relation among the process values.
        rep = detect_degenerate_design(gauss2(), SIX_POINTS)
        assert rep.rank == 5
        assert len(rep.dependent_point_indices) == 1

    def test_maximin_lhs_full_rank(self):
        k = make_kernel("matern32", [1.0] * 4, [0.5] * 4)
        for seed in range(20):
            X = lhs_maximin(40, 4, seed=seed, n_improvement_steps=200)
            rep, want = detect_degenerate_design(k, X), reference_detect_degenerate_design(k, X)
            assert rep.rank == 40
            assert not rep.is_degenerate
            assert (rep.pivot_indices, rep.describe()) == (want.pivot_indices, want.describe())


class TestSerialization:
    def test_model_round_trip(self, tmp_path):
        # model.json holds everything prediction needs: the reloaded model predicts bit for bit,
        # over more than one block of query rows.
        rng = np.random.default_rng(15)
        ds = Dataset(rng.uniform(size=(6, 2)), 3.0 + rng.standard_normal(6))
        gp = fit_gp(make_kernel("matern32", [1.0, 0.4], [0.3, 0.6]), ds, 0.02)
        path = tmp_path / "model.json"
        gp.save(path)
        from addkrig import FittedGP

        back = FittedGP.load(path)
        x, grid = rng.uniform(size=(BLOCK + 200, 2)), np.linspace(0.0, 1.0, BLOCK + 101)
        np.testing.assert_array_equal(predict_mean(back, x), predict_mean(gp, x))
        np.testing.assert_array_equal(predict_var(back, x), predict_var(gp, x))
        np.testing.assert_array_equal(centered_effect(back, 1, grid), centered_effect(gp, 1, grid))


class TestOneCovariancePath:
    def test_centered_effect_builds_k_i_and_solves_once(self, monkeypatch):
        from addkrig import gp as gp_mod
        from addkrig import kernels

        model = fit_gp(gauss2(), Dataset(RECT3, np.array([1.0, 2.0, -0.5])), 1e-6)
        counts = {"corr": 0, "solve_triangular": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(kernels, "_corr", counted("corr", kernels._corr))
        monkeypatch.setattr(gp_mod, "solve_triangular", counted("solve_triangular", gp_mod.solve_triangular))
        centered_effect(model, 0, np.linspace(0.0, 1.0, 7))
        assert counts == {"corr": 1, "solve_triangular": 1}


def unblocked_reference(model, pts):
    """Mean and variance from one full cross_cov and one triangular solve."""
    k = cross_cov(model.kernel, pts, model.dataset.X)
    v = solve_triangular(model.factor, k.T, lower=True)
    variances = [c.variance for c in model.kernel.components]
    prior = sum(variances) if model.kernel.is_additive else np.prod(variances)
    return model.y_mean + k @ model.weights, np.maximum(prior - np.sum(v * v, axis=0), 0.0)


def unblocked_direction_reference(model, i, grid):
    """(m_i, v_i, m_i*, v_i*) from one full univariate cross_cov and one solve."""
    spec, Xi = model.kernel.components[i], model.dataset.X[:, i]
    k = spec.variance * spec.corr(grid[:, None], Xi[None, :])
    v = solve_triangular(model.factor, k.T, lower=True)
    v_i = np.maximum(spec.variance - np.sum(v * v, axis=0), 0.0)
    I_i = integral_univariate(spec, Xi)
    Kinv_I = cho_solve((model.factor, True), I_i)
    v_star = (v_i - 2.0 * integral_univariate(spec, grid) + 2.0 * (k @ Kinv_I)
              + double_integral_univariate(spec) - I_i @ Kinv_I)
    return (model.y_mean / model.kernel.dims + k @ model.weights, v_i,
            (k - I_i) @ model.weights, np.maximum(v_star, 0.0))


class TestBlockedPrediction:
    def model(self, composition="additive", n=30):
        rng = np.random.default_rng(21)
        ds = Dataset(rng.uniform(size=(n, 2)), rng.standard_normal(n))
        return fit_gp(make_kernel("matern32", [1.0, 0.6], [0.3, 0.5], composition), ds, 1e-3)

    @pytest.mark.parametrize("composition", ["additive", "tensor"])
    @pytest.mark.parametrize("m", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_matches_unblocked_reference(self, composition, m):
        model = self.model(composition)
        pts = np.random.default_rng(m).uniform(size=(m, 2))
        mean, var = unblocked_reference(model, pts)
        np.testing.assert_allclose(predict_mean(model, pts), mean, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(predict_var(model, pts), var, rtol=1e-12, atol=1e-12)
        assert predict_mean(model, pts).shape == predict_var(model, pts).shape == (m,)

    @pytest.mark.parametrize("composition", ["additive", "tensor"])
    def test_single_point_is_a_float(self, composition):
        model = self.model(composition)
        x = np.array([0.25, 0.75])
        mean, var = unblocked_reference(model, x[None, :])
        for got, want in ((predict_mean(model, x), mean[0]), (predict_var(model, x), var[0])):
            assert isinstance(got, float)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m", [BLOCK + 1, 2 * BLOCK + 3])
    def test_effects_across_block_boundaries(self, m):
        model = self.model()
        grid = np.linspace(0.0, 1.0, m)
        for i in range(2):
            want = unblocked_direction_reference(model, i, grid)
            got = sub_model(model, i, grid) + centered_effect(model, i, grid)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)

    def test_blocks_cover_the_rows_in_order(self):
        from addkrig.gp import _blocks

        for m in (0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 3 * BLOCK + 3):
            blocks = list(_blocks(m))
            assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(m))
            assert all(b.stop - b.start <= BLOCK + 1 for b in blocks)
            assert m < 2 or all(b.stop - b.start > 1 for b in blocks)  # no lone row in a batch

    @pytest.mark.parametrize("f", [predict_mean, predict_var])
    def test_empty_batch_still_checks_dimension(self, f):
        model = self.model()
        assert f(model, np.empty((0, 2))).shape == (0,)
        for bad in (np.empty((0, 3)), np.empty((0, 1)), np.array([0.5, 0.5, 0.5])):
            with pytest.raises(ValueError):
                f(model, bad)

    def test_predict_var_memory_is_bounded_by_one_block(self):
        # Peak numpy allocations are a few blocks of B x n floats, whatever the
        # number of query points; an unblocked m x n cross-covariance is 8 blocks.
        model = self.model(n=200)
        block_bytes = BLOCK * model.dataset.n * 8
        pts = np.random.default_rng(3).uniform(size=(8 * BLOCK, 2))
        tracemalloc.start()
        try:
            predict_var(model, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * block_bytes


    @pytest.mark.parametrize("f", [predict_var, lambda model, pts: centered_effect(model, 0, pts[:, 0])],
                             ids=["predict_var", "centered_effect"])
    def test_memory_stays_below_four_blocks(self, f):
        # One block's cross-covariance, its triangular solve and one elementwise temporary;
        # the kernel itself adds only its chunk buffers, a small share of a block at this n.
        model = self.model(n=1000)
        block_bytes = BLOCK * model.dataset.n * 8
        pts = np.random.default_rng(4).uniform(size=(8 * BLOCK, 2))
        tracemalloc.start()
        try:
            f(model, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * block_bytes


class TestScaleSweep:
    """_VAR_CLAMP is absolute; no response scale in 1e-3..1e5 may trip it."""

    @pytest.mark.parametrize("family", ["gaussian", "matern32"])
    @pytest.mark.parametrize("scale", [10.0**k for k in range(-3, 6)])
    def test_variances_stay_in_round_off_window(self, family, scale):
        rng = np.random.default_rng(11)
        X = lhs_maximin(20, 2, seed=11, n_improvement_steps=200)
        Y = scale * (np.sin(5 * X[:, 0]) + X[:, 1] ** 2 + 0.01 * rng.standard_normal(20))
        data = Dataset(X, Y)
        result = estimate_rlm(data, family=family, n_iterations=2)
        model = fit_gp(result.params, data, result.params.noise)
        for pts in (X, rng.uniform(size=(200, 2))):
            assert np.all(predict_var(model, pts) >= 0.0)
        for i in range(2):
            assert np.all(centered_effect(model, i, np.linspace(0.0, 1.0, 101))[1] >= 0.0)


# The frozen dataclasses with array fields compare by identity: field-wise == would ask an
# array for its truth value, and the generated __hash__ would hash an array.
ARRAY_DATACLASSES = {
    "HyperParams": lambda: HyperParams([1.0, 0.5], [0.3, 0.4], 0.1),
    "AdditiveKernel": gauss2,
    "FittedGP": lambda: fit_gp(gauss2(), Dataset(RECT3, [1.0, 2.0, -0.5]), 1e-6),
    "Dataset": lambda: Dataset(RECT3, [1.0, 2.0, -0.5]),
    "GFunctionSpec": lambda: GFunctionSpec([1.0, 2.0]),
    "OptResult": lambda: minimize(lambda x: (float(x @ x), 2.0 * x), np.full(2, -1.0), np.ones(2), [0.5, 0.5]),
    "EstimationResult": lambda: estimate_rlm(Dataset(RECT3, [1.0, 2.0, -0.5]), n_iterations=1),
    "DegeneracyReport": lambda: detect_degenerate_design(gauss2(), RECT4),
}


@pytest.mark.parametrize("make", ARRAY_DATACLASSES.values(), ids=ARRAY_DATACLASSES.keys())
def test_array_dataclasses_compare_by_identity_and_hash(make):
    x = make()
    assert x == x
    assert x != copy.copy(x)
    assert hash(x) == hash(x)
