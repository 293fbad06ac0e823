import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky

from addkrig import (
    CholeskyFailure,
    Dataset,
    centered_effect,
    cov_matrix,
    detect_degenerate_design,
    fit_gp,
    make_kernel,
    predict_mean,
    predict_var,
    sub_model,
)
from addkrig.bench import lhs_maximin

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

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.uniform(size=(7, 3)), rng.standard_normal(7))
        path = tmp_path / "data.csv"
        ds.to_csv(path)
        back = Dataset.from_csv(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.Y, ds.Y)

    def test_csv_rejects_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n0.1,0.2\n")
        with pytest.raises(ValueError):
            Dataset.from_csv(p)


class TestFit:
    def test_single_point_uncentered_weights(self):
        ds = Dataset(np.array([[0.4, 0.7]]), np.array([3.0]))
        gp = fit_gp(gauss2(), ds, 0.0, center=False)
        np.testing.assert_allclose(gp.weights, [1.5])

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
        assert gp.log_det == pytest.approx(ref, rel=1e-10)


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
        k4 = np.array([float(gp.kernel(CORNER, x)) for x in RECT3])
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
            prior = float(k(x, x))
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


class TestDegeneracyDetection:
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
        X = np.array(
            [[0.1, 0.2], [0.6, 0.2], [0.1, 0.9], [0.6, 0.9], [0.35, 0.5], [0.8, 0.05]]
        )
        rep = detect_degenerate_design(gauss2(), X)
        assert rep.rank == 5
        assert len(rep.dependent_point_indices) == 1

    def test_maximin_lhs_full_rank(self):
        k = make_kernel("matern32", [1.0] * 4, [0.5] * 4)
        for seed in range(20):
            X = lhs_maximin(40, 4, seed=seed, n_improvement_steps=200)
            rep = detect_degenerate_design(k, X)
            assert rep.rank == 40
            assert not rep.is_degenerate


class TestSerialization:
    def test_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        ds = Dataset(rng.uniform(size=(6, 2)), rng.standard_normal(6))
        gp = fit_gp(make_kernel("matern32", [1.0, 0.4], [0.3, 0.6]), ds, 0.02)
        path = tmp_path / "model.json"
        gp.save(path)
        from addkrig import FittedGP

        back = FittedGP.load(path)
        x = rng.uniform(size=2)
        assert predict_mean(back, x) == pytest.approx(predict_mean(gp, x), rel=1e-12)
        assert predict_var(back, x) == pytest.approx(predict_var(gp, x), abs=1e-12)
