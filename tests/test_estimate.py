import math

import numpy as np
import pytest

from addkrig import (
    Bounds,
    Dataset,
    HyperParams,
    additivity_ratio,
    default_bounds,
    estimate_rlm,
    estimate_ulm,
    make_kernel,
    neg_log_likelihood,
    nll_gradient,
    optimize_local,
)
from addkrig import estimate
from addkrig.bench import lhs_maximin, sample_gp_path
from addkrig.estimate import HyperBounds, _full_bounds, _make_objective, nll_value_and_grad
from addkrig.gp import fit_gp
from addkrig.kernels import cov_matrix


def dense_nll(params, dataset):
    """Independent oracle: explicit slogdet + solve, no Cholesky reuse."""
    K = cov_matrix(params.to_kernel(), dataset.X, params.noise)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return logdet + float(dataset.Y @ np.linalg.solve(K, dataset.Y))


def random_dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(size=(n, d)), rng.standard_normal(n))


class TestObjective:
    def test_single_point_closed_form(self):
        # n = 1: K = sigma^2 + tau^2, so l = log(s) + y^2 / s.
        ds = Dataset([[0.3]], [2.0])
        p = HyperParams([1.0], [0.5], 1.0)
        assert neg_log_likelihood(p, ds) == pytest.approx(math.log(2.0) + 2.0, rel=1e-12)

    def test_pure_noise_closed_form(self):
        # All variances zero: K = tau^2 I, l = n log tau^2 + |Y|^2 / tau^2.
        ds = random_dataset(6, 2, 0)
        tau2 = 0.7
        p = HyperParams([0.0, 0.0], [0.5, 0.5], tau2)
        expect = 6 * math.log(tau2) + float(ds.Y @ ds.Y) / tau2
        assert neg_log_likelihood(p, ds) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("fam", ["gaussian", "matern32"])
    @pytest.mark.parametrize("comp", ["additive", "tensor"])
    def test_against_dense_oracle(self, fam, comp):
        ds = random_dataset(8, 3, 1)
        rng = np.random.default_rng(2)
        p = HyperParams(rng.uniform(0.3, 2.0, 3), rng.uniform(0.2, 0.8, 3), 0.1, fam, comp)
        assert neg_log_likelihood(p, ds) == pytest.approx(dense_nll(p, ds), rel=1e-10)

    def test_singular_raises(self):
        # Duplicate-free rectangle design with zero noise is exactly singular
        # for an additive kernel.
        X = np.array([[0.2, 0.3], [0.7, 0.3], [0.2, 0.8], [0.7, 0.8]])
        ds = Dataset(X, np.arange(4.0))
        p = HyperParams([1.0, 1.0], [0.6, 0.6], 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            neg_log_likelihood(p, ds)

    def test_permutation_invariance(self):
        # Jointly permuting the coordinate directions and the parameter vectors
        # leaves the likelihood unchanged.
        ds = random_dataset(7, 3, 3)
        p = HyperParams([1.0, 0.4, 2.0], [0.3, 0.7, 0.2], 0.05, "matern32")
        perm = [2, 0, 1]
        ds_p = Dataset(ds.X[:, perm], ds.Y)
        p_p = HyperParams(p.variances[perm], p.lengthscales[perm], p.noise, "matern32")
        assert neg_log_likelihood(p, ds) == pytest.approx(
            neg_log_likelihood(p_p, ds_p), rel=1e-12
        )


class TestGradient:
    def test_pure_noise_gradient(self):
        ds = random_dataset(5, 2, 4)
        tau2 = 0.9
        p = HyperParams([0.0, 0.0], [0.5, 0.5], tau2)
        g = nll_gradient(p, ds)
        # d l / d tau^2 = n / tau^2 - |Y|^2 / tau^4
        expect = 5 / tau2 - float(ds.Y @ ds.Y) / tau2**2
        assert g[-1] == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("fam", ["gaussian", "matern32"])
    @pytest.mark.parametrize("comp", ["additive", "tensor"])
    def test_finite_difference(self, fam, comp):
        ds = random_dataset(8, 2, 5)
        _, vg = _make_objective(ds, fam, comp, 2)
        x0 = np.array([1.2, 0.6, 0.35, 0.55, 0.2][: 5 if comp == "additive" else 4])
        f0, g = vg(x0)
        h = 1e-6
        for j in range(len(x0)):
            e = np.zeros_like(x0)
            e[j] = h
            fd = (vg(x0 + e)[0] - vg(x0 - e)[0]) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=5e-5, abs=1e-7)

    def test_inactive_direction(self):
        # A zero-variance direction still has a well-defined variance partial
        # (the data may want to turn it on) and a zero lengthscale partial.
        ds = random_dataset(6, 2, 6)
        p = HyperParams([1.0, 0.0], [0.4, 0.6], 0.1)
        g = nll_gradient(p, ds)
        assert g.shape == (5,)
        assert g[3] == pytest.approx(0.0, abs=1e-12)


class TestValueAndGrad:
    @pytest.mark.parametrize("fam", ["gaussian", "matern32"])
    @pytest.mark.parametrize("comp", ["additive", "tensor"])
    def test_matches_separate_functions(self, fam, comp):
        # Same factorization and arithmetic: exact equality, not a tolerance.
        ds = random_dataset(10, 3, 20)
        rng = np.random.default_rng(21)
        for _ in range(3):
            p = HyperParams(rng.uniform(0.1, 2.0, 3), rng.uniform(0.1, 1.0, 3),
                            float(rng.uniform(1e-3, 0.5)), fam, comp)
            value, g = nll_value_and_grad(p, ds)
            assert value == neg_log_likelihood(p, ds)
            np.testing.assert_array_equal(g, nll_gradient(p, ds))

    @pytest.mark.parametrize("fam", ["gaussian", "matern32"])
    def test_rlm_ids_select_full_gradient_entries(self, fam):
        d = 4
        ds = random_dataset(12, d, 22)
        rng = np.random.default_rng(23)
        p = HyperParams(rng.uniform(0.0, 2.0, d), rng.uniform(0.1, 1.0, d), 0.05, fam)
        full = nll_gradient(p, ds)
        for l in range(d):
            value, g = nll_value_and_grad(p, ds, [f"variance_{l}", f"lengthscale_{l}", "noise"])
            assert value == neg_log_likelihood(p, ds)
            np.testing.assert_array_equal(g, full[[l, d + l, 2 * d]])

    @pytest.mark.parametrize("run", [
        lambda ds: estimate_rlm(ds, family="matern32", n_iterations=2),
        lambda ds: estimate_ulm(ds, composition="additive", max_evals=300),
        lambda ds: estimate_ulm(ds, composition="tensor", max_evals=300),
    ], ids=["rlm", "ulm-additive", "ulm-tensor"])
    def test_one_factorization_per_objective_call(self, run, monkeypatch):
        ds = random_dataset(15, 3, 24)
        centered = Dataset(ds.X, ds.Y - np.mean(ds.Y))
        calls = []
        real = estimate.cholesky

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimate, "cholesky", counting)
        res = run(centered)
        assert res.trace.total_calls > 0
        assert len(calls) == res.trace.total_calls


class TestOptimizeLocal:
    @staticmethod
    def quadratic(center):
        c = np.asarray(center, dtype=float)

        def vg(x):
            return float(np.sum((x - c) ** 2)), 2.0 * (x - c)

        return vg

    def test_interior_minimum(self):
        box = Bounds([-1.0, -1.0], [2.0, 2.0])
        res = optimize_local(self.quadratic([0.5, -0.25]), box, [1.5, 1.5])
        np.testing.assert_allclose(res.x, [0.5, -0.25], atol=1e-4)
        assert res.value <= 1e-7
        assert res.converged

    def test_projection_onto_bounds(self):
        # Unconstrained minimum outside the box: the solution sits on the face
        # and satisfies the first-order conditions there.
        box = Bounds([0.0, 0.0], [1.0, 1.0])
        res = optimize_local(self.quadratic([2.0, 0.3]), box, [0.5, 0.5])
        np.testing.assert_allclose(res.x, [1.0, 0.3], atol=1e-4)

    def test_collapsed_bounds(self):
        box = Bounds([0.7, 0.7], [0.7, 0.7])
        res = optimize_local(self.quadratic([0.0, 0.0]), box, [0.7, 0.7])
        np.testing.assert_allclose(res.x, [0.7, 0.7])

    def test_counts_calls_and_never_worse_than_start(self):
        calls = []

        def vg(x):
            calls.append(1)
            return float(np.sum(x**2)), 2.0 * x

        box = Bounds([-2.0], [2.0])
        res = optimize_local(vg, box, [1.0])
        assert res.n_calls == len(calls)
        assert res.value <= 1.0

    def test_sentinel_on_linalg_error(self):
        # Infeasible left half: the optimizer must still find the right-half
        # minimum instead of crashing.
        def vg(x):
            if x[0] < 0.2:
                raise np.linalg.LinAlgError("bad point")
            return float((x[0] - 0.6) ** 2), np.array([2.0 * (x[0] - 0.6)])

        box = Bounds([0.0], [1.0])
        res = optimize_local(vg, box, [0.9])
        assert abs(res.x[0] - 0.6) < 1e-3

    def test_budget_exhaustion_flag(self):
        def vg(x):
            return float(np.sum((x - 0.3) ** 4)), 4.0 * (x - 0.3) ** 3

        box = Bounds([-5.0] * 4, [5.0] * 4)
        res = optimize_local(vg, box, [4.0] * 4, max_evals=3)
        assert res.n_calls >= 3
        assert not res.converged


class TestULM:
    def test_reported_value_matches_params(self):
        ds = random_dataset(12, 2, 7)
        centered = Dataset(ds.X, ds.Y - np.mean(ds.Y))
        res = estimate_ulm(centered, family="matern32")
        assert res.best_value == pytest.approx(
            neg_log_likelihood(res.params, centered), rel=1e-9
        )

    def test_deterministic(self):
        ds = random_dataset(10, 2, 8)
        a = estimate_ulm(ds, n_restarts=3, seed=5)
        b = estimate_ulm(ds, n_restarts=3, seed=5)
        np.testing.assert_array_equal(a.params.variances, b.params.variances)
        np.testing.assert_array_equal(a.params.lengthscales, b.params.lengthscales)
        assert a.best_value == b.best_value

    def test_restarts_never_hurt(self):
        ds = random_dataset(10, 2, 9)
        single = estimate_ulm(ds, n_restarts=1)
        multi = estimate_ulm(ds, n_restarts=3, seed=1)
        assert multi.best_value <= single.best_value + 1e-9

    def test_recovers_known_hyperparameters(self):
        # Fit a d=1 path drawn from a known kernel; the estimates should land
        # within 50% of the truth on this seed.
        true = make_kernel("gaussian", [1.0], [0.2])
        X = lhs_maximin(30, 1, seed=0, n_improvement_steps=500)
        y = sample_gp_path(true, X, seed=0)
        ds = Dataset(X, y - np.mean(y))
        res = estimate_ulm(ds, family="gaussian")
        assert abs(res.params.variances[0] - 1.0) <= 0.5
        assert abs(res.params.lengthscales[0] - 0.2) <= 0.1

    def test_tensor_shares_one_variance(self):
        ds = random_dataset(10, 3, 10)
        res = estimate_ulm(ds, composition="tensor")
        assert np.all(res.params.variances == res.params.variances[0] * np.ones(3)) or np.allclose(
            res.params.variances[1:], 1.0
        )
        assert res.params.composition == "tensor"

    def test_invalid_restarts(self):
        ds = random_dataset(5, 1, 11)
        with pytest.raises(ValueError):
            estimate_ulm(ds, n_restarts=0)


class TestRLM:
    def test_trace_structure(self):
        ds = random_dataset(12, 2, 12)
        res = estimate_rlm(ds, n_iterations=3)
        assert all(r.direction in (1, 2) for r in res.trace.records)
        iters = [r.iteration for r in res.trace.records]
        assert iters == sorted(iters)
        # One record per (cycle, direction) visit, up to early stopping.
        assert len(res.trace.records) % ds.d == 0

    def test_best_value_monotone(self):
        ds = random_dataset(15, 3, 13)
        res = estimate_rlm(ds, n_iterations=4)
        values = [r.best_value for r in res.trace.records]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_reported_value_matches_params(self):
        ds = random_dataset(12, 2, 14)
        centered = Dataset(ds.X, ds.Y - np.mean(ds.Y))
        res = estimate_rlm(centered, family="matern32", n_iterations=3)
        assert res.best_value == pytest.approx(
            neg_log_likelihood(res.params, centered), rel=1e-9
        )

    def test_first_inner_step_is_plain_descent(self):
        # For d = 1 the first RLM visit is exactly one 3-parameter local
        # optimization; replaying it from the same start must agree.
        ds = random_dataset(10, 1, 15)
        centered = Dataset(ds.X, ds.Y - np.mean(ds.Y))
        hb = default_bounds(centered)
        res = estimate_rlm(centered, bounds=hb, n_iterations=1)

        theta0 = float(np.clip(0.5, hb.lengthscale[0], hb.lengthscale[1]))
        kick = 0.05 * hb.variance[1] / 10.0

        def vg(x3):
            p = HyperParams([x3[0]], [x3[1]], float(x3[2]))
            g = nll_gradient(p, centered)
            return neg_log_likelihood(p, centered), g

        box = Bounds(
            [hb.variance[0], hb.lengthscale[0], hb.noise[0]],
            [hb.variance[1], hb.lengthscale[1], hb.noise[1]],
        )
        replay = optimize_local(vg, box, [kick, theta0, hb.noise[1]], max_evals=200)
        assert res.trace.records[0].best_value == pytest.approx(replay.value, rel=1e-12)
        assert res.trace.records[0].n_calls == replay.n_calls

    def test_deterministic(self):
        ds = random_dataset(12, 2, 16)
        a = estimate_rlm(ds, n_iterations=3)
        b = estimate_rlm(ds, n_iterations=3)
        assert a.best_value == b.best_value
        np.testing.assert_array_equal(a.params.variances, b.params.variances)

    def test_noise_trace_recorded(self):
        ds = random_dataset(10, 2, 17)
        res = estimate_rlm(ds, n_iterations=2)
        noises = res.trace.noise_by_iteration()
        hb = default_bounds(ds)
        assert all(hb.noise[0] <= v <= hb.noise[1] + 1e-12 for v in noises.values())

    def test_invalid_iterations(self):
        ds = random_dataset(5, 1, 18)
        with pytest.raises(ValueError):
            estimate_rlm(ds, n_iterations=0)


class TestHelpers:
    def test_additivity_ratio(self):
        p = HyperParams([1.0, 3.0], [0.5, 0.5], 1.0)
        assert additivity_ratio(p) == pytest.approx(0.8)
        pure = HyperParams([0.0], [0.5], 2.0)
        assert additivity_ratio(pure) == 0.0
        with pytest.raises(ValueError):
            additivity_ratio(HyperParams([0.0], [0.5], 0.0))

    def test_default_bounds_scaled_to_variance(self):
        ds = Dataset([[0.1], [0.5], [0.9]], [0.0, 3.0, 0.0])
        hb = default_bounds(ds)
        var_y = np.var([0.0, 3.0, 0.0])
        assert hb.variance == (0.0, pytest.approx(10 * var_y))
        assert hb.noise[1] == pytest.approx(var_y)
        with pytest.raises(ValueError):
            default_bounds(Dataset([[0.1], [0.9]], [1.0, 1.0]))

    def test_full_bounds_layout(self):
        hb = HyperBounds((0.0, 2.0), (0.1, 3.0), (1e-6, 1.0))
        add = _full_bounds(hb, 3, "additive")
        assert add.lower.shape == (7,)
        ten = _full_bounds(hb, 3, "tensor")
        assert ten.lower.shape == (5,)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Bounds([1.0], [0.0])

    def test_trace_csv(self):
        ds = random_dataset(8, 1, 19)
        res = estimate_rlm(ds, n_iterations=1)
        text = res.trace.to_csv_string(run_id="abc")
        lines = text.strip().splitlines()
        assert lines[0] == "run_id,iteration,direction,n_calls_cum,best_value,tau2"
        assert lines[1].startswith("abc,1,1,")
        cums = [int(l.split(",")[3]) for l in lines[1:]]
        assert cums == sorted(cums)


class TestSingularityAgreement:
    def test_fit_gp_accepts_what_the_likelihood_accepts(self):
        g = np.linspace(0.0, 1.0, 5)
        grid = np.array([[a, b] for a in g for b in g])
        rect = np.array([[0.2, 0.3], [0.7, 0.3], [0.2, 0.8], [0.7, 0.8]])
        near_singular = 0  # accepted cases with pivot^2 in (1e-12, 1e-8] * tr(K)/n
        for seed, X in enumerate([grid, rect, lhs_maximin(30, 2, seed=5, n_improvement_steps=200)]):
            rng = np.random.default_rng(seed)
            ds = Dataset(X, rng.standard_normal(len(X)))
            for noise in np.logspace(-13.0, -6.0, 22):
                for fam in ("gaussian", "matern32"):
                    p = HyperParams(rng.uniform(0.2, 2.0, 2), rng.uniform(0.1, 1.0, 2), noise, fam)
                    try:
                        value = neg_log_likelihood(p, ds)
                    except np.linalg.LinAlgError:
                        continue
                    model = fit_gp(p.to_kernel(), ds, p.noise, center=False)
                    assert model.log_det + ds.Y @ model.weights == pytest.approx(value, rel=1e-12)
                    K = cov_matrix(p.to_kernel(), X, noise)
                    pivot = np.min(np.diag(model.factor)) ** 2 / (np.trace(K) / len(X))
                    near_singular += 1e-12 < pivot <= 1e-8
        assert near_singular > 0
