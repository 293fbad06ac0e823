import math

import numpy as np
import pytest
import scipy.optimize
from scipy.linalg import cho_factor, cho_solve, cholesky
from scipy.linalg.lapack import dpotrf, dpotri

from addkrig import (
    Dataset,
    HyperBounds,
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
from addkrig import estimate, kernels
from addkrig.bench import lhs_maximin, sample_gp_path
from addkrig.estimate import _Likelihood, nll_value_and_grad
from addkrig.gp import fit_gp
from addkrig.kernels import _corr, cov_matrix, grad_cov_matrix


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

        def vg(x):
            return nll_value_and_grad(HyperParams.from_vector(x, 2, fam, comp), ds)

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


def oracle_gradient(params, dataset):
    """<K^-1, G> - alpha^T G alpha with each G = dK/dp from kernels.grad_cov_matrix."""
    kernel = params.to_kernel()
    K = cov_matrix(kernel, dataset.X, params.noise)
    factor = cho_factor(K, lower=True)
    Kinv = cho_solve(factor, np.eye(dataset.n))
    alpha = cho_solve(factor, dataset.Y)
    ids = [f"variance_{i}" for i in range(params.d if params.composition == "additive" else 1)]
    ids += [f"lengthscale_{i}" for i in range(params.d)] + ["noise"]
    grads = [grad_cov_matrix(kernel, dataset.X, params.noise, pid) for pid in ids]
    return np.array([np.sum(Kinv * G) - alpha @ G @ alpha for G in grads])


class TestLikelihoodEngine:
    @pytest.mark.parametrize("run", [
        lambda ds: estimate_rlm(ds, family="matern32", n_iterations=2),
        lambda ds: estimate_ulm(ds, composition="additive", max_evals=200),
        lambda ds: estimate_ulm(ds, family="matern32", composition="tensor", max_evals=200),
    ], ids=["rlm", "ulm-additive", "ulm-tensor"])
    def test_objective_builds_no_kernel_objects(self, run, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("kernel assembly on the objective path")

        for name in ("cov_matrix", "grad_cov_matrix", "cross_cov", "make_kernel"):
            monkeypatch.setattr(kernels, name, refuse)
            monkeypatch.setattr(estimate, name, refuse, raising=False)
        for name in ("__post_init__", "corr", "corr_dtheta"):
            monkeypatch.setattr(kernels.UnivariateKernel, name, refuse)
        res = run(random_dataset(12, 3, 30))
        assert res.trace.total_calls > 0
        assert np.isfinite(res.best_value)

    @pytest.mark.parametrize("fam", ["gaussian", "matern32"])
    def test_rlm_direction_matches_full_evaluator(self, fam, monkeypatch):
        d = 4
        ds = random_dataset(14, d, 31)
        rng = np.random.default_rng(32)
        lik = _Likelihood(ds)
        evaluated, real = [], estimate._corr
        monkeypatch.setattr(estimate, "_corr", lambda *a, **k: evaluated.append(1) or real(*a, **k))
        for _ in range(3):
            v = rng.uniform(0.0, 2.0, d)
            v[rng.integers(d)] = 0.0  # a direction RLM has not turned on yet
            t = rng.uniform(0.05, 1.0, d)
            noise = float(rng.uniform(1e-3, 0.5))
            p = HyperParams(v, t, noise, fam)
            for l in range(d):
                vg = lik.direction(l, p)
                evaluated.clear()
                value, g = vg(np.array([v[l], t[l], noise]))
                assert len(evaluated) == 1  # direction l's correlation alone
                want_value, want_g = nll_value_and_grad(p, ds)
                assert value == pytest.approx(want_value, rel=1e-12)
                np.testing.assert_allclose(g, want_g[[l, d + l, 2 * d]], rtol=1e-9)

    @pytest.mark.parametrize("fam", ["gaussian", "matern32"])
    @pytest.mark.parametrize("comp", ["additive", "tensor"])
    def test_gradient_matches_grad_cov_matrix_oracle(self, fam, comp):
        d = 3
        ds = random_dataset(12, d, 33)
        rng = np.random.default_rng(34)
        cases = [(rng.uniform(0.2, 2.0, d), rng.uniform(0.1, 1.0, d)) for _ in range(3)]
        cases.append((rng.uniform(0.2, 2.0, d), np.array([1e-3, 0.4, 1e-3])))  # correlations underflow
        if comp == "tensor":
            cases.append((np.array([0.0, 1.0, 1.0]), rng.uniform(0.1, 1.0, d)))
        for v, t in cases:
            if comp == "tensor":
                v = np.concatenate([v[:1], np.ones(d - 1)])
            p = HyperParams(v, t, float(rng.uniform(0.05, 0.5)), fam, comp)
            want = oracle_gradient(p, ds)
            np.testing.assert_allclose(nll_gradient(p, ds), want, rtol=1e-9)


def reference_solve(K, noise, Y):
    """The scipy-wrapper route the engine's direct LAPACK calls replaced: cholesky, cho_solve,
    dpotri and an np.tril fill, with the pivot test spelled out."""
    K = K.copy()
    K.flat[:: len(K) + 1] += noise
    L = cholesky(K, lower=True, check_finite=False)
    if np.min(np.diag(L)) ** 2 <= 1e-12 * np.trace(K) / K.shape[0]:
        raise np.linalg.LinAlgError("numerically singular")
    alpha = cho_solve((L, True), Y, check_finite=False)
    value = 2.0 * float(np.sum(np.log(np.diag(L)))) + float(Y @ alpha)
    W = dpotri(L, lower=1)[0]
    W += np.tril(W, -1).T
    return value, W - np.outer(alpha, alpha)


def reference_value_and_grad(p, ds):
    """(value, gradient) with one correlation call per direction and list-built products."""
    terms = [_corr(p.family, np.abs(x[:, None] - x[None, :]), t, dlog=True)
             for x, t in zip(ds.X.T, p.lengthscales)]
    if p.composition == "additive":
        value, W = reference_solve(sum(v * R for v, (R, _) in zip(p.variances, terms)), p.noise, ds.Y)
        WR = [W * R for R, _ in terms]
        grad = [x.sum() for x in WR] + [v * np.vdot(x, q) for v, x, (_, q) in zip(p.variances, WR, terms)]
    else:
        P = math.prod(R for R, _ in terms)
        value, W = reference_solve(np.prod(p.variances) * P, p.noise, ds.Y)
        WP = W * P
        grad = [np.prod(p.variances[1:]) * WP.sum()]
        grad += [np.prod(p.variances) * np.vdot(WP, q) for _, q in terms]
    return value, np.append(grad, np.trace(W))


def reference_direction(l, p, ds, x):
    """RLM's (sigma_l^2, theta_l, tau^2) objective, by the same route as reference_value_and_grad."""
    v, t, noise = x
    dist = [np.abs(c[:, None] - c[None, :]) for c in ds.X.T]
    K_rest = sum(vj * _corr(p.family, r, tj)
                 for j, (r, vj, tj) in enumerate(zip(dist, p.variances, p.lengthscales)) if j != l)
    R, q = _corr(p.family, dist[l], t, dlog=True)
    value, W = reference_solve(K_rest + v * R, noise, ds.Y)
    WR = W * R
    return value, np.array([WR.sum(), v * np.vdot(WR, q), np.trace(W)])


# An exactly singular design at tau^2 = 0: the four corners of a rectangle.
RECTANGLE = np.array([[0.2, 0.3], [0.7, 0.3], [0.2, 0.8], [0.7, 0.8]])


class TestLapackPath:
    @pytest.mark.parametrize("fam", ["gaussian", "matern32"])
    @pytest.mark.parametrize("n", [1, 2, 31, 60])
    def test_bit_identical_to_the_scipy_wrapper_route(self, fam, n):
        d = 3
        ds = random_dataset(n, d, 50 + n)
        rng = np.random.default_rng(51 + n)
        lik = _Likelihood(ds)
        for rep in range(3):
            v, t = rng.uniform(0.0, 2.0, d), rng.uniform(0.02, 1.5, d)
            v[rep] = 0.0  # a direction RLM has not turned on yet
            noise = float(10.0 ** rng.uniform(-6, 0))
            for comp in ("additive", "tensor"):
                vt = v if comp == "additive" else np.concatenate([v[:1] + 0.5, np.ones(d - 1)])
                p = HyperParams(vt, t, noise, fam, comp)
                value, g = lik(p)
                want_value, want_g = reference_value_and_grad(p, ds)
                assert value == want_value
                np.testing.assert_array_equal(g, want_g)
            p = HyperParams(v, t, noise, fam)
            for l in range(d):
                x = np.array([0.7 * v[l] + 0.1, 1.3 * t[l], 2.0 * noise])
                value, g = lik.direction(l, p)(x)
                want_value, want_g = reference_direction(l, p, ds, x)
                assert value == want_value
                np.testing.assert_array_equal(g, want_g)

    def test_indefinite_covariance_raises(self):
        # LAPACK's own refusal (info > 0), before the pivot test is reached.
        K = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert dpotrf(K.T.copy(), lower=1)[1] > 0
        with pytest.raises(np.linalg.LinAlgError):
            _Likelihood(random_dataset(2, 1, 52))._solve(K, 0.0)

    def test_singular_rectangle_raises_through_the_pivot_test(self):
        ds = Dataset(RECTANGLE, np.arange(4.0))
        p = HyperParams([1.0, 1.0], [0.6, 0.6], 0.0)
        K = cov_matrix(p.to_kernel(), RECTANGLE, 0.0)
        assert dpotrf(K.T.copy(), lower=1)[1] == 0  # LAPACK accepts it: only the pivot test refuses
        with pytest.raises(np.linalg.LinAlgError):
            nll_value_and_grad(p, ds)
        with pytest.raises(np.linalg.LinAlgError):
            _Likelihood(ds).direction(0, p)(np.array([1.0, 0.6, 0.0]))

    def test_optimize_local_turns_both_failures_into_the_sentinel(self, monkeypatch):
        # Direction 0 of the rectangle with sigma_1^2 = 1 fixed: sigma_0^2 = 0 leaves K = r_1,
        # which LAPACK refuses; sigma_0^2 = 1 gives K = r_0 + r_1, which the pivot test refuses.
        vg = _Likelihood(Dataset(RECTANGLE, np.arange(4.0))).direction(0, HyperParams([0.0, 1.0], [0.6, 0.6], 0.0))
        points = [np.array([0.0, 0.6, 0.0]), np.array([1.0, 0.6, 0.0])]
        for x in points:
            with pytest.raises(np.linalg.LinAlgError):
                vg(x)
        seen, real = [], estimate.minimize

        def probing(fun, x0, **kwargs):
            seen.extend(fun(x) for x in points)
            return real(fun, x0, **kwargs)

        monkeypatch.setattr(estimate, "minimize", probing)
        res = optimize_local(vg, [(0.0, 2.0), (0.1, 1.0), (0.0, 1.0)], [1.0, 0.6, 0.5])
        for x, (f, g) in zip(points, seen):
            assert f == estimate._SENTINEL * (1.0 + x @ x)
            np.testing.assert_array_equal(g, 2.0 * estimate._SENTINEL * x)
        assert np.isfinite(res.value) and res.value < estimate._SENTINEL


BAD_POINTS = [  # (variance, lengthscale, tau^2) outside the objective's domain
    (1.0, math.nan, 0.1), (1.0, 0.0, 0.1), (1.0, -0.2, 0.1), (1.0, math.inf, 0.1),
    (-1e-9, 0.5, 0.1), (math.nan, 0.5, 0.1), (math.inf, 0.5, 0.1),
    (1.0, 0.5, math.nan), (1.0, 0.5, -1e-9), (1.0, 0.5, math.inf),
]


class TestPerCallValidation:
    @pytest.mark.parametrize("v, t, noise", BAD_POINTS)
    def test_direction_rejects(self, v, t, noise):
        vg = _Likelihood(random_dataset(6, 2, 53)).direction(1, HyperParams([0.5, 0.0], [0.4, 0.5], 0.1))
        with pytest.raises(ValueError):
            vg(np.array([v, t, noise]))

    @pytest.mark.parametrize("v, t, noise", BAD_POINTS)
    @pytest.mark.parametrize("comp", ["additive", "tensor"])
    def test_nll_value_and_grad_rejects(self, v, t, noise, comp):
        ds = random_dataset(6, 2, 54)
        with pytest.raises(ValueError):
            nll_value_and_grad(HyperParams([v, 1.0], [0.4, t], noise, "matern32", comp), ds)

    def test_domain_edge_is_accepted(self):
        # Zero variances and zero noise are evaluable when K stays positive definite.
        ds = random_dataset(6, 2, 55)
        for p in (HyperParams([0.0, 0.0], [0.4, 0.5], 0.1), HyperParams([1.0, 0.0], [0.4, 0.5], 0.0)):
            assert np.isfinite(nll_value_and_grad(p, ds)[0])
        vg = _Likelihood(ds).direction(0, HyperParams([0.0, 0.5], [0.4, 0.5], 0.1))
        for x in ([0.0, 0.4, 0.1], [1.0, 0.4, 0.0]):
            assert np.isfinite(vg(np.array(x))[0])


class TestHyperParamsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"family": "foo"}, {"composition": "foo"}, {"noise": math.nan}, {"noise": math.inf},
        {"noise": -0.1},
    ])
    def test_rejects(self, kwargs):
        args = {"variances": [1.0, 1.0], "lengthscales": [0.3, 0.3], "noise": 0.1, **kwargs}
        with pytest.raises(ValueError):
            HyperParams(**args)

    def test_unknown_composition_fails_before_any_objective_call(self, monkeypatch):
        calls, real = [], estimate.cholesky
        monkeypatch.setattr(estimate, "cholesky", lambda *a, **k: calls.append(1) or real(*a, **k))
        with pytest.raises(ValueError, match="composition"):
            estimate_ulm(random_dataset(8, 2, 56), composition="foo")
        assert calls == []


class TestTracerContract:
    # The benchmark's tracer wraps these two names where estimate binds them.
    def test_names_bound_at_module_level(self):
        assert estimate.cholesky is dpotrf
        assert estimate.minimize is scipy.optimize.minimize

    def test_one_call_through_cholesky_per_objective_call(self, monkeypatch):
        ds = random_dataset(9, 3, 57)
        lik = _Likelihood(ds)
        calls, real = [], estimate.cholesky
        monkeypatch.setattr(estimate, "cholesky", lambda *a, **k: calls.append(1) or real(*a, **k))
        for comp in ("additive", "tensor"):
            calls.clear()
            lik(HyperParams([1.0, 1.0, 1.0], [0.3, 0.4, 0.5], 0.1, "gaussian", comp))
            assert len(calls) == 1
        calls.clear()
        lik.direction(2, HyperParams([1.0, 0.5, 0.0], [0.3, 0.4, 0.5], 0.1))(np.array([0.2, 0.5, 0.1]))
        assert len(calls) == 1


class TestOptimizeLocal:
    @staticmethod
    def quadratic(center):
        c = np.asarray(center, dtype=float)

        def vg(x):
            return float(np.sum((x - c) ** 2)), 2.0 * (x - c)

        return vg

    def test_interior_minimum(self):
        box = [(-1.0, 2.0), (-1.0, 2.0)]
        res = optimize_local(self.quadratic([0.5, -0.25]), box, [1.5, 1.5])
        np.testing.assert_allclose(res.x, [0.5, -0.25], atol=1e-4)
        assert res.value <= 1e-7
        assert res.converged

    def test_projection_onto_bounds(self):
        # Unconstrained minimum outside the box: the solution sits on the face
        # and satisfies the first-order conditions there.
        box = [(0.0, 1.0), (0.0, 1.0)]
        res = optimize_local(self.quadratic([2.0, 0.3]), box, [0.5, 0.5])
        np.testing.assert_allclose(res.x, [1.0, 0.3], atol=1e-4)

    def test_collapsed_bounds(self):
        box = [(0.7, 0.7), (0.7, 0.7)]
        res = optimize_local(self.quadratic([0.0, 0.0]), box, [0.7, 0.7])
        np.testing.assert_allclose(res.x, [0.7, 0.7])

    def test_counts_calls_and_never_worse_than_start(self):
        calls = []

        def vg(x):
            calls.append(1)
            return float(np.sum(x**2)), 2.0 * x

        box = [(-2.0, 2.0)]
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

        box = [(0.0, 1.0)]
        res = optimize_local(vg, box, [0.9])
        assert abs(res.x[0] - 0.6) < 1e-3

    def test_budget_exhaustion_flag(self):
        def vg(x):
            return float(np.sum((x - 0.3) ** 4)), 4.0 * (x - 0.3) ** 3

        box = [(-5.0, 5.0)] * 4
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

        box = [hb.variance, hb.lengthscale, hb.noise]
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

    def test_optimization_layout(self):
        # HyperBounds.box, HyperParams.from_vector and the gradient share one layout:
        # the variances (one for tensor), the lengthscales, then tau^2.
        hb = HyperBounds((0.0, 2.0), (0.1, 3.0), (1e-6, 1.0))
        for d in (1, 3):
            ds = random_dataset(8, d, 40)
            for comp in ("additive", "tensor"):
                box = hb.box(d, comp)
                n_var = d if comp == "additive" else 1
                assert box == [hb.variance] * n_var + [hb.lengthscale] * d + [hb.noise]
                v, t = np.linspace(0.5, 1.5, n_var), np.linspace(0.2, 0.8, d)
                p = HyperParams.from_vector(np.concatenate([v, t, [0.05]]), d, "matern32", comp)
                assert len(nll_value_and_grad(p, ds)[1]) == len(box)
                want_v = v if comp == "additive" else np.concatenate([v, np.ones(d - 1)])
                np.testing.assert_array_equal(p.variances, want_v)
                np.testing.assert_array_equal(p.lengthscales, t)
                assert (p.noise, p.family, p.composition) == (0.05, "matern32", comp)
            with pytest.raises(ValueError):
                HyperParams.from_vector(np.ones(2 * d), d)

    def test_bounds_validation(self):
        HyperBounds((0.7, 0.7), (0.1, 0.1), (0.0, 0.0))  # collapsed boxes are valid
        for lo_hi in [((1.0, 0.0), (0.1, 3.0), (1e-6, 1.0)), ((0.0, 1.0), (3.0, 0.1), (1e-6, 1.0)),
                      ((0.0, 1.0), (0.1, 3.0), (1.0, 1e-6))]:
            with pytest.raises(ValueError):
                HyperBounds(*lo_hi)

    @pytest.mark.parametrize("boxes", [
        ((0, 5), (0.0, 3.0), (1e-8, 1)),  # lengthscale lower bound 0
        ((0, 5), (-0.1, 3.0), (1e-8, 1)),
        ((-1.0, 5), (1e-3, 3.0), (1e-8, 1)),  # negative variance
        ((0, 5), (1e-3, 3.0), (-1e-8, 1)),  # negative noise
        ((0, math.inf), (1e-3, 3.0), (1e-8, 1)),
        ((0, 5), (1e-3, 3.0), (1e-8, math.nan)),
        ((0, 5), (-math.inf, 3.0), (1e-8, 1)),
    ])
    def test_bounds_reject_boxes_the_objective_cannot_evaluate(self, boxes):
        with pytest.raises(ValueError):
            HyperBounds(*boxes)

    def test_bounds_at_the_objective_domain_edge_are_valid(self):
        # Zero variances and zero noise are evaluable; so are collapsed boxes there.
        hb = HyperBounds((0.0, 0.0), (1e-3, 1e-3), (0.0, 0.0))
        assert hb.box(2) == [(0.0, 0.0)] * 2 + [(1e-3, 1e-3)] * 2 + [(0.0, 0.0)]

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
