import importlib.util
import math
from pathlib import Path

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
)
import addkrig
from addkrig import _lbfgsb, bench, cli, estimate, gp, kernels
from addkrig._lbfgsb import minimize
from addkrig.bench import lhs_maximin, sample_gp_path
from addkrig.estimate import _Likelihood, nll_value_and_grad, write_traces
from addkrig.gp import fit_gp
from addkrig.kernels import _corr, cov_matrix
from kernel_oracle import grad_cov_matrix


def dense_nll(params, dataset):
    """Independent oracle: explicit slogdet + solve, no Cholesky reuse."""
    K = cov_matrix(params, dataset.X, params.noise)
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
            return nll_value_and_grad(HyperParams(*estimate._split(x, 2, comp), fam, comp), ds)

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
    """<K^-1, G> - alpha^T G alpha with each G = dK/dp from the test oracle grad_cov_matrix."""
    K = cov_matrix(params, dataset.X, params.noise)
    factor = cho_factor(K, lower=True)
    Kinv = cho_solve(factor, np.eye(dataset.n))
    alpha = cho_solve(factor, dataset.Y)
    ids = [f"variance_{i}" for i in range(params.dims if params.is_additive else 1)]
    ids += [f"lengthscale_{i}" for i in range(params.dims)] + ["noise"]
    grads = [grad_cov_matrix(params, dataset.X, params.noise, pid) for pid in ids]
    return np.array([np.sum(Kinv * G) - alpha @ G @ alpha for G in grads])


def ulm_objective(ds, family, composition):
    """The objective estimate_ulm hands to the L-BFGS-B loop, caught at its one run."""
    seen = []

    def catch(value_and_grad, *args, **kwargs):
        seen.append(value_and_grad)
        raise np.linalg.LinAlgError("caught")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "minimize", catch)
        with pytest.raises(np.linalg.LinAlgError, match="caught"):
            estimate_ulm(ds, family, composition)
    return seen[0]


class TestLikelihoodEngine:
    @pytest.mark.parametrize("run", [
        lambda ds: estimate_rlm(ds, family="matern32", n_iterations=2),
        lambda ds: estimate_ulm(ds, composition="additive", max_evals=200),
        lambda ds: estimate_ulm(ds, family="matern32", composition="tensor", max_evals=200),
    ], ids=["rlm", "ulm-additive", "ulm-tensor"])
    def test_objective_builds_no_kernel_objects(self, run, monkeypatch):
        # Kernels (HyperParams among them) are built per inner run and for the result, never per
        # objective call: RLM builds one per direction visit plus the result, ULM the result alone.
        def refuse(*args, **kwargs):
            raise AssertionError("kernel assembly on the objective path")

        for name in ("cov_matrix", "cross_cov", "make_kernel"):
            monkeypatch.setattr(kernels, name, refuse)
            monkeypatch.setattr(estimate, name, refuse, raising=False)
        for name in ("__post_init__", "corr"):
            monkeypatch.setattr(kernels.UnivariateKernel, name, refuse)
        built, real = [], kernels.AdditiveKernel.__post_init__
        monkeypatch.setattr(kernels.AdditiveKernel, "__post_init__", lambda k: built.append(1) or real(k))
        res = run(random_dataset(12, 3, 30))
        inner_runs = len(res.trace.records)
        assert res.trace.total_calls > 4 * inner_runs
        assert np.isfinite(res.best_value)
        rlm = all(r.direction > 0 for r in res.trace.records)
        assert len(built) == (inner_runs + 1 if rlm else 1)

    @pytest.mark.parametrize("fam", ["gaussian", "matern32"])
    @pytest.mark.parametrize("comp", ["additive", "tensor"])
    def test_ulm_objective_is_bit_identical_to_nll_value_and_grad(self, fam, comp):
        d = 3
        ds = random_dataset(12, d, 35)
        rng = np.random.default_rng(36)
        vg = ulm_objective(ds, fam, comp)
        box = HyperBounds((0.0, 2.0), (0.05, 1.0), (1e-6, 0.5)).box(d, comp)
        for _ in range(3):
            x = rng.uniform(*box)
            value, g = vg(x)
            want_value, want_g = nll_value_and_grad(HyperParams(*estimate._split(x, d, comp), fam, comp), ds)
            assert value == want_value
            np.testing.assert_array_equal(g, want_g)

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


class TestReusedBuffers:
    @pytest.mark.parametrize("fam", ["gaussian", "matern32"])
    def test_interleaved_calls_match_a_fresh_engine(self, fam):
        # The engine's R/q buffers and each direction closure's pair are overwritten by
        # every call; no result may depend on what an earlier call left in them.
        d = 3
        ds = random_dataset(17, d, 41)
        rng = np.random.default_rng(42)

        def params(comp="additive"):
            v = rng.uniform(0.1, 2.0, d)
            if comp == "tensor":
                v[1:] = 1.0
            return HyperParams(v, rng.uniform(0.05, 1.0, d), float(rng.uniform(1e-3, 0.3)), fam, comp)

        lik = _Likelihood(ds)
        p0, p2 = params(), params()
        first, last = lik.direction(0, p0), lik.direction(d - 1, p2)
        add, tensor, x0, x2 = params(), params("tensor"), rng.uniform(0.1, 1.0, 3), rng.uniform(0.1, 1.0, 3)
        # Calls repeat with others in between, so anything a call read back from a buffer shows.
        calls = [(lik, add), (first, x0), (lik, add), (last, x2), (lik, tensor), (first, x0), (last, x2),
                 (lik, tensor), (first, rng.uniform(0.1, 1.0, 3)), (lik, params()), (last, x2)]
        for f, arg in calls:
            value, grad = f(arg)
            if f is lik:
                want_value, want_grad = _Likelihood(ds)(arg)
            else:
                l, p = (0, p0) if f is first else (d - 1, p2)
                want_value, want_grad = _Likelihood(ds).direction(l, p)(arg)
            assert value == want_value
            np.testing.assert_array_equal(grad, want_grad)


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
        K = cov_matrix(p, RECTANGLE, 0.0)
        assert dpotrf(K.T.copy(), lower=1)[1] == 0  # LAPACK accepts it: only the pivot test refuses
        with pytest.raises(np.linalg.LinAlgError):
            nll_value_and_grad(p, ds)
        with pytest.raises(np.linalg.LinAlgError):
            _Likelihood(ds).direction(0, p)(np.array([1.0, 0.6, 0.0]))

    def test_optimize_local_turns_both_failures_into_the_sentinel(self, monkeypatch):
        # Direction 0 of the rectangle with sigma_1^2 = 1 fixed: sigma_0^2 = 0 leaves K = r_1,
        # which LAPACK refuses; sigma_0^2 = 1 gives K = r_0 + r_1, which the pivot test refuses.
        # A run started there hands setulb that point's (f, g) on its second call.
        vg = _Likelihood(Dataset(RECTANGLE, np.arange(4.0))).direction(0, HyperParams([0.0, 1.0], [0.6, 0.6], 0.0))
        fed, real = [], _lbfgsb._scipy_lbfgsb.setulb

        def recording(m, x, low, up, nbd, f, g, *rest):
            fed.append((x.copy(), float(f), g.copy()))
            return real(m, x, low, up, nbd, f, g, *rest)

        monkeypatch.setattr(_lbfgsb._scipy_lbfgsb, "setulb", recording)
        for x in (np.array([0.0, 0.6, 0.0]), np.array([1.0, 0.6, 0.0])):
            with pytest.raises(np.linalg.LinAlgError):
                vg(x)
            fed.clear()
            with pytest.raises(np.linalg.LinAlgError, match="never evaluated successfully"):
                minimize(vg, *as_box([(0.0, 2.0), (0.1, 1.0), (0.0, 1.0)]), x)
            (x0, _, _), (x1, f, g) = fed[:2]
            np.testing.assert_array_equal(x0, x)
            np.testing.assert_array_equal(x1, x)
            assert f == _lbfgsb._SENTINEL * (1.0 + x @ x)
            np.testing.assert_array_equal(g, 2.0 * _lbfgsb._SENTINEL * x)


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

    @pytest.mark.parametrize("v, t, noise", BAD_POINTS)
    @pytest.mark.parametrize("comp", ["additive", "tensor"])
    def test_ulm_objective_rejects(self, v, t, noise, comp):
        # The optimizer's vector reaches the engine without a HyperParams, so the engine checks it.
        vg = ulm_objective(random_dataset(6, 2, 54), "matern32", comp)
        x = [v, 1.0, 0.4, t, noise] if comp == "additive" else [v, 0.4, t, noise]
        with pytest.raises(ValueError):
            vg(np.array(x))

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
        # what no kernel accepts, refused by AdditiveKernel's own checks
        {"variances": [-0.1, 1.0]}, {"variances": [math.nan, 1.0]}, {"lengthscales": [0.3, 0.0]},
        {"lengthscales": [math.nan, 0.3]}, {"lengthscales": [0.3, math.inf]},
        {"variances": [], "lengthscales": []}, {"lengthscales": [0.3]},
        {"variances": [-0.1, 1.0], "composition": "tensor"}, {"lengthscales": [0.0, 0.3], "composition": "tensor"},
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

    def test_unknown_family_fails_before_any_objective_call(self, monkeypatch):
        calls, real = [], estimate.cholesky
        monkeypatch.setattr(estimate, "cholesky", lambda *a, **k: calls.append(1) or real(*a, **k))
        with pytest.raises(ValueError, match="family"):
            estimate_ulm(random_dataset(8, 2, 56), family="foo")
        assert calls == []


class TestTracerContract:
    # The benchmark's tracer wraps these two names where estimate binds them.
    def test_names_bound_at_module_level(self):
        assert estimate.cholesky is gp._factor
        assert estimate.minimize is _lbfgsb.minimize

    @staticmethod
    def benchmark_tracer():
        """perfbench/tracer.py's Tracer, loaded as the benchmark loads it."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.Tracer()

    def test_benchmark_tracer_sees_one_lbfgsb_span_per_inner_run(self):
        # On a tiny paths study: a missing estimate.minimize would crash install(), and a second
        # wrapper around the L-BFGS-B loop would show as an estimate.minimize span holding all of
        # estimate.lbfgsb's time.
        tracer = self.benchmark_tracer()
        tracer.install()
        try:
            report = bench.run_paths_benchmark(bench.PathsBenchConfig(
                dims=(2,), n_paths=2, points_per_dim=6, rlm_iterations=2, lhs_steps=20))
        finally:
            tracer.uninstall()
        assert not report.failures
        spans = tracer.summary()
        assert spans["estimate.lbfgsb"]["calls"] == sum(len(t.records) for t in report.traces.values())
        assert spans["estimate.cholesky"]["calls"] == sum(r.n_calls_total for r in report.records)
        assert "estimate.minimize" not in spans

    def test_benchmark_tracer_counts_m_n_d_cross_cov_cells(self, tmp_path):
        # The surrogate workload's kernels.cross_cov.cells: the tracer reads m * n * d off each
        # call's (kernel, X, Y) arguments and kernel.dims, so every blocked query pass must add
        # up to it: one cross_cov per block of rows, with dims = 1 for a direction's pass.
        ds = random_dataset(10, 3, 58)
        model = fit_gp(make_kernel("matern32", [1.0, 0.5, 2.0], [0.3, 0.4, 0.5]), ds, 1e-3)
        m = 1207  # three blocks
        pts, grid = np.random.default_rng(59).uniform(size=(m, 3)), np.linspace(0.0, 1.0, m)
        model.save(tmp_path / "model.json")
        np.savetxt(tmp_path / "points.csv", pts, delimiter=",")
        model_arg = ["--model", str(tmp_path / "model.json")]
        runs = {  # name: (query pass, dims of its kernel)
            "predict_var": (lambda: addkrig.predict_var(model, pts), 3),
            "sub_model": (lambda: addkrig.sub_model(model, 1, grid), 1),
            "centered_effect": (lambda: addkrig.centered_effect(model, 2, grid), 1),
            "cli predict": (lambda: cli.main(["predict", *model_arg, "--points", str(tmp_path / "points.csv"),
                                              "--out", str(tmp_path / "p")]), 3),
            "cli effects": (lambda: cli.main(["effects", *model_arg, "--direction", "2", "--grid-size",
                                              str(m), "--out", str(tmp_path / "e")]), 1),
        }
        for name, (run, dims) in runs.items():
            tracer = self.benchmark_tracer()
            tracer.install()
            try:
                out = run()
            finally:
                tracer.uninstall()
            assert not name.startswith("cli") or out == 0, name
            row = tracer.summary()["kernels.cross_cov"]
            assert (row["calls"], row["cells"]) == (3, m * ds.n * dims), name

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
    # The L-BFGS-B loop itself, on boxes given here as one (lower, upper) pair per entry.
    @staticmethod
    def quadratic(center):
        c = np.asarray(center, dtype=float)

        def vg(x):
            return float(np.sum((x - c) ** 2)), 2.0 * (x - c)

        return vg

    def test_interior_minimum(self):
        box = as_box([(-1.0, 2.0), (-1.0, 2.0)])
        res = minimize(self.quadratic([0.5, -0.25]), *box, [1.5, 1.5])
        np.testing.assert_allclose(res.x, [0.5, -0.25], atol=1e-4)
        assert res.value <= 1e-7
        assert res.converged

    def test_projection_onto_bounds(self):
        # Unconstrained minimum outside the box: the solution sits on the face
        # and satisfies the first-order conditions there.
        box = as_box([(0.0, 1.0), (0.0, 1.0)])
        res = minimize(self.quadratic([2.0, 0.3]), *box, [0.5, 0.5])
        np.testing.assert_allclose(res.x, [1.0, 0.3], atol=1e-4)

    def test_collapsed_bounds(self):
        box = as_box([(0.7, 0.7), (0.7, 0.7)])
        res = minimize(self.quadratic([0.0, 0.0]), *box, [0.7, 0.7])
        np.testing.assert_allclose(res.x, [0.7, 0.7])

    def test_counts_calls_and_never_worse_than_start(self):
        calls = []

        def vg(x):
            calls.append(1)
            return float(np.sum(x**2)), 2.0 * x

        res = minimize(vg, *as_box([(-2.0, 2.0)]), [1.0])
        assert res.n_calls == len(calls)
        assert res.value <= 1.0

    def test_sentinel_on_linalg_error(self):
        # Infeasible left half: the optimizer must still find the right-half
        # minimum instead of crashing.
        def vg(x):
            if x[0] < 0.2:
                raise np.linalg.LinAlgError("bad point")
            return float((x[0] - 0.6) ** 2), np.array([2.0 * (x[0] - 0.6)])

        res = minimize(vg, *as_box([(0.0, 1.0)]), [0.9])
        assert abs(res.x[0] - 0.6) < 1e-3

    def test_budget_exhaustion_flag(self):
        def vg(x):
            return float(np.sum((x - 0.3) ** 4)), 4.0 * (x - 0.3) ** 3

        res = minimize(vg, *as_box([(-5.0, 5.0)] * 4), [4.0] * 4, max_evals=3)
        assert res.n_calls >= 3
        assert not res.converged

    # setulb reads n off x and trusts the other arrays, so the start and box must share one shape.
    @pytest.mark.parametrize("bounds, start", [
        ([(0.0, 1.0)] * 3, [[0.5, 0.5, 0.5]]),  # a start of two dimensions
        ([(0.0, 1.0)] * 3, [0.5, 0.5]),  # a start shorter than the box
        ([(0.0, 1.0)] * 2, [0.5] * 3),  # a start longer than the box
    ])
    def test_start_that_scipy_refuses_raises_before_any_call(self, bounds, start):
        calls = []

        def vg(x):
            calls.append(1)
            return float(x @ x), 2.0 * x

        with pytest.raises(ValueError):
            minimize(vg, *as_box(bounds), start)
        with pytest.raises(ValueError):
            scipy_optimize_local(vg, *as_box(bounds), start)
        assert not calls

    @pytest.mark.parametrize("bounds, start", [
        ([(0.0, 1.0)] * 3, [0.9]),  # one start entry for a box of three
        ([(0.0, 1.0)] * 3, 0.9),
        ([(-1.0, 1.0)], [0.9, 0.5, -0.7]),  # one bound for a start of three
        ([(0.0, 1.0)], 0.9),  # a scalar start for one parameter
    ])
    def test_broadcast_start_or_box_raises(self, bounds, start):
        # scipy broadcasts these; here they must match exactly.
        calls = []

        def vg(x):
            calls.append(1)
            return float(x @ x), 2.0 * x

        with pytest.raises(ValueError, match="one shape"):
            minimize(vg, *as_box(bounds), start)
        assert not calls

    @pytest.mark.parametrize("grad", [lambda x: 2.0 * x[:2], lambda x: np.append(2.0 * x, 0.0)])
    def test_gradient_of_another_size_raises(self, grad):
        with pytest.raises(ValueError, match="gradient of"):
            minimize(lambda x: (float(x @ x), grad(x)), *as_box([(0.0, 1.0)] * 3), [0.5] * 3)

    def test_scalar_and_column_gradients_raise(self):
        # A gradient is an array of shape (n,); one holding n entries in another shape is refused.
        with pytest.raises(ValueError, match="gradient of"):
            minimize(lambda x: (float(x @ x), 2.0 * x[0]), *as_box([(-1.0, 1.0)]), [0.5])
        with pytest.raises(ValueError, match="gradient of"):
            minimize(lambda x: (float(x @ x), 2.0 * x[:, None]), *as_box([(-1.0, 1.0)] * 2), [0.5, 0.3])


def as_box(pairs):
    """(lower, upper) float arrays, as HyperBounds.box gives them, from one pair per entry."""
    lower, upper = np.array(pairs, dtype=float).T
    return lower.copy(), upper.copy()


def scipy_optimize_local(value_and_grad, lower, upper, start, max_evals=1000):
    """The L-BFGS-B loop's contract on scipy.optimize.minimize, which the setulb loop replaced:
    the reference that loop must reproduce bit for bit."""
    start = np.clip(np.asarray(start, dtype=float), lower, upper)
    n_calls = 0
    best = {"x": None, "f": np.inf}

    def wrapped(x):
        nonlocal n_calls
        n_calls += 1
        try:
            f, g = value_and_grad(x)
        except np.linalg.LinAlgError:
            scale = 1.0 + float(np.sum(np.square(x)))
            return _lbfgsb._SENTINEL * scale, 2.0 * _lbfgsb._SENTINEL * x
        if not np.isfinite(f):
            return _lbfgsb._SENTINEL, np.zeros_like(x)
        if f < best["f"]:
            best["f"] = f
            best["x"] = np.array(x)
        return f, np.asarray(g, dtype=float)

    res = scipy.optimize.minimize(wrapped, start, jac=True, method="L-BFGS-B",
                                  bounds=list(zip(lower, upper)), options={"maxfun": max_evals})
    exhausted = n_calls >= max_evals and not res.success
    return _lbfgsb.OptResult(np.clip(best["x"], lower, upper), best["f"], n_calls, not exhausted)


def assert_same_run(value_and_grad, lower, upper, start, max_evals=1000):
    """minimize and the scipy reference evaluate the same points and return the same result."""
    runs = []
    for optimizer in (minimize, scipy_optimize_local):
        points = []

        def recording(x):
            points.append(x.copy())
            return value_and_grad(x)

        runs.append((optimizer(recording, lower, upper, start, max_evals), points))
    (got, got_points), (want, want_points) = runs
    assert got.n_calls == want.n_calls == len(got_points) == len(want_points)
    for a, b in zip(got_points, want_points):
        np.testing.assert_array_equal(a, b)
    assert got.value == want.value and got.converged == want.converged
    np.testing.assert_array_equal(got.x, want.x)
    return got


def quartic(x):
    return float(np.sum((x - 0.3) ** 4)), 4.0 * (x - 0.3) ** 3


def half_infeasible(x):
    if x[0] < 0.2:
        raise np.linalg.LinAlgError("bad point")
    return float((x[0] - 0.6) ** 2), np.array([2.0 * (x[0] - 0.6)])


def study_dataset(n, d, seed=0):
    """A GP path on a maximin design, centered, as the paths study draws them."""
    X = lhs_maximin(n, d, seed=seed + d, n_improvement_steps=200)
    Y = sample_gp_path(make_kernel("gaussian", np.ones(d), np.full(d, 0.2)), X, seed=seed)
    return Dataset(X, Y - np.mean(Y))


class TestScipyOracle:
    # The setulb loop against scipy.optimize.minimize: same points, calls, result and flag.
    @pytest.mark.parametrize("vg, bounds, start, max_evals", [
        (TestOptimizeLocal.quadratic([0.5, -0.25]), [(-1.0, 2.0)] * 2, [1.5, 1.5], 1000),
        (TestOptimizeLocal.quadratic([2.0, 0.3]), [(0.0, 1.0)] * 2, [0.5, 0.5], 1000),
        (TestOptimizeLocal.quadratic([0.0, 0.0]), [(0.7, 0.7)] * 2, [0.7, 0.7], 1000),
        (TestOptimizeLocal.quadratic([0.0, 0.0]), [(0.7, 0.7), (-1.0, 1.0)], [3.0, 0.9], 1000),
        (TestOptimizeLocal.quadratic([0.0]), [(-2.0, 2.0)], [1.0], 1000),
        (half_infeasible, [(0.0, 1.0)], [0.9], 1000),
        (quartic, [(-5.0, 5.0)] * 4, [4.0] * 4, 1000),
    ], ids=["interior", "projection", "collapsed", "partly-collapsed", "square", "half-infeasible",
            "quartic"])
    def test_small_objectives(self, vg, bounds, start, max_evals):
        assert_same_run(vg, *as_box(bounds), start, max_evals)

    def test_budget_exhaustion(self):
        for k in (1, 2, 3, 4, 5):
            assert not assert_same_run(quartic, *as_box([(-5.0, 5.0)] * 4), [4.0] * 4, k).converged

    def test_sentinel_objective(self):
        vg = _Likelihood(Dataset(RECTANGLE, np.arange(4.0))).direction(0, HyperParams([0.0, 1.0], [0.6, 0.6], 0.0))
        res = assert_same_run(vg, *as_box([(0.0, 2.0), (0.1, 1.0), (0.0, 1.0)]), [1.0, 0.6, 0.5])
        assert res.value < _lbfgsb._SENTINEL

    @pytest.mark.parametrize("n, d", [(30, 3), (60, 6)])
    def test_rlm_directions_on_study_data(self, n, d):
        ds = study_dataset(n, d)
        hb = default_bounds(ds)
        lik, kick = _Likelihood(ds), 0.05 * hb.variance[1] / 10.0
        variances, lengthscales = np.zeros(d), np.full(d, 0.5)
        for l in range(d):  # the first RLM cycle: each visit warm-starts from the previous ones
            vg = lik.direction(l, HyperParams(variances, lengthscales, hb.noise[1]))
            res = assert_same_run(vg, *hb.box(1), [kick, 0.5, hb.noise[1]], max_evals=200)
            variances[l], lengthscales[l] = res.x[0], res.x[1]

    @pytest.mark.parametrize("n, d", [(30, 3), (60, 6)])
    @pytest.mark.parametrize("comp", ["additive", "tensor"])
    def test_ulm_on_study_data(self, n, d, comp):
        ds = study_dataset(n, d)
        lower, upper = default_bounds(ds).box(d, comp)
        vg = ulm_objective(ds, "gaussian", comp)
        assert_same_run(vg, lower, upper, (lower + upper) / 2, max_evals=5000)


    @pytest.mark.parametrize("run", [
        lambda ds: estimate_rlm(ds, n_iterations=3),
        lambda ds: estimate_ulm(ds, composition="additive"),
        lambda ds: estimate_ulm(ds, composition="tensor"),
    ], ids=["rlm", "ulm-additive", "ulm-tensor"])
    def test_whole_fits_on_study_data(self, run, monkeypatch):
        ds = study_dataset(30, 3)
        got = run(ds)
        monkeypatch.setattr(estimate, "minimize", scipy_optimize_local)
        want = run(ds)
        assert got.trace == want.trace and got.best_value == want.best_value
        assert got.converged == want.converged
        np.testing.assert_array_equal(got.params.variances, want.params.variances)
        np.testing.assert_array_equal(got.params.lengthscales, want.params.lengthscales)
        assert got.params.noise == want.params.noise


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
        a = estimate_ulm(ds)
        b = estimate_ulm(ds)
        np.testing.assert_array_equal(a.params.variances, b.params.variances)
        np.testing.assert_array_equal(a.params.lengthscales, b.params.lengthscales)
        assert a.best_value == b.best_value

    def test_one_run_from_the_box_midpoint(self, monkeypatch):
        ds = random_dataset(10, 2, 9)
        lower, upper = default_bounds(ds).box(2)
        starts, real = [], estimate.minimize
        monkeypatch.setattr(estimate, "minimize",
                            lambda vg, lo, up, x0, **kw: starts.append(x0) or real(vg, lo, up, x0, **kw))
        res = estimate_ulm(ds)
        assert len(starts) == 1 and len(res.trace.records) == 1
        np.testing.assert_array_equal(starts[0], (lower + upper) / 2)
        assert (res.trace.records[0].iteration, res.trace.records[0].direction) == (1, 0)

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

    def test_a_run_that_never_evaluates_raises(self, monkeypatch):
        def infeasible(*args):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(_Likelihood, "_evaluate", infeasible)
        with pytest.raises(np.linalg.LinAlgError, match="never evaluated successfully"):
            estimate_ulm(random_dataset(5, 1, 11))


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

        replay = minimize(vg, *hb.box(1), [kick, theta0, hb.noise[1]], max_evals=200)
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

    def test_additivity_ratio_refuses_tensor_params(self):
        # A tensor fit's variances are [sigma^2, 1, ..., 1]: summing them counts the padding.
        with pytest.raises(ValueError, match="additive"):
            additivity_ratio(HyperParams([2.3, 1.0, 1.0], [0.5, 0.5, 0.5], 0.5, "gaussian", "tensor"))

    def test_default_bounds_scaled_to_variance(self):
        ds = Dataset([[0.1], [0.5], [0.9]], [0.0, 3.0, 0.0])
        hb = default_bounds(ds)
        var_y = np.var([0.0, 3.0, 0.0])
        assert hb.variance == (0.0, pytest.approx(10 * var_y))
        assert hb.noise[1] == pytest.approx(var_y)
        with pytest.raises(ValueError):
            default_bounds(Dataset([[0.1], [0.9]], [1.0, 1.0]))

    def test_optimization_layout(self):
        # HyperBounds.box, _split and the gradient share one layout:
        # the variances (one for tensor), the lengthscales, then tau^2.
        hb = HyperBounds((0.0, 2.0), (0.1, 3.0), (1e-6, 1.0))
        for d in (1, 3):
            ds = random_dataset(8, d, 40)
            for comp in ("additive", "tensor"):
                lower, upper = hb.box(d, comp)
                n_var = d if comp == "additive" else 1
                for got, i in ((lower, 0), (upper, 1)):
                    want = [hb.variance[i]] * n_var + [hb.lengthscale[i]] * d + [hb.noise[i]]
                    assert got.dtype == np.float64 and got.flags.c_contiguous
                    np.testing.assert_array_equal(got, want)
                v, t = np.linspace(0.5, 1.5, n_var), np.linspace(0.2, 0.8, d)
                p = HyperParams(*estimate._split(np.concatenate([v, t, [0.05]]), d, comp), "matern32", comp)
                assert len(nll_value_and_grad(p, ds)[1]) == len(lower)
                want_v = v if comp == "additive" else np.concatenate([v, np.ones(d - 1)])
                np.testing.assert_array_equal(p.variances, want_v)
                np.testing.assert_array_equal(p.lengthscales, t)
                assert (p.noise, p.family, p.composition) == (0.05, "matern32", comp)

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
        ((None, 1.0), (0.1, 1.0), (0.0, 1.0)),  # not a number: ValueError, not math's TypeError
        ((0, 5), (1e-3, "3.0"), (1e-8, 1)),
    ])
    def test_bounds_reject_boxes_the_objective_cannot_evaluate(self, boxes):
        with pytest.raises(ValueError):
            HyperBounds(*boxes)

    def test_box_rejects_an_unknown_composition(self):
        hb = HyperBounds((0, 1), (0.1, 1), (0, 1))
        with pytest.raises(ValueError, match="composition"):
            hb.box(2, "foo")

    def test_bounds_at_the_objective_domain_edge_are_valid(self):
        # Zero variances and zero noise are evaluable; so are collapsed boxes there.
        hb = HyperBounds((0.0, 0.0), (1e-3, 1e-3), (0.0, 0.0))
        for bound in hb.box(2):
            np.testing.assert_array_equal(bound, [0.0, 0.0, 1e-3, 1e-3, 0.0])

    def test_trace_csv(self, tmp_path):
        ds = random_dataset(8, 1, 19)
        res = estimate_rlm(ds, n_iterations=1)
        write_traces(tmp_path / "trace.csv", {"abc": res.trace})
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
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
                    model = fit_gp(p, ds, p.noise)
                    weights = cho_solve((model.factor, True), ds.Y)
                    log_det = 2.0 * np.sum(np.log(np.diag(model.factor)))
                    assert log_det + ds.Y @ weights == pytest.approx(value, rel=1e-12)
                    K = cov_matrix(p, X, noise)
                    pivot = np.min(np.diag(model.factor)) ** 2 / (np.trace(K) / len(X))
                    near_singular += 1e-12 < pivot <= 1e-8
        assert near_singular > 0
