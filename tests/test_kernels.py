import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from addkrig import (
    AdditiveKernel,
    Dataset,
    FittedGP,
    UnivariateKernel,
    cov_matrix,
    double_integral_univariate,
    fit_gp,
    integral_univariate,
    make_kernel,
)
from addkrig.kernels import _CHUNK, _corr, cross_cov
from kernel_oracle import grad_cov_matrix


def gauss_legendre_integral(spec, x, nodes=128):
    """Independent quadrature oracle for the single integral over [0, 1].

    The integrand has a kink at s = x (Matern families), so the panel is split
    there to keep Gauss-Legendre at full accuracy.
    """
    t, w = leggauss(nodes)
    total = 0.0
    breaks = [0.0] + ([x] if 0.0 < x < 1.0 else []) + [1.0]
    for a, b in zip(breaks, breaks[1:]):
        s = 0.5 * (b - a) * (t + 1.0) + a
        total += 0.5 * (b - a) * float(np.sum(w * spec(x, s)))
    return total


def eval_kernel(kernel, x, y):
    """The composed kernel at one pair of d-vectors."""
    return float(cross_cov(kernel, np.atleast_2d(x), np.atleast_2d(y))[0, 0])


def quadrature_double(spec):
    from scipy.integrate import dblquad

    val, _ = dblquad(lambda s, t: float(spec(s, t)), 0.0, 1.0, 0.0, 1.0, epsabs=1e-11)
    return val


class TestUnivariate:
    def test_gaussian_diagonal(self):
        spec = UnivariateKernel("gaussian", 1.0, 0.6)
        assert spec(0.3, 0.3) == pytest.approx(1.0)

    def test_gaussian_offdiagonal(self):
        spec = UnivariateKernel("gaussian", 1.0, 0.6)
        assert spec(0.0, 0.6) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_matern_diagonal(self):
        spec = UnivariateKernel("matern32", 2.0, 0.2)
        assert spec(0.0, 0.0) == pytest.approx(2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for fam in ("gaussian", "matern32"):
            spec = UnivariateKernel(fam, 1.7, 0.4)
            for x, y in rng.uniform(size=(20, 2)):
                assert spec(x, y) == pytest.approx(
                    spec(y, x), rel=1e-14
                )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            UnivariateKernel("gaussian", -1.0, 0.5)
        with pytest.raises(ValueError):
            UnivariateKernel("gaussian", 1.0, 0.0)
        with pytest.raises(ValueError):
            UnivariateKernel("cubic", 1.0, 0.5)


class TestComposed:
    def test_additive_diagonal(self):
        k = make_kernel("gaussian", [1.0, 1.0], [0.6, 0.6])
        assert eval_kernel(k, [0.3, 0.9], [0.3, 0.9]) == pytest.approx(2.0)

    def test_additive_offdiagonal(self):
        k = make_kernel("gaussian", [1.0, 1.0], [0.6, 0.6])
        assert eval_kernel(k, [0.0, 0.0], [0.6, 0.0]) == pytest.approx(
            math.exp(-0.5) + 1.0, rel=1e-12
        )

    def test_tensor_offdiagonal(self):
        k = make_kernel("gaussian", [1.0, 1.0], [0.6, 0.6], "tensor")
        assert eval_kernel(k, [0.0, 0.0], [0.6, 0.0]) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )

    def test_dimension_mismatch(self):
        k = make_kernel("gaussian", [1.0, 1.0], [0.6, 0.6])
        with pytest.raises(ValueError):
            eval_kernel(k, [0.0], [0.0, 0.0])

    def test_rectangle_identity(self):
        # For additive kernels K(x,y)+K(x',y') = K(x,y')+K(x',y) whenever x,x'
        # differ only in direction i and y,y' only in direction j != i.
        rng = np.random.default_rng(1)
        k = make_kernel("matern32", [1.0, 0.5, 2.0], [0.3, 0.7, 0.2])
        for _ in range(50):
            x = rng.uniform(size=3)
            y = rng.uniform(size=3)
            xp = x.copy()
            yp = y.copy()
            xp[0] = rng.uniform()
            yp[2] = rng.uniform()
            lhs = eval_kernel(k, x, y) + eval_kernel(k, xp, yp)
            rhs = eval_kernel(k, x, yp) + eval_kernel(k, xp, y)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestArrayKernel:
    @pytest.mark.parametrize("args", [
        ("cubic", [1.0], [0.5], "additive"),
        ("gaussian", [1.0], [0.5], "sum"),
        ("gaussian", [1.0, -1.0], [0.5, 0.5], "additive"),
        ("matern32", [math.nan], [0.5], "tensor"),
        ("gaussian", [1.0], [0.0], "additive"),
        ("matern32", [1.0, 1.0], [0.5, -0.5], "tensor"),
        ("gaussian", [1.0, 1.0], [0.5], "additive"),
        ("gaussian", [], [], "additive"),
        ("gaussian", [[1.0, 1.0]], [[0.5, 0.5]], "additive"),
    ], ids=["family", "composition", "negative-variance", "nan-variance", "zero-lengthscale",
            "negative-lengthscale", "mismatched-lengths", "no-directions", "2-d"])
    def test_rejects_parameters_no_kernel_accepts(self, args):
        assert make_kernel is AdditiveKernel
        with pytest.raises(ValueError):
            AdditiveKernel(*args)

    def test_holds_read_only_float_copies_of_its_arrays(self):
        v, t = [1, 2], np.array([0.3, 0.5])
        k = make_kernel("gaussian", v, t)
        t[0] = 9.0
        assert k.variances.dtype == k.lengthscales.dtype == float
        np.testing.assert_array_equal(k.lengthscales, [0.3, 0.5])
        with pytest.raises(ValueError, match="read-only"):
            k.variances[0] = -1.0
        assert make_kernel("gaussian", 2.0, 0.4).dims == 1

    @pytest.mark.parametrize("d", [1, 3, 8, 13])
    def test_prior_variance_is_the_earlier_sum_and_product(self, d):
        v = np.random.default_rng(d).uniform(0.1, 2.0, d)
        add, tensor = (make_kernel("matern32", v, np.full(d, 0.3), c) for c in ("additive", "tensor"))
        np.testing.assert_array_equal(add.prior_variance, sum(v.tolist()))
        np.testing.assert_array_equal(tensor.prior_variance, np.prod(v.tolist()))
        np.testing.assert_array_equal(tensor.prior_variance, math.prod(v.tolist()))
        assert eval_kernel(add, np.zeros(d), np.zeros(d)) == pytest.approx(add.prior_variance, rel=1e-14)


class TestCovMatrix:
    def test_single_point(self):
        k = make_kernel("gaussian", [1.0, 1.0], [0.6, 0.6])
        M = cov_matrix(k, [[0.4, 0.7]], 0.1)
        assert M.shape == (1, 1)
        assert M[0, 0] == pytest.approx(2.1)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -1e-6])
    def test_rejects_noise_no_covariance_accepts(self, noise):
        with pytest.raises(ValueError, match="noise variance"):
            cov_matrix(make_kernel("gaussian", [1.0], [0.5]), [[0.2], [0.7]], noise)

    def test_rectangle_rank_deficiency(self):
        # Three rectangle corners plus the implied fourth: the fourth column is
        # col2 + col3 - col1.
        X = np.array([[0.2, 0.3], [0.7, 0.3], [0.2, 0.8], [0.7, 0.8]])
        k = make_kernel("gaussian", [1.0, 1.0], [0.6, 0.6])
        K = cov_matrix(k, X, 0.0)
        np.testing.assert_allclose(K[:, 3], K[:, 1] + K[:, 2] - K[:, 0], atol=1e-12)
        assert np.linalg.matrix_rank(K, tol=1e-10) == 3

    def test_psd_random_designs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(2, 13)
            d = rng.integers(1, 6)
            fam = rng.choice(["gaussian", "matern32"])
            comp = rng.choice(["additive", "tensor"])
            k = make_kernel(fam, rng.uniform(0.1, 2.0, d), rng.uniform(0.05, 1.0, d), comp)
            K = cov_matrix(k, rng.uniform(size=(n, d)), 0.0)
            eigs = np.linalg.eigvalsh(K)
            assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)


class TestGradCovMatrix:
    def test_noise_gradient_is_identity(self):
        k = make_kernel("gaussian", [1.0, 1.0], [0.6, 0.6])
        X = np.random.default_rng(0).uniform(size=(3, 2))
        np.testing.assert_array_equal(grad_cov_matrix(k, X, 0.1, "noise"), np.eye(3))

    def test_variance_gradient_is_unit_correlation(self):
        k = make_kernel("matern32", [2.0, 0.5], [0.3, 0.7])
        X = np.random.default_rng(1).uniform(size=(5, 2))
        # linearity in sigma_1^2: the partial equals the direction-1 kernel at
        # unit variance (other directions contribute nothing)
        expect = cov_matrix(make_kernel("matern32", [1.0], [0.3]), X[:, :1], 0.0)
        np.testing.assert_allclose(grad_cov_matrix(k, X, 0.0, "variance_0"), expect, atol=1e-14)

    @pytest.mark.parametrize("fam", ["gaussian", "matern32"])
    @pytest.mark.parametrize("comp", ["additive", "tensor"])
    def test_lengthscale_gradient_finite_difference(self, fam, comp):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(6, 2))
        v = rng.uniform(0.5, 2.0, 2)
        t = rng.uniform(0.2, 0.8, 2)
        h = 1e-6
        for i in range(2):
            k = make_kernel(fam, v, t, comp)
            tp, tm = t.copy(), t.copy()
            tp[i] += h
            tm[i] -= h
            fd = (cov_matrix(make_kernel(fam, v, tp, comp), X)
                  - cov_matrix(make_kernel(fam, v, tm, comp), X)) / (2 * h)
            got = grad_cov_matrix(k, X, 0.0, f"lengthscale_{i}")
            assert np.max(np.abs(got - fd)) <= 1e-5 * max(1.0, np.max(np.abs(fd)))

    def test_unknown_param(self):
        k = make_kernel("gaussian", [1.0], [0.5])
        X = [[0.3]]
        with pytest.raises(ValueError):
            grad_cov_matrix(k, X, 0.0, "slope_0")
        with pytest.raises(ValueError):
            grad_cov_matrix(k, X, 0.0, "variance_4")


class TestIntegrals:
    def test_zero_variance(self):
        spec = UnivariateKernel("gaussian", 0.0, 0.5)
        assert integral_univariate(spec, 0.3) == 0.0
        assert double_integral_univariate(spec) == 0.0

    def test_gaussian_against_quadrature_point(self):
        spec = UnivariateKernel("gaussian", 1.0, 0.6)
        assert integral_univariate(spec, 0.5) == pytest.approx(
            gauss_legendre_integral(spec, 0.5), abs=1e-8
        )

    @pytest.mark.parametrize("fam", ["gaussian", "matern32"])
    @pytest.mark.parametrize("theta", [0.05, 0.2, 0.6, 2.0])
    @pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 1.0])
    def test_single_integral_grid(self, fam, theta, x):
        spec = UnivariateKernel(fam, 1.3, theta)
        assert integral_univariate(spec, x) == pytest.approx(
            gauss_legendre_integral(spec, x), abs=1e-8
        )

    @pytest.mark.parametrize("fam", ["gaussian", "matern32"])
    @pytest.mark.parametrize("theta", [0.05, 0.2, 0.6, 2.0])
    def test_double_integral_grid(self, fam, theta):
        spec = UnivariateKernel(fam, 0.9, theta)
        assert double_integral_univariate(spec) == pytest.approx(
            quadrature_double(spec), abs=1e-8
        )

    def test_outside_unit_interval(self):
        spec = UnivariateKernel("matern32", 1.0, 0.3)
        for x in (-0.4, 1.2):
            assert integral_univariate(spec, x) == pytest.approx(
                gauss_legendre_integral(spec, x), abs=1e-8
            )

    def test_flat_kernel_limit(self):
        # theta -> infinity makes the kernel constant sigma^2 over [0,1]^2.
        spec = UnivariateKernel("gaussian", 1.0, 1e3)
        assert double_integral_univariate(spec) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("fam, area", [("gaussian", math.sqrt(2 * math.pi)), ("matern32", 4 / math.sqrt(3))],
                             ids=["gaussian", "matern32"])
    @pytest.mark.parametrize("theta", [1e-300, 1e-160, 1e-140])
    def test_vanishing_lengthscale_limit(self, fam, area, theta):
        # theta -> 0 leaves sigma^2 theta times the area under the kernel's profile on the real
        # line.  At 1e-300 the Gaussian's theta^2 underflows to 0, and from 1e-160 the Matern's
        # (sqrt(3) / theta)^2 overflows.
        spec = UnivariateKernel(fam, 2.0, theta)
        assert double_integral_univariate(spec) == pytest.approx(2.0 * area * theta, rel=1e-12)


class TestSerialization:
    def test_round_trip(self):
        # A kernel is written into and read back from the model file, FittedGP's JSON form.
        k = make_kernel("matern32", [1.0, 0.5], [0.3, 0.7], "tensor")
        model = fit_gp(k, Dataset([[0.1, 0.2], [0.5, 0.9], [0.8, 0.4]], [1.0, 2.0, -0.5]), 1e-6)
        obj = model.to_json()
        assert obj["kernel"] == {"family": "matern32", "dims": 2, "composition": "tensor",
                                 "variance": [1.0, 0.5], "range": [0.3, 0.7]}
        back = FittedGP.from_json(obj).kernel
        assert (back.family, back.composition) == (k.family, k.composition)
        np.testing.assert_array_equal(back.variances, k.variances)
        np.testing.assert_array_equal(back.lengthscales, k.lengthscales)


def reference_corr(family, r, theta, dlog=False):
    """The allocating formulas the in-place evaluator must reproduce bit for bit."""
    if family == "gaussian":
        z = (r / theta) ** 2
        R = np.exp(-0.5 * z)
        return (R, z) if dlog else R
    s = math.sqrt(3.0) * r / theta
    R = (1.0 + s) * np.exp(-s)
    return (R, s**2 / (1.0 + s)) if dlog else R


def reference_cross_cov(kernel, X, Y):
    """Unchunked: one m x n distance array per direction, then the variance times its
    correlation summed (additive), or the total variance times the product (tensor)."""
    if kernel.is_additive:
        out = np.zeros((len(X), len(Y)))
        for i, k in enumerate(kernel.components):
            out += k.variance * reference_corr(k.family, np.abs(X[:, i, None] - Y[None, :, i]), k.lengthscale)
        return out
    out = np.full((len(X), len(Y)), math.prod(k.variance for k in kernel.components))
    for i, k in enumerate(kernel.components):
        out *= reference_corr(k.family, np.abs(X[:, i, None] - Y[None, :, i]), k.lengthscale)
    return out


class TestInPlaceEvaluator:
    @pytest.mark.parametrize("family", ["gaussian", "matern32"])
    @pytest.mark.parametrize("dlog", [False, True])
    def test_corr_with_buffers_matches_the_formulas(self, family, dlog):
        rng = np.random.default_rng(5)
        r = np.abs(rng.uniform(-1.0, 1.0, (3, 40, 40)))
        r[:, 0, :5] = [0.0, 1e-300, 1e-8, 5.0, 1e3]  # zero distance and underflowing correlations
        for theta in (0.37, 1e-3, rng.uniform(1e-3, 2.0, (3, 1, 1))):  # scalar and stacked
            want = reference_corr(family, r, theta, dlog)
            want = want if dlog else (want,)
            buf = np.full((2,) + r.shape, np.nan)
            aliased = r.copy(), np.empty_like(r)  # r may be the result buffer itself
            for got in (_corr(family, r, theta, dlog), _corr(family, r, theta, dlog, out=tuple(buf)),
                        _corr(family, aliased[0], theta, dlog, out=aliased)):
                for g, w in zip(got if dlog else (got,), want):
                    np.testing.assert_array_equal(g, w)
            for b, w in zip(buf, want):  # the results went into the buffers
                np.testing.assert_array_equal(b, w)

    @pytest.mark.parametrize("family", ["gaussian", "matern32"])
    @pytest.mark.parametrize("composition", ["additive", "tensor"])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_cross_cov_matches_unchunked_reference(self, family, composition, n):
        rng = np.random.default_rng(n)
        k = make_kernel(family, rng.uniform(0.1, 2.0, 3), rng.uniform(0.05, 1.0, 3), composition)
        Y = rng.uniform(size=(n, 3))
        chunk = _CHUNK // n  # rows per chunk
        for m in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
            X = rng.uniform(size=(m, 3))
            np.testing.assert_array_equal(cross_cov(k, X, Y), reference_cross_cov(k, X, Y))

    @pytest.mark.parametrize("family", ["gaussian", "matern32"])
    @pytest.mark.parametrize("composition", ["additive", "tensor"])
    def test_cross_cov_of_a_design_is_exactly_symmetric(self, family, composition):
        # Chunk boundaries fall mid-matrix, so row i and column i come from different chunks.
        n = _CHUNK // 100
        assert 2 < n // (_CHUNK // n)
        rng = np.random.default_rng(8)
        k = make_kernel(family, rng.uniform(0.1, 2.0, 4), rng.uniform(0.05, 1.0, 4), composition)
        X = rng.uniform(size=(n, 4))
        K = cross_cov(k, X, X)
        np.testing.assert_array_equal(K, K.T)
        K[np.diag_indices_from(K)] += 0.01
        np.testing.assert_array_equal(cov_matrix(k, X, 0.01), K)

    def test_cross_cov_memory_is_its_output(self):
        rng = np.random.default_rng(9)
        k = make_kernel("matern32", [1.0, 0.5, 2.0, 0.3], [0.2, 0.4, 0.6, 0.8])
        X, Y = rng.uniform(size=(2000, 4)), rng.uniform(size=(1000, 4))
        tracemalloc.start()
        try:
            cross_cov(k, X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 2000 * 1000 * 8


# Points refused by every function that takes them, as (points for d = 2, one direction's
# coordinates): a direction takes a scalar or a 1-d array, so any 2-d array has the wrong columns.
BAD_POINTS = {
    "nan": ([[0.1, 0.2], [np.nan, 0.5]], [0.1, np.nan]),
    "inf": ([[0.1, np.inf]], [np.inf, 0.5]),
    "-inf": ([[0.3, 0.2], [-np.inf, 0.5]], [-np.inf]),
    "three-columns": ([[0.1, 0.2, 0.3]], [[0.1, 0.2]]),
    "three-dimensional": (np.full((2, 1, 2), 0.5), np.full((2, 1, 1), 0.5)),
}


def _point_takers():
    """name -> (call on the points, whether the points are one direction's coordinates)."""
    from addkrig import centered_effect, detect_degenerate_design, predict_mean, predict_var, sub_model
    from addkrig.bench import GFunctionSpec, g_function, sample_gp_path

    k = make_kernel("matern32", [1.0, 0.5], [0.4, 0.6])
    good = np.array([[0.2, 0.4], [0.7, 0.1]])
    gp = fit_gp(k, Dataset(good, [1.0, -1.0]), 1e-3)
    return {
        "cross_cov-X": (lambda x: cross_cov(k, x, good), False),
        "cross_cov-Y": (lambda x: cross_cov(k, good, x), False),
        "cov_matrix": (lambda x: cov_matrix(k, x), False),
        "sample_gp_path": (lambda x: sample_gp_path(k, x), False),
        "detect_degenerate_design": (lambda x: detect_degenerate_design(k, x), False),
        "g_function": (lambda x: g_function(x, GFunctionSpec([1.0, 2.0])), False),
        "predict_mean": (lambda x: predict_mean(gp, x), False),
        "predict_var": (lambda x: predict_var(gp, x), False),
        "sub_model": (lambda x: sub_model(gp, 1, x), True),
        "centered_effect": (lambda x: centered_effect(gp, 1, x), True),
    }


@pytest.mark.parametrize("case", sorted(BAD_POINTS))
@pytest.mark.parametrize("name", sorted(_point_takers()))
def test_points_without_d_finite_columns_are_refused(name, case):
    # Warnings are errors under the test configuration, so arithmetic on a bad entry before the
    # check fails the test too.
    call, direction = _point_takers()[name]
    with pytest.raises(ValueError):
        call(np.asarray(BAD_POINTS[case][direction]))
