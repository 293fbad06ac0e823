"""Univariate covariance kernels and their additive / tensor-product compositions.

Two stationary families are supported, Gaussian (squared exponential) and
Matern 3/2, each parameterized by a variance sigma^2 and a lengthscale theta:

    gaussian:  k(x, y) = sigma^2 * exp(-(x - y)^2 / (2 theta^2))
    matern32:  k(x, y) = sigma^2 * (1 + sqrt(3)|x - y|/theta) * exp(-sqrt(3)|x - y|/theta)

A d-dimensional kernel is either the sum of d univariate kernels (additive
composition, the main object of this package) or their product with the
per-direction variances multiplied (tensor composition, kept as a classical
kriging baseline).

The module also provides the analytic integrals of a univariate kernel over
[0, 1] needed by the centered-effect variance formulas, and the element-wise
partial derivatives of covariance matrices, against which the likelihood
gradient is tested.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

__all__ = [
    "UnivariateKernel",
    "AdditiveKernel",
    "eval_kernel",
    "cov_matrix",
    "cross_cov",
    "grad_cov_matrix",
    "integral_univariate",
    "double_integral_univariate",
    "kernel_to_json",
    "kernel_from_json",
]

_FAMILIES = ("gaussian", "matern32")
_SQRT3 = math.sqrt(3.0)


def _check_params(family: str, variance: float, lengthscale: float) -> None:
    """Reject parameters no kernel accepts: scalar tests, cheap enough for every likelihood call."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    if not (math.isfinite(variance) and variance >= 0):
        raise ValueError(f"variance must be finite and >= 0, got {variance}")
    if not (math.isfinite(lengthscale) and lengthscale > 0):
        raise ValueError(f"lengthscale must be finite and > 0, got {lengthscale}")


def _corr(family: str, r, theta, dlog: bool = False, out=None):
    """Unit-variance correlation at distances r = |x - y|; with ``dlog`` also q = d log corr /
    d theta, r^2/theta^3 (Gaussian) or s^2/((1+s) theta) (Matern 3/2), finite where corr is 0.

    The results go into ``out``, a pair of float arrays of the broadcast shape of r and theta
    (fresh ones when None): corr into out[0] and q into out[1], which is scratch without
    ``dlog``.  r may be out[0] itself."""
    if out is None:
        shape = np.broadcast_shapes(np.shape(r), np.shape(theta))
        out = np.empty(shape), np.empty(shape)
    R, q = out
    if family == "gaussian":
        z = np.square(np.divide(r, theta, out=q), out=q)  # (r / theta)^2
        np.exp(np.multiply(z, -0.5, out=R), out=R)
        if not dlog:
            return R
        z /= theta
        return R, z
    s = np.divide(np.multiply(r, _SQRT3, out=q), theta, out=q)  # sqrt(3) r / theta
    if not dlog:
        np.add(s, 1.0, out=R)
        R *= np.exp(np.negative(s, out=s), out=s)
        return R
    one_s = s + 1.0  # the one temporary: R and q both need 1 + s
    np.multiply(np.exp(np.negative(s, out=R), out=R), one_s, out=R)
    one_s *= theta
    np.square(s, out=q)
    q /= one_s
    return R, q


@dataclass(frozen=True)
class UnivariateKernel:
    """One direction's kernel: family name, variance sigma^2, lengthscale theta."""

    family: str
    variance: float
    lengthscale: float

    def __post_init__(self):
        _check_params(self.family, self.variance, self.lengthscale)

    def corr(self, x, y, out=None):
        """Unit-variance correlation r(x, y); broadcasts over arrays.  With ``out``, a pair of
        float arrays of the broadcast shape, |x - y| and then r(x, y) are written into out[0],
        and out[1] is scratch."""
        if out is None:
            r = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        else:
            r = np.abs(np.subtract(x, y, out=out[0]), out=out[0])
        return _corr(self.family, r, self.lengthscale, out=out)

    def corr_dtheta(self, x, y):
        """Element-wise derivative of corr(x, y) w.r.t. the lengthscale."""
        r = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        R, q = _corr(self.family, r, self.lengthscale, dlog=True)
        return R * q

    def __call__(self, x, y):
        return self.variance * self.corr(x, y)


@dataclass(frozen=True)
class AdditiveKernel:
    """Ordered collection of univariate kernels over d input dimensions.

    ``composition`` selects how the univariate pieces combine:

    - "additive": K(x, y) = sum_i K_i(x_i, y_i)
    - "tensor":   K(x, y) = (prod_i sigma_i^2) * prod_i r_i(x_i, y_i)
    """

    components: tuple[UnivariateKernel, ...]
    composition: str = "additive"

    def __post_init__(self):
        if self.composition not in ("additive", "tensor"):
            raise ValueError(f"unknown composition {self.composition!r}")
        if len(self.components) == 0:
            raise ValueError("kernel needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def dims(self) -> int:
        return len(self.components)

    @property
    def is_additive(self) -> bool:
        return self.composition == "additive"

    def __call__(self, x, y):
        return eval_kernel(self, x, y)


def eval_kernel(kernel: AdditiveKernel, x, y) -> float:
    """Evaluate the composed kernel at a pair of d-vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (kernel.dims,) or y.shape != (kernel.dims,):
        raise ValueError(f"expected {kernel.dims}-vectors, got shapes {x.shape} and {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("kernel inputs must be finite")
    return float(cross_cov(kernel, x[None, :], y[None, :])[0, 0])


# Cells per chunk of rows in cross_cov: one chunk's distance and scratch buffers stay in cache
# while every elementwise pass of a direction runs over them.
_CHUNK = 2**15


def cross_cov(kernel: AdditiveKernel, X, Y) -> np.ndarray:
    """Covariance matrix K(x^(i), y^(j)) between two designs (n x d, m x d)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != kernel.dims or Y.shape[1] != kernel.dims:
        raise ValueError("design dimension does not match kernel dims")
    m, n = len(X), len(Y)
    if kernel.is_additive:
        out = np.zeros((m, n))
    else:
        out = np.full((m, n), _total_variance(kernel))
    rows = max(1, _CHUNK // max(n, 1))
    buf = np.empty((2, min(rows, m), n))
    for lo in range(0, m, rows):
        chunk = out[lo:lo + rows]
        R, scratch = buf[:, :len(chunk)]
        for i, k in enumerate(kernel.components):
            k.corr(X[lo:lo + rows, i, None], Y[None, :, i], out=(R, scratch))
            if kernel.is_additive:
                R *= k.variance
                chunk += R
            else:
                chunk *= R
    return out


def _total_variance(kernel: AdditiveKernel) -> float:
    return float(np.prod([k.variance for k in kernel.components]))


def cov_matrix(kernel: AdditiveKernel, X, noise: float = 0.0) -> np.ndarray:
    """Symmetric covariance matrix of a design, with noise^2 added on the diagonal.

    ``noise`` is the observation-noise variance tau^2 (not a standard deviation).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if noise < 0:
        raise ValueError("noise variance must be >= 0")
    # Exactly symmetric: |x_i - x_j| is |x_j - x_i| and every later operation is elementwise.
    K = cross_cov(kernel, X, X)
    if noise:
        K[np.diag_indices_from(K)] += noise
    return K


def grad_cov_matrix(kernel: AdditiveKernel, X, noise: float, param_id: str) -> np.ndarray:
    """Element-wise partial derivative of ``cov_matrix`` w.r.t. one parameter.

    ``param_id`` is one of ``"variance_i"``, ``"lengthscale_i"`` (zero-based
    direction index i) or ``"noise"``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if param_id == "noise":
        return np.eye(n)
    try:
        name, idx_s = param_id.rsplit("_", 1)
        idx = int(idx_s)
        spec = kernel.components[idx]
    except (ValueError, IndexError):
        raise ValueError(f"unknown param_id {param_id!r}") from None
    if name not in ("variance", "lengthscale"):
        raise ValueError(f"unknown param_id {param_id!r}")

    xi = X[:, idx]
    if kernel.is_additive:
        if name == "variance":
            return spec.corr(xi[:, None], xi[None, :])
        return spec.variance * spec.corr_dtheta(xi[:, None], xi[None, :])

    # Tensor composition: K = (prod_j sigma_j^2) * hadamard_j r_j.
    rest = np.ones((n, n))
    var_rest = 1.0
    for j, k in enumerate(kernel.components):
        if j == idx:
            continue
        rest *= k.corr(X[:, j, None], X[None, :, j])
        var_rest *= k.variance
    if name == "variance":
        return var_rest * rest * spec.corr(xi[:, None], xi[None, :])
    return var_rest * spec.variance * rest * spec.corr_dtheta(xi[:, None], xi[None, :])


def integral_univariate(spec: UnivariateKernel, x) -> float | np.ndarray:
    """Closed-form integral of K_i(x, s) over s in [0, 1].

    ``x`` may be a scalar or an array; the integral is always over [0, 1]
    even when x falls outside it.
    """
    x = np.asarray(x, dtype=float)
    if spec.variance == 0.0:
        out = np.zeros_like(x)
        return float(out) if out.ndim == 0 else out
    th = spec.lengthscale
    if spec.family == "gaussian":
        c = 1.0 / (math.sqrt(2.0) * th)
        val = th * math.sqrt(math.pi / 2.0) * (erf((1.0 - x) * c) + erf(x * c))
    else:
        c = _SQRT3 / th
        # F(t) = int_0^t (1 + c u) e^{-c u} du, valid for t >= 0 and by odd
        # extension of the integrand's antiderivative for t < 0.
        def F(t):
            t = np.asarray(t, dtype=float)
            sign = np.sign(t)
            a = np.abs(t)
            return sign * (2.0 - np.exp(-c * a) * (2.0 + c * a)) / c

        val = F(1.0 - x) + F(x)
    out = spec.variance * val
    return float(out) if out.ndim == 0 else out


def double_integral_univariate(spec: UnivariateKernel) -> float:
    """Closed-form double integral of K_i(s, t) over [0, 1]^2."""
    if spec.variance == 0.0:
        return 0.0
    th = spec.lengthscale
    if spec.family == "gaussian":
        c = 1.0 / (math.sqrt(2.0) * th)
        single = th * math.sqrt(math.pi / 2.0) * erf(c)
        moment = th**2 * (1.0 - math.exp(-0.5 / th**2))
        return float(spec.variance * 2.0 * (single - moment))
    c = _SQRT3 / th
    ec = math.exp(-c)
    single = (2.0 - ec * (2.0 + c)) / c
    moment = (3.0 - ec * (c**2 + 3.0 * c + 3.0)) / c**2
    return float(spec.variance * 2.0 * (single - moment))


def kernel_to_json(kernel: AdditiveKernel) -> dict:
    """JSON-serializable description: {family, dims, composition, variance, range}."""
    fams = {k.family for k in kernel.components}
    family = fams.pop() if len(fams) == 1 else [k.family for k in kernel.components]
    return {
        "family": family,
        "dims": kernel.dims,
        "composition": kernel.composition,
        "variance": [k.variance for k in kernel.components],
        "range": [k.lengthscale for k in kernel.components],
    }


def kernel_from_json(obj) -> AdditiveKernel:
    """Inverse of :func:`kernel_to_json`; accepts a dict or a JSON string."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("kernel description must be a JSON object")
    d = int(obj["dims"])
    fam = obj["family"]
    cols = (fam if isinstance(fam, list) else [fam] * d, obj["variance"], obj["range"])
    if not all(isinstance(c, list) and len(c) == d for c in cols):
        raise ValueError(f"kernel family, variance and range need {d} entries each")
    comps = tuple(UnivariateKernel(f, float(v), float(t)) for f, v, t in zip(*cols))
    return AdditiveKernel(comps, obj.get("composition", "additive"))


def make_kernel(
    family: str,
    variances,
    lengthscales,
    composition: str = "additive",
) -> AdditiveKernel:
    """Convenience constructor from per-direction parameter arrays."""
    variances = np.atleast_1d(np.asarray(variances, dtype=float))
    lengthscales = np.atleast_1d(np.asarray(lengthscales, dtype=float))
    if variances.shape != lengthscales.shape:
        raise ValueError("variances and lengthscales must have the same length")
    comps = tuple(
        UnivariateKernel(family, float(v), float(t))
        for v, t in zip(variances, lengthscales)
    )
    return AdditiveKernel(comps, composition)
