"""Univariate covariance kernels and their additive / tensor-product compositions.

Two stationary families are supported, Gaussian (squared exponential) and
Matern 3/2, each parameterized by a variance sigma^2 and a lengthscale theta:

    gaussian:  k(x, y) = sigma^2 * exp(-(x - y)^2 / (2 theta^2))
    matern32:  k(x, y) = sigma^2 * (1 + sqrt(3)|x - y|/theta) * exp(-sqrt(3)|x - y|/theta)

A d-dimensional kernel is one family with d variances and d lengthscales,
composed either as the sum of the d univariate kernels (additive composition,
the main object of this package) or as their product with the per-direction
variances multiplied (tensor composition, kept as a classical kriging
baseline).

The module also provides the analytic integrals of a univariate kernel over
[0, 1] needed by the centered-effect variance formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

__all__ = [
    "UnivariateKernel",
    "AdditiveKernel",
    "make_kernel",
    "cov_matrix",
    "cross_cov",
    "integral_univariate",
    "double_integral_univariate",
]

_FAMILIES = ("gaussian", "matern32")
_COMPOSITIONS = ("additive", "tensor")
_SQRT3 = math.sqrt(3.0)


def _check_names(family: str = "gaussian", composition: str = "additive") -> None:
    """Reject an unknown kernel family or composition name."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    if composition not in _COMPOSITIONS:
        raise ValueError(f"unknown composition {composition!r}")


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

    def corr(self, x, y):
        """Unit-variance correlation r(x, y); broadcasts over arrays."""
        r = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        return _corr(self.family, r, self.lengthscale)

    def __call__(self, x, y):
        return self.variance * self.corr(x, y)


@dataclass(frozen=True, eq=False)
class AdditiveKernel:
    """d univariate kernels of one family: a variance and a lengthscale array of length d.

    ``composition`` selects how the univariate pieces combine:

    - "additive": K(x, y) = sum_i sigma_i^2 r_i(x_i, y_i)
    - "tensor":   K(x, y) = (prod_i sigma_i^2) * prod_i r_i(x_i, y_i)
    """

    family: str
    variances: np.ndarray
    lengthscales: np.ndarray
    composition: str = "additive"

    def __post_init__(self):
        _check_names(self.family, self.composition)
        v, t = (np.array(a, dtype=float, ndmin=1) for a in (self.variances, self.lengthscales))
        if v.ndim != 1 or v.shape != t.shape or not len(v):
            raise ValueError(f"need equal non-empty 1-d variances and lengthscales, got {v.shape}, {t.shape}")
        for pair in zip(v.tolist(), t.tolist()):
            _check_params(self.family, *pair)
        for name, a in (("variances", v), ("lengthscales", t)):
            a.flags.writeable = False  # checked once, so never changed afterwards
            object.__setattr__(self, name, a)

    @property
    def dims(self) -> int:
        return len(self.variances)

    @property
    def is_additive(self) -> bool:
        return self.composition == "additive"

    @property
    def prior_variance(self) -> float:
        """k(x, x), the same at every x: the sum (additive) or product (tensor) of the variances."""
        v = self.variances.tolist()
        return sum(v) if self.is_additive else math.prod(v)

    @property
    def components(self) -> tuple[UnivariateKernel, ...]:
        """Each direction's kernel on its own, as the integrals take it."""
        return tuple(UnivariateKernel(self.family, v, t)
                     for v, t in zip(self.variances.tolist(), self.lengthscales.tolist()))


make_kernel = AdditiveKernel  # the constructor under its function-style name


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
    out = np.zeros((m, n)) if kernel.is_additive else np.full((m, n), kernel.prior_variance)
    rows = max(1, _CHUNK // max(n, 1))
    buf = np.empty((2, min(rows, m), n))
    for lo in range(0, m, rows):
        chunk = out[lo:lo + rows]
        R, scratch = buf[:, :len(chunk)]
        for i, (v, t) in enumerate(zip(kernel.variances.tolist(), kernel.lengthscales.tolist())):
            np.abs(np.subtract(X[lo:lo + rows, i, None], Y[None, :, i], out=R), out=R)
            _corr(kernel.family, R, t, out=(R, scratch))
            if kernel.is_additive:
                R *= v
                chunk += R
            else:
                chunk *= R
    return out


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


def integral_univariate(spec: UnivariateKernel, x) -> float | np.ndarray:
    """Closed-form integral of K_i(x, s) over s in [0, 1].

    ``x`` may be a scalar or an array; the integral is always over [0, 1]
    even when x falls outside it.
    """
    x = np.asarray(x, dtype=float)
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
