"""Reference derivatives of covariance matrices, against which the likelihood gradient is tested.

Test-only: the library's likelihood engine takes its gradient from cached arrays and never
builds these matrices.
"""

import numpy as np

from addkrig.kernels import _corr


def corr_dtheta(spec, x, y):
    """Element-wise derivative of spec.corr(x, y) w.r.t. the lengthscale."""
    r = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    R, q = _corr(spec.family, r, spec.lengthscale, dlog=True)  # q = d log r / d log theta
    return R * q / spec.lengthscale


def grad_cov_matrix(kernel, X, noise, param_id):
    """Element-wise partial derivative of ``cov_matrix(kernel, X, noise)`` w.r.t. one parameter.

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
        return spec.variance * corr_dtheta(spec, xi[:, None], xi[None, :])

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
    return var_rest * spec.variance * rest * corr_dtheta(spec, xi[:, None], xi[None, :])
