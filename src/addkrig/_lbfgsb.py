"""The estimator's one optimizer loop: L-BFGS-B by direct calls to scipy's compiled step, ``setulb``.

``scipy.optimize.minimize(method="L-BFGS-B")`` runs this same loop (scipy/optimize/_lbfgsb_py.py)
inside layers of wrappers that cost more per call than a small objective does.  This loop passes
``setulb`` what scipy passes, with scipy's default settings, and answers its task codes as scipy
does, so the iterates are bit for bit scipy's; the tests keep scipy's ``minimize`` as the
reference.  The ``setulb`` signature is the one of scipy >= 1.15, where L-BFGS-B became C code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Through the package: ``from scipy.optimize._lbfgsb import setulb`` here made a cold start of the
# benchmark's worker about 0.1 s slower (measured over alternated runs; the cause was not traced).
from scipy.optimize import _lbfgsb as _scipy_lbfgsb

# scipy's defaults: maxcor, ftol as factr, gtol, maxls and maxiter.
_M = 10
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1e-5
_MAXLS = 20
_MAXITER = 15000

# task[0] codes of setulb; task[1] carries the reason for a stop.
_NEW_X, _FG, _CONVERGENCE, _STOP = 1, 3, 4, 5
_STOP_MAXFUN, _STOP_MAXITER = 502, 504


# Magnitude returned to L-BFGS-B at a point whose covariance cannot be factorized; finite so that
# line searches can retreat.
_SENTINEL = 1e12


@dataclass(frozen=True, eq=False)
class OptResult:
    x: np.ndarray
    value: float
    n_calls: int
    converged: bool


def minimize(value_and_grad, bounds, start, max_evals: int = 1000) -> OptResult:
    """Minimize ``value_and_grad(x) -> (f, g)`` over a box with L-BFGS-B, counting every call.

    ``bounds`` is one (lower, upper) pair per entry of ``x`` (entries may be infinite, not None
    or NaN).  The run starts from ``start`` clipped into the box and stops at the end of the
    first iteration after which more than ``max_evals`` points have been evaluated.  Every
    call is counted, line-search probes included; the objective gets a copy of each point, and
    a point equal to the last one evaluated reuses its (f, g).  A call that raises
    ``np.linalg.LinAlgError`` marks an infeasible point: L-BFGS-B is fed a large finite sentinel
    with a retreating gradient instead, and a non-finite f the sentinel with a zero gradient.
    Returns the best point evaluated (never worse than the start); ``converged`` is False only
    when the budget ran out before L-BFGS-B converged.

    ``setulb`` sizes nothing itself: it reads n off ``x`` and trusts every other array, so the
    shapes are checked here, and each gradient's size against n, before an array reaches it."""
    lower, upper = np.array(bounds, dtype=float).T
    if np.isnan([lower, upper]).any():  # None reads as NaN here; an absent bound is +-inf
        raise ValueError(f"every bound must be a number, got {bounds}")
    # As in scipy: the start, clipped, broadcasts with the box, and the box is then broadcast to
    # the clipped start; what does not broadcast raises here, as it does there.
    x = np.clip(np.asarray(start, dtype=np.float64), lower, upper)
    if x.ndim != 1:
        raise ValueError("'x0' must only have one dimension.")
    n = x.size
    lower, upper = np.broadcast_to(lower, n), np.broadcast_to(upper, n)
    if np.any(lower > upper):
        raise ValueError("a lower bound is greater than its upper bound")
    has_lower, has_upper = np.isfinite(lower), np.isfinite(upper)
    nbd = np.array([[0, 3], [1, 2]], np.int32)[has_lower.astype(int), has_upper.astype(int)]
    low, up = np.where(has_lower, lower, 0.0), np.where(has_upper, upper, 0.0)
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    x_done, done, n_calls, n_iterations = None, None, 0, 0
    best_x, best_f = None, np.inf
    while True:
        g = g.astype(np.float64)  # setulb may write into g: never hand it the cached array
        _scipy_lbfgsb.setulb(_M, x, low, up, nbd, f, g, _FACTR, _PGTOL, wa, iwa, task, lsave, isave,
                             dsave, _MAXLS, ln_task)
        if task[0] == _FG:
            if x_done is None or not np.array_equal(x, x_done):
                x_done = x.copy()
                n_calls += 1
                try:
                    value, grad = value_and_grad(x.copy())
                except np.linalg.LinAlgError:
                    value = _SENTINEL * (1.0 + float(np.sum(np.square(x_done))))
                    grad = 2.0 * _SENTINEL * x_done
                else:
                    if not np.isfinite(value):
                        value, grad = _SENTINEL, np.zeros(n)
                    elif value < best_f:
                        best_x, best_f = x_done, value
                grad = np.asarray(grad, dtype=np.float64).ravel()
                if grad.size != n:
                    raise ValueError(f"gradient of {grad.size} entries for {n} parameters")
                done = float(value), grad
            f, g = done
        elif task[0] == _NEW_X:
            n_iterations += 1
            if n_iterations >= _MAXITER:
                task[:] = _STOP, _STOP_MAXITER
            elif n_calls > max_evals:
                task[:] = _STOP, _STOP_MAXFUN
        else:
            break
    if best_x is None:
        raise np.linalg.LinAlgError("objective never evaluated successfully")
    return OptResult(np.clip(best_x, lower, upper), best_f, n_calls,
                     bool(task[0] == _CONVERGENCE) or n_calls < max_evals)
