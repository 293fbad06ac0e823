"""The estimator's one optimizer loop: L-BFGS-B by direct calls to scipy's compiled step, ``setulb``.

``scipy.optimize.minimize(method="L-BFGS-B")`` runs this same loop (scipy/optimize/_lbfgsb_py.py)
inside layers of wrappers that cost more per call than a small objective does.  This loop passes
``setulb`` what scipy passes, with scipy's default settings, and answers its task codes as scipy
does, so the iterates are bit for bit scipy's; the tests keep scipy's ``minimize`` as the
reference.  The ``setulb`` signature is the one of scipy >= 1.15, where L-BFGS-B became C code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scipy import setulb

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


def minimize(value_and_grad, lower, upper, start, max_evals: int = 1000) -> OptResult:
    """Minimize ``value_and_grad(x) -> (f, g)`` over the box [lower, upper] with L-BFGS-B, counting
    every call.

    ``lower``, ``upper`` and ``start`` are float arrays of one shape (n,), the bounds finite as
    :meth:`HyperBounds.box` gives them.  The run starts from ``start`` clipped into the box and
    stops at the end of the first iteration after which more than ``max_evals`` points have been
    evaluated.  Every call is counted, line-search probes included; the objective gets a copy of
    each point, and a point equal to the last one evaluated reuses its (f, g), so the objective
    may write into its point and return one gradient array on every call.  A call that
    raises ``np.linalg.LinAlgError`` marks an infeasible point: L-BFGS-B is fed a large finite
    sentinel with a retreating gradient instead, and a non-finite f the sentinel with a zero
    gradient.  Returns the best point evaluated (never worse than the start), and raises
    ``LinAlgError`` when no call succeeded.  ``converged`` is True only when ``setulb`` ends in
    CONVERGENCE, as scipy's ``success``: a run stopped by the budget or by a failed line search
    (ABNORMAL) has not converged.

    ``setulb`` sizes nothing itself: it reads n off ``x`` and trusts every other array, so the
    shapes are checked here, and each gradient's shape, before an array reaches it."""
    x = np.clip(start, lower, upper)
    n = x.size
    if not np.shape(start) == lower.shape == upper.shape == (n,):
        raise ValueError(f"start and bounds need one shape (n,), got {np.shape(start)}, "
                         f"{lower.shape} and {upper.shape}")
    nbd = np.full(n, 2, np.int32)  # every entry bounded on both sides
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    last, done, n_calls, n_iterations = None, None, 0, 0
    best_x, best_f = None, np.inf
    while True:
        setulb(_M, x, lower, upper, nbd, f, g, _FACTR, _PGTOL, wa, iwa, task, lsave, isave, dsave,
               _MAXLS, ln_task)
        if task[0] == _FG:
            point = x.tolist()  # compared as a list, which costs less than an array comparison
            if point != last:
                last = point
                n_calls += 1
                try:
                    value, grad = value_and_grad(x.copy())
                except np.linalg.LinAlgError:
                    value = _SENTINEL * (1.0 + float(np.sum(np.square(point))))
                    grad = 2.0 * _SENTINEL * np.array(point)
                else:
                    if not math.isfinite(value):
                        value, grad = _SENTINEL, np.zeros(n)
                    elif value < best_f:
                        best_x, best_f = point, value
                grad = np.asarray(grad, dtype=np.float64)
                if grad.shape != (n,):
                    raise ValueError(f"gradient of shape {grad.shape} for {n} parameters")
                done = float(value), grad  # replaced before the objective runs again
            # setulb may write into g, so it gets a copy: the cached gradient stays as evaluated.
            f, g = done[0], done[1].copy()
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
    return OptResult(np.clip(np.array(best_x), lower, upper), best_f, n_calls, bool(task[0] == _CONVERGENCE))
