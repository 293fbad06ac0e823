"""Hyperparameter estimation for additive (and tensor) kriging models.

The objective is the reduced negative log-likelihood

    l(psi) = log det K(psi) + Y^T K(psi)^-1 Y

with K(psi) the design covariance plus tau^2 on the diagonal.  Two drivers are
provided:

- ULM ("usual likelihood maximization"): one box-constrained quasi-Newton run
  over all 2d+1 parameters (per-direction variance and lengthscale, plus the
  noise variance tau^2).
- RLM ("relaxed likelihood maximization"): all variances start at zero and the
  directions are visited cyclically; each visit jointly re-optimizes that
  direction's (variance, lengthscale) together with tau^2 while every other
  direction stays fixed, so each inner problem is 3-dimensional.  The noise
  variance absorbs the not-yet-estimated directions and typically shrinks as
  the cycle progresses; comparing it to the fitted variances quantifies how
  additive the data is.

Every inner optimization counts its objective evaluations; the resulting
traces (calls vs best value, plus the tau^2 path) are the raw material of the
benchmark module.
"""

from __future__ import annotations

import csv
import io
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.optimize import minimize

from .gp import Dataset
from .kernels import AdditiveKernel, cov_matrix, grad_cov_matrix, make_kernel

__all__ = [
    "HyperParams",
    "Bounds",
    "EstimationTrace",
    "EstimationResult",
    "neg_log_likelihood",
    "nll_gradient",
    "nll_value_and_grad",
    "optimize_local",
    "estimate_ulm",
    "estimate_rlm",
    "additivity_ratio",
    "default_bounds",
    "write_traces",
]

# Sentinel magnitude returned to the optimizer when the covariance cannot be
# factorized; finite so that line searches can retreat.
_SENTINEL = 1e12


@dataclass(frozen=True)
class HyperParams:
    """Per-direction (variance, lengthscale) pairs plus the noise variance tau^2."""

    variances: np.ndarray
    lengthscales: np.ndarray
    noise: float
    family: str = "gaussian"
    composition: str = "additive"

    def __post_init__(self):
        object.__setattr__(self, "variances", np.asarray(self.variances, dtype=float))
        object.__setattr__(self, "lengthscales", np.asarray(self.lengthscales, dtype=float))
        if self.variances.shape != self.lengthscales.shape:
            raise ValueError("variances and lengthscales must have equal length")
        if self.noise < 0:
            raise ValueError("noise variance must be >= 0")

    @property
    def d(self) -> int:
        return self.variances.shape[0]

    def to_kernel(self) -> AdditiveKernel:
        return make_kernel(self.family, self.variances, self.lengthscales, self.composition)


def additivity_ratio(params: HyperParams) -> float:
    """Share of modeled variance attributed to the additive directions.

    Returns sum(sigma_i^2) / (sum(sigma_i^2) + tau^2) in [0, 1]; 1 means the
    data is explained as purely additive, 0 as pure noise.
    """
    total = float(np.sum(params.variances))
    denom = total + params.noise
    if denom <= 0:
        raise ValueError("additivity ratio undefined for all-zero parameters")
    return total / denom


@dataclass(frozen=True)
class Bounds:
    """Per-parameter [lower, upper] box for an optimization vector."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("invalid bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def pairs(self):
        return list(zip(self.lower, self.upper))


@dataclass
class HyperBounds:
    """Boxes for the model parameters: sigma_i^2, theta_i and tau^2."""

    variance: tuple[float, float]
    lengthscale: tuple[float, float]
    noise: tuple[float, float]


def default_bounds(dataset: Dataset) -> HyperBounds:
    """Default boxes scaled to the response variance (inputs live in [0, 1])."""
    var_y = float(np.var(dataset.Y))
    if var_y <= 0:
        raise ValueError("constant responses: nothing to estimate")
    # The noise floor keeps tau^2 I invertible when all variances are zero.
    return HyperBounds(
        variance=(0.0, 10.0 * var_y),
        lengthscale=(1e-3, 3.0),
        noise=(1e-8 * var_y, var_y),
    )


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------


def _nll_core(kernel: AdditiveKernel, noise: float, dataset: Dataset):
    """(value, cholesky factor, alpha) of the reduced negative log-likelihood."""
    K = cov_matrix(kernel, dataset.X, noise)
    L = cholesky(K, lower=True)  # raises LinAlgError when singular
    # Exactly singular matrices can slip through with a tiny positive pivot;
    # the threshold sits far below any admissible noise floor.
    if np.min(np.diag(L)) ** 2 <= 1e-12 * np.trace(K) / K.shape[0]:
        raise np.linalg.LinAlgError("covariance matrix is numerically singular")
    alpha = cho_solve((L, True), dataset.Y)
    value = 2.0 * float(np.sum(np.log(np.diag(L)))) + float(dataset.Y @ alpha)
    return value, L, alpha


def neg_log_likelihood(params: HyperParams, dataset: Dataset) -> float:
    """log det K + Y^T K^-1 Y for the covariance induced by ``params``."""
    value, _, _ = _nll_core(params.to_kernel(), params.noise, dataset)
    return value


def _param_ids(params: HyperParams) -> list[str]:
    if params.composition == "additive":
        ids = [f"variance_{i}" for i in range(params.d)]
    else:
        ids = ["variance_0"]
    ids += [f"lengthscale_{i}" for i in range(params.d)]
    ids.append("noise")
    return ids


def nll_value_and_grad(params: HyperParams, dataset: Dataset, ids=None) -> tuple[float, np.ndarray]:
    """Objective value and analytic gradient from one Cholesky factorization.

    The gradient is over the parameter ids ``ids`` (default: the full vector
    {sigma_i^2, theta_i, tau^2}), from d l = tr(K^-1 dK) - alpha^T dK alpha with
    alpha = K^-1 Y.  For the tensor composition the variance block collapses to
    the single overall variance (direction 0), matching the optimization vector.
    """
    kernel = params.to_kernel()
    value, L, alpha = _nll_core(kernel, params.noise, dataset)
    Kinv = cho_solve((L, True), np.eye(dataset.n))
    grad = []
    for pid in _param_ids(params) if ids is None else ids:
        G = grad_cov_matrix(kernel, dataset.X, params.noise, pid)
        grad.append(float(np.sum(Kinv * G)) - float(alpha @ G @ alpha))
    return value, np.array(grad)


def nll_gradient(params: HyperParams, dataset: Dataset) -> np.ndarray:
    """Analytic gradient of the objective over {sigma_i^2, theta_i, tau^2}."""
    return nll_value_and_grad(params, dataset)[1]


# ---------------------------------------------------------------------------
# Local optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptResult:
    x: np.ndarray
    value: float
    n_calls: int
    converged: bool


def optimize_local(
    value_and_grad,
    bounds: Bounds,
    start,
    max_evals: int = 1000,
) -> OptResult:
    """Box-constrained quasi-Newton descent (L-BFGS-B) with call counting.

    ``value_and_grad(x) -> (f, g)`` may raise ``np.linalg.LinAlgError`` to
    signal an infeasible point; a large finite sentinel with a retreating
    gradient is fed to the optimizer instead.  Every call is counted,
    including line-search probes, and the best evaluated point is returned
    (never worse than the start).
    """
    start = bounds.clip(start)
    n_calls = 0
    best = {"x": None, "f": np.inf}

    def wrapped(x):
        nonlocal n_calls
        n_calls += 1
        try:
            f, g = value_and_grad(x)
        except np.linalg.LinAlgError:
            scale = 1.0 + float(np.sum(np.square(x)))
            return _SENTINEL * scale, 2.0 * _SENTINEL * x
        if not np.isfinite(f):
            return _SENTINEL, np.zeros_like(x)
        if f < best["f"]:
            best["f"] = f
            best["x"] = np.array(x)
        return f, np.asarray(g, dtype=float)

    res = minimize(
        wrapped,
        start,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds.pairs(),
        options={"maxfun": max_evals},
    )
    if best["x"] is None:
        raise np.linalg.LinAlgError("objective never evaluated successfully")
    exhausted = n_calls >= max_evals and not res.success
    return OptResult(bounds.clip(best["x"]), best["f"], n_calls, not exhausted)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@dataclass
class TraceRecord:
    iteration: int  # RLM cycle index k (1-based); restart index for ULM
    direction: int  # direction l (1-based) for RLM; 0 for ULM
    n_calls: int
    best_value: float
    noise: float


@dataclass
class EstimationTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def add(self, iteration, direction, n_calls, best_value, noise):
        self.records.append(TraceRecord(iteration, direction, n_calls, best_value, noise))

    @property
    def total_calls(self) -> int:
        return sum(r.n_calls for r in self.records)

    def noise_by_iteration(self) -> dict[int, float]:
        """tau^2 at the end of each cycle."""
        out = {}
        for r in self.records:
            out[r.iteration] = r.noise
        return out

    def to_csv(self, path_or_buf, run_id="run") -> None:
        write_traces(path_or_buf, {run_id: self})

    def to_csv_string(self, run_id="run") -> str:
        buf = io.StringIO()
        self.to_csv(buf, run_id=run_id)
        return buf.getvalue()


def write_traces(path_or_buf, traces: dict[str, EstimationTrace]) -> None:
    """CSV of ``{run_id: trace}``: one row per inner run, calls accumulated per run."""
    is_path = isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")
    with open(path_or_buf, "w", newline="") if is_path else nullcontext(path_or_buf) as fh:
        w = csv.writer(fh)
        w.writerow(["run_id", "iteration", "direction", "n_calls_cum", "best_value", "tau2"])
        for run_id, trace in traces.items():
            total = 0
            for r in trace.records:
                total += r.n_calls
                w.writerow([run_id, r.iteration, r.direction, total, repr(float(r.best_value)), repr(float(r.noise))])


@dataclass(frozen=True)
class EstimationResult:
    params: HyperParams
    trace: EstimationTrace
    best_value: float
    converged: bool


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _make_objective(dataset, family, composition, d):
    """Objective over the full optimization vector for the given composition."""

    def unpack(x) -> HyperParams:
        if composition == "additive":
            variances = x[:d]
            rest = x[d:]
        else:
            variances = np.concatenate([[x[0]], np.ones(d - 1)])
            rest = x[1:]
        return HyperParams(variances, rest[:d], float(rest[d]), family, composition)

    def value_and_grad(x):
        return nll_value_and_grad(unpack(x), dataset)

    return unpack, value_and_grad


def _full_bounds(hb: HyperBounds, d: int, composition: str) -> Bounds:
    n_var = d if composition == "additive" else 1
    lo = [hb.variance[0]] * n_var + [hb.lengthscale[0]] * d + [hb.noise[0]]
    hi = [hb.variance[1]] * n_var + [hb.lengthscale[1]] * d + [hb.noise[1]]
    return Bounds(np.array(lo), np.array(hi))


def estimate_ulm(
    dataset: Dataset,
    family: str = "gaussian",
    composition: str = "additive",
    bounds: HyperBounds | None = None,
    n_restarts: int = 1,
    max_evals: int = 5000,
    seed: int = 0,
) -> EstimationResult:
    """Joint likelihood maximization over all parameters at once.

    Restart 1 starts at the midpoint of the box; further restarts draw
    uniformly inside the box from a generator seeded with ``seed``.
    """
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    hb = bounds or default_bounds(dataset)
    box = _full_bounds(hb, dataset.d, composition)
    unpack, vg = _make_objective(dataset, family, composition, dataset.d)
    rng = np.random.default_rng(seed)

    trace = EstimationTrace()
    best: OptResult | None = None
    any_converged = False
    for r in range(n_restarts):
        start = box.midpoint() if r == 0 else rng.uniform(box.lower, box.upper)
        try:
            res = optimize_local(vg, box, start, max_evals=max_evals)
        except np.linalg.LinAlgError:
            continue
        trace.add(r + 1, 0, res.n_calls, res.value, float(res.x[-1]))
        any_converged = any_converged or res.converged
        if best is None or res.value < best.value:
            best = res
    if best is None:
        raise np.linalg.LinAlgError("all ULM restarts failed to evaluate the likelihood")
    return EstimationResult(unpack(best.x), trace, best.value, any_converged)


def estimate_rlm(
    dataset: Dataset,
    family: str = "gaussian",
    bounds: HyperBounds | None = None,
    n_iterations: int = 5,
    max_evals_inner: int = 200,
    rel_tol: float = 1e-6,
) -> EstimationResult:
    """Cyclic relaxed likelihood maximization with a floating noise variance.

    All variances start at zero and tau^2 at the top of its box (everything is
    noise until proven additive).  Cycle k visits each direction l in turn and
    re-optimizes (sigma_l^2, theta_l, tau^2) jointly, warm-started at the
    incumbent, for ``n_iterations`` cycles.  Stops early once a full cycle
    improves the objective by less than ``rel_tol`` in relative terms.
    """
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    d = dataset.d
    hb = bounds or default_bounds(dataset)
    # Half the unit domain: a start flat enough to see structure without the
    # near-constant correlations a mid-box lengthscale would produce.
    theta_start = float(np.clip(0.5, hb.lengthscale[0], hb.lengthscale[1]))

    variances = np.zeros(d)
    lengthscales = np.full(d, theta_start)
    noise = hb.noise[1]
    # At sigma_l = 0 the objective is flat in theta_l and can be locally uphill
    # in sigma_l, stalling the quasi-Newton step at the saddle; the first visit
    # to a direction therefore starts with a small variance kick.
    sigma_kick = 0.05 * hb.variance[1] / 10.0 if hb.variance[1] > 0 else 0.0

    # Each inner problem is a one-direction additive model: (sigma_l^2, theta_l, tau^2).
    inner_box = _full_bounds(hb, 1, "additive")

    trace = EstimationTrace()
    current = np.inf
    converged = True

    def make_inner(l):
        ids = [f"variance_{l}", f"lengthscale_{l}", "noise"]

        def value_and_grad(x3):
            v = variances.copy()
            t = lengthscales.copy()
            v[l], t[l] = x3[0], x3[1]
            p = HyperParams(v, t, float(x3[2]), family, "additive")
            return nll_value_and_grad(p, dataset, ids)

        return value_and_grad

    for k in range(1, n_iterations + 1):
        cycle_start = current
        for l in range(d):
            sigma_start = variances[l] if variances[l] > 0 else sigma_kick
            start = np.array([sigma_start, lengthscales[l], noise])
            res = optimize_local(make_inner(l), inner_box, start, max_evals=max_evals_inner)
            if res.value <= current:
                variances[l], lengthscales[l] = res.x[0], res.x[1]
                noise = float(res.x[2])
                current = res.value
            # else: keep the incumbent; the kicked start found nothing better.
            converged = converged and res.converged
            trace.add(k, l + 1, res.n_calls, current, noise)
        if k >= 2 and np.isfinite(cycle_start):
            if (cycle_start - current) < rel_tol * max(1.0, abs(cycle_start)):
                break

    params = HyperParams(variances.copy(), lengthscales.copy(), noise, family, "additive")
    return EstimationResult(params, trace, current, converged)
