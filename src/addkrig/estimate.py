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

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotri, dpotrs

# The one L-BFGS-B loop and the one factor-and-check helper, bound by name rather than wrapped
# in a def, so that tests and the benchmark's tracer count and time the calls through them.
from ._lbfgsb import minimize
from .gp import Dataset, _write_csv
from .gp import _factor as cholesky
from .kernels import AdditiveKernel, _check_names, _check_params, _corr

__all__ = [
    "HyperParams",
    "HyperBounds",
    "EstimationTrace",
    "EstimationResult",
    "neg_log_likelihood",
    "nll_gradient",
    "nll_value_and_grad",
    "estimate_ulm",
    "estimate_rlm",
    "additivity_ratio",
    "default_bounds",
    "write_traces",
]

@dataclass(frozen=True, eq=False, init=False)
class HyperParams(AdditiveKernel):
    """A kernel plus the noise variance tau^2, built as ``HyperParams(variances, lengthscales,
    tau^2, family, composition)``; the kernel's parameters are checked as any kernel's are."""

    noise: float

    def __init__(self, variances, lengthscales, noise, family="gaussian", composition="additive"):
        super().__init__(family, variances, lengthscales, composition)
        if not (math.isfinite(noise) and noise >= 0):
            raise ValueError(f"noise variance must be finite and >= 0, got {noise}")
        object.__setattr__(self, "noise", noise)


def _split(x: np.ndarray, d: int, composition: str) -> tuple[np.ndarray, np.ndarray, float]:
    """(variances, lengthscales, tau^2) of a vector laid out as :meth:`HyperBounds.box`, as views
    where they can be: the one reader of that layout.  The tensor composition's one variance is
    direction 0's, the others are 1."""
    if composition == "additive":
        return x[:d], x[d:2 * d], float(x[-1])
    return np.concatenate([x[:1], np.ones(d - 1)]), x[1:d + 1], float(x[-1])


def additivity_ratio(params: HyperParams) -> float:
    """Share of modeled variance attributed to the additive directions.

    Returns sum(sigma_i^2) / (sum(sigma_i^2) + tau^2) in [0, 1]; 1 means the
    data is explained as purely additive, 0 as pure noise.  Tensor parameters have no such
    share (their variances multiply, and all but one are fixed at 1): ValueError.
    """
    if not params.is_additive:
        raise ValueError("additivity ratio is defined for additive kernels only")
    total = float(np.sum(params.variances))
    denom = total + params.noise
    if denom <= 0:
        raise ValueError("additivity ratio undefined for all-zero parameters")
    return total / denom


@dataclass(frozen=True)
class HyperBounds:
    """Boxes (lower, upper) for the model parameters: sigma_i^2, theta_i and tau^2."""

    variance: tuple[float, float]
    lengthscale: tuple[float, float]
    noise: tuple[float, float]

    def __post_init__(self):
        boxes = (self.variance, self.lengthscale, self.noise)
        if not all(isinstance(b, numbers.Real) and math.isfinite(b) for box in boxes for b in box):
            raise ValueError(f"every bound must be a finite number, got {self}")
        if any(not lo <= hi for lo, hi in boxes):
            raise ValueError(f"every box needs lower <= upper, got {self}")
        # The objective is defined for theta > 0 and sigma^2, tau^2 >= 0 only.
        if self.lengthscale[0] <= 0 or self.variance[0] < 0 or self.noise[0] < 0:
            raise ValueError(f"boxes need lengthscale > 0 and variance, noise >= 0, got {self}")

    def box(self, d: int, composition: str = "additive") -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) float arrays over the optimization vector that :func:`_split` reads:
        the d variances (one for tensor), the d lengthscales, then tau^2."""
        _check_names(composition=composition)
        rows = np.array([self.variance, self.lengthscale, self.noise], dtype=float).T  # lower, upper
        return tuple(np.repeat(rows, [d if composition == "additive" else 1, d, 1], axis=1))


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


class _Likelihood:
    """The objective on one dataset, with its distances |x_i - x_j| built once as a d x n x n stack.

    One Cholesky factorization per call; gradient entries are <W, dK/dp> with W = K^-1 -
    alpha alpha^T (Rasmussen & Williams 2006, 5.4.1); dK/dtheta_i is the covariance term
    holding theta_i times q_i = d log r_i / d theta_i."""

    def __init__(self, dataset: Dataset):
        self.Y = dataset.Y
        X = np.ascontiguousarray(dataset.X.T)  # C-ordered slices keep every summation order
        self.dist = np.abs(X[:, :, None] - X[:, None, :])
        self._buf = np.empty_like(self.dist), np.empty_like(self.dist)  # every call's R and q

    def _solve(self, K: np.ndarray, noise: float) -> tuple[float, np.ndarray]:
        """(value, W) from one factorization of K + tau^2 I through ``cholesky``, then LAPACK's
        dpotrs and dpotri called directly; K is overwritten by L and then by W."""
        L = cholesky(K, noise)
        alpha = dpotrs(L, self.Y, lower=1)[0]
        value = 2.0 * float(np.log(L.diagonal()).sum()) + float(self.Y @ alpha)
        # K^-1 in L's place (it cannot fail: the pivots are > 0); transposed, it is C-ordered
        # with the upper triangle set and zeros below (clean=1), so mirroring it doubles only
        # the diagonal, which is then put back.
        W = dpotri(L, lower=1, overwrite_c=1)[0].T
        diag = np.einsum("ii->i", W)
        kept = diag.copy()
        W += W.T
        diag[:] = kept
        W -= alpha[:, None] * alpha
        return value, W

    def __call__(self, p: HyperParams) -> tuple[float, np.ndarray]:
        """(value, gradient over {sigma_i^2 (sigma_0^2 alone for tensor), theta_i, tau^2})."""
        return self._evaluate(p.family, p.composition, p.variances, p.lengthscales, p.noise)

    def _evaluate(self, family, composition, variances, lengthscales, noise):
        for v, t in zip(variances.tolist(), lengthscales.tolist()):
            _check_params(family, v, t)
        R, q = _corr(family, self.dist, lengthscales[:, None, None], dlog=True, out=self._buf)
        if composition == "additive":
            K = variances[0] * R[0]
            for v, Ri in zip(variances[1:], R[1:]):
                K += v * Ri
            value, W = self._solve(K, noise)
            WR = W * R
            grad = list(WR.sum(axis=(1, 2)))  # one pairwise sum per C-ordered slice
            grad += [v * np.vdot(x, qi) for v, x, qi in zip(variances, WR, q)]
        else:
            P = math.prod(R)  # correlation product
            value, W = self._solve(np.prod(variances) * P, noise)
            WP = W * P
            grad = [np.prod(variances[1:]) * WP.sum()]
            grad += [np.prod(variances) * np.vdot(WP, qi) for qi in q]
        return value, np.append(grad, W.trace())

    def direction(self, l: int, p: HyperParams):
        """Objective over (sigma_l^2, theta_l, tau^2) with the other directions of the additive
        ``p`` fixed in K_rest = sum_{j != l} sigma_j^2 r_j: a call evaluates one correlation."""
        family, dist = p.family, self.dist[l]
        buf = np.empty_like(dist), np.empty_like(dist)  # this closure's R and q
        K_rest = sum(v * _corr(family, r, t, out=buf)
                     for j, (r, v, t) in enumerate(zip(self.dist, p.variances, p.lengthscales)) if j != l)

        def value_and_grad(x):
            v, t, noise = x.tolist()
            _check_params(family, v, t)
            R, q = _corr(family, dist, t, dlog=True, out=buf)
            K = v * R
            K += K_rest
            value, W = self._solve(K, noise)
            WR = W * R
            return value, np.array([WR.sum(), v * np.vdot(WR, q), W.trace()])

        return value_and_grad


def nll_value_and_grad(params: HyperParams, dataset: Dataset) -> tuple[float, np.ndarray]:
    """Objective value and analytic gradient from one Cholesky factorization.

    The gradient is over the optimization vector of :meth:`HyperBounds.box`
    {sigma_i^2, theta_i, tau^2}, from d l = tr(K^-1 dK) - alpha^T dK alpha with
    alpha = K^-1 Y.  For the tensor composition the variance block collapses to
    the single overall variance (direction 0).
    """
    return _Likelihood(dataset)(params)


def neg_log_likelihood(params: HyperParams, dataset: Dataset) -> float:
    """log det K + Y^T K^-1 Y for the covariance induced by ``params``."""
    return nll_value_and_grad(params, dataset)[0]


def nll_gradient(params: HyperParams, dataset: Dataset) -> np.ndarray:
    """Analytic gradient of the objective over {sigma_i^2, theta_i, tau^2}."""
    return nll_value_and_grad(params, dataset)[1]


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@dataclass
class TraceRecord:
    iteration: int  # RLM cycle index k (1-based); 1 for ULM
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


def write_traces(path, traces: dict[str, EstimationTrace]) -> None:
    """CSV file of ``{run_id: trace}``: one row per inner run, calls accumulated per run."""
    def rows():
        for run_id, trace in traces.items():
            total = 0
            for r in trace.records:
                total += r.n_calls
                yield run_id, r.iteration, r.direction, total, r.best_value, r.noise

    _write_csv(path, ["run_id", "iteration", "direction", "n_calls_cum", "best_value", "tau2"], rows())


@dataclass(frozen=True, eq=False)
class EstimationResult:
    params: HyperParams
    trace: EstimationTrace
    best_value: float
    converged: bool


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def estimate_ulm(
    dataset: Dataset,
    family: str = "gaussian",
    composition: str = "additive",
    bounds: HyperBounds | None = None,
    max_evals: int = 5000,
) -> EstimationResult:
    """Joint likelihood maximization over all parameters at once: one L-BFGS-B run from the
    midpoint of the box."""
    _check_names(family, composition)
    d = dataset.d
    lower, upper = (bounds or default_bounds(dataset)).box(d, composition)
    lik = _Likelihood(dataset)

    def objective(x):  # the vector read by _split, without building a HyperParams per call
        return lik._evaluate(family, composition, *_split(x, d, composition))

    res = minimize(objective, lower, upper, (lower + upper) / 2, max_evals=max_evals)
    trace = EstimationTrace()
    trace.add(1, 0, res.n_calls, res.value, float(res.x[-1]))
    params = HyperParams(*_split(res.x, d, composition), family, composition)
    return EstimationResult(params, trace, res.value, res.converged)


def estimate_rlm(
    dataset: Dataset,
    family: str = "gaussian",
    bounds: HyperBounds | None = None,
    n_iterations: int = 5,
    max_evals_inner: int = 200,
) -> EstimationResult:
    """Cyclic relaxed likelihood maximization with a floating noise variance.

    All variances start at zero and tau^2 at the top of its box (everything is
    noise until proven additive).  Cycle k visits each direction l in turn and
    re-optimizes (sigma_l^2, theta_l, tau^2) jointly, warm-started at the
    incumbent, for ``n_iterations`` cycles.  Stops early once a full cycle
    improves the objective by less than 1e-6 in relative terms.
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
    inner_box = hb.box(1)

    trace = EstimationTrace()
    current = np.inf
    converged = True

    lik = _Likelihood(dataset)

    for k in range(1, n_iterations + 1):
        cycle_start = current
        for l in range(d):
            sigma_start = variances[l] if variances[l] > 0 else sigma_kick
            start = np.array([sigma_start, lengthscales[l], noise])
            res = minimize(lik.direction(l, HyperParams(variances, lengthscales, noise, family)),
                           *inner_box, start, max_evals=max_evals_inner)
            if res.value <= current:
                variances[l], lengthscales[l] = res.x[0], res.x[1]
                noise = float(res.x[2])
                current = res.value
            # else: keep the incumbent; the kicked start found nothing better.
            converged = converged and res.converged
            trace.add(k, l + 1, res.n_calls, current, noise)
        if k >= 2 and np.isfinite(cycle_start):
            if (cycle_start - current) < 1e-6 * max(1.0, abs(cycle_start)):
                break

    params = HyperParams(variances, lengthscales, noise, family)
    return EstimationResult(params, trace, current, converged)
