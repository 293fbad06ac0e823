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

Both drivers let L-BFGS-B step in log theta and log tau^2, positive scales whose boxes span
orders of magnitude (Rasmussen & Williams 2006, 5.4); the variances stay linear, since their
boxes start at 0 and RLM starts them there.

Every inner optimization counts its objective evaluations; the resulting
traces (calls vs best value, plus the tau^2 path) are the raw material of the
benchmark module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# The one L-BFGS-B loop and the one factor-and-check helper, bound by name rather than wrapped
# in a def, so that tests and the benchmark's tracer count and time the calls through them.
from ._lbfgsb import minimize
from .gp import Dataset, _write_csv
from .gp import _factor as cholesky
from .kernels import AdditiveKernel, _check_names, _check_noise, _check_params, _corr
from ._scipy import dpotri, dpotrs

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
        _check_noise(noise)
        object.__setattr__(self, "noise", noise)


def _from_log(z: float, lo_hi: tuple[float, float]) -> float:
    """exp(z) clipped into the linear box lo_hi: the one map from the optimizer's log theta and
    log tau^2 back to theta and tau^2."""
    return min(max(math.exp(z), lo_hi[0]), lo_hi[1])


def _split(x: np.ndarray, d: int, composition: str, bounds: HyperBounds) -> tuple[np.ndarray, np.ndarray, float]:
    """(variances, lengthscales, tau^2) of a vector laid out as :meth:`HyperBounds.box`: the one
    reader of that layout.  The variances are views; theta and tau^2 are mapped back from their
    logs and clipped into ``bounds`` (exp(log(3.0)) is 3.0000000000000004), so the likelihood
    never sees a point outside the box.  The tensor composition's one variance is direction 0's,
    the others are 1."""
    n_var = d if composition == "additive" else 1
    *log_t, log_noise = x[n_var:].tolist()
    variances = x[:d] if composition == "additive" else np.concatenate([x[:1], np.ones(d - 1)])
    lengthscales = np.array([_from_log(z, bounds.lengthscale) for z in log_t])
    return variances, lengthscales, _from_log(log_noise, bounds.noise)


def _vector(variance: float, lengthscale: float, noise: float, d: int, composition: str) -> np.ndarray:
    """The optimization vector that :func:`_split` reads, with every variance, lengthscale and
    tau^2 at the given value: the d variances (one for tensor), then log theta_i and log tau^2.
    A zero tau^2 (its lower bound may be 0) takes the log of the smallest normal float, so that
    L-BFGS-B sees a finite box."""
    logs = math.log(lengthscale), math.log(max(noise, np.finfo(float).tiny))
    return np.repeat([variance, *logs], [d if composition == "additive" else 1, d, 1])


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
        # A valid lower corner makes every point of the box valid, so the objective need not check.
        _check_params(self.variance[0], self.lengthscale[0])
        _check_noise(self.noise[0])

    def box(self, d: int, composition: str = "additive") -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) float arrays over the optimization vector that :func:`_split` reads:
        the d variances (one for tensor), then log theta_i and log tau^2, the coordinates that
        L-BFGS-B steps in (Rasmussen & Williams 2006, 5.4)."""
        _check_names(composition=composition)
        return tuple(_vector(*corner, d, composition)
                     for corner in zip(self.variance, self.lengthscale, self.noise))


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
    """The objective on a design X and responses Y, with its |x_i - x_j| built once over the
    strict upper triangle i < j: a d x m array, m = n(n-1)/2, the pairs in row-major order.

    One Cholesky factorization per call, of K put into the upper triangle of one n x n buffer,
    its packed cells summed as cov_matrix sums them.  Gradient entries are <W, dK/dp> with
    W = K^-1 - alpha alpha^T (Rasmussen & Williams 2006, 5.4.1), summed over that triangle:
    2 W_p . dK_p, plus tr W for a variance, whose dK/dp is a correlation with ones on the
    diagonal.  dK/d log theta_i is the covariance term holding theta_i times q_i = d log r_i /
    d log theta_i, zero on the diagonal.  It checks no parameter: each comes from a checked
    HyperParams or from L-BFGS-B through :func:`_split`, which keeps every point inside a
    HyperBounds box, all of whose points are valid."""

    def __init__(self, X: np.ndarray, Y: np.ndarray):
        self.Y = Y
        n = len(Y)
        self._pairs = i, j = np.triu_indices(n, 1)
        self._upper = i * n + j  # flat indices into an n x n array
        self.dist = np.abs(X[i] - X[j]).T  # pair-major, which sets the order BLAS sums R @ W in
        self._buf = np.empty_like(self.dist), np.empty_like(self.dist)  # every call's R and q
        self._K = np.empty((n, n))
        self._flat = self._K.reshape(-1)

    def _solve(self, K: np.ndarray, diag: float, noise: float) -> tuple[float, np.ndarray, float]:
        """(value, W_p, tr W) for the covariance with the packed strict upper triangle K,
        ``diag`` on the diagonal and tau^2 I added.  The engine's buffer is factored in place
        through ``cholesky``, which reads only that triangle, and LAPACK's dpotrs and dpotri are
        called directly; dpotri leaves K^-1 in the same triangle, so W_p, W's packed strict upper
        triangle, is gathered from it."""
        self._flat[self._upper] = K
        self._flat[::len(self.Y) + 1] = diag
        L = cholesky(self._K, noise)
        alpha = dpotrs(L, self.Y, lower=1)[0]
        value = 2.0 * float(np.log(L.diagonal()).sum()) + float(self.Y @ alpha)
        inv = dpotri(L, lower=1, overwrite_c=1)[0].T  # C-ordered, K^-1 in the upper triangle
        W = inv.take(self._upper)
        i, j = self._pairs
        W -= alpha[i] * alpha[j]
        return value, W, float(inv.trace() - alpha @ alpha)

    def __call__(self, p: HyperParams) -> tuple[float, np.ndarray]:
        """(value, gradient over {sigma_i^2 (sigma_0^2 alone for tensor), theta_i, tau^2})."""
        return self._evaluate(p.family, p.composition, p.variances, p.lengthscales, p.noise, log=False)

    def _evaluate(self, family, composition, variances, lengthscales, noise, log=True):
        """(value, gradient) over the layout of :meth:`HyperBounds.box`; with ``log`` the theta
        and tau^2 entries are over their logs, as L-BFGS-B steps, and otherwise over themselves."""
        R, q = _corr(family, self.dist, lengthscales[:, None], dlog=True, out=self._buf)
        v = variances.tolist()
        if composition == "additive":
            K = v[0] * R[0]
            for vi, Ri in zip(v[1:], R[1:]):
                K += vi * Ri
            value, W, trace = self._solve(K, sum(v), noise)
            q *= R
            grad = np.concatenate([2.0 * (R @ W) + trace, 2.0 * variances * (q @ W), [trace]])
        else:
            P, scale = math.prod(R), math.prod(v)  # correlation product, variance product
            K = scale * R[0]
            for Ri in R[1:]:
                K *= Ri
            value, W, trace = self._solve(K, scale, noise)
            q *= P
            grad = np.concatenate([[math.prod(v[1:]) * (2.0 * (P @ W) + trace)], 2.0 * scale * (q @ W), [trace]])
        if log:
            grad[-1] *= noise
        else:
            grad[-1 - len(R):-1] /= lengthscales
        return value, grad

    def direction(self, l: int, p: HyperParams, bounds: HyperBounds):
        """Objective over (sigma_l^2, log theta_l, log tau^2), the vector of ``bounds.box(1)``,
        with the other directions of the additive ``p`` fixed in K_rest = sum_{j != l} sigma_j^2
        r_j, packed: a call evaluates one correlation."""
        family, t_box, noise_box = p.family, bounds.lengthscale, bounds.noise
        dist = np.ascontiguousarray(self.dist[l])  # a row of the pair-major array is strided
        buf = np.empty((2, len(dist)))  # this closure's R and q
        rest = [j for j in range(p.dims) if j != l]
        K_rest = sum(p.variances[j] * _corr(family, self.dist[j], p.lengthscales[j], out=buf) for j in rest)
        diag_rest = sum(p.variances[rest].tolist())

        def value_and_grad(x):
            v, log_t, log_noise = x.tolist()  # as _split reads it, without its arrays
            t, noise = _from_log(log_t, t_box), _from_log(log_noise, noise_box)
            R, q = _corr(family, dist, t, dlog=True, out=buf)
            K = v * R
            K += K_rest
            value, W, trace = self._solve(K, v + diag_rest, noise)
            q *= R
            return value, np.array([2.0 * (R @ W) + trace, 2.0 * v * (q @ W), noise * trace])

        return value_and_grad


def nll_value_and_grad(params: HyperParams, dataset: Dataset) -> tuple[float, np.ndarray]:
    """Objective value and analytic gradient from one Cholesky factorization.

    The gradient is over the linear parameters {sigma_i^2, theta_i, tau^2}, in the
    layout of :meth:`HyperBounds.box` but not over its log theta_i and log tau^2
    entries, from d l = tr(K^-1 dK) - alpha^T dK alpha with
    alpha = K^-1 Y.  For the tensor composition the variance block collapses to
    the single overall variance (direction 0).
    """
    return _Likelihood(dataset.X, dataset.Y)(params)


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
    """Joint likelihood maximization over all parameters at once: one L-BFGS-B run, in log
    theta and log tau^2, from the midpoint of the (linear) box.  The responses' mean is removed
    first, as :func:`fit_gp` removes it, so ``best_value`` is the objective of the centered
    responses."""
    _check_names(family, composition)
    d = dataset.d
    hb = bounds or default_bounds(dataset)
    lower, upper = hb.box(d, composition)
    # Not the midpoint of the log box: its small theta and tau^2 start ULM in worse optima.
    start = _vector(*((lo + hi) / 2 for lo, hi in (hb.variance, hb.lengthscale, hb.noise)), d, composition)
    lik = _Likelihood(dataset.X, dataset.Y - np.mean(dataset.Y))

    def objective(x):  # the vector read by _split, without building a HyperParams per call
        return lik._evaluate(family, composition, *_split(x, d, composition, hb))

    res = minimize(objective, lower, upper, start, max_evals=max_evals)
    params = HyperParams(*_split(res.x, d, composition, hb), family, composition)
    trace = EstimationTrace()
    trace.add(1, 0, res.n_calls, res.value, params.noise)
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
    improves the objective by less than 1e-6 in relative terms.  The responses' mean is removed
    first, as :func:`fit_gp` removes it: ``best_value`` is the centered responses' objective.
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
    sigma_kick = 0.05 * hb.variance[1] / 10.0

    # Each inner problem is a one-direction additive model: (sigma_l^2, log theta_l, log tau^2).
    inner_box = hb.box(1)

    trace = EstimationTrace()
    current = np.inf
    converged = True

    lik = _Likelihood(dataset.X, dataset.Y - np.mean(dataset.Y))

    for k in range(1, n_iterations + 1):
        cycle_start = current
        for l in range(d):
            sigma_start = variances[l] if variances[l] > 0 else sigma_kick
            start = _vector(sigma_start, lengthscales[l], noise, 1, "additive")
            res = minimize(lik.direction(l, HyperParams(variances, lengthscales, noise, family), hb),
                           *inner_box, start, max_evals=max_evals_inner)
            if res.value <= current:
                (variances[l],), (lengthscales[l],), noise = _split(res.x, 1, "additive", hb)
                current = res.value
            # else: keep the incumbent; the kicked start found nothing better.
            converged = converged and res.converged
            trace.add(k, l + 1, res.n_calls, current, noise)
        # False in cycle 1 (inf < inf); after it current is finite: minimize returns a real value.
        if (cycle_start - current) < 1e-6 * max(1.0, abs(cycle_start)):
            break

    params = HyperParams(variances, lengthscales, noise, family)
    return EstimationResult(params, trace, current, converged)
