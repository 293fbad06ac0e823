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
import math
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
# One name for the factorization, bound rather than wrapped in a def, so that tests and the
# benchmark's tracer can count the calls through it.
from scipy.linalg.lapack import dpotrf as cholesky
from scipy.linalg.lapack import dpotri, dpotrs
from scipy.optimize import minimize

from .gp import Dataset, _check_pivots
from .kernels import _FAMILIES, AdditiveKernel, _check_params, _corr, make_kernel

__all__ = [
    "HyperParams",
    "HyperBounds",
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
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise variance must be finite and >= 0, got {self.noise}")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.composition not in ("additive", "tensor"):
            raise ValueError(f"unknown composition {self.composition!r}")

    @property
    def d(self) -> int:
        return self.variances.shape[0]

    def to_kernel(self) -> AdditiveKernel:
        return make_kernel(self.family, self.variances, self.lengthscales, self.composition)

    @classmethod
    def from_vector(cls, x, d: int, family: str = "gaussian", composition: str = "additive") -> HyperParams:
        """Parameters from an optimization vector laid out as :meth:`HyperBounds.box`; the
        tensor composition's one variance is direction 0's, the others are 1."""
        x = np.asarray(x, dtype=float)
        n_var = d if composition == "additive" else 1
        if x.shape != (n_var + d + 1,):
            raise ValueError(f"expected a vector of {n_var + d + 1} entries, got shape {x.shape}")
        variances = x[:d] if composition == "additive" else np.concatenate([x[:1], np.ones(d - 1)])
        return cls(variances, x[n_var:n_var + d], float(x[-1]), family, composition)


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
class HyperBounds:
    """Boxes (lower, upper) for the model parameters: sigma_i^2, theta_i and tau^2."""

    variance: tuple[float, float]
    lengthscale: tuple[float, float]
    noise: tuple[float, float]

    def __post_init__(self):
        boxes = (self.variance, self.lengthscale, self.noise)
        if not all(math.isfinite(b) for box in boxes for b in box):
            raise ValueError(f"every bound must be finite, got {self}")
        if any(not lo <= hi for lo, hi in boxes):
            raise ValueError(f"every box needs lower <= upper, got {self}")
        # The objective is defined for theta > 0 and sigma^2, tau^2 >= 0 only.
        if self.lengthscale[0] <= 0 or self.variance[0] < 0 or self.noise[0] < 0:
            raise ValueError(f"boxes need lengthscale > 0 and variance, noise >= 0, got {self}")

    def box(self, d: int, composition: str = "additive") -> list[tuple[float, float]]:
        """(lower, upper) per entry of the optimization vector that :meth:`HyperParams.from_vector`
        reads: the d variances (one for tensor), the d lengthscales, then tau^2."""
        n_var = d if composition == "additive" else 1
        return [self.variance] * n_var + [self.lengthscale] * d + [self.noise]


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

    def _solve(self, K: np.ndarray, noise: float) -> tuple[float, np.ndarray]:
        """(value, W) from one factorization of K + tau^2 I, calling LAPACK directly; K is
        overwritten by L and then by W.  Value and W are bit for bit those of scipy's
        cholesky/cho_solve route, which the tests keep as the reference."""
        if not (math.isfinite(noise) and noise >= 0):
            raise ValueError(f"noise variance must be finite and >= 0, got {noise}")
        diag = np.einsum("ii->i", K)  # a writable view
        diag += noise
        trace = diag.sum()  # taken first: the factorization overwrites K
        # K is exactly symmetric, so K.T is K in Fortran order and LAPACK works in place.
        L, info = cholesky(K.T, lower=1, clean=1, overwrite_a=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"{info}-th leading minor of the covariance is not positive definite")
        _check_pivots(L, trace)
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
        for v, t in zip(p.variances.tolist(), p.lengthscales.tolist()):
            _check_params(p.family, v, t)
        R, q = _corr(p.family, self.dist, p.lengthscales[:, None, None], dlog=True)
        if p.composition == "additive":
            K = p.variances[0] * R[0]
            for v, Ri in zip(p.variances[1:], R[1:]):
                K += v * Ri
            value, W = self._solve(K, p.noise)
            WR = W * R
            grad = list(WR.sum(axis=(1, 2)))  # one pairwise sum per C-ordered slice
            grad += [v * np.vdot(x, qi) for v, x, qi in zip(p.variances, WR, q)]
        else:
            P = math.prod(R)  # correlation product
            value, W = self._solve(np.prod(p.variances) * P, p.noise)
            WP = W * P
            grad = [np.prod(p.variances[1:]) * WP.sum()]
            grad += [np.prod(p.variances) * np.vdot(WP, qi) for qi in q]
        return value, np.append(grad, W.trace())

    def direction(self, l: int, p: HyperParams):
        """Objective over (sigma_l^2, theta_l, tau^2) with the other directions of the additive
        ``p`` fixed in K_rest = sum_{j != l} sigma_j^2 r_j: a call evaluates one correlation."""
        K_rest = sum(v * _corr(p.family, r, t)
                     for j, (r, v, t) in enumerate(zip(self.dist, p.variances, p.lengthscales)) if j != l)
        family, dist = p.family, self.dist[l]

        def value_and_grad(x):
            v, t, noise = x.tolist()
            _check_params(family, v, t)
            R, q = _corr(family, dist, t, dlog=True)
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
    bounds: list[tuple[float, float]],
    start,
    max_evals: int = 1000,
) -> OptResult:
    """Box-constrained quasi-Newton descent (L-BFGS-B) with call counting.

    ``bounds`` is one (lower, upper) pair per entry of ``x``, as scipy's L-BFGS-B takes.
    ``value_and_grad(x) -> (f, g)`` may raise ``np.linalg.LinAlgError`` to
    signal an infeasible point; a large finite sentinel with a retreating
    gradient is fed to the optimizer instead.  Every call is counted,
    including line-search probes, and the best evaluated point is returned
    (never worse than the start).
    """
    lower, upper = np.array(bounds, dtype=float).T
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
        bounds=bounds,
        options={"maxfun": max_evals},
    )
    if best["x"] is None:
        raise np.linalg.LinAlgError("objective never evaluated successfully")
    exhausted = n_calls >= max_evals and not res.success
    return OptResult(np.clip(best["x"], lower, upper), best["f"], n_calls, not exhausted)


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
    d = dataset.d
    box = (bounds or default_bounds(dataset)).box(d, composition)
    lik = _Likelihood(dataset)
    rng = np.random.default_rng(seed)

    trace = EstimationTrace()
    best: OptResult | None = None
    any_converged = False
    for r in range(n_restarts):
        start = np.mean(box, axis=1) if r == 0 else rng.uniform(*np.transpose(box))
        try:
            res = optimize_local(lambda x: lik(HyperParams.from_vector(x, d, family, composition)),
                                 box, start, max_evals=max_evals)
        except np.linalg.LinAlgError:
            continue
        trace.add(r + 1, 0, res.n_calls, res.value, float(res.x[-1]))
        any_converged = any_converged or res.converged
        if best is None or res.value < best.value:
            best = res
    if best is None:
        raise np.linalg.LinAlgError("all ULM restarts failed to evaluate the likelihood")
    return EstimationResult(HyperParams.from_vector(best.x, d, family, composition), trace,
                            best.value, any_converged)


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
            res = optimize_local(lik.direction(l, HyperParams(variances, lengthscales, noise, family)),
                                 inner_box, start, max_evals=max_evals_inner)
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

    params = HyperParams(variances.copy(), lengthscales.copy(), noise, family, "additive")
    return EstimationResult(params, trace, current, converged)
