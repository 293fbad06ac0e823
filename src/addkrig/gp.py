"""Simple-kriging models on additive (or tensor) kernels.

A fitted model holds a Cholesky factor of the design covariance matrix and the
weight vector alpha = K^-1 (Y - mean(Y)).  The constant trend is handled by
centering the responses at ingestion and adding the empirical mean back at
prediction time.

For additive kernels the predictor decomposes into univariate sub-models
m_i(x_i), each with a prediction variance v_i(x_i), and into centered effects
(m_i*, v_i*) where the unidentifiable per-direction constant is removed by
subtracting the integral of the direction's process over [0, 1].

Degenerate designs (point sets whose additive covariance matrix is singular
because one point's process value is an almost-sure linear combination of
others) are diagnosed with a pivoted Cholesky factorization.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .kernels import (
    AdditiveKernel,
    cov_matrix,
    cross_cov,
    double_integral_univariate,
    integral_univariate,
    kernel_from_json,
    kernel_to_json,
)

__all__ = [
    "Dataset",
    "FittedGP",
    "DegeneracyReport",
    "CholeskyFailure",
    "fit_gp",
    "predict_mean",
    "predict_var",
    "sub_model",
    "centered_effect",
    "detect_degenerate_design",
]

MODEL_SCHEMA_VERSION = 1

# Round-off window below zero that is silently clamped; anything more negative
# signals a broken factorization.
_VAR_CLAMP = -1e-10


@dataclass(frozen=True)
class Dataset:
    """Design matrix X (n x d, unit-hypercube coordinates) and responses Y."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.asarray(self.Y, dtype=float).ravel()
        if X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y must have the same number of rows")
        if X.shape[0] < 1:
            raise ValueError("dataset needs at least one point")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("design and responses must be finite")
        if np.any(X < -1e-12) or np.any(X > 1 + 1e-12):
            raise ValueError("design coordinates must lie in [0, 1]")
        if len(np.unique(X, axis=0)) != X.shape[0]:
            raise ValueError("duplicated design points")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x{i + 1}" for i in range(self.d)] + ["y"])
            for row, y in zip(self.X, self.Y):
                w.writerow([repr(float(v)) for v in row] + [repr(float(y))])

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise ValueError(f"empty CSV file {path}")
        header = [h.strip().lower() for h in rows[0]]
        if header[-1] != "y" or any(not h.startswith("x") for h in header[:-1]):
            raise ValueError("expected header x1,...,xd,y")
        body = [r for r in rows[1:] if r]
        if not body:
            raise ValueError(f"no data rows in {path}")
        if any(len(r) != len(header) for r in body):
            raise ValueError("row width does not match header")
        data = np.array([[float(v) for v in r] for r in body], dtype=float)
        return cls(data[:, :-1], data[:, -1])


@dataclass(frozen=True)
class DegeneracyReport:
    """Rank diagnosis of a design covariance matrix.

    Each dependent point's covariance column is (numerically) a linear
    combination of the pivot points' columns; ``coefficients[k]`` gives that
    combination for ``dependent_point_indices[k]``, ordered like
    ``pivot_indices``.  All indices are zero-based row indices into the design.
    """

    rank: int
    pivot_indices: tuple[int, ...]
    dependent_point_indices: tuple[int, ...]
    coefficients: tuple[np.ndarray, ...] = field(default_factory=tuple)

    @property
    def is_degenerate(self) -> bool:
        return len(self.dependent_point_indices) > 0

    def describe(self) -> str:
        if not self.is_degenerate:
            return f"design is full rank ({self.rank})"
        lines = [f"design covariance has rank {self.rank}"]
        for j, c in zip(self.dependent_point_indices, self.coefficients):
            terms = " + ".join(
                f"{w:+.3g}*Z(x[{p}])" for w, p in zip(c, self.pivot_indices)
            )
            lines.append(f"  Z(x[{j}]) = {terms} (almost surely)")
        return "\n".join(lines)


class CholeskyFailure(Exception):
    """Covariance matrix is singular to tolerance; carries a DegeneracyReport."""

    def __init__(self, report: DegeneracyReport):
        super().__init__(report.describe())
        self.report = report


def detect_degenerate_design(
    kernel: AdditiveKernel, X, tol: float | None = None
) -> DegeneracyReport:
    """Diagnose rank deficiency of cov_matrix(kernel, X, 0) via pivoted Cholesky."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    K = cov_matrix(kernel, X, 0.0)
    n = K.shape[0]
    if tol is None:
        # A diagnosis, not a decision: looser than _check_pivots, so every
        # covariance that fit_gp refuses gets a non-empty report.
        tol = 1e-8 * np.trace(K) / n
    # Rank-revealing Cholesky in natural row order: a column whose residual
    # diagonal falls below tol is a dependent point; earlier points are
    # preferred as pivots so the diagnosis names the redundant late arrival.
    pivots: list[int] = []
    dependents_l: list[int] = []
    L_rows: list[np.ndarray] = []
    for j in range(n):
        w = np.empty(len(pivots))
        for m, p in enumerate(pivots):
            w[m] = (K[p, j] - L_rows[m][:m] @ w[:m]) / L_rows[m][m]
        r2 = K[j, j] - w @ w
        if r2 > tol:
            pivots.append(j)
            L_rows.append(np.append(w, math.sqrt(r2)))
        else:
            dependents_l.append(j)
    rank = len(pivots)
    pivots = tuple(pivots)
    dependents = tuple(dependents_l)
    coeffs = []
    if dependents:
        block = K[np.ix_(pivots, pivots)]
        for j in dependents:
            c, *_ = np.linalg.lstsq(block, K[list(pivots), j], rcond=None)
            coeffs.append(c)
    return DegeneracyReport(int(rank), pivots, dependents, tuple(coeffs))


@dataclass(frozen=True)
class FittedGP:
    """Kernel + noise + data + lower Cholesky factor and precomputed weights."""

    kernel: AdditiveKernel
    noise: float
    dataset: Dataset
    factor: np.ndarray
    weights: np.ndarray
    y_mean: float

    @property
    def log_det(self) -> float:
        """log det of the design covariance matrix (including noise)."""
        return 2.0 * float(np.sum(np.log(np.diag(self.factor))))

    def to_json(self) -> dict:
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "kernel": kernel_to_json(self.kernel),
            "noise": self.noise,
            "x": self.dataset.X.tolist(),
            "y": self.dataset.Y.tolist(),
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, obj) -> "FittedGP":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ValueError("model must be a JSON object")
        if obj.get("schema_version") != MODEL_SCHEMA_VERSION:
            raise ValueError(f"unsupported model schema_version {obj.get('schema_version')!r}")
        try:
            kernel, noise = kernel_from_json(obj["kernel"]), float(obj["noise"])
        except TypeError as exc:  # a null or a list where a number belongs
            raise ValueError(f"malformed model: {exc}") from None
        ds = Dataset(np.asarray(obj["x"], dtype=float), np.asarray(obj["y"], dtype=float))
        return fit_gp(kernel, ds, noise)

    @classmethod
    def load(cls, path) -> "FittedGP":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def fit_gp(
    kernel: AdditiveKernel, dataset: Dataset, noise: float = 0.0, center: bool = True
) -> FittedGP:
    """Factorize the design covariance and precompute the kriging weights.

    With ``center=True`` (default) the empirical mean of Y is subtracted
    before solving and added back at prediction; ``center=False`` treats the
    responses as observations of an already-centered process.

    Never adds jitter on its own: a singular covariance raises
    :class:`CholeskyFailure` carrying the :class:`DegeneracyReport`, and the
    caller decides whether to drop points or pass an explicit noise variance.
    """
    if kernel.dims != dataset.d:
        raise ValueError("kernel dims do not match dataset dimension")
    K = cov_matrix(kernel, dataset.X, noise)
    try:
        L = cholesky(K, lower=True)
        _check_pivots(L, np.trace(K))
    except np.linalg.LinAlgError:
        raise CholeskyFailure(detect_degenerate_design(kernel, dataset.X)) from None
    y_mean = float(np.mean(dataset.Y)) if center else 0.0
    alpha = cho_solve((L, True), dataset.Y - y_mean)
    return FittedGP(kernel, float(noise), dataset, L, alpha, y_mean)


def _check_pivots(L: np.ndarray, trace: float) -> None:
    """The one singularity test of a Cholesky factor L of K, given tr(K), shared by fit_gp and
    the likelihood (which factorizes K in place, so it passes the trace it took first)."""
    # An exactly singular K can factorize with a tiny positive pivot; the
    # threshold sits far below any admissible noise floor.
    if L.diagonal().min() ** 2 <= 1e-12 * trace / len(L):
        raise np.linalg.LinAlgError("covariance matrix is numerically singular")


def _query_points(x, d: int) -> tuple[bool, np.ndarray]:
    """(whether x is one point, m x d batch); rejects non-finite or d-mismatched points."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("query points must be finite")
    pts = np.atleast_2d(x)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"query points have shape {x.shape}, model expects dimension {d}")
    return x.ndim == 1, pts


# Query rows per cross-covariance block: prediction and effects hold O(_BLOCK * n)
# floats at a time whatever the number of query points.
_BLOCK = 500


def _blocks(m: int):
    """Slices of _BLOCK rows covering range(m); a lone last row joins the block before it,
    because BLAS takes another path for one row, which rounds differently."""
    starts = list(range(0, m, _BLOCK))
    if m > 1 and m % _BLOCK == 1:
        starts.pop()
    return (slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [m]))


def _predict(gp: FittedGP, x, with_var: bool):
    """(mean, variance or None) at one point or a batch, one cross_cov per block of
    query rows; the triangular solve runs only when the variance is wanted."""
    single, pts = _query_points(x, gp.kernel.dims)
    mean = np.empty(len(pts))
    var = np.empty(len(pts)) if with_var else None
    # Stationary kernels: the prior variance k(x, x) is the same at every point.
    variances = [c.variance for c in gp.kernel.components]
    prior = sum(variances) if gp.kernel.is_additive else math.prod(variances)
    for blk in _blocks(len(pts)):
        k = cross_cov(gp.kernel, pts[blk], gp.dataset.X)
        mean[blk] = gp.y_mean + k @ gp.weights
        if with_var:
            v = solve_triangular(gp.factor, k.T, lower=True)
            var[blk] = prior - np.sum(v * v, axis=0)
    if with_var:
        var = _clamp_var(var)
    if single:
        return float(mean[0]), None if var is None else float(var[0])
    return mean, var


def predict_mean(gp: FittedGP, x) -> float | np.ndarray:
    """Kriging mean at one point (d-vector) or a batch of points (m x d)."""
    return _predict(gp, x, with_var=False)[0]


def predict_var(gp: FittedGP, x) -> float | np.ndarray:
    """Kriging variance at one point or a batch; clamped at zero for round-off."""
    return _predict(gp, x, with_var=True)[1]


def _clamp_var(v):
    v = np.asarray(v, dtype=float)
    if np.any(v < _VAR_CLAMP):
        raise ArithmeticError(
            f"variance {v.min():.3e} below round-off window; factorization is inconsistent"
        )
    return np.maximum(v, 0.0)


def _require_additive(gp: FittedGP) -> None:
    if not gp.kernel.is_additive:
        raise ValueError("sub-models are only defined for additive composition")


def _direction_pass(gp: FittedGP, direction: int, x_i, centered: bool):
    """Sub-model (m_i, v_i) of one direction at the points x_i (scalar or 1-d array) and,
    with ``centered``, the centered effect (m_i*, v_i*) too: one cross-covariance with the
    design and one triangular solve per block of points.  Returns a tuple of 2 or 4 floats
    (scalar x_i) or arrays."""
    _require_additive(gp)
    x_i = np.asarray(x_i, dtype=float)
    xi = np.atleast_1d(x_i)
    spec = gp.kernel.components[direction]
    kernel, Xd = AdditiveKernel((spec,)), gp.dataset.X[:, [direction]]
    out = np.empty((4 if centered else 2, len(xi)))
    if centered:
        I_i = np.asarray(integral_univariate(spec, Xd[:, 0]))  # int K_i(x_j, s) ds
        Kinv_I = cho_solve((gp.factor, True), I_i)
        single_int = np.asarray(integral_univariate(spec, xi))
        double_int = double_integral_univariate(spec)
    for blk in _blocks(len(xi)):
        k_i = cross_cov(kernel, xi[blk, None], Xd)
        v = solve_triangular(gp.factor, k_i.T, lower=True)
        out[0, blk] = gp.y_mean / gp.kernel.dims + k_i @ gp.weights
        out[1, blk] = v_i = _clamp_var(spec.variance - np.sum(v * v, axis=0))
        if centered:
            out[2, blk] = (k_i - I_i) @ gp.weights
            out[3, blk] = _clamp_var(
                v_i
                - 2.0 * single_int[blk]
                + 2.0 * (k_i @ Kinv_I)
                + double_int
                - I_i @ Kinv_I
            )
    return tuple(float(row[0]) for row in out) if x_i.ndim == 0 else tuple(out)


def sub_model(gp: FittedGP, direction: int, x_i):
    """Univariate sub-model (m_i, v_i) of direction ``direction`` (zero-based).

    The constant trend is split evenly across directions so that the
    sub-model means sum exactly to the full predictor mean.
    """
    return _direction_pass(gp, direction, x_i, centered=False)


def centered_effect(gp: FittedGP, direction: int, x_i):
    """Centered effect (m_i*, v_i*): the sub-model with its [0,1] average removed.

    m_i*(x) = m_i(x) - int m_i, and v_i* is the conditional variance of
    Z_i(x) - int Z_i given the observations, assembled from the closed-form
    kernel integrals.
    """
    return _direction_pass(gp, direction, x_i, centered=True)[2:]
