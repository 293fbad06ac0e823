"""Simple-kriging models on additive (or tensor) kernels.

A fitted model holds a Cholesky factor of the design covariance matrix and the
weight vector alpha = K^-1 (Y - mean(Y)).  The constant trend is handled by
centering the responses at ingestion and adding the empirical mean back at
prediction time.

For additive kernels the predictor decomposes into univariate sub-models
m_i(x_i), each with a prediction variance v_i(x_i), and into centered effects
(m_i*, v_i*) where the unidentifiable per-direction constant is removed by
subtracting the integral of the direction's process over [0, 1].

One helper, ``_factor``, factorizes every covariance and judges it singular or not.
Degenerate designs (point sets whose additive covariance matrix is singular
because one point's process value is an almost-sure linear combination of
others) are diagnosed with a blocked, pivoted Cholesky factorization.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from ._scipy import dpotrf, dpotrs, solve_triangular
from .kernels import (AdditiveKernel, _check_design, _check_noise, cov_matrix, cross_cov,
                      double_integral_univariate, integral_univariate)

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


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design matrix X (n x d, unit-hypercube coordinates) and responses Y."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if X.shape[0] < 1 or X.shape[-1] < 1:
            raise ValueError("dataset needs at least one point and one input column")
        X = _check_design(X, X.shape[-1])
        Y = np.asarray(self.Y, dtype=float).ravel()
        if X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y must have the same number of rows")
        if not np.all(np.isfinite(Y)):
            raise ValueError("responses must be finite")
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
        _write_csv(path, [f"x{i + 1}" for i in range(self.d)] + ["y"], np.column_stack([self.X, self.Y]))

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        header, data = _read_csv(path)
        header = [h.strip().lower() for h in header]
        if not header or header[-1] != "y" or any(not h.startswith("x") for h in header[:-1]):
            raise ValueError("expected header x1,...,xd,y")
        if data.shape[1] != len(header):
            raise ValueError("row width does not match header")
        return cls(data[:, :-1], data[:, -1])


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """(header, rows) of a CSV file of numbers, blank lines skipped: the first row is the header
    unless it reads as numbers (then the header is []), and the rows are one 2-d float array.
    ValueError for no data rows, an entry that is not a number or rows of unequal width."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    header = []
    if rows:
        try:
            [float(v) for v in rows[0]]
        except ValueError:
            header = rows.pop(0)
    if not rows:
        raise ValueError("no data rows")
    if len({len(r) for r in rows}) > 1:
        raise ValueError("rows of unequal width")
    return header, np.array([[float(v) for v in r] for r in rows], dtype=float)


def _write_csv(path, header, rows) -> None:
    """CSV file of a header and rows: a float (numpy's too) is written as repr(float(v)), which
    reads back bit for bit, and anything else, such as an int or a str, as it is."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
                    for row in rows)


def _write_json(path, obj) -> None:
    """JSON file with sorted keys, an indent of 2 and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True, eq=False)
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
            tol = 1e-8 * np.abs(c).max(initial=0.0)  # terms below it are round-off: left out
            terms = " + ".join(
                f"{w:+.3g}*Z(x[{p}])" for w, p in zip(c, self.pivot_indices) if abs(w) > tol
            ) or "0"
            lines.append(f"  Z(x[{j}]) = {terms} (almost surely)")
        return "\n".join(lines)


class CholeskyFailure(Exception):
    """Covariance matrix is singular to tolerance; carries a DegeneracyReport."""

    def __init__(self, report: DegeneracyReport):
        super().__init__(report.describe())
        self.report = report


def detect_degenerate_design(kernel: AdditiveKernel, X) -> DegeneracyReport:
    """Diagnose rank deficiency of cov_matrix(kernel, X, 0) via pivoted Cholesky."""
    K = cov_matrix(kernel, X, 0.0)
    n = K.shape[0]
    # A diagnosis, not a decision: looser than _factor's pivot test, so every
    # covariance that fit_gp refuses gets a non-empty report.
    tol = 1e-8 * np.trace(K) / max(n, 1)
    # Rank-revealing Cholesky in natural row order, so the diagnosis names the redundant late
    # arrival: a column whose residual diagonal is at most tol is a dependent point.  Each round
    # takes the residuals of the undecided columns (j on) against the pivots; the leading ones
    # at most tol are dependent, LAPACK factors the next (at most 256) columns' Schur complement,
    # its leading columns above tol are pivots and the first one after them is dependent.
    pivots, dependents, j = [], [], 0
    L = np.zeros((n, n))  # the pivots' factor in its leading rows and columns
    while j < n:
        p = len(pivots)
        W = solve_triangular(L[:p, :p], K[pivots, j:])
        residual = K.diagonal()[j:] - np.einsum("ij,ij->j", W, W)
        skip = int(np.argmax(np.append(residual > tol, True)))
        dependents += range(j, j + skip)
        j += skip
        W = W[:, skip:skip + 256]  # bounds the work of a round that stops early
        m = W.shape[1]
        F, info = dpotrf(K[j:j + m, j:j + m] - W.T @ W, lower=1, clean=1)
        # LAPACK stops at the info-th column: only the columns before it are factored.
        passed = F.diagonal()[:info - 1 if info else None] ** 2 > tol
        k = int(np.argmin(np.append(passed, False)))  # this round's pivots
        L[p:p + k, :p] = W[:, :k].T
        L[p:p + k, p:p + k] = F[:k, :k]
        pivots += range(j, j + k)
        j += k
        if k < m:
            dependents.append(j)
            j += 1
    L, B = L[:len(pivots), :len(pivots)], K[np.ix_(pivots, dependents)]  # K[pivots, pivots] = L L^T
    C = dpotrs(L, B, lower=1)[0] if pivots else B  # column k: coefficients[k]; dpotrs refuses an empty L
    return DegeneracyReport(len(pivots), tuple(pivots), tuple(dependents), tuple(C.T))


@dataclass(frozen=True, eq=False)
class FittedGP:
    """Kernel + noise + data + lower Cholesky factor and precomputed weights."""

    kernel: AdditiveKernel
    noise: float
    dataset: Dataset
    factor: np.ndarray
    weights: np.ndarray
    y_mean: float

    def to_json(self) -> dict:
        """The model file: schema version, kernel {family, dims, composition, variance, range},
        noise and data."""
        k = self.kernel
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "kernel": {"family": k.family, "dims": k.dims, "composition": k.composition,
                       "variance": k.variances.tolist(), "range": k.lengthscales.tolist()},
            "noise": self.noise,
            "x": self.dataset.X.tolist(),
            "y": self.dataset.Y.tolist(),
        }

    def save(self, path) -> None:
        _write_json(path, self.to_json())

    @classmethod
    def from_json(cls, obj: dict) -> "FittedGP":
        if not isinstance(obj, dict):
            raise ValueError("model must be a JSON object")
        if obj.get("schema_version") != MODEL_SCHEMA_VERSION:
            raise ValueError(f"unsupported model schema_version {obj.get('schema_version')!r}")
        k = obj["kernel"]
        if not isinstance(k, dict):
            raise ValueError("kernel description must be a JSON object")
        d = k["dims"]
        cols = [_json_floats(k[key], key, 1) for key in ("variance", "range")]
        if not (type(d) is int and all(len(c) == d for c in cols)):
            raise ValueError(f"kernel variance and range need dims = {d!r} entries each")
        kernel = AdditiveKernel(k["family"], *cols, k.get("composition", "additive"))
        noise, x, y = (_json_floats(obj[key], key, ndim) for key, ndim in (("noise", 0), ("x", 2), ("y", 1)))
        return fit_gp(kernel, Dataset(x, y), float(noise))

    @classmethod
    def load(cls, path) -> "FittedGP":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _json_floats(value, name: str, ndim: int) -> np.ndarray:
    """A JSON number (ndim 0), list of numbers (1) or list of rows of numbers (2) as a float
    array.  A string, bool or null where a number belongs is an error: float() would parse it."""
    arr = np.array(value, dtype=object)
    if arr.ndim != ndim or not all(type(v) in (int, float) for v in arr.flat):
        raise ValueError(f"{name} must be {('a number', 'a list of numbers', 'a list of rows of numbers')[ndim]}")
    return arr.astype(float)


def fit_gp(kernel: AdditiveKernel, dataset: Dataset, noise: float = 0.0) -> FittedGP:
    """Factorize the design covariance and precompute the kriging weights.

    The empirical mean of Y is subtracted before solving and added back at
    prediction.

    Never adds jitter on its own: a singular covariance raises
    :class:`CholeskyFailure` carrying the :class:`DegeneracyReport`, and the
    caller decides whether to drop points or pass an explicit noise variance.
    """
    _check_noise(noise)
    try:
        L = _factor(cov_matrix(kernel, dataset.X), noise)
    except np.linalg.LinAlgError:
        raise CholeskyFailure(detect_degenerate_design(kernel, dataset.X)) from None
    y_mean = float(np.mean(dataset.Y))
    alpha = dpotrs(L, dataset.Y - y_mean, lower=1)[0]
    return FittedGP(kernel, float(noise), dataset, L, alpha, y_mean)


def _factor(K: np.ndarray, diag: float) -> np.ndarray:
    """Lower Cholesky factor L of K + diag I, in place (the C-ordered K becomes L in Fortran
    order): the one factorization and singularity test of fit_gp, the likelihood and GP paths.
    Only K's upper triangle and diagonal are read, so the cells below may hold anything.
    LinAlgError when LAPACK stops or a squared pivot is not above 1e-12 tr(K + diag I)/n, a NaN
    one included.  ``diag`` is trusted: each caller checks it where it enters."""
    diagonal = K.reshape(-1)[::len(K) + 1]  # a writable view, K being C-ordered
    diagonal += diag
    trace = diagonal.sum()  # taken first: the factorization overwrites K
    # K.T is K's memory in Fortran order, whose lower triangle is K's upper one: LAPACK works in place.
    L, info = dpotrf(K.T, lower=1, clean=1, overwrite_a=1)
    # An exactly singular K can factorize with a tiny positive pivot; the threshold sits far
    # below any admissible noise floor, and a NaN pivot fails the comparison.
    if info or not L.diagonal().min() ** 2 > 1e-12 * trace / len(L):
        raise np.linalg.LinAlgError("covariance matrix is not positive definite to tolerance")
    return L


def _query_points(gp: FittedGP, x, direction: int | None) -> tuple[bool, np.ndarray]:
    """(whether x is one point, m x dims batch): points of the model's d coordinates or, with
    ``direction``, a scalar or 1-d array of that direction's coordinate."""
    x = np.asarray(x, dtype=float)
    if direction is None:
        return x.ndim == 1, _check_design(x, gp.kernel.dims)
    if not gp.kernel.is_additive:
        raise ValueError("sub-models are only defined for additive composition")
    if not 0 <= direction < gp.kernel.dims:
        raise ValueError("direction index out of range")
    if x.ndim > 1:
        raise ValueError(f"query points have shape {x.shape}, a direction takes a scalar or a 1-d array")
    return x.ndim == 0, _check_design(x.reshape(-1, 1), 1)


# Query rows per cross-covariance block: prediction and effects hold O(_BLOCK * n)
# floats at a time whatever the number of query points.
_BLOCK = 500


def _pass(gp: FittedGP, x, rows: int, direction: int | None = None) -> tuple:
    """The first ``rows`` of (mean, variance, centered mean, centered variance) at one point
    (floats) or a batch (arrays).

    With ``direction`` these are that direction's sub-model (m_i, v_i) and centered effect
    (m_i*, v_i*): the kriging formulas again, with the direction's kernel on its column of the
    design.  Each block of query rows takes one cross-covariance; the triangular solve runs
    only when rows >= 2, the closed-form kernel integrals only when rows == 4."""
    single, pts = _query_points(gp, x, direction)
    kernel, X, offset = gp.kernel, gp.dataset.X, gp.y_mean
    if direction is not None:
        spec = kernel.components[direction]
        kernel = AdditiveKernel(spec.family, spec.variance, spec.lengthscale)
        X, offset = X[:, [direction]], offset / gp.kernel.dims
    if rows == 4:
        I_i = integral_univariate(spec, X[:, 0])  # int K_i(x_j, s) ds
        Kinv_I = dpotrs(gp.factor, I_i, lower=1)[0]
        single_int, double_int = integral_univariate(spec, pts[:, 0]), double_integral_univariate(spec)
    out = np.empty((rows, len(pts)))
    for lo in range(0, len(pts), _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        k = cross_cov(kernel, pts[blk], X)
        out[0, blk] = offset + k @ gp.weights
        if rows >= 2:
            v = solve_triangular(gp.factor, k.T)
            out[1, blk] = _clamp_var(kernel.prior_variance - np.sum(v * v, axis=0))
        if rows == 4:
            out[2, blk] = (k - I_i) @ gp.weights
            out[3, blk] = _clamp_var(
                out[1, blk]
                - 2.0 * single_int[blk]
                + 2.0 * (k @ Kinv_I)
                + double_int
                - I_i @ Kinv_I
            )
    return tuple(float(row[0]) for row in out) if single else tuple(out)


def _clamp_var(v: np.ndarray) -> np.ndarray:
    if np.any(v < _VAR_CLAMP):
        raise ArithmeticError(
            f"variance {v.min():.3e} below round-off window; factorization is inconsistent"
        )
    return np.maximum(v, 0.0)


def predict_mean(gp: FittedGP, x) -> float | np.ndarray:
    """Kriging mean at one point (d-vector) or a batch of points (m x d)."""
    return _pass(gp, x, 1)[0]


def predict_var(gp: FittedGP, x) -> float | np.ndarray:
    """Kriging variance at one point or a batch; clamped at zero for round-off."""
    return _pass(gp, x, 2)[1]


def sub_model(gp: FittedGP, direction: int, x_i):
    """Univariate sub-model (m_i, v_i) of direction ``direction`` (zero-based) at x_i, a scalar
    or a 1-d array.

    The constant trend is split evenly across directions so that the
    sub-model means sum exactly to the full predictor mean.
    """
    return _pass(gp, x_i, 2, direction)


def centered_effect(gp: FittedGP, direction: int, x_i):
    """Centered effect (m_i*, v_i*): the sub-model with its [0,1] average removed.

    m_i*(x) = m_i(x) - int m_i, and v_i* is the conditional variance of
    Z_i(x) - int Z_i given the observations, assembled from the closed-form
    kernel integrals.
    """
    return _pass(gp, x_i, 4, direction)[2:]
