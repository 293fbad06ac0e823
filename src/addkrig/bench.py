"""Test problems and experiment drivers.

Contains the Sobol g-function with its analytic first-order sensitivity
indices and main effects, the Q2 predictivity coefficient, maximin Latin
hypercube designs, seeded sampling of GP paths at a design, and the two
study drivers:

- ``run_gfunction_benchmark``: fit the d=4 g-function on repeated maximin
  designs with RLM-additive, ULM-additive and the tensor-kernel baseline and
  score each fit by Q2 on a shared uniform test sample.
- ``run_paths_benchmark``: simulate additive-GP paths, estimate the (hidden)
  hyperparameters with ULM and RLM, and record objective-call traces and
  final likelihood values.

All drivers are deterministic given their configuration: every random stream
is derived from (master seed, run id).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .estimate import default_bounds, estimate_rlm, estimate_ulm
from .gp import Dataset, _factor, _write_csv, _write_json, fit_gp, predict_mean
from .kernels import AdditiveKernel, _check_design, _check_names, _check_params, cov_matrix, make_kernel

__all__ = [
    "GFunctionSpec",
    "g_function",
    "sobol_index",
    "g_main_effect",
    "q2",
    "lhs_maximin",
    "sample_gp_path",
    "GFunctionBenchConfig",
    "PathsBenchConfig",
    "BenchmarkReport",
    "run_gfunction_benchmark",
    "run_paths_benchmark",
]


@dataclass(frozen=True, eq=False)
class GFunctionSpec:
    """Coefficients a_k of the Sobol g-function; larger a_k means direction k matters less."""

    a: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if a.ndim != 1 or not a.size:
            raise ValueError(f"g-function coefficients must be a non-empty list, got shape {a.shape}")
        if not np.all(np.isfinite(a) & (a > 0)):
            raise ValueError(f"g-function coefficients must be finite and > 0, got {a}")
        object.__setattr__(self, "a", a)

    @property
    def d(self) -> int:
        return self.a.shape[0]


def g_function(x, spec: GFunctionSpec):
    """g(x) = prod_k (|4 x_k - 2| + a_k) / (1 + a_k) on the unit hypercube.

    Accepts a single d-vector or an (m, d) batch.
    """
    single = np.ndim(x) == 1
    pts = _check_design(x, spec.d)
    if np.any(pts < 0) or np.any(pts > 1):
        raise ValueError("g-function inputs must lie in [0, 1]^d")
    vals = np.prod((np.abs(4.0 * pts - 2.0) + spec.a) / (1.0 + spec.a), axis=1)
    return float(vals[0]) if single else vals


def sobol_index(i: int, spec: GFunctionSpec) -> float:
    """Analytic first-order Sobol index of direction ``i`` (zero-based)."""
    if not 0 <= i < spec.d:
        raise ValueError("direction index out of range")
    contrib = 1.0 / (3.0 * (1.0 + spec.a) ** 2)
    total = np.prod(1.0 + contrib) - 1.0
    return float(contrib[i] / total)


def g_main_effect(i: int, x_i, spec: GFunctionSpec):
    """Centered analytic main effect of direction ``i``: (|4x - 2| - 1) / (1 + a_i).

    Every other factor of the g-function has unit mean, so the conditional
    mean E[g | x_i] minus the global mean reduces to this expression.
    """
    if not 0 <= i < spec.d:
        raise ValueError("direction index out of range")
    x_i = np.asarray(x_i, dtype=float)
    out = (np.abs(4.0 * x_i - 2.0) - 1.0) / (1.0 + spec.a[i])
    return float(out) if out.ndim == 0 else out


def q2(y, y_hat) -> float:
    """Predictivity coefficient 1 - SS_res / SS_tot; 1 is perfect, may be negative."""
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.shape != y_hat.shape or y.shape[0] < 2:
        raise ValueError("need two same-length vectors with m >= 2")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("constant reference values: Q2 undefined")
    return 1.0 - float(np.sum((y - y_hat) ** 2)) / ss_tot


# ---------------------------------------------------------------------------
# Designs and path sampling
# ---------------------------------------------------------------------------


def _min_sq_dist_rows(X, i):
    d2 = ((X - X[i]) ** 2).sum(axis=1)
    d2[i] = np.inf
    return d2


# Proposals drawn per batch in lhs_maximin: one batch's arrays take under 1 MB.
_PROPOSAL_CHUNK = 4096


def _draw_proposals(rng, n, d, steps):
    """The next ``steps`` proposals of :func:`lhs_maximin` as (i, j, k) arrays, drawn as
    ``rng.choice(n, 2, replace=False)`` and then ``rng.integers(d)`` draw them step by step.

    Per step, Floyd's algorithm draws i on [0, n-2] and j on [0, n-1] (j is n-1 when the two are
    equal), a draw on [0, 1] keeps the pair or swaps it, and k is drawn on [0, d-1].  numpy draws
    array-bounded integers element by element in C order, each as those calls draw: a Lemire
    draw on the next 32-bit word, redrawn when the word is rejected, and no word for a range of
    one value.  So one call reads, and leaves over, exactly the words the per-step calls would."""
    i, j, keep, k = rng.integers(0, [n - 1, n, 2, d], size=(steps, 4)).T
    j[j == i] = n - 1
    return np.where(keep, i, j), np.where(keep, j, i), k


def lhs_maximin(n: int, d: int, seed: int = 0, n_improvement_steps: int = 10000) -> np.ndarray:
    """Maximin-improved Latin hypercube design on [0, 1]^d.

    Starts from a random LHS (one uniform point per axis stratum in every
    dimension) and hill-climbs the minimum pairwise distance by proposing
    coordinate exchanges between two rows in one dimension; exchanges keep the
    Latin property by construction.  Deterministic given ``seed``.

    An exchange of rows i and j changes only the distances from i and j, so
    when the pair (a, b) at the current minimum involves neither row, that
    minimum survives, the exchange cannot raise it and the step is skipped
    without computing any distance; nor can it when the new rows i and j hold a
    distance at most the minimum, and then the rest of the matrix is not looked
    at.  The proposals are drawn in batches (:func:`_draw_proposals`) and walked
    in one loop; every step draws its proposal, skipped or not, so a design
    depends only on its seed.
    """
    if n < 2:
        raise ValueError("need at least two design points")
    if d < 1:
        raise ValueError("need at least one dimension")
    rng = np.random.default_rng(seed)
    X = np.empty((n, d))
    for j in range(d):
        X[:, j] = (rng.permutation(n) + rng.uniform(size=n)) / n
    if n_improvement_steps <= 0:
        return X

    # Squared-distance matrix maintained incrementally across proposals.
    D = np.array([_min_sq_dist_rows(X, i) for i in range(n)])
    current_min = D.min()
    a, b = divmod(int(D.argmin()), n)  # one row pair at the current minimum

    for start in range(0, n_improvement_steps, _PROPOSAL_CHUNK):
        steps = min(_PROPOSAL_CHUNK, n_improvement_steps - start)
        for i, j, k in zip(*(p.tolist() for p in _draw_proposals(rng, n, d, steps))):
            if i != a and i != b and j != a and j != b:
                continue  # (a, b) survives the exchange, so the minimum cannot rise
            X[i, k], X[j, k] = X[j, k], X[i, k]
            di = _min_sq_dist_rows(X, i)
            dj = _min_sq_dist_rows(X, j)
            if min(di.min(), dj.min()) > current_min:
                D_new = D.copy()
                D_new[i, :] = di
                D_new[:, i] = di
                D_new[j, :] = dj
                D_new[:, j] = dj
                D_new[i, j] = D_new[j, i] = di[j]
                new_min = D_new.min()
                if new_min > current_min:
                    D = D_new
                    current_min = new_min
                    a, b = divmod(int(D.argmin()), n)
                    continue
            X[i, k], X[j, k] = X[j, k], X[i, k]  # rejected: undo the exchange
    return X


def sample_gp_path(kernel: AdditiveKernel, X, seed: int = 0) -> np.ndarray:
    """Draw one GP path at the design: Y = L xi with L the (jittered) Cholesky factor."""
    K = cov_matrix(kernel, X, 0.0)
    jitter = 1e-10 * np.trace(K) / max(K.shape[0], 1)
    if jitter == 0.0:  # all variances zero: the path is identically zero
        return np.zeros(K.shape[0])
    try:
        L = _factor(K, jitter)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            "design covariance not factorizable even with jitter; change the design"
        ) from None
    xi = np.random.default_rng(seed).standard_normal(K.shape[0])
    return L @ xi


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    run_id: str
    method: str
    d: int
    seed: int
    q2: float  # NaN for path runs (no test sample)
    tau2_final: float
    n_calls_total: int
    l_final: float


@dataclass
class BenchmarkReport:
    """Per-run results plus traces; aggregates skip failed runs but count them."""

    records: list[RunRecord] = field(default_factory=list)
    traces: dict[str, object] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def by_method(self, method: str) -> list[RunRecord]:
        return [r for r in self.records if r.method == method]

    def q2_stats(self, method: str) -> tuple[float, float]:
        """Mean and sample sd of the method's Q2 values; the sd of one run is 0.0, and both are
        NaN for a method with no record (all its runs failed, or it was not run)."""
        vals = np.array([r.q2 for r in self.by_method(method)])
        if not len(vals):
            return float("nan"), float("nan")
        return float(vals.mean()), float(vals.std(ddof=1)) if len(vals) > 1 else 0.0

    def final_l(self, method: str, d: int | None = None) -> np.ndarray:
        recs = [r for r in self.by_method(method) if d is None or r.d == d]
        return np.array([r.l_final for r in recs])

    def summary(self) -> dict:
        out = {"meta": self.meta, "n_failures": len(self.failures), "methods": {}}
        for m in sorted({r.method for r in self.records}):
            recs = self.by_method(m)
            q2s = np.array([r.q2 for r in recs])
            ls = np.array([r.l_final for r in recs])
            entry = {
                "n_runs": len(recs),
                "mean_l_final": float(np.mean(ls)),
                "median_l_final": float(np.median(ls)),
            }
            if not np.any(np.isnan(q2s)):
                entry["mean_q2"], entry["sd_q2"] = self.q2_stats(m)
            out["methods"][m] = entry
        return out

    def to_csv(self, path) -> None:
        _write_csv(path, [f.name for f in fields(RunRecord)], map(astuple, self.records))

    def save_summary(self, path) -> None:
        _write_json(path, self.summary())


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


_METHODS = ("rlm-additive", "ulm-additive", "ulm-tensor")

# The most points a design or test sample may hold: its covariance would take 8 TB.  The cap keeps
# every array within numpy's index range, so a study too large for memory raises MemoryError.
_MAX_POINTS = 10**6


def _as_type_of(name: str, value, default):
    """``value`` converted to the type of ``default``; for a tuple default, a 1-d sequence whose
    entries each take the type of default[0], as a tuple.  A number takes a real number that is
    not a bool (an int only an integral one) and a string only a str; ValueError otherwise."""

    def convert(kind, v):
        number = isinstance(v, numbers.Real) and not isinstance(v, bool)
        if not (isinstance(v, str) if kind is str else number and (kind is float or v == int(v))):
            raise TypeError
        return kind(v)

    try:
        if not isinstance(default, tuple):
            return convert(type(default), value)
        if np.ndim(value) != 1:
            raise TypeError
        return tuple(convert(type(default[0]), v) for v in value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: a number too large for a float
        want = "an integer" if type(default) is int else f"like {json.dumps(default)}"
        raise ValueError(f"{name} must be {want}, got {value!r}") from None


def _check_fields(config, unique: str, **minima) -> None:
    """Store each field of ``config`` converted to the type of its default, then ValueError unless
    each named field (each entry of a tuple field) is >= its minimum and the tuple field ``unique``
    repeats no entry: a run id would name two runs."""
    for f in fields(config):
        object.__setattr__(config, f.name, _as_type_of(f.name, getattr(config, f.name), f.default))
    for name, low in minima.items():
        if np.any(np.asarray(getattr(config, name)) < low):
            raise ValueError(f"{name} must be >= {low}, got {getattr(config, name)}")
    entries = getattr(config, unique)
    if len(set(entries)) != len(entries):
        raise ValueError(f"{unique} must not repeat an entry, got {entries}")


def _check_points(**counts) -> None:
    """ValueError unless each named point count is at most ``_MAX_POINTS``."""
    for name, n in counts.items():
        if n > _MAX_POINTS:
            raise ValueError(f"{name} must be <= {_MAX_POINTS}, got {n}")


@dataclass(frozen=True)
class GFunctionBenchConfig:
    a: tuple = (1.0, 2.0, 3.0, 4.0)
    n_designs: int = 20
    design_size: int = 40
    family: str = "matern32"
    methods: tuple = _METHODS
    rlm_iterations: int = 5
    test_size: int = 1000
    master_seed: int = 0
    lhs_steps: int = 2000
    ulm_max_evals: int = 5000
    rlm_max_evals_inner: int = 200

    def __post_init__(self):
        _check_fields(self, "methods", n_designs=0, design_size=2, rlm_iterations=1, test_size=2,
                      master_seed=0, lhs_steps=0, ulm_max_evals=1, rlm_max_evals_inner=1)
        _check_points(design_size=self.design_size, test_size=self.test_size)
        GFunctionSpec(self.a)  # raises unless every a_k is finite and > 0
        _check_names(self.family)
        if not set(self.methods) <= set(_METHODS):
            raise ValueError(f"unknown method in {self.methods}")


@dataclass(frozen=True)
class PathsBenchConfig:
    dims: tuple = (3, 6)
    n_paths: int = 20
    true_variance: float = 1.0
    true_lengthscale: float = 0.2
    family: str = "gaussian"
    points_per_dim: int = 10
    rlm_iterations: int = 5
    master_seed: int = 0
    lhs_steps: int = 2000
    ulm_max_evals: int = 5000
    rlm_max_evals_inner: int = 200

    def __post_init__(self):
        _check_fields(self, "dims", dims=1, n_paths=0, points_per_dim=2, rlm_iterations=1,
                      master_seed=0, lhs_steps=0, ulm_max_evals=1, rlm_max_evals_inner=1)
        _check_points(**{f"points_per_dim * {d}": self.points_per_dim * d for d in self.dims})
        _check_names(self.family)
        _check_params(self.true_variance, self.true_lengthscale)


def _run(report, run_id, method, dataset, bounds, cfg, seed, score=None) -> None:
    """Estimate ``method``'s hyperparameters on ``dataset``, whose mean the estimators remove as
    fit_gp does (l_final is the centered responses' objective), and record the run in ``report``,
    or its failure.  ``score`` is a test sample (X, y): the refit model's Q2 on it, else NaN."""
    try:
        if method == "rlm-additive":
            result = estimate_rlm(
                dataset, family=cfg.family, bounds=bounds,
                n_iterations=cfg.rlm_iterations, max_evals_inner=cfg.rlm_max_evals_inner,
            )
        else:  # "ulm-additive" or "ulm-tensor"
            result = estimate_ulm(
                dataset, family=cfg.family, composition=method.removeprefix("ulm-"),
                bounds=bounds, max_evals=cfg.ulm_max_evals,
            )
        value = float("nan")
        if score is not None:
            model = fit_gp(result.params, dataset, result.params.noise)
            value = q2(score[1], predict_mean(model, score[0]))
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        report.failures.append(f"{run_id}: {exc}")
        return
    report.records.append(RunRecord(run_id, method, dataset.d, seed, value, result.params.noise,
                                    result.trace.total_calls, result.best_value))
    report.traces[run_id] = result.trace


def run_gfunction_benchmark(config: GFunctionBenchConfig = GFunctionBenchConfig()) -> BenchmarkReport:
    """Fit the g-function on repeated maximin designs and score each method by Q2."""
    spec = GFunctionSpec(config.a)
    d = spec.d
    report = BenchmarkReport(meta={"experiment": "gfunction", "config": dict(vars(config))})

    rng_test = np.random.default_rng(config.master_seed)
    X_test = rng_test.uniform(size=(config.test_size, d))
    y_test = g_function(X_test, spec)
    try:  # checked once: no design can be scored on a test sample whose responses are constant
        q2(y_test, y_test)
        unscorable = ""
    except ValueError as exc:
        unscorable = f"test sample: {exc}"

    for run in range(config.n_designs):
        seed = config.master_seed + 1000 + run
        X = lhs_maximin(config.design_size, d, seed=seed, n_improvement_steps=config.lhs_steps)
        dataset = Dataset(X, g_function(X, spec))
        try:
            bounds = default_bounds(dataset)
        except ValueError as exc:  # coefficients so large that every response rounds to one value
            report.failures.append(f"g{run:03d}: {exc}")
            continue
        if unscorable:
            report.failures.append(f"g{run:03d}: {unscorable}")
            continue
        for method in config.methods:
            _run(report, f"g{run:03d}-{method}", method, dataset, bounds, config, seed, (X_test, y_test))
    return report


def run_paths_benchmark(config: PathsBenchConfig = PathsBenchConfig()) -> BenchmarkReport:
    """ULM-vs-RLM study on simulated additive-GP paths across dimensions."""
    report = BenchmarkReport(meta={"experiment": "paths", "config": dict(vars(config))})
    for d in config.dims:
        truth = make_kernel(config.family, np.full(d, config.true_variance),
                            np.full(d, config.true_lengthscale))
        n = config.points_per_dim * d
        X = lhs_maximin(n, d, seed=config.master_seed + d, n_improvement_steps=config.lhs_steps)
        for path in range(config.n_paths):
            seed = config.master_seed + 10000 * d + path
            Y = sample_gp_path(truth, X, seed=seed)
            dataset = Dataset(X, Y)
            try:
                bounds = default_bounds(dataset)
            except ValueError as exc:
                report.failures.append(f"d{d}-p{path:03d}: {exc}")
                continue
            for method in ("ulm-additive", "rlm-additive"):
                _run(report, f"d{d}-p{path:03d}-{method}", method, dataset, bounds, config, seed)
    return report
