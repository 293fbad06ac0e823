"""Additive kriging: GP regression with additive kernels and relaxed likelihood maximization."""

from .bench import (
    GFunctionSpec,
    g_function,
    g_main_effect,
    lhs_maximin,
    q2,
    run_gfunction_benchmark,
    run_paths_benchmark,
    sample_gp_path,
    sobol_index,
)
from .estimate import (
    EstimationResult,
    EstimationTrace,
    HyperBounds,
    HyperParams,
    additivity_ratio,
    default_bounds,
    estimate_rlm,
    estimate_ulm,
    neg_log_likelihood,
    nll_gradient,
)
from .gp import (
    CholeskyFailure,
    Dataset,
    DegeneracyReport,
    FittedGP,
    centered_effect,
    detect_degenerate_design,
    fit_gp,
    predict_mean,
    predict_var,
    sub_model,
)
from .kernels import (
    AdditiveKernel,
    UnivariateKernel,
    cov_matrix,
    cross_cov,
    double_integral_univariate,
    integral_univariate,
    make_kernel,
)

__version__ = "0.1.0"
