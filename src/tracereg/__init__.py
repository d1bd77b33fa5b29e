"""Adaptive nuclear norm trace regression with safe subspace screening."""

from .model import (
    TraceRegressionProblem,
    GramFactor,
    WeightPair,
    build_problem,
    compute_weights,
    lambda_max,
    min_norm_least_squares,
    vec,
    unvec,
)
from .prox import (
    SvdTriple,
    svd,
    nuclear_norm,
    spectral_norm,
    prox_nuclear,
    dual_feasibility_gauge,
    subdifferential_residual,
)
from .admm import (
    AdmmConfig,
    GeneralizedInstance,
    FactorCache,
    Solution,
    make_instance,
    precompute,
    objective_value,
    solve,
)
from .screen import (
    ScreenContext,
    ScreenScalars,
    ScreenOutcome,
    compute_scalars,
    f_opt,
    screen,
)
from .path import (
    LambdaSchedule,
    PathRecord,
    PathResult,
    CompareResult,
    full_path,
    screened_path,
    compare,
)
from .harness import (
    GaussianSpec,
    ShapeSpec,
    BenchRecord,
    SHAPE_CATALOG,
    gen_gaussian,
    gen_shape,
    shape_matrix,
    save_problem,
    load_problem,
    prepare,
    bench,
    report,
)

__version__ = "0.1.0"

__all__ = [
    "TraceRegressionProblem", "GramFactor", "WeightPair",
    "build_problem", "compute_weights", "lambda_max",
    "min_norm_least_squares", "vec", "unvec",
    "SvdTriple", "svd", "nuclear_norm", "spectral_norm", "prox_nuclear",
    "dual_feasibility_gauge", "subdifferential_residual",
    "AdmmConfig", "GeneralizedInstance", "FactorCache", "Solution",
    "make_instance", "precompute", "objective_value", "solve",
    "ScreenContext", "ScreenScalars", "ScreenOutcome",
    "compute_scalars", "f_opt", "screen",
    "LambdaSchedule", "PathRecord", "PathResult", "CompareResult",
    "full_path", "screened_path", "compare",
    "GaussianSpec", "ShapeSpec", "BenchRecord", "SHAPE_CATALOG",
    "gen_gaussian", "gen_shape", "shape_matrix",
    "save_problem", "load_problem", "prepare", "bench", "report",
    "__version__",
]
