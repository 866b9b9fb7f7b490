"""Constrained Bayes small-area estimation.

Model-based estimates from a two-level normal model are projected, in
closed form, onto smoothness penalties built from an area similarity
graph and onto linear benchmarking constraints; the smoothing factor is
chosen by leave-one-out cross-validation and estimation error by a
residual bootstrap.
"""

__version__ = "0.1.0"

from .exceptions import NumericalError, ValidationError
from .similarity import (
    SimilaritySpec,
    SmoothnessMatrix,
    build_omega,
    connected_components,
    load_adjacency,
    read_edge_list,
)
from .estimators import (
    BenchmarkedEstimate,
    ConstraintSet,
    LossWeights,
    SmoothedEstimate,
    StackedProblem,
    UnitLevelLayout,
    benchmarked_estimate,
    benchmarked_estimate_single,
    penalized_objective,
    smoothed_estimate,
    stack_multivariate,
    unit_level_benchmarked,
    unit_level_smoothed,
)
from .fay_herriot import AreaDataset, GibbsConfig, PosteriorSummary, exact_means, gibbs_fit, posterior_mean
from .selection import CvCurve, cross_validate, cross_validate_unit, default_gamma_grid, loo_solution
from .bootstrap import (
    BootstrapConfig,
    BootstrapReport,
    bootstrap_mse,
    replicate_rng,
    standardized_residuals,
)
from .datasets import CsvSchema, load_area_csv, write_area_csv
from .pipeline import EstimateReport, RunConfig, emit_plot_data, read_report, run_pipeline

__all__ = [
    "AreaDataset",
    "BenchmarkedEstimate",
    "BootstrapConfig",
    "BootstrapReport",
    "ConstraintSet",
    "CsvSchema",
    "CvCurve",
    "EstimateReport",
    "GibbsConfig",
    "LossWeights",
    "NumericalError",
    "PosteriorSummary",
    "RunConfig",
    "SimilaritySpec",
    "SmoothedEstimate",
    "SmoothnessMatrix",
    "StackedProblem",
    "UnitLevelLayout",
    "ValidationError",
    "benchmarked_estimate",
    "benchmarked_estimate_single",
    "bootstrap_mse",
    "build_omega",
    "connected_components",
    "cross_validate",
    "cross_validate_unit",
    "default_gamma_grid",
    "emit_plot_data",
    "exact_means",
    "gibbs_fit",
    "load_adjacency",
    "load_area_csv",
    "loo_solution",
    "penalized_objective",
    "posterior_mean",
    "read_edge_list",
    "read_report",
    "replicate_rng",
    "run_pipeline",
    "smoothed_estimate",
    "stack_multivariate",
    "standardized_residuals",
    "unit_level_benchmarked",
    "unit_level_smoothed",
    "write_area_csv",
]
