"""Multivariate multiple-changepoint detection with sparse/dense penalties.

The detector scores every candidate split by per-variate likelihood-ratio
gains, combines them through a piecewise-linear penalty that adapts between
few and many affected variates, and searches for multiple changes with wild
binary segmentation.  A post-processing pass assigns each variate to the
changes it supports.  Gaussian (known variance) and negative binomial count
models are included, along with CUSUM aggregation baselines, Monte Carlo
penalty calibration, and a simulation laboratory.
"""

from .baselines import (
    BASELINE_METHODS,
    BaselineConfig,
    baseline_statistic,
    baseline_wbs,
    cusum_matrix,
    default_binweight_alpha,
    scan_interval_baseline,
)
from .core import (
    KIND_DENSE,
    KIND_SPARSE,
    ChangepointError,
    Detection,
    InputDataError,
    NumericalError,
    RandomSource,
    SegmentationResult,
    TimeSeriesMatrix,
    make_matrix,
)
from .costs import (
    GAUSSIAN,
    NEGBIN,
    CostModel,
    estimate_dispersion,
    estimate_sigma,
    gaussian_model,
    negbin_model,
)
from .diagnostics import (
    pearson_residual_correlations,
    pearson_residuals,
    segment_parameters,
)
from .penalties import (
    NullModel,
    PenaltyConfig,
    calibrate_baseline_threshold,
    calibrate_beta,
    dense_cap,
    sparse_beta_closed_form,
    theoretical_penalties,
)
from .postprocess import optimal_partition, postprocess
from .reports import (
    AnalysisReport,
    build_report,
    parse_report,
    read_csv,
    write_pairs_csv,
    write_report,
)
from .simlab import (
    ChangeSpec,
    DetectorConfig,
    MetricsReport,
    ReplicateRow,
    ScenarioSpec,
    amoc_scenario,
    evaluate,
    fit_model,
    generate,
    matching_window,
    null_model,
    replicate_table,
    run_experiment,
    scenario,
    signal_matrix,
)
from .single_change import StatisticProfile, scan_interval, statistic_profile
from .wbs import IntervalSet, draw_intervals, subset_wbs

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BASELINE_METHODS",
    "BaselineConfig",
    "ChangeSpec",
    "ChangepointError",
    "CostModel",
    "Detection",
    "DetectorConfig",
    "GAUSSIAN",
    "InputDataError",
    "IntervalSet",
    "KIND_DENSE",
    "KIND_SPARSE",
    "MetricsReport",
    "NEGBIN",
    "NullModel",
    "NumericalError",
    "PenaltyConfig",
    "RandomSource",
    "ReplicateRow",
    "ScenarioSpec",
    "SegmentationResult",
    "StatisticProfile",
    "TimeSeriesMatrix",
    "amoc_scenario",
    "baseline_statistic",
    "baseline_wbs",
    "build_report",
    "calibrate_baseline_threshold",
    "calibrate_beta",
    "cusum_matrix",
    "default_binweight_alpha",
    "dense_cap",
    "draw_intervals",
    "estimate_dispersion",
    "estimate_sigma",
    "evaluate",
    "fit_model",
    "gaussian_model",
    "generate",
    "make_matrix",
    "matching_window",
    "negbin_model",
    "null_model",
    "optimal_partition",
    "parse_report",
    "pearson_residual_correlations",
    "pearson_residuals",
    "postprocess",
    "read_csv",
    "replicate_table",
    "run_experiment",
    "scan_interval",
    "scan_interval_baseline",
    "scenario",
    "segment_parameters",
    "signal_matrix",
    "sparse_beta_closed_form",
    "statistic_profile",
    "subset_wbs",
    "theoretical_penalties",
    "write_pairs_csv",
    "write_report",
]
