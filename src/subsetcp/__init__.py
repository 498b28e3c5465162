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
    gaussian_model,
    negbin_model,
)
from .diagnostics import pearson_residual_correlations, pearson_residuals
from .penalties import (
    NullModel,
    PenaltyConfig,
    calibrate_baseline_threshold,
    calibrate_beta,
    dense_cap,
    theoretical_penalties,
)
from .postprocess import optimal_partition, postprocess
from .reports import (
    build_report,
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
from .single_change import scan_interval
from .wbs import IntervalSet, draw_intervals, subset_wbs

__version__ = "0.1.0"

__all__ = [
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
    "TimeSeriesMatrix",
    "baseline_statistic",
    "baseline_wbs",
    "build_report",
    "calibrate_baseline_threshold",
    "calibrate_beta",
    "cusum_matrix",
    "dense_cap",
    "draw_intervals",
    "estimate_dispersion",
    "evaluate",
    "fit_model",
    "gaussian_model",
    "generate",
    "make_matrix",
    "matching_window",
    "negbin_model",
    "null_model",
    "optimal_partition",
    "pearson_residual_correlations",
    "pearson_residuals",
    "postprocess",
    "read_csv",
    "replicate_table",
    "run_experiment",
    "scan_interval",
    "scan_interval_baseline",
    "scenario",
    "signal_matrix",
    "subset_wbs",
    "theoretical_penalties",
    "write_pairs_csv",
    "write_report",
]
