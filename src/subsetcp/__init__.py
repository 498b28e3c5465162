"""Multivariate multiple-changepoint detection with sparse/dense penalties.

The detector scores every candidate split by per-variate likelihood-ratio
gains, combines them through a piecewise-linear penalty that adapts between
few and many affected variates, and searches for multiple changes with wild
binary segmentation.  A post-processing pass assigns each variate to the
changes it supports.  Gaussian (known variance) and negative binomial count
models are included, along with CUSUM aggregation baselines, Monte Carlo
penalty calibration, and a simulation laboratory.

This namespace holds what a detection run needs.  The comparison studies
(``simlab``), the baselines (``baselines``), the file formats (``reports``)
and the kernels stay in their modules and behind the command line.
"""

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
from .costs import GAUSSIAN, NEGBIN, CostModel, gaussian_model, negbin_model
from .diagnostics import pearson_residual_correlations, pearson_residuals
from .penalties import NullModel, PenaltyConfig, calibrate_beta
from .postprocess import postprocess
from .wbs import IntervalSet, draw_intervals, subset_wbs

__version__ = "0.1.0"

__all__ = [
    "ChangepointError",
    "CostModel",
    "Detection",
    "GAUSSIAN",
    "InputDataError",
    "IntervalSet",
    "KIND_DENSE",
    "KIND_SPARSE",
    "NEGBIN",
    "NullModel",
    "NumericalError",
    "PenaltyConfig",
    "RandomSource",
    "SegmentationResult",
    "TimeSeriesMatrix",
    "calibrate_beta",
    "draw_intervals",
    "gaussian_model",
    "make_matrix",
    "negbin_model",
    "pearson_residual_correlations",
    "pearson_residuals",
    "postprocess",
    "subset_wbs",
]
