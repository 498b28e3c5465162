"""CUSUM aggregation baselines: mean, max, and thresholded-sum statistics.

These Gaussian-only competitors aggregate the per-variate CUSUM row at each
split and compare against a calibrated threshold.  They report a location
only; there is no affected-set estimation and no post-processing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import KIND_DENSE, Detection, InputDataError, SegmentationResult
from .costs import CostModel
from .wbs import IntervalSet, segmentation_driver

METHOD_MEAN = "mean"
METHOD_MAX = "max"
METHOD_BINWEIGHT = "binweight"
BASELINE_METHODS = (METHOD_MEAN, METHOD_MAX, METHOD_BINWEIGHT)


@dataclass(frozen=True)
class BaselineConfig:
    """Aggregation method and detection threshold."""

    method: str
    threshold: float

    def __post_init__(self) -> None:
        if self.method not in BASELINE_METHODS:
            raise InputDataError(
                f"unknown baseline {self.method!r}; choose from {BASELINE_METHODS}"
            )


def cusum_matrix(model: CostModel, l: int, u: int) -> np.ndarray:
    """Absolute CUSUM rows for all variates and every split of (l, u); shape (d, u-l)."""
    return np.abs(model.cusum(l, u))


def baseline_statistic(w: np.ndarray, method: str, n: int) -> np.ndarray:
    """Aggregated |CUSUM| at every split, before thresholding.

    ``w`` has variates on axis -2, as from ``cusum_matrix``; that axis is
    reduced.  Binweight sums the entries above sqrt(2 ln n), with n the
    series length; sqrt(2 ln d) is the common alternative for wide matrices.
    """
    if method == METHOD_MEAN:
        return w.mean(axis=-2)
    if method == METHOD_MAX:
        return w.max(axis=-2)
    if method == METHOD_BINWEIGHT:
        return np.where(w > math.sqrt(2.0 * math.log(n)), w, 0.0).sum(axis=-2)
    raise InputDataError(f"unknown baseline {method!r}; choose from {BASELINE_METHODS}")


def scan_interval_baseline(
    model: CostModel, config: BaselineConfig, l: int, u: int
) -> Detection | None:
    """Best baseline candidate on (l, u); smallest t wins ties."""
    if u - l <= 1:
        raise ValueError(f"interval ({l}, {u}) has no interior split")
    s = baseline_statistic(cusum_matrix(model, l, u), config.method, model.n) - config.threshold
    best = int(np.argmax(s))
    if s[best] <= 0.0:
        return None
    return Detection(
        tau=l + best,
        kind=KIND_DENSE,
        affected=frozenset(range(1, model.d + 1)),
        statistic=float(s[best]),
        interval=(l, u),
    )


def baseline_wbs(
    model: CostModel, config: BaselineConfig, intervals: IntervalSet
) -> SegmentationResult:
    """Wild binary segmentation driven by a baseline statistic.

    Same recursion as the subset detector; every detection is reported with
    all variates affected since these statistics do not localize variates.
    The result carries no penalties: its threshold is in ``config``.
    """
    detections = segmentation_driver(
        model.n, intervals, lambda l, u: scan_interval_baseline(model, config, l, u)
    )
    return SegmentationResult(detections=tuple(detections), penalties=None, n=model.n)
