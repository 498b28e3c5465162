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


def default_binweight_alpha(n: int) -> float:
    """Per-variate inclusion threshold sqrt(2 ln n); sqrt(2 ln d) is the
    common alternative for wide matrices."""
    return math.sqrt(2.0 * math.log(n))


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


def aggregate_cusum(method: str, w: np.ndarray, binweight_alpha: float | None = None) -> np.ndarray:
    """Collapse a (d, T) CUSUM block across variates, before thresholding."""
    if method == METHOD_MEAN:
        return w.mean(axis=0)
    if method == METHOD_MAX:
        return w.max(axis=0)
    if method == METHOD_BINWEIGHT:
        if binweight_alpha is None:
            raise InputDataError("binweight needs binweight_alpha")
        return np.where(w > binweight_alpha, w, 0.0).sum(axis=0)
    raise InputDataError(f"unknown baseline {method!r}; choose from {BASELINE_METHODS}")


def baseline_statistic(model: CostModel, method: str, l: int, u: int) -> np.ndarray:
    """Aggregated |CUSUM| at every split of (l, u); binweight keeps the
    variates above ``default_binweight_alpha(n)``."""
    return aggregate_cusum(method, cusum_matrix(model, l, u), default_binweight_alpha(model.n))


def scan_interval_baseline(
    model: CostModel, config: BaselineConfig, l: int, u: int
) -> Detection | None:
    """Best baseline candidate on (l, u); smallest t wins ties."""
    if u - l <= 1:
        raise ValueError(f"interval ({l}, {u}) has no interior split")
    s = baseline_statistic(model, config.method, l, u) - config.threshold
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
    model: CostModel,
    config: BaselineConfig,
    intervals: IntervalSet,
    seed: int | None = None,
) -> SegmentationResult:
    """Wild binary segmentation driven by a baseline statistic.

    Same recursion as the subset detector; every detection is reported with
    all variates affected since these statistics do not localize variates.
    """
    from .penalties import PenaltyConfig

    if intervals.n != model.n:
        raise InputDataError(
            f"interval set drawn for n={intervals.n}, model has n={model.n}"
        )
    detections = segmentation_driver(
        model.n, intervals, lambda l, u: scan_interval_baseline(model, config, l, u)
    )
    placeholder = PenaltyConfig(
        alpha=0.0, beta=config.threshold, K=config.threshold, source=f"baseline:{config.method}"
    )
    return SegmentationResult(
        detections=tuple(detections),
        penalties=placeholder,
        model=model.kind,
        n=model.n,
        d=model.d,
        seed=seed,
        n_intervals=intervals.m,
    )
