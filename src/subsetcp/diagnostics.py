"""Model-fit diagnostics from the fitted segmentation.

Each variate is segmented at the changepoints assigned to it; within a
segment the fitted level is the segment mean.  Pearson residuals divide the
centred observations by the model's standard deviation: sigma for Gaussian,
sqrt(mu + mu^2 / r) for counts.  Cross-variate residual correlation
summarises how far the data are from the independence assumption.
"""

from __future__ import annotations

import numpy as np

from .core import NumericalError, SegmentationResult, TimeSeriesMatrix
from .costs import GAUSSIAN, CostModel


def variate_segments(result: SegmentationResult, i: int) -> list[tuple[int, int]]:
    """Segment spans (1-based, inclusive) for variate ``i``: its own
    changepoints only."""
    taus = [det.tau for det in result.detections if i in det.affected]
    bounds = [0, *taus, result.n]
    return [(a + 1, b) for a, b in zip(bounds, bounds[1:])]


def segment_parameters(
    matrix: TimeSeriesMatrix, result: SegmentationResult
) -> list[list[tuple[int, int, float]]]:
    """Per-variate fitted levels: (start, end, mean) for each segment."""
    out = []
    for i in range(1, matrix.d + 1):
        row = matrix.values[i - 1]
        out.append(
            [(s, t, float(np.mean(row[s - 1 : t]))) for s, t in variate_segments(result, i)]
        )
    return out


def pearson_residuals(
    matrix: TimeSeriesMatrix, model: CostModel, result: SegmentationResult
) -> np.ndarray:
    """Standardized residuals, shape (d, n)."""
    residuals = np.empty_like(matrix.values)
    for i in range(1, matrix.d + 1):
        row = matrix.values[i - 1]
        for s, t in variate_segments(result, i):
            mu = float(np.mean(row[s - 1 : t]))
            if model.kind == GAUSSIAN:
                scale = model.sigma[i - 1]
            else:
                var = mu * (1.0 + mu / model.r[i - 1])
                scale = np.sqrt(var) if var > 0 else 1.0
            residuals[i - 1, s - 1 : t] = (row[s - 1 : t] - mu) / scale
    return residuals


def pearson_residual_correlations(
    matrix: TimeSeriesMatrix, model: CostModel, result: SegmentationResult
) -> tuple[np.ndarray, float]:
    """Residual correlation matrix and its mean off-diagonal entry."""
    residuals = pearson_residuals(matrix, model, result)
    flat = np.std(residuals, axis=1) == 0.0
    if np.any(flat):
        names = [matrix.variate_names[i] for i in np.flatnonzero(flat)]
        raise NumericalError(f"zero-variance residual series for variates {names}")
    corr = np.corrcoef(residuals)
    corr = np.atleast_2d(corr)
    d = corr.shape[0]
    if d == 1:
        return corr, 0.0
    off = corr[~np.eye(d, dtype=bool)]
    return corr, float(np.mean(off))
