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
from .costs import GAUSSIAN


def variate_segments(result: SegmentationResult, i: int) -> list[tuple[int, int]]:
    """Segment spans (1-based, inclusive) for variate ``i``: its own
    changepoints only."""
    taus = [det.tau for det in result.detections if i in det.affected]
    bounds = [0, *taus, result.n]
    return [(a + 1, b) for a, b in zip(bounds, bounds[1:])]


def pearson_residuals(
    matrix: TimeSeriesMatrix, kind: str, scale: np.ndarray, result: SegmentationResult
) -> np.ndarray:
    """Standardized residuals, shape (d, n).

    ``kind`` and ``scale`` are a cost model's: per-variate sigma for the
    Gaussian model, dispersion r for counts.
    """
    residuals = np.empty_like(matrix.values)
    for i in range(1, matrix.d + 1):
        row = matrix.values[i - 1]
        for s, t in variate_segments(result, i):
            mu = float(np.mean(row[s - 1 : t]))
            if kind == GAUSSIAN:
                sd = scale[i - 1]
            else:
                var = mu * (1.0 + mu / scale[i - 1])
                sd = np.sqrt(var) if var > 0 else 1.0
            residuals[i - 1, s - 1 : t] = (row[s - 1 : t] - mu) / sd
    return residuals


def pearson_residual_correlations(
    matrix: TimeSeriesMatrix, kind: str, scale: np.ndarray, result: SegmentationResult
) -> float:
    """Mean off-diagonal entry of the residual correlation matrix.

    The steps are ``np.corrcoef``'s, run on the residual buffer itself:
    centre each row, X X^T / (n - 1), divide by the root diagonal on both
    sides, clip to [-1, 1].  The result is bit-identical to
    ``np.corrcoef(residuals)``.
    """
    x = pearson_residuals(matrix, kind, scale, result)
    flat = np.std(x, axis=1) == 0.0
    if np.any(flat):
        names = [matrix.variate_names[i] for i in np.flatnonzero(flat)]
        raise NumericalError(f"zero-variance residual series for variates {names}")
    d = matrix.d
    if d == 1:
        return 0.0
    x -= x.mean(axis=1)[:, None]
    corr = np.dot(x, x.T)
    del x
    corr *= np.true_divide(1, matrix.n - 1)
    stddev = np.sqrt(np.diag(corr))
    corr /= stddev[:, None]
    corr /= stddev[None, :]
    np.clip(corr, -1, 1, out=corr)
    return float(np.mean(corr[~np.eye(d, dtype=bool)]))
