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

    With z_i the i-th residual row, centred and scaled to unit norm, the
    correlation of variates i and j is z_i . z_j, so the off-diagonal
    entries add up to ||sum_i z_i||^2 - sum_i ||z_i||^2.  That is O(dn)
    work on the residual buffer, with no d x d matrix.  The result agrees
    with the off-diagonal mean of ``np.corrcoef(residuals)`` to about
    1e-15 (tested to 1e-12 absolute), not bit for bit: the sums run in
    another order, and only the mean is clipped to [-1, 1], not each entry.
    Both sums are numpy's own reductions, not BLAS ``ddot``, whose order
    depends on the BLAS kernel.
    A residual row whose centred sum of squares is 0 has zero variance and
    raises :class:`NumericalError` naming its variate.
    """
    x = pearson_residuals(matrix, kind, scale, result)
    x -= x.mean(axis=1)[:, None]
    sq_norms = np.einsum("ij,ij->i", x, x)
    flat = sq_norms == 0.0
    if np.any(flat):
        names = [matrix.variate_names[i] for i in np.flatnonzero(flat)]
        raise NumericalError(f"zero-variance residual series for variates {names}")
    d = matrix.d
    if d == 1:
        return 0.0
    x /= np.sqrt(sq_norms)[:, None]
    total = x.sum(axis=0)
    off_diagonal = np.einsum("i,i->", total, total) - np.einsum("ij,ij->", x, x)
    return float(np.clip(off_diagonal / (d * (d - 1)), -1.0, 1.0))
