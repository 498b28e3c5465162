"""Segment costs: twice the negative maximized log-likelihood of one segment.

Two models are supported.  ``gaussian_known_var`` treats each variate as
independent Gaussian observations with known variance and a segment-wise
mean, giving the scaled residual sum of squares.  ``negbin`` treats each
variate as negative binomial counts with a fixed per-variate dispersion
``r`` and a segment-wise success probability, estimated in closed form.

Costs are kept up to terms that add over time points (sum of y^2 / sigma^2,
sum of log C(y + r - 1, y)): such terms cancel exactly in every split gain
and in every comparison of segmentations of the same span.  What is left
depends on a span only through its sum and length, so one prefix table
serves every query in O(1).  Gaussian series are centred at their mean and
divided by sigma before the prefix sum; the cost does not change when a
variate is shifted, and centring keeps the sums small on offset data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputDataError, NumericalError, TimeSeriesMatrix

GAUSSIAN = "gaussian_known_var"
NEGBIN = "negbin"

# MAD-to-sigma consistency factor for a normal sample.
_MAD_CONST = 0.6745
DEFAULT_R_MAX = 1e4
# Floor for S / scale: an empty span's S log(S / scale) is then 0 * finite = 0.
_TINY = np.finfo(float).tiny


@dataclass(eq=False)
class CostModel:
    """Precomputed cost table for one matrix.

    ``cum_y`` holds per-variate prefix sums with a leading zero column, so
    the sum over 1-based ``s..t`` is ``cum_y[:, t] - cum_y[:, s-1]``.  For
    the Gaussian model the summed series is (y - mean(y)) / sigma; for the
    negbin model it is the raw counts.  Instances are treated as immutable
    after construction.
    """

    kind: str
    n: int
    d: int
    sigma: np.ndarray | None
    r: np.ndarray | None
    cum_y: np.ndarray

    def span_cost(self, total, length, k: int | None = None):
        """Cost of spans with the given sums and lengths, up to additive terms.

        Gaussian: -S^2 / len on the scaled series.  Negbin:
        -2 [S log(S / (len r + S)) + len r log(len r / (len r + S))].
        ``k`` (0-based) selects one variate's dispersion; without it, the
        last-but-one axis of ``total`` runs over variates.
        """
        if self.kind == GAUSSIAN:
            return -total * total / length
        r = self.r[:, None] if k is None else self.r[k]
        lr = length * r
        scale = lr + total
        out = np.divide(total, scale)
        np.log(np.maximum(out, _TINY, out=out), out=out)
        out *= total
        np.log(np.divide(lr, scale, out=scale), out=scale)
        scale *= lr
        out += scale
        out *= -2.0
        return out

    def _split_sums(self, l: int, u: int):
        """Interval length, left lengths, full sums (d, 1) and left sums (d, u-l)."""
        if not (1 <= l < u <= self.n):
            raise ValueError(f"interval ({l}, {u}) not inside 1..{self.n}")
        base = self.cum_y[:, l - 1 : l]
        return (
            u - l + 1,
            np.arange(1, u - l + 1, dtype=float),
            self.cum_y[:, u : u + 1] - base,
            self.cum_y[:, l:u] - base,
        )

    def cusum(self, l: int, u: int) -> np.ndarray:
        """Signed CUSUM of every variate at every split of (l, u); shape (d, u-l).

        Column ``t - l`` holds sqrt(left*right/length) * (right mean - left
        mean) of the sigma-scaled series; its square is the Gaussian gain.
        """
        if self.kind != GAUSSIAN:
            raise InputDataError("CUSUM statistics are defined for the Gaussian model only")
        length, len_left, sum_full, sum_left = self._split_sums(l, u)
        scale = np.sqrt(length / (len_left * (length - len_left)))
        return (sum_full * (len_left / length) - sum_left) * scale

    def gain_matrix(self, l: int, u: int) -> np.ndarray:
        """Split gains D for all variates and all splits of interval (l, u).

        Returns a (d, u-l) array whose column ``t - l`` holds, per variate,
        cost(l..u) - cost(l..t) - cost(t+1..u) for the split at ``t``.
        Gains are non-negative; negbin rounding residue is clipped at zero.
        """
        if self.kind == GAUSSIAN:
            w = self.cusum(l, u)
            return w * w
        length, len_left, sum_full, sum_left = self._split_sums(l, u)
        pieces = np.stack((sum_left, sum_full - sum_left))
        lengths = np.stack((len_left, length - len_left))[:, None, :]
        left, right = self.span_cost(pieces, lengths)
        gains = self.span_cost(sum_full, length) - left
        gains -= right
        return np.maximum(gains, 0.0, out=gains)

    def boundary_cost_matrix(self, i: int, bounds: np.ndarray) -> np.ndarray:
        """Costs of variate ``i`` between candidate boundaries.

        ``bounds`` is an increasing vector of prefix indices (0-based, i.e.
        boundary ``b`` closes the segment ending at time ``b``).  Entry
        ``[k, j]`` is the cost of span ``bounds[k]+1 .. bounds[j]`` for
        ``k < j``; other entries are infinite.
        """
        sums = self.cum_y[i - 1, bounds]
        seg_len = (bounds[None, :] - bounds[:, None]).astype(float)
        upper = seg_len > 0
        seg_sum = np.where(upper, sums[None, :] - sums[:, None], 0.0)
        out = self.span_cost(seg_sum, np.where(upper, seg_len, 1.0), i - 1)
        return np.where(upper, out, np.inf)


def estimate_sigma(y: np.ndarray) -> float:
    """Noise scale from the median absolute deviation of first differences.

    Robust to mean shifts, which is why it is the default for real data.
    Raises :class:`NumericalError` when the estimate degenerates to zero
    (e.g. a constant series); supply sigma explicitly in that case.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("need a 1-d series of length >= 2")
    diffs = np.diff(y)
    mad = np.median(np.abs(diffs - np.median(diffs)))
    sigma = mad / (_MAD_CONST * math.sqrt(2.0))
    if sigma <= 0.0:
        raise NumericalError(
            "scale estimate is zero (series nearly constant); pass sigma explicitly"
        )
    return float(sigma)


def estimate_dispersion(y: np.ndarray, r_max: float = DEFAULT_R_MAX) -> float:
    """Method-of-moments dispersion estimate r = m^2 / (v - m).

    Uses the n-1 variance denominator.  Under-dispersed series (v <= m)
    return ``r_max``, which makes the model effectively Poisson.  An
    all-zero series is one of them; its span costs and gains are all 0.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("need a 1-d series of length >= 2")
    _validate_counts(y)
    m = float(np.mean(y))
    v = float(np.var(y, ddof=1))
    if v <= m:
        return float(r_max)
    return m * m / (v - m)


def _validate_counts(values: np.ndarray) -> None:
    if np.any(values < 0) or np.any(values != np.floor(values)):
        raise InputDataError("count model requires non-negative integer entries")


def _as_per_variate(value, d: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(d, float(arr))
    if arr.shape != (d,):
        raise InputDataError(f"{name} must be a scalar or one value per variate")
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0):
        raise InputDataError(f"{name} values must be positive and finite")
    return arr


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    out = np.zeros((values.shape[0], values.shape[1] + 1))
    np.cumsum(values, axis=1, out=out[:, 1:])
    return out


def gaussian_model(matrix: TimeSeriesMatrix, sigma=None) -> CostModel:
    """Gaussian cost model; ``sigma`` may be a scalar, per-variate, or None
    to estimate each variate's scale from first differences."""
    values = matrix.values
    if sigma is None:
        sigma_arr = np.array([estimate_sigma(row) for row in values])
    else:
        sigma_arr = _as_per_variate(sigma, matrix.d, "sigma")
    scaled = values - values.mean(axis=1, keepdims=True)
    scaled /= sigma_arr[:, None]
    return CostModel(
        kind=GAUSSIAN,
        n=matrix.n,
        d=matrix.d,
        sigma=sigma_arr,
        r=None,
        cum_y=_prefix_sums(scaled),
    )


def negbin_model(matrix: TimeSeriesMatrix, r=None, r_max: float = DEFAULT_R_MAX) -> CostModel:
    """Negative binomial cost model for count matrices.

    Dispersion is fixed per variate: supplied directly via ``r`` or
    estimated once from the variate's full series by method of moments.
    """
    values = matrix.values
    _validate_counts(values)
    if r is None:
        r_arr = np.array([estimate_dispersion(row, r_max=r_max) for row in values])
    else:
        r_arr = _as_per_variate(r, matrix.d, "r")
    return CostModel(
        kind=NEGBIN,
        n=matrix.n,
        d=matrix.d,
        sigma=None,
        r=r_arr,
        cum_y=_prefix_sums(values),
    )
