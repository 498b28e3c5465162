"""Segment costs: twice the negative maximized log-likelihood of one segment.

Two models are supported.  ``gaussian`` treats each variate as
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

GAUSSIAN = "gaussian"
NEGBIN = "negbin"

# MAD-to-sigma consistency factor for a normal sample.
_MAD_CONST = 0.6745
# Largest dispersion ``estimate_dispersion`` returns: a near-Poisson model.
R_MAX = 1e4
# Unit roundoff of float32 plus that of float64: an error bound linear in u
# then covers a float32 result's distance from the float64 one.
SCREEN_ROUNDOFF = 2.0**-24 + 2.0**-53
# Cells per block of rows in ``_mad_sigma``, ``CostModel.cusum``, the
# negbin ``CostModel.gain_matrix`` and ``single_change.interval_sums``.
_ROW_BLOCK_CELLS = 2**16


@dataclass(eq=False)
class CostModel:
    """Precomputed cost table for one matrix.

    ``cum_y`` holds per-variate prefix sums with a leading zero column, so
    the sum over 1-based ``s..t`` is ``cum_y[:, t] - cum_y[:, s-1]``.  For
    the Gaussian model the summed series is (y - mean(y)) / sigma; for the
    negbin model it is the raw counts.  ``scale`` holds each variate's fixed
    nuisance parameter: sigma for Gaussian, dispersion r for counts.  The
    table's shape gives d and n.  Instances are treated as immutable after
    construction.
    """

    kind: str
    scale: np.ndarray
    cum_y: np.ndarray

    @property
    def d(self) -> int:
        return self.cum_y.shape[0]

    @property
    def n(self) -> int:
        return self.cum_y.shape[1] - 1

    def span_cost(self, total, length):
        """Cost of spans with the given sums and lengths, up to additive terms.

        Gaussian: -S^2 / len on the scaled series.  Negbin:
        -2 [S log(S / (len r + S)) + len r log(len r / (len r + S))].
        The last-but-one axis of ``total`` runs over variates.  Negbin costs
        are computed in the precision of ``total``.
        """
        if self.kind == GAUSSIAN:
            return -total * total / length
        r = self.scale.astype(total.dtype, copy=False)
        lr = length * r[:, None]
        mass = lr + total
        out = np.divide(total, mass)
        # Floor S / mass: an empty span's S log(S / mass) is then 0 * finite = 0.
        np.log(np.maximum(out, np.finfo(out.dtype).tiny, out=out), out=out)
        out *= total
        np.log(np.divide(lr, mass, out=mass), out=mass)
        mass *= lr
        out += mass
        out *= -2.0
        return out

    def _check_interval(self, l: int, u: int) -> None:
        if not (1 <= l < u <= self.n):
            raise ValueError(f"interval ({l}, {u}) not inside 1..{self.n}")

    def cusum(self, l: int, u: int, dtype=np.float64) -> np.ndarray:
        """Signed CUSUM of every variate at every split of (l, u); shape (d, u-l).

        Column ``t - l`` holds sqrt(left*right/length) * (right mean - left
        mean) of the sigma-scaled series; its square is the Gaussian gain.
        ``dtype`` is the working precision; the sums are float64 differences
        of the prefix table, rounded once to it.  The output is filled a
        block of rows at a time, so the only temporary is one block of left
        sums.
        """
        if self.kind != GAUSSIAN:
            raise InputDataError("CUSUM statistics are defined for the Gaussian model only")
        self._check_interval(l, u)
        length = u - l + 1
        len_left = np.arange(1, length, dtype=dtype)
        share = len_left / length
        norm = np.sqrt(length / (len_left * (length - len_left)))
        w = np.empty((self.d, u - l), dtype)
        step = max(1, _ROW_BLOCK_CELLS // (u - l))
        for start in range(0, self.d, step):
            rows = self.cum_y[start : start + step]
            base = rows[:, l - 1 : l]
            sum_left = np.subtract(rows[:, l:u], base, out=np.empty((len(rows), u - l), dtype))
            block = w[start : start + step]
            np.multiply((rows[:, u : u + 1] - base).astype(dtype, copy=False), share, out=block)
            block -= sum_left
            block *= norm
        return w

    def gain_matrix(self, l: int, u: int, dtype=np.float64) -> np.ndarray:
        """Split gains D for all variates and all splits of interval (l, u).

        Returns a (d, u-l) array whose column ``t - l`` holds, per variate,
        cost(l..u) - cost(l..t) - cost(t+1..u) for the split at ``t``.
        Gains are non-negative; negbin rounding residue is clipped at zero.
        ``dtype`` is the working precision; the sums are float64 differences
        of the prefix table, rounded once to it.  ``gain_error_bound``
        bounds how far a float32 block can lie from the float64 one.
        """
        if self.kind == GAUSSIAN:
            w = self.cusum(l, u, dtype)
            w *= w
            return w
        self._check_interval(l, u)
        # Column t - l of a block's pieces holds the left and right sums of
        # the split at t.  One more column holds the whole interval and an
        # empty right piece, so one span_cost call also prices the full
        # span.  Right lengths are the left ones reversed; the empty piece
        # gets length u - l + 1, so its cost is 0 rather than 0 / 0.  The
        # output is filled a block of rows at a time, each block a model of
        # its own, so the temporaries stay one block in size.
        len_left = np.arange(1, u - l + 2, dtype=dtype)
        lengths = np.concatenate((len_left, len_left[-2::-1], len_left[-1:])).reshape(2, 1, -1)
        gains = np.empty((self.d, u - l), dtype)
        step = max(1, _ROW_BLOCK_CELLS // (u - l))
        for start in range(0, self.d, step):
            part = slice(start, start + step)
            rows = CostModel(NEGBIN, self.scale[part], self.cum_y[part])
            pieces = np.empty((2, rows.d, u - l + 1), dtype)
            np.subtract(rows.cum_y[:, l : u + 1], rows.cum_y[:, l - 1 : l], out=pieces[0])
            np.subtract(rows.cum_y[:, u : u + 1], rows.cum_y[:, l : u + 1], out=pieces[1])
            left, right = rows.span_cost(pieces, lengths)
            block = np.subtract(left[:, -1:], left[:, :-1], out=gains[part])
            block -= right[:, :-1]
        return np.maximum(gains, 0.0, out=gains)

    def gain_error_bound(self, l: np.ndarray, u: np.ndarray, dense_max: np.ndarray) -> np.ndarray:
        """Bound on sum_i |D32[i, t] - D64[i, t]| at every split t of each
        interval (l[k], u[k]), where D32 and D64 are ``gain_matrix`` computed
        at float32 and at float64.

        ``dense_max[k]`` is the largest float32 column sum of D32 on interval
        k.  The bound is infinite where its proof does not apply.

        Both blocks start from the same float64 sums, so a bound on each
        block's error against exact arithmetic on those sums, with unit
        roundoff u, bounds their distance once u is ``SCREEN_ROUNDOFF``.
        Every operation rounds once (|error| <= u |result|); numpy's float32
        ``log`` is within 4 ulp of the exact value, so within 9u |log x|
        (Higham 2002, ch. 3 and 4, for the model and the sums).

        Negbin, one span with sum T, length L and p = T / (T + Lr): the
        ratios carry relative error 5u (p) and 6u (1 - p), so the two terms
        of -cost / 2 are off by at most u (T + Lr) (5p + 11 p|log p|) and
        u (T + Lr) (6(1 - p) + 12 (1 - p)|log(1 - p)|); with their sum this
        is at most 15.1 u (T + Lr), so a cost is off by 30.2 u (T + Lr).
        A gain takes three costs, the whole interval's and its two pieces',
        whose T + Lr add up to the whole's S + Lr: 60.4 u (S + Lr).  The two
        subtractions round results no larger than the full cost, at most
        2 ln 2 (S + Lr), and clipping at 0 adds nothing.  In all,
        63.2 u (S + Lr) per variate at every split, taken as 64 to cover
        second-order terms.  The proof needs normal float32
        values, which integer counts give when r >= 2^-40, S + Lr <= 2^40
        and n < 2^24.

        Gaussian, with P_i the largest |prefix sum| of variate i, so that
        |S| and |left sum| are at most 2 P_i: the CUSUM w is off by at most
        u (8.9 P_i + 4 |w|), so the gain w^2 by 17.7 u P_i |w| + 9 u w^2.
        Summed over variates with Cauchy-Schwarz, that is at most
        18 u ||P|| sqrt(G) + 10 u G for a column sum G <= (sqrt(dense_max)
        + 18 u ||P||)^2.  The last term, d 2^-140 (1 + sqrt G), covers
        products that underflow.
        """
        if self.n >= 2**24:
            return np.full(len(l), np.inf)
        if self.kind == GAUSSIAN:
            norm = math.sqrt(np.sum(np.max(np.abs(self.cum_y), axis=1) ** 2))
            h = 18.0 * SCREEN_ROUNDOFF * norm
            root = np.sqrt(dense_max) + h
            bound = h * root + 10.0 * SCREEN_ROUNDOFF * root * root
            bound += 2.0**-140 * self.d * (1.0 + root)
            return bound if norm <= 2.0**40 else np.full(len(l), np.inf)
        mass = self.cum_y[:, u] - self.cum_y[:, l - 1] + (u - l + 1) * self.scale[:, None]
        bound = 64.0 * SCREEN_ROUNDOFF * mass.sum(axis=0)
        normal = (self.scale.min() >= 2.0**-40) & (mass.max(axis=0) <= 2.0**40)
        return np.where(normal, bound, np.inf)

    def boundary_cost_matrix(self, bounds: np.ndarray, j: int) -> np.ndarray:
        """Costs of every variate's spans that end at boundary ``bounds[j]``.

        ``bounds`` is an increasing vector of prefix indices (0-based, i.e.
        boundary ``b`` closes the segment ending at time ``b``).  Returns a
        (d, j) array whose entry ``[i, k]`` is variate i+1's cost of span
        ``bounds[k]+1 .. bounds[j]``.
        """
        sums = self.cum_y[:, bounds[: j + 1]]
        return self.span_cost(sums[:, j:] - sums[:, :j], (bounds[j] - bounds[:j]).astype(float))


def _mad_sigma(rows: np.ndarray) -> np.ndarray:
    """Noise scale of each row of a 2-d block, from the median absolute
    deviation of its first differences; zeros included.

    Robust to mean shifts, which is why it is the default for real data.
    The block is worked through a few rows at a time, so its temporaries
    stay small however many rows it has.
    """
    mad = np.empty(len(rows))
    step = max(1, _ROW_BLOCK_CELLS // rows.shape[1])
    for start in range(0, len(rows), step):
        diffs = np.diff(rows[start : start + step], axis=1)
        diffs -= np.median(diffs, axis=1, keepdims=True)
        mad[start : start + step] = np.median(np.abs(diffs, out=diffs), axis=1)
    return mad / (_MAD_CONST * math.sqrt(2.0))


def estimate_dispersion(y: np.ndarray):
    """Method-of-moments dispersion estimate r = m^2 / (v - m), capped at ``R_MAX``.

    ``y`` is one count series, giving a float, or a (k, n) block of series,
    giving k estimates.  Uses the n-1 variance denominator.
    Under-dispersed series (v <= m) return ``R_MAX``, which makes the model
    effectively Poisson, and so do barely over-dispersed ones whose estimate
    exceeds it.  An all-zero series is under-dispersed; its span costs and
    gains are all 0.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] < 2:
        raise ValueError("need a 1-d series, or a 2-d block of series, of length >= 2")
    _validate_counts(y)
    m = np.mean(y, axis=-1)
    excess = np.var(y, axis=-1, ddof=1) - m
    r = np.divide(m * m, excess, out=np.full_like(m, R_MAX), where=excess > 0)
    r = np.minimum(r, R_MAX)
    return float(r) if y.ndim == 1 else r


def _validate_counts(values: np.ndarray) -> None:
    if np.any(values < 0) or np.any(values != np.floor(values)):
        raise InputDataError("count model requires non-negative integer entries")


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    out = np.zeros((values.shape[0], values.shape[1] + 1))
    np.cumsum(values, axis=1, out=out[:, 1:])
    return out


def gaussian_model(matrix: TimeSeriesMatrix, sigma=None) -> CostModel:
    """Gaussian cost model; ``sigma`` may be a scalar, per-variate, or None
    to estimate each variate's scale from first differences
    (``_mad_sigma``).  A zero estimate raises :class:`NumericalError`
    naming its variates."""
    values = matrix.values
    if sigma is None:
        sigma_arr = _mad_sigma(values)
        flat = np.flatnonzero(sigma_arr <= 0.0)
        if len(flat):
            names = [matrix.variate_names[i] for i in flat]
            raise NumericalError(
                f"scale estimate is zero (series nearly constant) for variates {names}; "
                "pass sigma explicitly"
            )
    else:
        sigma_arr = np.asarray(sigma, dtype=float)
        if sigma_arr.ndim == 0:
            sigma_arr = np.full(matrix.d, float(sigma_arr))
        if sigma_arr.shape != (matrix.d,):
            raise InputDataError("sigma must be a scalar or one value per variate")
        if np.any(~np.isfinite(sigma_arr)) or np.any(sigma_arr <= 0):
            raise InputDataError("sigma values must be positive and finite")
    # The scaled series is written into the prefix table and summed in place.
    cum_y = np.zeros((matrix.d, matrix.n + 1))
    scaled = cum_y[:, 1:]
    np.subtract(values, values.mean(axis=1, keepdims=True), out=scaled)
    scaled /= sigma_arr[:, None]
    np.cumsum(scaled, axis=1, out=scaled)
    return CostModel(GAUSSIAN, sigma_arr, cum_y)


def negbin_model(matrix: TimeSeriesMatrix) -> CostModel:
    """Negative binomial cost model for count matrices.

    Dispersion is fixed per variate, estimated once from the variate's full
    series by method of moments.
    """
    values = matrix.values
    return CostModel(NEGBIN, estimate_dispersion(values), _prefix_sums(values))
