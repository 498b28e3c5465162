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
        out = _negbin_terms(total, length * self.scale.astype(total.dtype, copy=False)[:, None])
        out *= -2.0
        return out

    def _check_interval(self, l: int, u: int) -> None:
        if not (1 <= l < u <= self.n):
            raise ValueError(f"interval ({l}, {u}) not inside 1..{self.n}")

    def cusum(self, l: int, u: int, dtype=np.float64) -> np.ndarray:
        """Signed CUSUM of every variate at every split of (l, u); shape (d, u-l).

        Column ``t - l`` holds sqrt(left*right/length) * (right mean - left
        mean) of the sigma-scaled series; its square is the Gaussian gain.
        With C the prefix table, L = u - l + 1 and j = t - l + 1 points on
        the left, that is the split norm times
        a = C[l - 1] (1 - j / L) + C[u] j / L - C[t].

        ``dtype`` float64 is the exact path: the left and whole sums are
        float64 differences of the prefix table.  float32 is calibration's
        screen: the rank-2 product [C[l - 1], C[u]] . [1 - j / L; j / L] on
        the table rounded to float32, one BLAS call per block, minus C[t].
        ``cusum_error_bound`` bounds how far the two lie apart.  The output
        is filled a block of rows at a time, so the temporaries stay one
        block in size.
        """
        if self.kind != GAUSSIAN:
            raise InputDataError("CUSUM statistics are defined for the Gaussian model only")
        self._check_interval(l, u)
        length = u - l + 1
        len_left = np.arange(1, length, dtype=dtype)
        norm = np.sqrt(length / (len_left * (length - len_left)))
        w = np.empty((self.d, u - l), dtype)
        step = max(1, _ROW_BLOCK_CELLS // (u - l))
        if w.dtype == np.float32:
            weights = np.empty((2, u - l), dtype)
            np.divide(length - len_left, length, out=weights[0])
            np.divide(len_left, length, out=weights[1])
            for start in range(0, self.d, step):
                rows = self.cum_y[start : start + step]
                ends = rows[:, l - 1 : u + 1 : length].astype(dtype)
                block = np.matmul(ends, weights, out=w[start : start + step])
                block -= rows[:, l:u].astype(dtype, copy=False)
                block *= norm
            return w
        share = len_left / length
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
        ``dtype`` is the working precision; the sums are differences of the
        prefix table in its own dtype, rounded once to ``dtype``.
        ``gain_error_bound`` bounds how far a float32 block can lie from the
        float64 one.
        """
        if self.kind == GAUSSIAN:
            w = self.cusum(l, u, dtype)
            w *= w
            return w
        self._check_interval(l, u)
        # Column j of a block's pieces holds the sums of the first and of the
        # last j + 1 points, both of length j + 1, so one lengths-times-r
        # block serves both; the last column of each is the whole interval.
        # With c the terms of ``_negbin_terms``, span costs are -2 c, so
        # gain = -2 c(whole) + 2 c(left) + 2 c(right) = 2 ((c(left) - c(whole))
        # + c(right)), operation by operation, since scaling by 2 is exact.
        # The output is filled a block of rows at a time, so the temporaries
        # stay one block in size.  They are one allocation per block: glibc
        # raises its mmap and trim thresholds to the largest chunk it has
        # freed, so one array stays on its heap from call to call, while
        # several smaller ones can together pass the trim threshold and be
        # returned to the system and faulted in again on every call.
        length = u - l + 1
        len_left = np.arange(1, length + 1, dtype=dtype)
        r = self.scale.astype(dtype, copy=False)
        gains = np.empty((self.d, u - l), dtype)
        step = max(1, _ROW_BLOCK_CELLS // (u - l))
        for start in range(0, self.d, step):
            rows = self.cum_y[start : start + step]
            work = np.empty((7, len(rows), length), dtype)
            pieces, lr = work[:2], work[6]
            np.subtract(rows[:, l : u + 1], rows[:, l - 1 : l], out=pieces[0])
            np.subtract(rows[:, u : u + 1], rows[:, l - 1 : u][:, ::-1], out=pieces[1])
            np.multiply(len_left, r[start : start + step, None], out=lr)
            left, right = _negbin_terms(pieces, lr, work[2:4], work[4:6])
            block = np.subtract(left[:, :-1], left[:, -1:], out=gains[start : start + step])
            block += right[:, -2::-1]
            block *= 2.0
            np.maximum(block, 0.0, out=block)
        return gains

    def gain_error_bound(self, l: np.ndarray, u: np.ndarray, dense_max: np.ndarray) -> np.ndarray:
        """Bound on sum_i |D32[i, t] - D64[i, t]| at every split t of each
        interval (l[k], u[k]), where D32 and D64 are ``gain_matrix`` computed
        at float32 and at float64.

        ``dense_max[k]`` is the largest float32 column sum of D32 on interval
        k.  The bound is infinite where its proof does not apply; every proof
        needs n < 2^24, so that split counts are exact in float32, and
        d < 2^20.

        A bound on each block's error against exact arithmetic on the same
        float64 inputs, with unit roundoff u, bounds their distance once u is
        ``SCREEN_ROUNDOFF``.  Every operation rounds once (|error| <= u
        |result|); numpy's float32 ``log`` is within 4 ulp of the exact
        value, so within 9u |log x| (Higham 2002, ch. 3 and 4, for the model
        and the sums).

        Negbin blocks start from the same float64 sums.  One span with sum T,
        length L and p = T / (T + Lr): the ratios carry relative error 5u (p)
        and 6u (1 - p), so the two terms of -cost / 2 are off by at most
        u (T + Lr) (5p + 11 p|log p|) and u (T + Lr) (6(1 - p) + 12 (1 - p)
        |log(1 - p)|); with their sum this is at most 15.1 u (T + Lr), so a
        cost is off by 30.2 u (T + Lr).  A gain takes three costs, the whole
        interval's and its two pieces', whose T + Lr add up to the whole's
        S + Lr: 60.4 u (S + Lr).  The two subtractions round results no
        larger than the full cost, at most 2 ln 2 (S + Lr), and clipping at 0
        adds nothing.  In all, 63.2 u (S + Lr) per variate at every split,
        taken as 64 to cover second-order terms.  The proof needs normal
        float32 values, which integer counts give when r >= 2^-40 and
        S + Lr <= 2^40.

        Gaussian gains square CUSUMs that lie within e = ``cusum_error_bound``
        of each other, and each square rounds once, so per variate
        |D32 - D64| <= e (2 |w32| + e) + u w32^2 + u (|w32| + e)^2.  Summed
        with Cauchy-Schwarz, that is 2 (1 + u) ||e|| R + (1 + u) ||e||^2
        + 2u R^2 for any R >= ||w32||.  The w32^2 sum to at most dense_max /
        ((1 - u)(1 - gamma_(d-1))), plus 2^-126 for each square that
        underflows, so R = (1 + (d + 5) u) sqrt(dense_max) + sqrt(d) 2^-62
        qualifies.  The last term, d 2^-120 (1 + R), covers those squares.
        """
        if self.n >= 2**24 or self.d >= 2**20:
            return np.full(len(l), np.inf)
        if self.kind == GAUSSIAN:
            entry = self.cusum_error_bound()
            norm = math.sqrt(np.einsum("i,i->", entry, entry))
            root = (1.0 + (self.d + 5) * SCREEN_ROUNDOFF) * np.sqrt(dense_max)
            root += math.sqrt(self.d) * 2.0**-62
            bound = (1.0 + SCREEN_ROUNDOFF) * norm * (2.0 * root + norm)
            bound += 2.0 * SCREEN_ROUNDOFF * root * root + 2.0**-120 * self.d * (1.0 + root)
            return bound if norm < math.inf else np.full(len(l), np.inf)
        mass = self.cum_y[:, u] - self.cum_y[:, l - 1] + (u - l + 1) * self.scale[:, None]
        bound = 64.0 * SCREEN_ROUNDOFF * mass.sum(axis=0)
        normal = (self.scale.min() >= 2.0**-40) & (mass.max(axis=0) <= 2.0**40)
        return np.where(normal, bound, np.inf)

    def cusum_error_bound(self) -> np.ndarray:
        """Bound on |w32[i, t] - w64[i, t]| for each variate i, at every split
        t of every interval, where w32 and w64 are ``cusum`` computed at
        float32 and at float64; shape (d,).

        It is infinite where the proof does not apply: n >= 2^24, where
        split counts round in float32, or a prefix sum above 2^40.

        Exact arithmetic on the prefix table C gives w = nu a, with
        a = C[l - 1] (1 - s) + C[u] s - C[t], s = j / L and the split norm
        nu = sqrt(L / (j (L - j))).  With P_i the largest |C| of variate i,
        |a| <= 2 P_i, and nu <= sqrt(2) because j (L - j) >= L - 1, so
        |w| <= 2 sqrt(2) P_i.  Each operation rounds once (|error| <= u
        |result|; Higham 2002, ch. 3), and the computed nu is within 2u of
        nu relative to it.
        - float64: the whole and left sums are prefix differences, off by at
          most 2u P_i each; scaled by s and subtracted, a is off by
          u (6s + 2) P_i + u |a|, and w by u nu (6s + 2) P_i + 4u |w|, which
          is below u (8 P_i + 4 |w|) since nu (6s + 2) = (6j + 2L) /
          sqrt(j L (L - j)) < 8.
        - float32: rounding C[l - 1], C[u] and the two weights moves the
          product by at most 2u P_i, and the two-term inner product rounds
          by at most gamma_2 P_i = 2u P_i in any order, with or without fused
          multiply-add (Higham 2002, eq. 3.4); rounding C[t] and the
          subtraction add u P_i + u |a|.  So w is off by at most
          5u nu P_i + 4u |w| <= u (7.08 P_i + 4 |w|).
        With u = ``SCREEN_ROUNDOFF``, which covers both unit roundoffs, the
        two lie within u (7.1 P_i + 4 |w|) <= 18.42 u P_i of each other;
        18.5 u P_i covers second-order terms and the float64 arithmetic of
        bounds built on it.  The last term, 2^-120, covers results that
        underflow, whether rounded or flushed to zero.
        """
        peak = np.maximum(self.cum_y.max(axis=1), -self.cum_y.min(axis=1))
        if self.n >= 2**24 or peak.max() > 2.0**40:
            return np.full(self.d, np.inf)
        return 18.5 * SCREEN_ROUNDOFF * peak + 2.0**-120

    def boundary_cost_matrix(self, bounds: np.ndarray, j: int) -> np.ndarray:
        """Costs of every variate's spans that end at boundary ``bounds[j]``.

        ``bounds`` is an increasing vector of prefix indices (0-based, i.e.
        boundary ``b`` closes the segment ending at time ``b``).  Returns a
        (d, j) array whose entry ``[i, k]`` is variate i+1's cost of span
        ``bounds[k]+1 .. bounds[j]``.
        """
        sums = self.cum_y[:, bounds[: j + 1]]
        return self.span_cost(sums[:, j:] - sums[:, :j], (bounds[j] - bounds[:j]).astype(float))


def _negbin_terms(total: np.ndarray, lr: np.ndarray, mass=None, out=None) -> np.ndarray:
    """S log(S / (lr + S)) + lr log(lr / (lr + S)) of spans with sums
    ``total`` and lengths times r ``lr``, in their dtype: minus half the
    negbin span cost.  ``lr`` broadcasts against ``total``.  S / (lr + S) is
    floored at the smallest normal number, so an empty span's
    S log(S / (lr + S)) is 0 * finite = 0; the floor is skipped, changing
    nothing, when every ratio is at least that number.  ``mass`` and
    ``out``, arrays of ``total``'s shape, are the scratch and the result
    when given.
    """
    mass = np.add(lr, total, out=mass)
    out = np.divide(total, mass, out=out)
    tiny = np.finfo(out.dtype).tiny
    if not out.min(initial=np.inf) >= tiny:
        np.maximum(out, tiny, out=out)
    np.log(out, out=out)
    out *= total
    np.log(np.divide(lr, mass, out=mass), out=mass)
    mass *= lr
    out += mass
    return out


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


def estimate_dispersion(y: np.ndarray) -> np.ndarray:
    """Method-of-moments dispersion estimates r = m^2 / (v - m), capped at ``R_MAX``.

    ``y`` is a (k, n) block of count series, giving k estimates.  Uses the
    n-1 variance denominator.
    Under-dispersed series (v <= m) return ``R_MAX``, which makes the model
    effectively Poisson, and so do barely over-dispersed ones whose estimate
    exceeds it.  An all-zero series is under-dispersed; its span costs and
    gains are all 0.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] < 2:
        raise ValueError("need a 2-d block of series of length >= 2")
    _validate_counts(y)
    m = np.mean(y, axis=1)
    excess = np.var(y, axis=1, ddof=1) - m
    r = np.divide(m * m, excess, out=np.full_like(m, R_MAX), where=excess > 0)
    return np.minimum(r, R_MAX)


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
                f"scale estimate is zero for variates {names}: the median absolute "
                "deviation of their first differences is 0 (the series is constant, or "
                "more than half of its steps are equal); pass sigma explicitly"
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
