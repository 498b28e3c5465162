"""Brute-force references and helpers that only the tests use.

Every segment is summed directly, with no prefix sums and no dropped
terms, so these functions check the prefix-sum kernels of ``subsetcp``.
Series are 1-d arrays; time indices are 1-based and inclusive, as in the
package.  Costs take exactly one model parameter: ``sigma`` for the Gaussian
model or ``r`` for the negative binomial one.  The WBS driver here rescans
every contained interval at every level.
"""

import dataclasses
import itertools
import math

import numpy as np
from scipy import stats
from scipy.special import erfc, gammaln, xlogy

from subsetcp import (
    GAUSSIAN,
    KIND_DENSE,
    KIND_SPARSE,
    Detection,
    InputDataError,
    draw_intervals as package_draw_intervals,
    negbin_model,
)
from subsetcp.costs import R_MAX
from subsetcp.diagnostics import variate_segments
from subsetcp.penalties import _minimal_quiet_beta
from subsetcp.simlab import ChangeSpec, ScenarioSpec, _density_set
from subsetcp.single_change import branch_sums


def _segment(y, s: int, t: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if not 1 <= s <= t <= len(y):
        raise ValueError(f"segment {s}..{t} outside 1..{len(y)}")
    return y[s - 1 : t]


def gaussian_cost(y, s: int, t: int, sigma: float = 1.0) -> float:
    """Residual sum of squares of y[s..t] about its own mean, over sigma^2."""
    seg = _segment(y, s, t)
    return float(np.sum((seg - seg.mean()) ** 2) / sigma**2)


def negbin_mle_p(r: float, length: int, total: float) -> float:
    """Closed-form success-probability estimate for one segment."""
    return length * r / (length * r + total)


def negbin_loglik(y, r: float, p: float) -> float:
    """Log-likelihood of counts ``y`` under Neg-Bin(r, p)."""
    y = np.asarray(y, dtype=float)
    coef = gammaln(y + r) - gammaln(r) - gammaln(y + 1)
    return float(np.sum(coef + xlogy(y, 1 - p) + r * math.log(p)))


def negbin_span_cost(total, length, r):
    """-2 [S log(S / (len r + S)) + len r log(len r / (len r + S))] of spans
    with sums S, through ``xlogy``; arrays broadcast."""
    lr = length * r
    scale = lr + total
    return -2.0 * (xlogy(total, total / scale) + lr * np.log(lr / scale))


def negbin_cost(y, s: int, t: int, r: float) -> float:
    """-2 times the log-likelihood of y[s..t] at its maximizing p."""
    seg = _segment(y, s, t)
    return -2.0 * negbin_loglik(seg, r, negbin_mle_p(r, len(seg), float(seg.sum())))


def segment_cost(y, s: int, t: int, sigma: float | None = None, r: float | None = None) -> float:
    if (sigma is None) == (r is None):
        raise ValueError("give exactly one of sigma and r")
    return gaussian_cost(y, s, t, sigma) if r is None else negbin_cost(y, s, t, r)


def d_statistic(y, l: int, u: int, t: int, sigma=None, r=None) -> float:
    """Gain cost(l..u) - cost(l..t) - cost(t+1..u) of splitting (l, u) at t."""
    if not l <= t < u:
        raise ValueError(f"split {t} outside {l}..{u - 1}")
    return (
        segment_cost(y, l, u, sigma, r)
        - segment_cost(y, l, t, sigma, r)
        - segment_cost(y, t + 1, u, sigma, r)
    )


def cusum(y, l: int, u: int, t: int, sigma: float = 1.0) -> float:
    """Signed CUSUM sqrt(left*right/total) * (right mean - left mean) / sigma."""
    if not l <= t < u:
        raise ValueError(f"split {t} outside {l}..{u - 1}")
    left = _segment(y, l, t)
    right = _segment(y, t + 1, u)
    scale = math.sqrt(len(left) * len(right) / (len(left) + len(right)))
    return float(scale * (right.mean() - left.mean()) / sigma)


def one_pass_cusum(model, l: int, u: int, dtype=np.float64) -> np.ndarray:
    """``CostModel.cusum`` computed for every row at once: the same
    arithmetic on each row, with whole-block temporaries.  float64 scales
    prefix differences; float32 takes the rank-2 product
    [C[l - 1], C[u]] . [1 - j / L; j / L] minus C[t] on the rounded table."""
    length = u - l + 1
    len_left = np.arange(1, length, dtype=dtype)
    if dtype == np.float32:
        table = model.cum_y.astype(dtype)
        w = table[:, [l - 1, u]] @ np.stack(((length - len_left) / length, len_left / length))
        w -= table[:, l:u]
        w *= np.sqrt(length / (len_left * (length - len_left)))
        return w
    base = model.cum_y[:, l - 1 : l]
    sum_left = np.subtract(model.cum_y[:, l:u], base, out=np.empty((model.d, u - l), dtype))
    w = (model.cum_y[:, u : u + 1] - base).astype(dtype, copy=False) * (len_left / length)
    w -= sum_left
    w *= np.sqrt(length / (len_left * (length - len_left)))
    return w


def one_pass_negbin_gains(model, l: int, u: int, dtype=np.float64) -> np.ndarray:
    """The negbin ``CostModel.gain_matrix`` computed for every row at once:
    the same arithmetic on each row, with whole-panel temporaries."""
    pieces = np.empty((2, model.d, u - l + 1), dtype)
    np.subtract(model.cum_y[:, l : u + 1], model.cum_y[:, l - 1 : l], out=pieces[0])
    np.subtract(model.cum_y[:, u : u + 1], model.cum_y[:, l : u + 1], out=pieces[1])
    len_left = np.arange(1, u - l + 2, dtype=dtype)
    lengths = np.concatenate((len_left, len_left[-2::-1], len_left[-1:]))
    left, right = model.span_cost(pieces, lengths.reshape(2, 1, -1))
    gains = left[:, -1:] - left[:, :-1]
    gains -= right[:, :-1]
    return np.maximum(gains, 0.0, out=gains)


def moments_dispersion(y) -> float:
    """Method-of-moments r = m^2 / (v - m) of one count series, in Python
    floats: ``R_MAX`` when v <= m, and capped at ``R_MAX``."""
    m = float(np.mean(y))
    v = float(np.var(y, ddof=1))
    if v <= m:
        return R_MAX
    return min(m * m / (v - m), R_MAX)


def split_gains(y, l: int, u: int, params) -> np.ndarray:
    """(d, u-l) ``d_statistic`` of every row of ``y`` at every split of
    (l, u); ``params[i]`` is row i's own ``{"sigma": ...}`` or ``{"r": ...}``."""
    return np.array([
        [d_statistic(row, l, u, t, **param) for t in range(l, u)]
        for row, param in zip(y, params)
    ])


class TieLog:
    """Comparisons that take values within ``tol`` relative as equal, and
    the list of those ties; the tie rule of each decision then applies."""

    def __init__(self, tol: float):
        self.tol = tol
        self.ties: list[tuple[float, float]] = []

    def above(self, a: float, b: float) -> bool:
        if abs(a - b) <= self.tol * (1.0 + max(abs(a), abs(b))):
            self.ties.append((a, b))
            return False
        return a > b


def _above(a: float, b: float, ties: TieLog | None) -> bool:
    """a > b, or ``ties.above(a, b)`` when a tie log is given."""
    return a > b if ties is None else ties.above(a, b)


def scan_interval(y, l: int, u: int, penalties, params, ties: TieLog | None = None):
    """Best candidate on (l, u) from ``split_gains`` on the raw series, one
    split and one variate at a time, or None when nothing clears 0.  Ties
    over t keep the smallest t; a tie between branches is sparse.  Every
    comparison goes through ``ties`` when given."""
    gains = split_gains(y, l, u, params)
    best = None
    for t in range(l, u):
        column = [float(g) for g in gains[:, t - l]]
        sparse = sum(max(g - penalties.alpha, 0.0) for g in column) - penalties.beta
        dense = sum(column) - penalties.K
        stat = max(sparse, dense)
        if not _above(stat, 0.0, ties) or (
            best is not None and not _above(stat, best.statistic, ties)
        ):
            continue
        if not _above(dense, sparse, ties):
            kind = KIND_SPARSE
            affected = frozenset(
                i + 1 for i, g in enumerate(column) if _above(g, penalties.alpha, ties)
            )
        else:
            kind, affected = KIND_DENSE, frozenset(range(1, len(column) + 1))
        best = Detection(tau=t, kind=kind, affected=affected, statistic=stat, interval=(l, u))
    return best


def one_block_scan(model, penalties, l: int, u: int):
    """``single_change.scan_interval`` on one whole (d, u-l) gain block:
    ``gain_matrix``, then ``branch_sums``, then the affected set read from
    the excesses at the best split."""
    gains = model.gain_matrix(l, u)
    sparse, dense = branch_sums(gains, penalties.alpha)
    s1 = sparse - penalties.beta
    s2 = dense - penalties.K
    s = np.maximum(s1, s2)
    best = int(np.argmax(s))
    if s[best] <= 0.0:
        return None
    if s1[best] >= s2[best]:
        kind = KIND_SPARSE
        affected = frozenset(int(i) + 1 for i in np.flatnonzero(gains[:, best] > 0.0))
    else:
        kind, affected = KIND_DENSE, frozenset(range(1, model.d + 1))
    return Detection(
        tau=l + best, kind=kind, affected=affected, statistic=float(s[best]), interval=(l, u)
    )


def baseline_statistic(method: str, threshold: float, w_row, binweight_alpha=None) -> float:
    """Aggregated CUSUM row (mean, max or thresholded sum) minus the threshold."""
    w = [float(x) for x in w_row]
    if method == "mean":
        value = sum(w) / len(w)
    elif method == "max":
        value = max(w)
    elif method == "binweight":
        value = sum(x for x in w if x > binweight_alpha)
    else:
        raise ValueError(f"unknown method {method!r}")
    return value - threshold


def minimal_quiet_beta(sparse_max: float, dense_max: float, d: int, tol: float = 1e-3) -> float:
    """Smallest beta at which neither the sparse branch (sparse_max <= beta)
    nor the dense one (dense_max <= beta + d + sqrt(2 beta d)) fires, found by
    doubling then bisection; returns the quiet end, at most ``tol`` above."""

    def quiet(beta: float) -> bool:
        return sparse_max <= beta and dense_max <= beta + d + math.sqrt(2.0 * beta * d)

    if quiet(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while not quiet(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if quiet(mid):
            hi = mid
        else:
            lo = mid
    return hi


def branch_maxima(model, pairs, alpha: float) -> np.ndarray:
    """Largest sparse and dense ``branch_sums`` over every interval with a
    split, in float64: one calibration replicate, unscreened."""
    maxima = []
    for l, u in pairs:
        if u - l > 1:
            sparse, dense = branch_sums(model.gain_matrix(l, u), alpha)
            maxima.append((sparse.max(), dense.max()))
    return np.max(maxima, axis=0)


def baseline_maxima(model, pairs, method: str) -> float:
    """Largest mean, max or binweight (cut-off sqrt(2 ln n)) aggregate of
    |CUSUM| over every interval with a split, one interval at a time: one
    baseline calibration replicate."""
    cut = math.sqrt(2.0 * math.log(model.n))
    best = -math.inf
    for l, u in pairs:
        if u - l > 1:
            w = np.abs(model.cusum(l, u))
            if method == "mean":
                stat = w.mean(axis=0)
            elif method == "max":
                stat = w.max(axis=0)
            else:
                stat = np.where(w > cut, w, 0.0).sum(axis=0)
            best = max(best, stat.max())
    return best


def calibration_maxima(
    n: int, d: int, null, rng, reps: int, intervals: int, method: str | None = None
) -> np.ndarray:
    """Per-replicate ``branch_maxima`` (reps, 2), or ``baseline_maxima`` of
    ``method`` (reps,), on the datasets and interval sets that calibration
    draws from ``rng``."""
    alpha = 2.0 * math.log(d)
    maxima = []
    for rep in range(reps):
        model = null.sample_model(n, d, rng.child(rep, 0))
        pairs = package_draw_intervals(n, intervals, rng.child(rep, 1)).pairs
        if method is None:
            maxima.append(branch_maxima(model, pairs, alpha))
        else:
            maxima.append(baseline_maxima(model, pairs, method))
    return np.array(maxima)


def null_fire_rate(detect, null, n: int, d: int, k: int, rng) -> tuple[float, float, float]:
    """Share of ``k`` null panels on which ``detect`` reports a change, with
    its Clopper-Pearson 95% interval: (rate, low, high).

    Panel ``rep`` is ``null.sample_model(n, d, rng.child(rep, 0))``, and
    ``detect(model, rng.child(rep, 1))`` returns its ``SegmentationResult``,
    drawing what else it needs (its intervals) from the stream it is given.
    """
    fires = sum(
        bool(detect(null.sample_model(n, d, rng.child(rep, 0)), rng.child(rep, 1)).detections)
        for rep in range(k)
    )
    low = stats.beta.ppf(0.025, fires, k - fires + 1) if fires else 0.0
    high = stats.beta.ppf(0.975, fires + 1, k - fires) if fires < k else 1.0
    return fires / k, float(low), float(high)


def calibrated_beta(maxima: np.ndarray, d: int, target_fp: float) -> float:
    """The (1 - target_fp) quantile of the replicates' minimal quiet betas."""
    minima = _minimal_quiet_beta(maxima[:, 0], maxima[:, 1], d)
    return float(np.quantile(minima, 1.0 - target_fp, method="higher"))


def best_partition(
    y, taus, alpha: float, sigma=None, r=None, ties: TieLog | None = None
) -> tuple[int, ...]:
    """Subset of ``taus`` minimizing total cost plus ``alpha`` per segment,
    by enumeration; among equal objectives the first subset found wins.
    When ``ties`` is given, two best objectives within its tolerance are
    logged as a tie."""
    n = len(y)
    cost = {
        (a, b): segment_cost(y, a + 1, b, sigma, r)
        for a, b in itertools.combinations([0, *taus, n], 2)
    }
    best_val, best_sel = math.inf, ()
    values = []
    for k in range(len(taus) + 1):
        for keep in itertools.combinations(taus, k):
            bounds = [0, *keep, n]
            val = sum(cost[a, b] + alpha for a, b in zip(bounds, bounds[1:]))
            values.append(val)
            if val < best_val - 1e-12:
                best_val, best_sel = val, tuple(keep)
    if ties is not None and len(values) > 1:
        first, second = sorted(values)[:2]
        ties.above(second, first)
    return best_sel


def kept_taus(keep, taus) -> list[tuple[int, ...]]:
    """Per variate, the candidates that a (d, len(taus)) keep-mask from
    ``optimal_partition`` selects, in the form ``best_partition`` returns."""
    return [tuple(np.asarray(taus, dtype=int)[row].tolist()) for row in keep]


def draw_intervals(n: int, m: int, g) -> list[tuple[int, int]]:
    """``m`` intervals from generator ``g``, one pair of uniform draws on
    1..n at a time, each tie redrawn; the full interval (1, n) comes first."""
    pairs = [(1, n)]
    for _ in range(m):
        while True:
            a, b = g.integers(1, n + 1, size=2)
            if a != b:
                break
        pairs.append((int(min(a, b)), int(max(a, b))))
    return pairs


def segmentation_driver(n: int, intervals, scan, ties: TieLog | None = None) -> list:
    """WBS recursion that calls ``scan(l, u)`` for the segment and for every
    distinct stored interval it contains, at every level; the segment wins
    exact ties, then stored intervals in index order.  Candidates are
    compared through ``ties`` when given."""
    detections = []
    stack = [(1, n)]
    while stack:
        l0, u0 = stack.pop()
        if u0 - l0 <= 1:
            continue
        best = scan(l0, u0)
        for l, u in dict.fromkeys(intervals.pairs):
            if (l, u) == (l0, u0) or l < l0 or u > u0 or u - l <= 1:
                continue
            candidate = scan(l, u)
            if candidate is not None and (
                best is None or _above(candidate.statistic, best.statistic, ties)
            ):
                best = candidate
        if best is None:
            continue
        detections.append(best)
        stack.append((l0, best.tau))
        stack.append((best.tau + 1, u0))
    detections.sort(key=lambda det: det.tau)
    return detections


def subset_wbs(y, intervals, penalties, params, ties: TieLog | None = None) -> list:
    """The whole detector on the raw series ``y`` (d, n): ``scan_interval``
    driven by ``segmentation_driver``, then postprocess, in which variate i
    keeps the candidates that ``best_partition`` selects with ``params[i]``
    and the penalties' alpha.  Returns the candidates that some variate
    keeps, sorted by tau, each with the set of variates that keep it.
    Every step compares through ``ties`` when given."""
    y = np.asarray(y, dtype=float)
    candidates = segmentation_driver(
        y.shape[1], intervals, lambda l, u: scan_interval(y, l, u, penalties, params, ties), ties
    )
    taus = [det.tau for det in candidates]
    kept = [
        best_partition(row, taus, penalties.alpha, ties=ties, **param)
        for row, param in zip(y, params)
    ]
    out = []
    for det in candidates:
        affected = frozenset(i + 1 for i, keep in enumerate(kept) if det.tau in keep)
        if affected:
            out.append(dataclasses.replace(det, affected=affected))
    return out


def sparse_beta_closed_form(n: int, d: int, C: float) -> float:
    """Sharper beta for sparse-only regimes.

    sqrt(beta) = sqrt(2*d*q) + C*sqrt(ln n) with q the expected fraction of
    variates whose chi-square(1) gain clears alpha = 2 ln d, i.e.
    q = erfc(sqrt(ln d)).
    """
    if d < 2 or n < 2:
        raise InputDataError("need d >= 2 and n >= 2")
    if C <= 0:
        raise InputDataError("C must be positive")
    q = float(erfc(math.sqrt(math.log(d))))
    return (math.sqrt(2.0 * d * q) + C * math.sqrt(math.log(n))) ** 2


def fixed_r_model(matrix, r):
    """The package's count model with dispersion ``r`` (a scalar or one value
    per variate) in place of the estimated one."""
    model = negbin_model(matrix)
    r = np.broadcast_to(np.asarray(r, dtype=float), (model.d,))
    return dataclasses.replace(model, scale=r)


def corrcoef_mean(residuals) -> float:
    """Mean off-diagonal entry of ``np.corrcoef(residuals)``, through the
    full d x d matrix."""
    d = len(residuals)
    return float(np.mean(np.corrcoef(residuals)[~np.eye(d, dtype=bool)]))


def segment_parameters(matrix, result) -> list[list[tuple[int, int, float]]]:
    """Per-variate fitted levels: (start, end, mean) for each segment."""
    out = []
    for i in range(1, matrix.d + 1):
        row = matrix.values[i - 1]
        out.append(
            [(s, t, float(np.mean(row[s - 1 : t]))) for s, t in variate_segments(result, i)]
        )
    return out


def amoc_scenario(
    n: int,
    d: int,
    delta: float,
    density: float | None = None,
    affected: tuple[int, ...] | None = None,
    tau: int | None = None,
) -> ScenarioSpec:
    """Single Gaussian change at ``tau`` (default n // 2)."""
    if (density is None) == (affected is None):
        raise InputDataError("give exactly one of density or affected")
    chosen = _density_set(density, d) if density is not None else tuple(affected)
    tau = n // 2 if tau is None else tau
    changes = (ChangeSpec(tau=tau, affected=chosen, delta=delta),) if delta != 0 else ()
    return ScenarioSpec(model=GAUSSIAN, n=n, d=d, changes=changes)
