"""Brute-force reference statistics computed straight from raw series.

Every segment is summed directly, with no prefix sums and no dropped
terms, so these functions check the prefix-sum kernels of ``subsetcp``.
Series are 1-d arrays; time indices are 1-based and inclusive, as in the
package.  Costs take exactly one model parameter: ``sigma`` for the Gaussian
model or ``r`` for the negative binomial one.
"""

import itertools
import math

import numpy as np
from scipy.special import gammaln, xlogy


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


def best_partition(y, taus, alpha: float, sigma=None, r=None) -> tuple[int, ...]:
    """Subset of ``taus`` minimizing total cost plus ``alpha`` per segment,
    by enumeration; among equal objectives the first subset found wins."""
    n = len(y)
    best_val, best_sel = math.inf, ()
    for k in range(len(taus) + 1):
        for keep in itertools.combinations(taus, k):
            bounds = [0, *keep, n]
            val = sum(
                segment_cost(y, a + 1, b, sigma, r) + alpha for a, b in zip(bounds, bounds[1:])
            )
            if val < best_val - 1e-12:
                best_val, best_sel = val, tuple(keep)
    return best_sel


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
