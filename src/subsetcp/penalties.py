"""Penalty choices: defaults with guarantees, and Monte Carlo calibration.

The detector uses a piecewise-linear penalty min(beta + alpha*p, K) on the
number p of affected variates.  ``theoretical_penalties`` gives the default
constants with a false-alarm guarantee; ``calibrate_beta`` tunes beta (with
K slaved to it) so that the full procedure stays quiet on a target fraction
of null datasets.  Baseline CUSUM aggregations are calibrated by a plain
null quantile of their max statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .core import InputDataError, RandomSource, TimeSeriesMatrix
from .costs import GAUSSIAN, NEGBIN, CostModel, gaussian_model, negbin_model


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty constants plus provenance (manual, theoretical, calibrated)."""

    alpha: float
    beta: float
    K: float
    source: str = "manual"
    target_fp: float | None = None
    calib_reps: int | None = None

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.K < self.beta:
            raise ValueError(f"K ({self.K}) must be at least beta ({self.beta})")
        if self.source not in ("manual", "theoretical", "calibrated") and not self.source.startswith(
            "baseline:"
        ):
            raise ValueError(f"unknown penalty source {self.source!r}")


def dense_cap(beta: float, d: int) -> float:
    """The K that pairs with a given beta: beta + d + sqrt(2*beta*d)."""
    return beta + d + math.sqrt(2.0 * beta * d)


def theoretical_penalties(n: int, d: int, J: float = 2.0, eps: float = 0.1) -> PenaltyConfig:
    """Penalties with an asymptotic false-alarm guarantee.

    alpha = 2 ln d, beta = (J + eps) ln n, K = beta + d + sqrt(2*beta*d).
    Requires d >= 2; for a single variate supply penalties manually.
    """
    if n < 2:
        raise InputDataError(f"series length must be >= 2, got {n}")
    if d < 2:
        raise InputDataError("theoretical penalties need d >= 2; set penalties manually for d=1")
    if J <= 0 or eps <= 0:
        raise InputDataError("J and eps must be positive")
    beta = (J + eps) * math.log(n)
    return PenaltyConfig(
        alpha=2.0 * math.log(d),
        beta=beta,
        K=dense_cap(beta, d),
        source="theoretical",
    )


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


@dataclass(frozen=True)
class NullModel:
    """No-change data model used for calibration draws.

    Gaussian nulls are standard normal scaled by ``sigma``; when
    ``estimate_scale`` is set the procedure re-estimates each variate's
    scale exactly as the detection pipeline would.  Count nulls draw
    Neg-Bin(r, p) and always re-estimate dispersion, matching the pipeline.
    """

    kind: str = GAUSSIAN
    sigma: float = 1.0
    estimate_scale: bool = False
    r: float = 20.0
    p: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in (GAUSSIAN, NEGBIN):
            raise InputDataError(f"unknown model kind {self.kind!r}")
        if self.sigma <= 0 or self.r <= 0 or not 0 < self.p < 1:
            raise InputDataError("null model needs sigma > 0, r > 0, p in (0, 1)")

    def sample_model(self, n: int, d: int, rng: RandomSource) -> CostModel:
        g = rng.generator()
        if self.kind == GAUSSIAN:
            values = self.sigma * g.standard_normal((d, n))
            matrix = TimeSeriesMatrix(values, tuple(f"x{i}" for i in range(1, d + 1)))
            return gaussian_model(matrix, sigma=None if self.estimate_scale else self.sigma)
        values = g.negative_binomial(self.r, self.p, size=(d, n)).astype(float)
        matrix = TimeSeriesMatrix(values, tuple(f"x{i}" for i in range(1, d + 1)))
        return negbin_model(matrix)


def _null_maxima(
    n: int,
    d: int,
    null: NullModel,
    rng: RandomSource,
    target_fp: float,
    reps: int,
    intervals: int,
    statistic,
) -> np.ndarray:
    """Per-replicate maxima of ``statistic(model, l, u)`` over null datasets.

    Replicate ``rep`` simulates its dataset from stream (rep, 0) and draws its
    own interval set from (rep, 1) (``intervals`` = 0 means a plain scan of
    (1, n)); intervals with a single split are skipped, as in the detector.
    A statistic returning k values gives shape (reps, k), each maximised
    on its own.  ``target_fp`` is only checked here, before the first draw.
    """
    from .wbs import draw_intervals

    if not 0.0 < target_fp < 1.0:
        raise InputDataError(f"target_fp must be in (0, 1), got {target_fp}")
    if reps < 20:
        raise InputDataError(f"calibration needs at least 20 replicates, got {reps}")
    maxima = []
    for rep in range(reps):
        model = null.sample_model(n, d, rng.child(rep, 0))
        pairs = draw_intervals(n, intervals, rng.child(rep, 1)).pairs
        maxima.append(np.max([statistic(model, l, u) for l, u in pairs if u - l > 1], axis=0))
    return np.array(maxima)


def _minimal_quiet_beta(sparse_max, dense_max, d: int):
    """Smallest beta at which neither branch fires; elementwise on arrays.

    Quiet means sparse_max <= beta and dense_max <= dense_cap(beta, d).  In
    x = sqrt(beta) the cap is x**2 + sqrt(2d)*x + d, so with e = dense_max - d
    the dense branch is quiet once x reaches the positive root
    (sqrt(2d + 4e) - sqrt(2d)) / 2, and at every beta when e <= 0.  The root
    is computed as 2e / (sqrt(2d + 4e) + sqrt(2d)), which does not cancel
    when e is small.
    """
    excess = np.maximum(dense_max - d, 0.0)
    x = 2.0 * excess / (np.sqrt(2.0 * d + 4.0 * excess) + math.sqrt(2.0 * d))
    return np.maximum(sparse_max, x * x)


def calibrate_beta(
    n: int,
    d: int,
    null: NullModel,
    rng: RandomSource,
    target_fp: float = 0.05,
    reps: int = 200,
    intervals: int = 1000,
) -> PenaltyConfig:
    """Monte Carlo beta calibration at a target per-dataset false-alarm rate.

    Each replicate simulates a null dataset, draws its own interval set
    (``intervals`` = 0 means a plain scan of (1, n)), and finds, in closed
    form, the minimal beta at which neither branch fires on it.  The
    returned beta is the (1 - target_fp) empirical quantile of those minima;
    alpha stays at 2 ln d and K is slaved to beta.
    """
    if d < 2:
        raise InputDataError("calibration needs d >= 2")
    alpha = 2.0 * math.log(d)

    def branch_maxima(model: CostModel, l: int, u: int) -> tuple[float, float]:
        gains = model.gain_matrix(l, u)
        return np.maximum(gains - alpha, 0.0).sum(axis=0).max(), gains.sum(axis=0).max()

    sparse_max, dense_max = _null_maxima(
        n, d, null, rng, target_fp, reps, intervals, branch_maxima
    ).T
    minima = _minimal_quiet_beta(sparse_max, dense_max, d)
    beta = float(np.quantile(minima, 1.0 - target_fp, method="higher"))
    return PenaltyConfig(
        alpha=alpha,
        beta=beta,
        K=dense_cap(beta, d),
        source="calibrated",
        target_fp=target_fp,
        calib_reps=reps,
    )


def calibrate_baseline_threshold(
    n: int,
    d: int,
    method: str,
    null: NullModel,
    rng: RandomSource,
    target_fp: float = 0.05,
    reps: int = 200,
    intervals: int = 1000,
) -> float:
    """Null quantile threshold for a CUSUM aggregation baseline.

    Returns the (1 - target_fp) quantile over null datasets of the largest
    ``baselines.baseline_statistic`` across intervals and splits.
    """
    from .baselines import baseline_statistic

    if null.kind != GAUSSIAN:
        raise InputDataError("baseline calibration is defined for the Gaussian model only")

    def aggregated_max(model: CostModel, l: int, u: int) -> float:
        return baseline_statistic(model, method, l, u).max()

    maxima = _null_maxima(n, d, null, rng, target_fp, reps, intervals, aggregated_max)
    return float(np.quantile(maxima, 1.0 - target_fp, method="higher"))
