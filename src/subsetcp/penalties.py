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

from . import baselines, wbs
from .core import InputDataError, RandomSource, TimeSeriesMatrix
from .costs import (
    GAUSSIAN,
    NEGBIN,
    SCREEN_ROUNDOFF,
    CostModel,
    gaussian_model,
    negbin_model,
)
from .single_change import branch_sums

# Prefix cells, d (n + 1) per replicate, of the null replicates sampled and
# priced as one batch: 5 replicates at n = 1000, d = 12, and 1 when d (n + 1)
# exceeds it.
_BATCH_CELLS = 2**16
# Prefix cells in one block of equal-length intervals.
_BLOCK_CELLS = 2**15


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty constants plus provenance (manual, theoretical, calibrated)."""

    alpha: float
    beta: float
    K: float
    source: str = "manual"

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.alpha, self.beta, self.K)):
            raise ValueError(
                f"alpha, beta and K must be finite, got {self.alpha}, {self.beta}, {self.K}"
            )
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.K < self.beta:
            raise ValueError(f"K ({self.K}) must be at least beta ({self.beta})")
        if self.source not in ("manual", "theoretical", "calibrated"):
            raise ValueError(f"unknown penalty source {self.source!r}")


def dense_cap(beta: float, d: int) -> float:
    """The K that pairs with a given beta: beta + d + sqrt(2*beta*d)."""
    return beta + d + math.sqrt(2.0 * beta * d)


def theoretical_penalties(n: int, d: int, J: float = 2.0) -> PenaltyConfig:
    """Penalties with an asymptotic false-alarm guarantee.

    alpha = 2 ln d, beta = (J + 0.1) ln n, K = beta + d + sqrt(2*beta*d).
    Requires d >= 2; for a single variate supply penalties manually.
    """
    if n < 2:
        raise InputDataError(f"series length must be >= 2, got {n}")
    if d < 2:
        raise InputDataError("theoretical penalties need d >= 2; set penalties manually for d=1")
    if J <= 0:
        raise InputDataError("J must be positive")
    beta = (J + 0.1) * math.log(n)
    return PenaltyConfig(
        alpha=2.0 * math.log(d),
        beta=beta,
        K=dense_cap(beta, d),
        source="theoretical",
    )


@dataclass(frozen=True)
class NullModel:
    """No-change data model used for calibration draws.

    Gaussian nulls are standard normal: the detector divides each variate
    by its scale, so the noise scale cannot move a calibrated penalty.  When
    ``estimate_scale`` is set the procedure re-estimates each variate's
    scale exactly as the detection pipeline would.  Count nulls draw
    Neg-Bin(r, p) and always re-estimate dispersion, matching the pipeline.
    """

    kind: str = GAUSSIAN
    estimate_scale: bool = False
    r: float = 20.0
    p: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in (GAUSSIAN, NEGBIN):
            raise InputDataError(f"unknown model kind {self.kind!r}")
        if not (0 < self.r < math.inf and 0 < self.p < 1):
            raise InputDataError("null model needs a finite r > 0 and p in (0, 1)")

    def sample_model(self, n: int, d: int, rng: RandomSource) -> CostModel:
        g = rng.generator()
        names = tuple(f"x{i}" for i in range(1, d + 1))
        if self.kind == GAUSSIAN:
            matrix = TimeSeriesMatrix(g.standard_normal((d, n)), names)
            return gaussian_model(matrix, sigma=None if self.estimate_scale else 1.0)
        values = g.negative_binomial(self.r, self.p, size=(d, n)).astype(float)
        return negbin_model(TimeSeriesMatrix(values, names))


def _null_maxima(
    n: int,
    d: int,
    null: NullModel,
    rng: RandomSource,
    target_fp: float,
    reps: int,
    intervals: int,
    batch_maxima,
) -> np.ndarray:
    """Per-replicate maxima over null datasets, ``batch_maxima(models, pairs)``
    a batch of replicates at a time.

    Replicate ``rep`` simulates its dataset from stream (rep, 0) and draws its
    own interval set from (rep, 1) (``intervals`` = 0 means a plain scan of
    (1, n)); intervals with a single split are skipped, as in the detector.
    A batch holds as many replicates as fit ``_BATCH_CELLS`` prefix cells,
    and at least one.  ``batch_maxima`` returns one row per replicate; maxima
    of k values give shape (reps, k).  ``n``, ``target_fp``, ``reps`` and
    ``intervals`` are checked here, before the first draw.
    """
    if n < 3:
        raise InputDataError(f"calibration needs n >= 3, got {n}")
    if not 0.0 < target_fp < 1.0:
        raise InputDataError(f"target_fp must be in (0, 1), got {target_fp}")
    if reps < 20:
        raise InputDataError(f"calibration needs at least 20 replicates, got {reps}")
    if intervals < 0:
        raise InputDataError(f"interval count must be >= 0, got {intervals}")
    batch = max(1, _BATCH_CELLS // (d * (n + 1)))
    maxima = []
    for first in range(0, reps, batch):
        models, pairs = [], []
        for rep in range(first, min(first + batch, reps)):
            models.append(null.sample_model(n, d, rng.child(rep, 0)))
            drawn = np.array(wbs.draw_intervals(n, intervals, rng.child(rep, 1)).pairs)
            pairs.append(drawn[drawn[:, 1] - drawn[:, 0] > 1])
        maxima.extend(batch_maxima(models, pairs))
    return np.array(maxima)


def _equal_length_blocks(models: list[CostModel], pairs):
    """The intervals of a batch of replicates, as blocks of equal length.

    Yields ``(block, slots)``.  ``block`` is a ``CostModel`` of n = L whose
    rows are the prefix windows ``cum_y[:, l - 1 : u + 1]`` of G intervals
    of length L = u - l + 1, stacked member by member along with their
    scales, so that ``block.gain_matrix(1, L)`` reshaped to (G, d, L - 1)
    holds each member's ``gain_matrix(l, u)``, computed by the same
    operations.
    ``slots`` are the members' positions in ``pairs`` flattened in order.
    A block holds at most ``_BLOCK_CELLS`` prefix cells, or one window; a
    single window is a view of its replicate's table.
    """
    reps = np.repeat(np.arange(len(pairs)), [len(rep_pairs) for rep_pairs in pairs])
    starts, ends = np.concatenate(pairs).T
    lengths = ends - starts + 1
    order = np.argsort(lengths, kind="stable")
    kind, d = models[0].kind, models[0].d
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        length = int(lengths[group[0]])
        size = max(1, _BLOCK_CELLS // (d * (length + 1)))
        for first in range(0, len(group), size):
            slots = group[first : first + size]
            members = list(zip(reps[slots].tolist(), starts[slots].tolist()))
            windows = [models[rep].cum_y[:, l - 1 : l + length] for rep, l in members]
            cum_y = windows[0] if len(windows) == 1 else np.concatenate(windows)
            scale = np.concatenate([models[rep].scale for rep, _ in members])
            yield CostModel(kind, scale, cum_y), slots


def _split_by_replicate(values: np.ndarray, pairs) -> list[np.ndarray]:
    """``values`` of the batch's intervals in flat order, one part per replicate."""
    return np.split(values, np.cumsum([len(rep_pairs) for rep_pairs in pairs])[:-1])


def _screen_error(model: CostModel, pairs, screened: np.ndarray, alpha: float) -> np.ndarray:
    """Bounds (k, 2) on how far each interval's float32 sparse and dense
    maxima (``screened``) lie from the float64 ones.

    On top of ``CostModel.gain_error_bound`` for the gains, alpha is rounded
    to float32 and each D - alpha once more (u (2 alpha + D) per variate;
    clipping at 0 adds nothing), and d non-negative terms summed in any order
    are off by at most gamma_d = d u / (1 - d u) times their sum.  A
    difference bounded at every split bounds the difference of the maxima.
    """
    l, u = np.array(pairs).T
    sparse, dense = screened.T
    gains = model.gain_error_bound(l, u, dense)
    gamma = model.d * SCREEN_ROUNDOFF / (1.0 - model.d * SCREEN_ROUNDOFF)
    return np.column_stack((
        gains + SCREEN_ROUNDOFF * (2.0 * model.d * alpha + dense) + gamma * sparse,
        gains + gamma * dense,
    ))


def _branch_maxima(models: list[CostModel], pairs, alpha: float) -> np.ndarray:
    """Largest sparse and dense ``branch_sums`` of each dataset over its
    ``pairs``, shape (len(models), 2), bit-identical to a float64 scan of
    every interval.

    Every interval is scanned in float32 first, in blocks of equal length
    (``_equal_length_blocks``), giving maxima m[k] within e[k]
    (``_screen_error``) of the float64 ones.  The interval holding a
    branch's float64 maximum then has m[k] + e[k] >= max_j (m[j] - e[j]);
    only intervals passing that test for either branch, or with a
    non-finite m[k] + e[k], are rescanned in float64 on their own dataset.
    """
    screened = np.empty((sum(map(len, pairs)), 2))
    for block, slots in _equal_length_blocks(models, pairs):
        gains = block.gain_matrix(1, block.n, np.float32)
        sums = branch_sums(gains.reshape(len(slots), -1, block.n - 1), alpha)
        screened[slots] = np.column_stack([s.max(axis=-1) for s in sums])
    out = []
    for model, rep_pairs, rep_screened in zip(models, pairs, _split_by_replicate(screened, pairs)):
        error = _screen_error(model, rep_pairs, rep_screened, alpha)
        finite = np.isfinite(rep_screened + error)
        floor = np.where(finite, rep_screened - error, -np.inf).max(axis=0)
        verify = np.flatnonzero(np.any(~finite | (rep_screened + error >= floor), axis=1))
        rescans = [
            branch_sums(model.gain_matrix(l, u), alpha)
            for l, u in np.asarray(rep_pairs)[verify].tolist()
        ]
        out.append(np.max([(sparse.max(), dense.max()) for sparse, dense in rescans], axis=0))
    return np.array(out)


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
    alpha stays at 2 ln d and K is slaved to beta.  A replicate's branch
    maxima come from a float32 screen of every interval and a float64
    rescan of the leading ones (``_branch_maxima``), and equal those of a
    float64 scan of every interval.
    """
    if d < 2:
        raise InputDataError("calibration needs d >= 2")
    alpha = 2.0 * math.log(d)
    sparse_max, dense_max = _null_maxima(
        n, d, null, rng, target_fp, reps, intervals,
        lambda models, pairs: _branch_maxima(models, pairs, alpha),
    ).T
    minima = _minimal_quiet_beta(sparse_max, dense_max, d)
    beta = float(np.quantile(minima, 1.0 - target_fp, method="higher"))
    return PenaltyConfig(
        alpha=alpha,
        beta=beta,
        K=dense_cap(beta, d),
        source="calibrated",
    )


def _aggregated_maxima(models: list[CostModel], pairs, method: str) -> list[float]:
    """Largest ``baselines.baseline_statistic`` of each dataset over its
    ``pairs``, every interval priced in a block of equal length
    (``_equal_length_blocks``).  The binweight cut-off takes the datasets'
    n, not a block's."""
    stats = np.empty(sum(map(len, pairs)))
    for block, slots in _equal_length_blocks(models, pairs):
        w = baselines.cusum_matrix(block, 1, block.n).reshape(len(slots), -1, block.n - 1)
        stats[slots] = baselines.baseline_statistic(w, method, models[0].n).max(axis=-1)
    return [part.max() for part in _split_by_replicate(stats, pairs)]


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
    if null.kind != GAUSSIAN:
        raise InputDataError("baseline calibration is defined for the Gaussian model only")
    maxima = _null_maxima(
        n, d, null, rng, target_fp, reps, intervals,
        lambda models, pairs: _aggregated_maxima(models, pairs, method),
    )
    return float(np.quantile(maxima, 1.0 - target_fp, method="higher"))
