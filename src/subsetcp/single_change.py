"""Single-change statistics on one interval.

For a split at ``t`` inside interval ``(l, u)``, the per-variate gain is

    D[i, t] = cost(l..u) - cost(l..t) - cost(t+1..u),

and the interval statistic combines gains across variates through two
penalty branches: a per-variate soft threshold ``alpha`` plus budget
``beta`` (the sparse branch), and a flat cap ``K`` on the unthresholded sum
(the dense branch).  The larger branch is the statistic; a positive maximum
over ``t`` is a detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KIND_DENSE, KIND_SPARSE, Detection
from .costs import CostModel
from .penalties import PenaltyConfig


@dataclass(frozen=True)
class StatisticProfile:
    """Per-split statistics for one interval.

    ``gains`` has shape (d, u-l); column ``j`` corresponds to the split at
    ``t = l + j``.  ``s1``/``s2`` are the sparse and dense branch values.
    """

    gains: np.ndarray
    s1: np.ndarray
    s2: np.ndarray

    @property
    def s(self) -> np.ndarray:
        return np.maximum(self.s1, self.s2)


def statistic_profile(
    model: CostModel, penalties: PenaltyConfig, l: int, u: int, dtype=np.float64
) -> StatisticProfile:
    """Gains and both branch values at every split of (l, u), computed in
    ``dtype``; calibration screens intervals at float32."""
    gains = model.gain_matrix(l, u, dtype)
    thresholded = np.maximum(gains - penalties.alpha, 0.0)
    s1 = thresholded.sum(axis=0) - penalties.beta
    s2 = gains.sum(axis=0) - penalties.K
    return StatisticProfile(gains=gains, s1=s1, s2=s2)


def scan_interval(
    model: CostModel, penalties: PenaltyConfig, l: int, u: int
) -> Detection | None:
    """Best candidate changepoint on (l, u), or None when nothing clears 0.

    Ties over ``t`` keep the smallest ``t``; an exact tie between branches
    is labelled sparse.  The sparse affected set is {i : D[i, t*] > alpha},
    the dense one is every variate.
    """
    if u - l <= 1:
        raise ValueError(f"interval ({l}, {u}) has no interior split")
    profile = statistic_profile(model, penalties, l, u)
    s = profile.s
    best = int(np.argmax(s))
    if s[best] <= 0.0:
        return None
    tau = l + best
    if profile.s1[best] >= profile.s2[best]:
        kind = KIND_SPARSE
        affected = frozenset(
            int(i) + 1 for i in np.flatnonzero(profile.gains[:, best] > penalties.alpha)
        )
    else:
        kind = KIND_DENSE
        affected = frozenset(range(1, model.d + 1))
    return Detection(
        tau=tau,
        kind=kind,
        affected=affected,
        statistic=float(s[best]),
        interval=(l, u),
    )
