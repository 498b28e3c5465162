"""Candidate pruning and per-variate assignment after detection.

Detection yields candidate changepoints with provisional affected sets.
Here each variate independently solves an optimal-partitioning problem
restricted to the candidate positions, paying ``alpha`` per kept change.
A variate is assigned to exactly the candidates on its optimal path;
candidates that no variate selects are dropped.  Sparse/dense labels from
detection are kept for reporting.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import Detection, SegmentationResult
from .costs import CostModel


def optimal_partition(
    model: CostModel, i: int, taus: Sequence[int], alpha: float
) -> tuple[int, ...]:
    """Best subset of candidate splits for variate ``i``.

    Minimizes the total segment cost plus ``alpha`` per segment over all
    subsets of ``taus`` (strictly increasing, within 1..n-1) and returns the
    selected tau values.
    """
    taus = list(taus)
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError(f"candidates must be strictly increasing, got {taus}")
    if taus and not (1 <= taus[0] and taus[-1] <= model.n - 1):
        raise ValueError(f"candidates {taus} outside 1..{model.n - 1}")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    bounds = np.array([0, *taus, model.n])
    cost = model.boundary_cost_matrix(i, bounds)

    # f[j]: best cost of 1..bounds[j]; back[j]: the boundary before it.
    f = np.zeros(len(bounds))
    back = np.zeros(len(bounds), dtype=int)
    for j in range(1, len(bounds)):
        totals = f[:j] + cost[:j, j]
        back[j] = int(np.argmin(totals))
        f[j] = totals[back[j]] + alpha

    selected: list[int] = []
    j = back[-1]
    while j > 0:
        selected.append(taus[j - 1])
        j = back[j]
    return tuple(reversed(selected))


def postprocess(model: CostModel, result: SegmentationResult) -> SegmentationResult:
    """Re-derive affected sets by per-variate partitioning; drop orphans.

    Each kept change costs the detection penalty's ``alpha``.  Applies to
    every candidate regardless of its detection label.  With no candidates
    the result is returned unchanged.
    """
    if not result.detections:
        return result
    alpha = result.penalties.alpha
    taus = [det.tau for det in result.detections]
    membership: dict[int, set[int]] = {tau: set() for tau in taus}
    for i in range(1, model.d + 1):
        for tau in optimal_partition(model, i, taus, alpha):
            membership[tau].add(i)
    kept = [
        Detection(
            tau=det.tau,
            kind=det.kind,
            affected=frozenset(membership[det.tau]),
            statistic=det.statistic,
            interval=det.interval,
        )
        for det in result.detections
        if membership[det.tau]
    ]
    return SegmentationResult(
        detections=tuple(kept),
        penalties=result.penalties,
        model=result.model,
        n=result.n,
        d=result.d,
        seed=result.seed,
        n_intervals=result.n_intervals,
    )
