"""Candidate pruning and per-variate assignment after detection.

Detection yields candidate changepoints with provisional affected sets.
Here each variate independently solves an optimal-partitioning problem
restricted to the candidate positions, paying ``alpha`` per kept change;
one recursion moves all variates forward together.  A variate is assigned
to exactly the candidates on its optimal path; candidates that no variate
selects are dropped.  Sparse/dense labels from detection are kept for
reporting.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .core import SegmentationResult
from .costs import CostModel


def optimal_partition(model: CostModel, taus: Sequence[int], alpha: float) -> np.ndarray:
    """Best subset of candidate splits for every variate.

    Minimizes, per variate, the total segment cost plus ``alpha`` per
    segment over all subsets of ``taus`` (strictly increasing, within
    1..n-1).  Returns a (d, len(taus)) boolean mask whose entry ``[i, c]``
    says whether variate i+1 keeps ``taus[c]``.
    """
    taus = list(taus)
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError(f"candidates must be strictly increasing, got {taus}")
    if taus and not (1 <= taus[0] and taus[-1] <= model.n - 1):
        raise ValueError(f"candidates {taus} outside 1..{model.n - 1}")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    bounds = np.array([0, *taus, model.n])
    rows = np.arange(model.d)

    # f[:, j]: each variate's best cost of 1..bounds[j]; back[:, j]: the
    # boundary before it on that variate's path.
    f = np.zeros((model.d, len(bounds)))
    back = np.zeros((model.d, len(bounds)), dtype=int)
    for j in range(1, len(bounds)):
        totals = f[:, :j] + model.boundary_cost_matrix(bounds, j)
        back[:, j] = np.argmin(totals, axis=1)
        f[:, j] = totals[rows, back[:, j]] + alpha

    keep = np.zeros((model.d, len(bounds)), dtype=bool)
    j = back[:, -1]
    while np.any(j > 0):
        keep[rows, j] = True
        j = back[rows, j]
    return keep[:, 1:-1]


def postprocess(model: CostModel, result: SegmentationResult) -> SegmentationResult:
    """Re-derive affected sets by per-variate partitioning; drop orphans.

    Each kept change costs the detection penalty's ``alpha``.  Applies to
    every candidate regardless of its detection label.  With no candidates
    the result is returned unchanged.
    """
    if not result.detections:
        return result
    keep = optimal_partition(model, [det.tau for det in result.detections], result.penalties.alpha)
    kept = tuple(
        dataclasses.replace(det, affected=frozenset((np.flatnonzero(column) + 1).tolist()))
        for det, column in zip(result.detections, keep.T)
        if column.any()
    )
    return SegmentationResult(detections=kept, penalties=result.penalties, n=result.n)
