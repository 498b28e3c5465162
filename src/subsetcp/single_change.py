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

from typing import TYPE_CHECKING

import numpy as np

from . import costs
from .core import KIND_DENSE, KIND_SPARSE, Detection, all_variates
from .costs import CostModel

if TYPE_CHECKING:
    from .penalties import PenaltyConfig


def branch_sums(
    gains: np.ndarray, alpha: float, carry: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Unpenalised sparse and dense sums at every split, in ``gains``' dtype.

    ``gains`` has variates on axis -2, as the (d, u-l) blocks from
    ``CostModel.gain_matrix``; that axis is reduced.  The sums are
    sum_i max(D[i, t] - alpha, 0) and sum_i D[i, t].  Subtracting beta and K
    gives the two branch values.  The sparse terms are computed in place:
    ``gains`` is left holding max(D - alpha, 0).

    ``carry`` is the (sparse, dense) pair of sums over the rows before this
    block; it is added to the block's row 0, which then holds the carried
    sparse sum plus its own term.  numpy sums axis -2 of a C-ordered block
    one row after another, so the sums of a block split by rows, each part
    carrying the sums of the parts before it, are bit-identical to the
    sums of the whole block.
    """
    if carry is not None:
        head = np.maximum(gains[..., 0, :] - alpha, 0.0)
        head += carry[0]
        gains[..., 0, :] += carry[1]
    dense = gains.sum(axis=-2)
    gains -= alpha
    np.maximum(gains, 0.0, out=gains)
    if carry is not None:
        gains[..., 0, :] = head
    return gains.sum(axis=-2), dense


def interval_sums(
    model: CostModel, l: int, u: int, alpha: float, above: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Float64 ``branch_sums`` of every split of (l, u), without holding a
    (d, u-l) float block.

    The gains are priced a block of at most ``costs._ROW_BLOCK_CELLS`` cells
    of rows at a time, each block a model of its own, and each block after
    the first carries the sums of the rows before it, so the sums equal
    ``branch_sums(model.gain_matrix(l, u), alpha)`` bit for bit.  When given,
    the (d, u-l) boolean array ``above`` is filled with D > alpha.
    """
    sums = None
    step = max(1, costs._ROW_BLOCK_CELLS // (u - l))
    for start in range(0, model.d, step):
        part = slice(start, start + step)
        gains = CostModel(model.kind, model.scale[part], model.cum_y[part]).gain_matrix(l, u)
        if above is not None:
            np.greater(gains, alpha, out=above[part])
        sums = branch_sums(gains, alpha, sums)
    return sums


def scan_interval(
    model: CostModel, penalties: PenaltyConfig, l: int, u: int
) -> Detection | None:
    """Best candidate changepoint on (l, u), or None when nothing clears 0.

    Ties over ``t`` keep the smallest ``t``; an exact tie between branches
    is labelled sparse.  The sparse affected set is {i : D[i, t*] > alpha},
    read from a (d, u-l) mask that ``interval_sums`` fills; the dense one is
    every variate.
    """
    if u - l <= 1:
        raise ValueError(f"interval ({l}, {u}) has no interior split")
    above = np.empty((model.d, u - l), dtype=bool)
    sparse, dense = interval_sums(model, l, u, penalties.alpha, above)
    s1 = sparse - penalties.beta
    s2 = dense - penalties.K
    s = np.maximum(s1, s2)
    best = int(np.argmax(s))
    if s[best] <= 0.0:
        return None
    tau = l + best
    if s1[best] >= s2[best]:
        kind = KIND_SPARSE
        affected = frozenset(int(i) + 1 for i in np.flatnonzero(above[:, best]))
    else:
        kind = KIND_DENSE
        affected = all_variates(model.d)
    return Detection(
        tau=tau,
        kind=kind,
        affected=affected,
        statistic=float(s[best]),
        interval=(l, u),
    )
