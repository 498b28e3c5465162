"""Wild binary segmentation: random intervals plus recursive scanning.

A fixed set of random intervals is drawn once and reused at every recursion
level (Fryzlewicz 2014).  All of them lie inside (1, n), so one pass before
the recursion prices each stored interval's best split; an active segment
then picks, among itself and the stored intervals it contains, the
candidate with the largest statistic, and is split around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import Detection, InputDataError, RandomSource, SegmentationResult
from .costs import CostModel
from .single_change import scan_interval

if TYPE_CHECKING:
    from .penalties import PenaltyConfig


@dataclass(frozen=True)
class IntervalSet:
    """Random intervals preceded by the deterministic full interval."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.pairs or self.pairs[0] != (1, self.n):
            raise ValueError("pair 0 must be the full interval (1, n)")
        for l, u in self.pairs:
            if not 1 <= l < u <= self.n:
                raise ValueError(f"interval ({l}, {u}) not inside 1..{self.n}")


def draw_intervals(n: int, m: int, rng: RandomSource) -> IntervalSet:
    """Draw ``m`` intervals by sorting two uniform draws on 1..n (ties redrawn).

    Pairs are drawn in batches and tied pairs dropped, then the shortfall is
    drawn again from the same stream; this gives the same intervals as
    drawing one pair at a time.
    """
    if n < 3:
        raise InputDataError(f"need n >= 3 to draw intervals, got {n}")
    if m < 0:
        raise InputDataError(f"interval count must be >= 0, got {m}")
    g = rng.generator()
    pairs: list[tuple[int, int]] = [(1, n)]
    while len(pairs) <= m:
        draws = g.integers(1, n + 1, size=(m + 1 - len(pairs), 2))
        draws = np.sort(draws[draws[:, 0] != draws[:, 1]], axis=1)
        pairs.extend(map(tuple, draws.tolist()))
    return IntervalSet(n=n, pairs=tuple(pairs))


def segmentation_driver(n: int, intervals: IntervalSet, scan) -> list[Detection]:
    """Run the recursion on 1..n with an arbitrary single-interval scanner.

    ``scan(l, u)`` must return the best candidate on (l, u) or None.  Each
    distinct stored interval with a split is scanned once, in index order,
    before the recursion; a segment that is not stored is scanned when it is
    reached.  A segment's own candidate wins exact statistic ties, then the
    stored intervals inside it compete in index order.  Recursion on (l0, u0)
    splits at the winning tau into (l0, tau) and (tau+1, u0); output does not
    depend on segment processing order.  ``intervals`` must be drawn for ``n``.
    """
    if intervals.n != n:
        raise InputDataError(f"interval set drawn for n={intervals.n}, data has n={n}")
    priced = {(l, u): scan(l, u) for l, u in dict.fromkeys(intervals.pairs) if u - l > 1}

    detections: list[Detection] = []
    stack: list[tuple[int, int]] = [(1, n)]
    while stack:
        l0, u0 = stack.pop()
        if u0 - l0 <= 1:
            continue
        best = priced[l0, u0] if (l0, u0) in priced else scan(l0, u0)
        for (l, u), candidate in priced.items():
            inside = l0 <= l and u <= u0 and candidate is not None
            if inside and (best is None or candidate.statistic > best.statistic):
                best = candidate
        if best is None:
            continue
        detections.append(best)
        stack.append((l0, best.tau))
        stack.append((best.tau + 1, u0))
    detections.sort(key=lambda det: det.tau)
    return detections


def subset_wbs(
    model: CostModel, penalties: PenaltyConfig, intervals: IntervalSet
) -> SegmentationResult:
    """Detect multiple changepoints by recursive interval scanning."""
    detections = segmentation_driver(
        model.n, intervals, lambda l, u: scan_interval(model, penalties, l, u)
    )
    return SegmentationResult(detections=tuple(detections), penalties=penalties, n=model.n)
