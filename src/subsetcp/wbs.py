"""Wild binary segmentation: random intervals plus recursive scanning.

A fixed set of random intervals is drawn once and reused at every recursion
level.  Each active segment is scanned through every stored interval it
contains (and itself); the candidate with the largest statistic is recorded
and the segment is split around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Detection, InputDataError, RandomSource, SegmentationResult, TimeSeriesMatrix
from .costs import CostModel
from .penalties import PenaltyConfig
from .single_change import scan_interval


@dataclass(frozen=True)
class IntervalSet:
    """``m`` random intervals preceded by the deterministic full interval."""

    n: int
    m: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.pairs) != self.m + 1:
            raise ValueError(f"expected {self.m + 1} pairs, got {len(self.pairs)}")
        if self.pairs[0] != (1, self.n):
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
    return IntervalSet(n=n, m=m, pairs=tuple(pairs))


def segmentation_driver(n: int, intervals: IntervalSet, scan) -> list[Detection]:
    """Run the recursion with an arbitrary single-interval scanner.

    ``scan(l, u)`` must return the best candidate on (l, u) or None.  Within
    an active segment, the segment itself is scanned first, so it wins exact
    statistic ties; stored intervals then compete in index order.  Recursion
    on (l0, u0) splits at the winning tau into (l0, tau) and (tau+1, u0);
    output does not depend on segment processing order.
    """
    detections: list[Detection] = []
    stack: list[tuple[int, int]] = [(1, n)]
    while stack:
        l0, u0 = stack.pop()
        if u0 - l0 <= 1:
            continue
        best = scan(l0, u0)
        for l, u in intervals.pairs:
            if (l, u) == (l0, u0) or l < l0 or u > u0 or u - l <= 1:
                continue
            candidate = scan(l, u)
            if candidate is not None and (best is None or candidate.statistic > best.statistic):
                best = candidate
        if best is None:
            continue
        detections.append(best)
        stack.append((l0, best.tau))
        stack.append((best.tau + 1, u0))
    detections.sort(key=lambda det: det.tau)
    return detections


def subset_wbs(
    matrix: TimeSeriesMatrix,
    model: CostModel,
    penalties: PenaltyConfig,
    intervals: IntervalSet,
    seed: int | None = None,
) -> SegmentationResult:
    """Detect multiple changepoints by recursive interval scanning."""
    if intervals.n != matrix.n:
        raise InputDataError(
            f"interval set drawn for n={intervals.n}, matrix has n={matrix.n}"
        )
    detections = segmentation_driver(
        matrix.n, intervals, lambda l, u: scan_interval(model, penalties, l, u)
    )
    return SegmentationResult(
        detections=tuple(detections),
        penalties=penalties,
        model=model.kind,
        n=matrix.n,
        d=matrix.d,
        seed=seed,
        n_intervals=intervals.m,
    )
