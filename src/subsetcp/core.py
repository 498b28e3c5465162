"""Shared data model: input matrices, detections, and reproducible randomness.

Conventions used across the package:

* Time indices are 1-based.  A changepoint ``tau`` is the last index of the
  pre-change segment, so ``tau`` ranges over ``1 .. n-1`` and segment ``k``
  of a segmentation covers ``tau_{k-1}+1 .. tau_k``.
* Variate indices are 1-based as well; ``affected`` sets contain variate
  indices, never names.  Names live on :class:`TimeSeriesMatrix`.
* All logarithms are natural.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .penalties import PenaltyConfig

KIND_SPARSE = "sparse"
KIND_DENSE = "dense"


class ChangepointError(Exception):
    """Base class for errors raised by this package."""


class InputDataError(ChangepointError):
    """Malformed user input (files, flags, shapes).  CLI exit code 1."""


class NumericalError(ChangepointError):
    """Degenerate data or a numerical routine that failed.  CLI exit code 2."""


@dataclass(frozen=True)
class TimeSeriesMatrix:
    """A d-variate series of length n, stored as a read-only (d, n) array.

    Values are kept as floats even for count data; count models validate
    integrality when they are built.
    """

    values: np.ndarray
    variate_names: tuple[str, ...]
    time_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise InputDataError(f"expected a 2-d array, got {values.ndim} dims")
        d, n = values.shape
        if d < 1:
            raise InputDataError("matrix needs at least one variate")
        if n < 2:
            raise InputDataError(f"series length must be >= 2, got {n}")
        if not np.all(np.isfinite(values)):
            raise InputDataError("matrix contains NaN or infinite entries")
        if len(self.variate_names) != d:
            raise InputDataError(
                f"got {len(self.variate_names)} variate names for {d} variates"
            )
        if len(set(self.variate_names)) != d:
            raise InputDataError("variate names must be unique")
        if self.time_labels is not None and len(self.time_labels) != n:
            raise InputDataError(
                f"got {len(self.time_labels)} time labels for length-{n} series"
            )
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variate_names", tuple(self.variate_names))
        if self.time_labels is not None:
            object.__setattr__(self, "time_labels", tuple(self.time_labels))

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def make_matrix(
    rows: Sequence[Sequence[float]],
    names: Sequence[str] | None = None,
    time_labels: Sequence[str] | None = None,
) -> TimeSeriesMatrix:
    """Build a :class:`TimeSeriesMatrix` from per-variate rows.

    ``rows[i]`` is the series of variate ``i+1``.  Rows must be non-empty and
    of equal length; missing values are rejected.
    """
    if len(rows) == 0:
        raise InputDataError("empty input: no variates")
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise InputDataError(f"ragged rows: lengths {sorted(lengths)}")
    if names is None:
        names = tuple(f"x{i}" for i in range(1, len(rows) + 1))
    return TimeSeriesMatrix(
        values=np.array(rows, dtype=float),
        variate_names=tuple(names),
        time_labels=tuple(time_labels) if time_labels is not None else None,
    )


@dataclass(frozen=True)
class Detection:
    """One estimated changepoint.

    ``tau`` is the last pre-change index.  ``kind`` records which penalty
    branch won at detection time; ``affected`` holds 1-based variate indices.
    ``interval`` is the (l, u) interval whose scan produced the candidate.
    """

    tau: int
    kind: str
    affected: frozenset[int]
    statistic: float
    interval: tuple[int, int]

    def __post_init__(self) -> None:
        if self.kind not in (KIND_SPARSE, KIND_DENSE):
            raise ValueError(f"unknown detection kind {self.kind!r}")
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if not self.affected:
            raise ValueError("detections must name at least one affected variate")
        l, u = self.interval
        if not l <= self.tau < u:
            raise ValueError(f"tau {self.tau} not inside interval {self.interval}")
        object.__setattr__(self, "affected", frozenset(self.affected))
        object.__setattr__(self, "interval", (int(l), int(u)))


@dataclass(frozen=True)
class SegmentationResult:
    """Detections of one run, sorted by changepoint location.

    ``penalties`` is the subset detector's penalty set; baseline runs,
    which use a threshold instead, leave it None.
    """

    detections: tuple[Detection, ...]
    penalties: "PenaltyConfig | None"
    n: int

    def __post_init__(self) -> None:
        taus = [det.tau for det in self.detections]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValueError(f"changepoints must be strictly increasing, got {taus}")
        if taus and (taus[0] < 1 or taus[-1] > self.n - 1):
            raise ValueError(f"changepoints {taus} outside 1..{self.n - 1}")
        object.__setattr__(self, "detections", tuple(self.detections))


@dataclass(frozen=True)
class RandomSource:
    """Seed plus a stream path; every stochastic routine takes one of these.

    Children derived with :meth:`child` are statistically independent and
    reproducible: the same (seed, stream) always yields bit-identical draws.
    """

    seed: int
    stream: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise InputDataError(f"seed must be non-negative, got {self.seed}")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        return np.random.default_rng(seq)

    def child(self, *path: int) -> "RandomSource":
        return RandomSource(self.seed, self.stream + tuple(int(p) for p in path))
