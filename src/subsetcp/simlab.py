"""Simulation scenarios, detection experiments, and accuracy metrics.

Scenarios plant cumulative shifts into Gaussian noise or negative binomial
counts.  The named multi-change layouts put changes at 600, 783 and 926
(for n = 1000; positions scale with n), optionally with a short surge on
variate 3 at 280/320 that reverts to the original level.  Accuracy uses a
matching window of ceil(ln n) points: a true change with no estimate inside
the window is missed, an estimate with no true change inside the window is
a false alarm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import baselines
from .core import (
    KIND_SPARSE,
    InputDataError,
    RandomSource,
    SegmentationResult,
    TimeSeriesMatrix,
)
from .costs import GAUSSIAN, NEGBIN, CostModel, gaussian_model, negbin_model
from .penalties import NullModel, calibrate_baseline_threshold, calibrate_beta
from .postprocess import postprocess
from .wbs import draw_intervals, subset_wbs

# Change times for the named multi-change layouts, on the n=1000 scale.
_MULTI_TIMES = (600, 783, 926)
_SURGE_TIMES = (280, 320)
_SURGE_VARIATE = 3
_SURGE_SHIFT = 5.0

# Fraction of variates affected by each of the three changes.
_DENSITY_SCENARIOS = {
    "A": (1.0, 1.0, 1.0),
    "B": (1.0, 0.005, 1.0),
    "C": (0.005, 1.0, 0.005),
    "D": (0.01, 0.01, 0.01),
    "E": (0.005, 0.01, 0.05),
}
# Explicit affected sets for the 12-variate layouts; "all" means every variate.
_SMALL_SCENARIOS = {
    "Aprime": ("all", "all", "all"),
    "Bprime": ("all", (1, 7), "all"),
    "Cprime": ((1, 7), "all", (1, 7)),
    "Dprime": ((1, 7), (1, 7), (1, 7)),
}
SCENARIO_NAMES = tuple(_DENSITY_SCENARIOS) + tuple(_SMALL_SCENARIOS)


@dataclass(frozen=True)
class ChangeSpec:
    """One planted change: position, 1-based affected variates, signed shift.

    For the Gaussian model ``delta`` adds to the mean from ``tau + 1`` on;
    for counts it adds to the success probability (negative values raise
    the mean).
    """

    tau: int
    affected: tuple[int, ...]
    delta: float

    def __post_init__(self) -> None:
        if not self.affected:
            raise InputDataError("a change must affect at least one variate")
        if self.delta == 0 or not math.isfinite(self.delta):
            raise InputDataError(f"a change needs a finite non-zero shift, got {self.delta}")
        object.__setattr__(self, "affected", tuple(sorted(set(self.affected))))


@dataclass(frozen=True)
class ScenarioSpec:
    model: str
    n: int
    d: int
    changes: tuple[ChangeSpec, ...]
    negbin_r: float = 20.0
    negbin_p: float = 0.5

    def __post_init__(self) -> None:
        if self.model not in (GAUSSIAN, NEGBIN):
            raise InputDataError(f"unknown scenario model {self.model!r}")
        if self.n < 2 or self.d < 1:
            raise InputDataError("scenario needs n >= 2 and d >= 1")
        taus = [ch.tau for ch in self.changes]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise InputDataError(f"change times must be strictly increasing, got {taus}")
        if taus and (taus[0] < 1 or taus[-1] > self.n - 1):
            raise InputDataError(f"change times {taus} outside 1..{self.n - 1}")
        for ch in self.changes:
            if ch.affected[-1] > self.d:
                raise InputDataError(
                    f"change at {ch.tau} names variate {ch.affected[-1]} but d={self.d}"
                )
        if not (0 < self.negbin_r < math.inf and 0 < self.negbin_p < 1):
            raise InputDataError("count scenarios need a finite r > 0 and base p in (0, 1)")
        with np.errstate(over="ignore"):
            signal = signal_matrix(self)
        if not np.all(np.isfinite(signal)):
            raise InputDataError("planted shifts overflow the signal")
        if self.model == NEGBIN and (np.any(signal <= 0) or np.any(signal >= 1)):
            raise InputDataError("planted shifts push success probability outside (0, 1)")


def _density_set(density: float, d: int) -> tuple[int, ...]:
    if not 0 < density <= 1:
        raise InputDataError(f"density must be in (0, 1], got {density}")
    return tuple(range(1, max(1, round(density * d)) + 1))


def _resolve_set(spec, d: int) -> tuple[int, ...]:
    if spec == "all":
        return tuple(range(1, d + 1))
    return tuple(spec)


def scenario(
    name: str,
    model: str = GAUSSIAN,
    n: int = 1000,
    d: int | None = None,
    delta: float = 1.0,
    dp: float = 0.1,
    r: float = 20.0,
    base_p: float = 0.5,
    surge: bool = False,
) -> ScenarioSpec:
    """Build a named multi-change scenario.

    Names A..E choose affected variates by density (d defaults to 1000);
    Aprime..Dprime use explicit 12-variate layouts.  ``delta`` is the
    Gaussian mean shift per change, ``dp`` the count probability shift
    (each change lowers p by dp, raising the mean).  A Gaussian surge
    shifts by 5.  Change times scale proportionally when n differs from
    1000.
    """
    if name not in SCENARIO_NAMES:
        raise InputDataError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}"
        )
    if model not in (GAUSSIAN, NEGBIN):
        raise InputDataError(f"model must be {GAUSSIAN!r} or {NEGBIN!r}, got {model!r}")
    if name in _DENSITY_SCENARIOS:
        if model != GAUSSIAN:
            raise InputDataError("density scenarios A..E are Gaussian layouts")
        d = 1000 if d is None else d
        sets = [_density_set(f, d) for f in _DENSITY_SCENARIOS[name]]
    else:
        d = 12 if d is None else d
        sets = [_resolve_set(s, d) for s in _SMALL_SCENARIOS[name]]
    times = [round(t * n / 1000) for t in _MULTI_TIMES]
    if any(b <= a for a, b in zip(times, times[1:])) or times[0] < 1 or times[-1] > n - 1:
        raise InputDataError(f"n={n} too small for the three-change layout")

    shift = -dp if model == NEGBIN else delta
    changes = [
        ChangeSpec(tau=t, affected=s, delta=shift)
        for t, s in zip(times, sets)
        if shift != 0
    ]
    if surge:
        s_times = [round(t * n / 1000) for t in _SURGE_TIMES]
        s_shift = -dp if model == NEGBIN else _SURGE_SHIFT
        changes = [
            ChangeSpec(tau=s_times[0], affected=(_SURGE_VARIATE,), delta=s_shift),
            ChangeSpec(tau=s_times[1], affected=(_SURGE_VARIATE,), delta=-s_shift),
            *changes,
        ]
    return ScenarioSpec(
        model=model,
        n=n,
        d=d,
        changes=tuple(changes),
        negbin_r=r,
        negbin_p=base_p,
    )


def signal_matrix(spec: ScenarioSpec) -> np.ndarray:
    """Noise-free parameter matrix: means for the Gaussian model, p for counts."""
    base = spec.negbin_p if spec.model == NEGBIN else 0.0
    signal = np.full((spec.d, spec.n), base)
    for ch in spec.changes:
        rows = [i - 1 for i in ch.affected]
        signal[rows, ch.tau :] += ch.delta
    return signal


def generate(
    spec: ScenarioSpec, rng: RandomSource
) -> tuple[TimeSeriesMatrix, tuple[ChangeSpec, ...]]:
    """Draw one dataset; returns the matrix and the ground-truth changes.

    Surge changes are ordinary entries of the truth (two changes that
    cancel); metrics count them like any others.
    """
    signal = signal_matrix(spec)
    g = rng.generator()
    if spec.model == GAUSSIAN:
        values = signal + g.standard_normal((spec.d, spec.n))
    else:
        values = g.negative_binomial(spec.negbin_r, signal).astype(float)
    names = tuple(f"x{i}" for i in range(1, spec.d + 1))
    return TimeSeriesMatrix(values, names), spec.changes


def fit_model(matrix: TimeSeriesMatrix, spec: ScenarioSpec) -> CostModel:
    """Cost model matching the scenario: unit variance is known for Gaussian
    draws; count dispersion is re-estimated from the data as in production."""
    if spec.model == GAUSSIAN:
        return gaussian_model(matrix, sigma=1.0)
    return negbin_model(matrix)


def null_model(spec: ScenarioSpec) -> NullModel:
    """Unit-variance Gaussian noise, or the scenario's base Neg-Bin(r, p)."""
    return NullModel(kind=spec.model, r=spec.negbin_r, p=spec.negbin_p)


def matching_window(n: int) -> int:
    return math.ceil(math.log(n))


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy summary; for multi-replicate runs the counts are averages."""

    avg_missed: float
    avg_false_alarms: float
    affected_tpr: float
    affected_fpr: float
    replicates: tuple["ReplicateRow", ...] = ()


@dataclass(frozen=True)
class ReplicateRow:
    seed: int
    missed: int
    false_alarms: int
    tpr: float
    fpr: float


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def evaluate(
    runs: list[tuple[SegmentationResult, tuple[ChangeSpec, ...]]],
    n: int,
    d: int,
) -> MetricsReport:
    """Score (result, truth) runs against the planted changes.

    Each run gives one replicate row, numbered by its position.  Affected-set
    rates follow the sparse-recovery convention: each true change is matched
    to its nearest estimate inside the window, and only sparse-labelled
    matches contribute.  TPR is the fraction of truly affected variates
    recovered, FPR the fraction of unaffected variates falsely included.  A
    row averages its own run's contributing changes; the summary pools those
    of all runs, so runs without a sparse match do not dilute it.
    """
    if not runs:
        raise InputDataError("need at least one run")
    tol = matching_window(n)
    rows: list[ReplicateRow] = []
    tpr_pool: list[float] = []
    fpr_pool: list[float] = []
    for seed, (result, truth) in enumerate(runs):
        estimates = [det.tau for det in result.detections]
        tpr_values: list[float] = []
        fpr_values: list[float] = []
        for ch in truth:
            matches = [det for det in result.detections if abs(det.tau - ch.tau) <= tol]
            if not matches:
                continue
            nearest = min(matches, key=lambda det: (abs(det.tau - ch.tau), det.tau))
            if nearest.kind != KIND_SPARSE:
                continue
            true_set = set(ch.affected)
            est_set = set(nearest.affected)
            tpr_values.append(len(est_set & true_set) / len(true_set))
            if len(true_set) < d:
                fpr_values.append(len(est_set - true_set) / (d - len(true_set)))
        rows.append(
            ReplicateRow(
                seed=seed,
                missed=sum(
                    1 for ch in truth if not any(abs(est - ch.tau) <= tol for est in estimates)
                ),
                false_alarms=sum(
                    1 for est in estimates if not any(abs(est - ch.tau) <= tol for ch in truth)
                ),
                tpr=_mean(tpr_values),
                fpr=_mean(fpr_values),
            )
        )
        tpr_pool += tpr_values
        fpr_pool += fpr_values

    return MetricsReport(
        avg_missed=sum(row.missed for row in rows) / len(rows),
        avg_false_alarms=sum(row.false_alarms for row in rows) / len(rows),
        affected_tpr=_mean(tpr_pool),
        affected_fpr=_mean(fpr_pool),
        replicates=tuple(rows),
    )


@dataclass(frozen=True)
class DetectorConfig:
    """How to run detection inside an experiment.

    ``method`` is "subset" or a baseline name; its penalties or threshold are
    calibrated once per experiment on the scenario's null model.
    """

    method: str = "subset"
    intervals: int = 1000
    target_fp: float = 0.05
    calib_reps: int = 200
    run_postprocess: bool = True


def run_experiment(
    spec: ScenarioSpec,
    detector: DetectorConfig,
    reps: int,
    rng: RandomSource,
) -> MetricsReport:
    """Repeat generate-detect-evaluate and aggregate the metrics.

    Calibration happens once (stream 0); replicate ``k`` draws its data and
    intervals from sub-streams of (1, k).  The runs are scored together by
    ``evaluate``.
    """
    if reps < 1:
        raise InputDataError("need at least one replicate")

    null = null_model(spec)
    calibration = dict(
        target_fp=detector.target_fp, reps=detector.calib_reps, intervals=detector.intervals
    )
    if detector.method == "subset":
        penalties = calibrate_beta(spec.n, spec.d, null, rng.child(0), **calibration)
    else:
        threshold = calibrate_baseline_threshold(
            spec.n, spec.d, detector.method, null, rng.child(0), **calibration
        )
        config = baselines.BaselineConfig(method=detector.method, threshold=threshold)

    runs = []
    for rep in range(reps):
        matrix, truth = generate(spec, rng.child(1, rep, 0))
        model = fit_model(matrix, spec)
        interval_set = draw_intervals(spec.n, detector.intervals, rng.child(1, rep, 1))
        if detector.method == "subset":
            result = subset_wbs(model, penalties, interval_set)
            if detector.run_postprocess:
                result = postprocess(model, result)
        else:
            result = baselines.baseline_wbs(model, config, interval_set)
        runs.append((result, truth))
    return evaluate(runs, spec.n, spec.d)


def replicate_table(report: MetricsReport) -> str:
    """Plain-text table: one row per replicate plus a summary row."""
    lines = ["seed\tmissed\tfalse_alarms\ttpr\tfpr"]
    for row in report.replicates:
        lines.append(
            f"{row.seed}\t{row.missed}\t{row.false_alarms}\t{row.tpr:.4f}\t{row.fpr:.4f}"
        )
    lines.append(
        "summary\t"
        f"{report.avg_missed:.4f}\t{report.avg_false_alarms:.4f}\t"
        f"{report.affected_tpr:.4f}\t{report.affected_fpr:.4f}"
    )
    return "\n".join(lines)
