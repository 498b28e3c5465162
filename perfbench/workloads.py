"""The three benchmark workloads: their inputs, CLI arguments and output checks.

A job is one ``subsetcp.cli.main([...])`` call.  Inputs are drawn with
``simlab.scenario`` and ``simlab.generate`` from the workload seed; the
program receives only the generated CSV (or, for ``compare_small``, the
scenario flags) and the command-line flags.  README.md in this directory
explains why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from subsetcp import simlab
from subsetcp.core import RandomSource
from subsetcp.penalties import theoretical_penalties

# Planted changes and estimates match within ceil(ln n) points, the same
# window simlab.evaluate uses, for the missed and false-alarm counts.
N = 1000
WINDOW = math.ceil(math.log(N))
# The pass/fail check is looser: a working detector occasionally places a
# change 10 points off (600 found at 610 in one of 80 detect_wide jobs), so
# a required change only fails the job when nothing lies within 30 points.
REQUIRED_WINDOW = 30

# The detectors are seeded, so a correct program always gives the same
# answer on the reference seed; on every seed it is also scored against
# the planted truth, with limits that a working detector meets on any seed.
REFERENCE_SEED = 0
BETA_TOLERANCE = 1e-3

# The detector's own --seed (interval draws, calibration replicates) is
# fixed, so that runs differ only in their data.  With 200 random intervals
# the interval lengths alone move detect_wide's gain cells by about 15%
# between seeds.  compare_small draws its data from --seed, so it gets the
# workload seed; its thousands of intervals average out.
DETECT_SEED = 0

COMPARE_REPS = 5
CALIB_REPS = 20
METHODS = ("subset", "mean", "max", "binweight")


@dataclass
class Outcome:
    """What one job produced and whether it passed the output check."""

    problems: list[str] = field(default_factory=list)
    missed: float | None = None
    false_alarms: float | None = None
    signature: object = None


def score(estimates, truth_taus) -> tuple[int, int]:
    """Missed planted changes and false alarms, as ``simlab.evaluate`` counts them."""
    missed = sum(1 for tau in truth_taus if not any(abs(e - tau) <= WINDOW for e in estimates))
    false_alarms = sum(
        1 for e in estimates if not any(abs(e - tau) <= WINDOW for tau in truth_taus)
    )
    return missed, false_alarms


def write_csv(matrix, path: Path) -> None:
    rows = np.column_stack([np.arange(1, matrix.n + 1), matrix.values.T])
    with open(path, "w") as handle:
        handle.write("time," + ",".join(matrix.variate_names) + "\n")
        np.savetxt(handle, rows, delimiter=",", fmt="%.17g")


class Workload:
    name: str
    # Span names the traced run must see at least once per traced job.
    expected_spans: tuple[str, ...]
    max_false_alarms: float
    # Jobs cycle through this many input variants, each with its own
    # reference output on the reference seed.
    variants = 1

    def prepare(self, seed: int, workdir: Path) -> None:
        """Set-up: make the first variant's inputs and set ``self.args``."""
        raise NotImplementedError

    def select(self, variant: int) -> None:
        """Point ``self.args`` at a variant, making its inputs on first use (untimed)."""

    def check(self, rc: int, stdout: str) -> Outcome:
        raise NotImplementedError

    def reference_problems(self, signature, reference) -> list[str]:
        return [] if signature == reference else ["output differs from the reference"]


_DETECT_SPANS = (
    "cli.main",
    "reports.read_csv",
    "reports.write",
    "costs.model_build",
    "costs.gain_matrix",
    "costs.boundary_cost_matrix",
    "single_change.scan_interval",
    "wbs.subset_wbs",
    "wbs.draw_intervals",
    "postprocess",
    "diagnostics.pearson_residual_correlations",
)


class _Detect(Workload):
    """``subsetcp detect`` on a generated CSV panel."""

    scenario_args: dict
    model: str

    # Different data per job, so a run's mean covers several datasets rather
    # than one.  Each CSV is written between jobs, untimed, the first
    # time it is used.
    variants = 8

    def prepare(self, seed: int, workdir: Path) -> None:
        self.spec = simlab.scenario(**self.scenario_args)
        self.truth = [ch.tau for ch in self.spec.changes]
        self.seed = seed
        self.workdir = workdir
        self.report_path = workdir / f"{self.name}.json"
        self.pairs_path = workdir / f"{self.name}.pairs.csv"
        self.select(0)

    def select(self, variant: int) -> None:
        csv_path = self.workdir / f"{self.name}-{variant}.csv"
        if not csv_path.exists():
            matrix, _ = simlab.generate(self.spec, RandomSource(self.seed).child(variant))
            self.names = matrix.variate_names
            write_csv(matrix, csv_path)
        self.args = [
            "detect",
            "--input", str(csv_path),
            "--model", self.model,
            "--seed", str(DETECT_SEED),
            "--output", str(self.report_path),
            *self.flags(),
        ]

    def flags(self) -> list[str]:
        raise NotImplementedError

    def check(self, rc: int, stdout: str) -> Outcome:
        out = Outcome()
        if rc != 0:
            out.problems.append(f"exit code {rc}")
            return out
        try:
            report = json.loads(self.report_path.read_text())
            pairs = self.pairs_path.read_text().splitlines()
            shape = (report["n"], report["d"], report["seed"])
            beta = float(report["penalties"]["beta"])
            dets = [[int(d["tau"]), d["kind"], list(d["affected"])] for d in report["detections"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.problems.append(f"unreadable output: {exc!r}")
            return out
        taus = [tau for tau, _, _ in dets]
        if shape != (N, len(self.names), DETECT_SEED):
            out.problems.append(f"report (n, d, seed) = {shape} does not match the input")
        if f"({len(dets)} changepoints)" not in stdout.partition("\n")[0]:
            out.problems.append("printed changepoint count disagrees with the report")
        if any(b <= a for a, b in zip(taus, taus[1:])) or any(not 1 <= t < N for t in taus):
            out.problems.append(f"changepoints not increasing inside 1..{N - 1}: {taus}")
        for tau, kind, affected in dets:
            if kind not in ("sparse", "dense") or not affected:
                out.problems.append(f"bad detection record at tau={tau}")
            elif not set(affected) <= set(self.names):
                out.problems.append(f"unknown variate names at tau={tau}")
        expected_pairs = [f"{tau},{name}" for tau, _, affected in dets for name in affected]
        if pairs != ["tau,variate", *expected_pairs]:
            out.problems.append("pairs CSV disagrees with the report")
        out.missed, out.false_alarms = score(taus, self.truth)
        lost = [t for t in self.required if not any(abs(e - t) <= REQUIRED_WINDOW for e in taus)]
        if lost:
            out.problems.append(f"planted changes {lost} not detected")
        if out.false_alarms > self.max_false_alarms:
            out.problems.append(f"{out.false_alarms} false alarms in {taus}")
        out.signature = {"beta": beta, "detections": dets}
        return out

    def reference_problems(self, signature, reference) -> list[str]:
        problems = []
        if abs(signature["beta"] - reference["beta"]) > BETA_TOLERANCE:
            problems.append(f"beta {signature['beta']} differs from reference {reference['beta']}")
        if signature["detections"] != reference["detections"]:
            problems.append("detections differ from the reference")
        return problems


class DetectWide(_Detect):
    name = "detect_wide"
    model = "gaussian"
    scenario_args = {"name": "E", "n": N, "d": 1000}
    expected_spans = _DETECT_SPANS
    # Changes on 5, 10 and 50 variates, each a unit mean shift over hundreds
    # of points: far above the penalties below.
    required = (600, 783, 926)
    max_false_alarms = 5

    def flags(self) -> list[str]:
        # Theoretical penalties, as calibrating at d = 1000 costs seconds per
        # replicate, but with J = 4 in beta = (J + 0.1) ln n.  At the default
        # J = 2, WBS finds 3 to 7 candidates depending on the data, and the
        # spurious ones make a job's work bimodal (6.5 s against 10 s on a
        # 2-core machine), so run medians spread by 26%.  At J = 4 every
        # dataset tried gives exactly the three planted candidates.
        pen = theoretical_penalties(N, 1000, J=4.0)
        return [
            "--intervals", "200",
            "--alpha", repr(pen.alpha),
            "--beta", repr(pen.beta),
            "--K", repr(pen.K),
        ]


class DetectCounts(_Detect):
    name = "detect_counts"
    model = "negbin"
    scenario_args = {"name": "Bprime", "model": "negbin", "n": N, "d": 12, "surge": True}
    expected_spans = (*_DETECT_SPANS, "penalties.calibrate_beta", "penalties.sample_model")
    # The 40-point surge on one variate (280, 320) is often missed by design
    # of the scenario; the three panel-wide changes never should be.
    required = (600, 783, 926)
    max_false_alarms = 3

    def flags(self) -> list[str]:
        return ["--intervals", "1000", "--calib-reps", str(CALIB_REPS)]


class CompareSmall(Workload):
    """``subsetcp benchmark``: the subset detector against the CUSUM baselines."""

    name = "compare_small"
    expected_spans = (
        "cli.main",
        "reports.write",
        "simlab.run_experiment",
        "simlab.generate",
        "simlab.evaluate",
        "penalties.calibrate_beta",
        "penalties.calibrate_baseline_threshold",
        "penalties.sample_model",
        "costs.model_build",
        "costs.gain_matrix",
        "costs.boundary_cost_matrix",
        "single_change.scan_interval",
        "wbs.subset_wbs",
        "wbs.draw_intervals",
        "postprocess",
        "baselines.cusum_matrix",
        "baselines.scan_interval_baseline",
        "baselines.baseline_wbs",
    )
    # Averages over the replicates of the subset detector's row; a working
    # detector stays at or below 0.2 missed and 0.6 false alarms.
    max_missed = 1.0
    max_false_alarms = 2.0

    def prepare(self, seed: int, workdir: Path) -> None:
        spec = simlab.scenario("Bprime", n=N, d=12, surge=True)
        self.truth = [ch.tau for ch in spec.changes]
        self.table_path = workdir / f"{self.name}.tsv"
        self.args = [
            "benchmark",
            "--scenario", "Bprime",
            "--surge",
            "--n", str(N),
            "--d", "12",
            "--intervals", "500",
            "--reps", str(COMPARE_REPS),
            "--calib-reps", str(CALIB_REPS),
            "--seed", str(seed),
            "--methods", ",".join(METHODS),
            "--output", str(self.table_path),
        ]

    def check(self, rc: int, stdout: str) -> Outcome:
        out = Outcome()
        if rc != 0:
            out.problems.append(f"exit code {rc}")
            return out
        try:
            lines = self.table_path.read_text().splitlines()
            rows = [(row[0], float(row[1]), float(row[2]))
                    for row in (line.split("\t") for line in lines[2:])]
        except (OSError, ValueError, IndexError) as exc:
            out.problems.append(f"unreadable output: {exc!r}")
            return out
        head = [f"scenario=Bprime model=gaussian reps={COMPARE_REPS} n={N}",
                "method\tavg_missed\tavg_false_alarms"]
        if lines[:2] != head or [row[0] for row in rows] != list(METHODS):
            out.problems.append(f"unexpected table layout: {lines[:3]}")
            return out
        if stdout.strip() != f"wrote {self.table_path}":
            out.problems.append(f"unexpected standard output: {stdout[:200]!r}")
        for row in rows:
            # Averages over COMPARE_REPS replicates of whole counts.
            counts = [v * COMPARE_REPS for v in row[1:]]
            if any(not 0 <= c <= 2 * N or abs(c - round(c)) > 1e-6 for c in counts):
                out.problems.append(f"implausible averages in row {row}")
        _, out.missed, out.false_alarms = rows[0]
        if out.missed > self.max_missed or out.false_alarms > self.max_false_alarms:
            out.problems.append(f"subset detector row out of limits: {rows[0]}")
        out.signature = lines
        return out


WORKLOADS = {wl.name: wl for wl in (DetectWide, DetectCounts, CompareSmall)}
