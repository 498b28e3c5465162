"""Spans around calls into each subsetcp layer, recorded from outside the program.

``cli``, ``wbs``, ``simlab`` and ``penalties`` import functions by name, so a
wrapper is installed on every name a caller looks up (``subsetcp.wbs.scan_interval``,
``subsetcp.cli.postprocess``, ``CostModel.gain_matrix`` on the class, ...).
A wrapper on the wrong module would silently read zero, which is why the
traced run checks that every span a workload should reach was recorded.

Spans live in memory as parallel arrays (name, start, end, parent, job,
work, aux) and are written out once the run ends.  ``work`` and ``aux`` hold
the counters measured at the boundary: cells for a gain or CUSUM block,
hit and (l, u) key for a scan, candidates in and kept for postprocess.
"""

from __future__ import annotations

import statistics
import time
from array import array

import numpy as np

import subsetcp.baselines as baselines
import subsetcp.cli as cli
import subsetcp.costs as costs
import subsetcp.penalties as penalties
import subsetcp.simlab as simlab
import subsetcp.wbs as wbs


def _cells(args, result):
    model, l, u = args[:3]
    return model.d * (u - l), 0


def _scan(args, result):
    l, u = args[2], args[3]
    return int(result is not None), (l << 32) | u


def _candidates(args, result):
    return len(args[1].detections), len(result.detections)


# (owner, attribute, span name, counter).  Several sites share a span name
# when callers bind the same function under their own module.
SITES = (
    (cli, "read_csv", "reports.read_csv", None),
    (cli, "write_report", "reports.write", None),
    (cli, "write_pairs_csv", "reports.write", None),
    (cli, "atomic_write_text", "reports.write", None),
    (cli, "gaussian_model", "costs.model_build", None),
    (cli, "negbin_model", "costs.model_build", None),
    (penalties, "gaussian_model", "costs.model_build", None),
    (penalties, "negbin_model", "costs.model_build", None),
    (simlab, "gaussian_model", "costs.model_build", None),
    (simlab, "negbin_model", "costs.model_build", None),
    (costs.CostModel, "gain_matrix", "costs.gain_matrix", _cells),
    (costs.CostModel, "boundary_cost_matrix", "costs.boundary_cost_matrix", None),
    (wbs, "scan_interval", "single_change.scan_interval", _scan),
    (cli, "subset_wbs", "wbs.subset_wbs", None),
    (simlab, "subset_wbs", "wbs.subset_wbs", None),
    (cli, "draw_intervals", "wbs.draw_intervals", None),
    (simlab, "draw_intervals", "wbs.draw_intervals", None),
    # penalties imports draw_intervals from wbs at call time.
    (wbs, "draw_intervals", "wbs.draw_intervals", None),
    (cli, "postprocess", "postprocess", _candidates),
    (simlab, "postprocess", "postprocess", _candidates),
    (cli, "calibrate_beta", "penalties.calibrate_beta", None),
    (simlab, "calibrate_beta", "penalties.calibrate_beta", None),
    (penalties.NullModel, "sample_model", "penalties.sample_model", None),
    (simlab, "calibrate_baseline_threshold", "penalties.calibrate_baseline_threshold", None),
    # penalties and simlab import these from baselines at call time.
    (baselines, "cusum_matrix", "baselines.cusum_matrix", _cells),
    (baselines, "scan_interval_baseline", "baselines.scan_interval_baseline", _scan),
    (baselines, "baseline_wbs", "baselines.baseline_wbs", None),
    (cli, "pearson_residual_correlations", "diagnostics.pearson_residual_correlations", None),
    (simlab, "generate", "simlab.generate", None),
    (simlab, "evaluate", "simlab.evaluate", None),
    (cli, "run_experiment", "simlab.run_experiment", None),
)

# Per-layer metrics, in print order, with their units and which way is better.
METRICS = (
    ("reports.read_csv.s", "s", "lower"),
    ("reports.write.s", "s", "lower"),
    ("costs.model_build.calls", "count", "lower"),
    ("costs.model_build.s", "s", "lower"),
    ("costs.gain_matrix.calls", "count", "lower"),
    ("costs.gain_matrix.cells", "count", "lower"),
    ("costs.gain_matrix.s", "s", "lower"),
    ("costs.gain_matrix.ns_per_cell", "ns", "lower"),
    ("costs.boundary_cost_matrix.calls", "count", "lower"),
    ("costs.boundary_cost_matrix.s", "s", "lower"),
    ("single_change.scan_interval.calls", "count", "lower"),
    ("single_change.scan_interval.self_s", "s", "lower"),
    ("single_change.scan_interval.hit_ratio", "ratio", "higher"),
    ("wbs.subset_wbs.s", "s", "lower"),
    ("wbs.scans_issued", "count", "lower"),
    ("wbs.scans_unique", "count", "lower"),
    ("wbs.scan_reuse_ratio", "ratio", "higher"),
    ("wbs.draw_intervals.calls", "count", "lower"),
    ("wbs.draw_intervals.s", "s", "lower"),
    ("postprocess.s", "s", "lower"),
    ("postprocess.candidates_in", "count", "lower"),
    ("postprocess.candidates_kept", "count", "lower"),
    ("penalties.calibrate_beta.s", "s", "lower"),
    ("penalties.calibrate_beta.self_s", "s", "lower"),
    ("penalties.calib_reps", "count", "lower"),
    ("penalties.rep_s", "s", "lower"),
    ("penalties.sample_model.s", "s", "lower"),
    ("penalties.calib_gain_cells", "count", "lower"),
    ("penalties.calibrate_baseline_threshold.s", "s", "lower"),
    ("baselines.cusum_matrix.calls", "count", "lower"),
    ("baselines.cusum_matrix.cells", "count", "lower"),
    ("baselines.cusum_matrix.ns_per_cell", "ns", "lower"),
    ("baselines.scan_interval_baseline.calls", "count", "lower"),
    ("baselines.scan_interval_baseline.self_s", "s", "lower"),
    ("baselines.baseline_wbs.s", "s", "lower"),
    ("baselines.scans_issued", "count", "lower"),
    ("baselines.scans_unique", "count", "lower"),
    ("diagnostics.pearson_residual_correlations.s", "s", "lower"),
    ("simlab.generate.s", "s", "lower"),
    ("simlab.evaluate.s", "s", "lower"),
    ("simlab.run_experiment.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("process.minor_faults", "count", "lower"),
    ("accuracy.missed_per_job", "count", "lower"),
    ("accuracy.false_alarms_per_job", "count", "lower"),
    ("trace.spans_per_job", "count", "lower"),
    ("trace.job_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.work = array("q")
        self.aux = array("q")
        self.current = -1
        self.job_id = -1
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, args, kwargs, counter=None):
        """Run ``fn`` inside a span; the span is closed even if ``fn`` raises."""
        idx = len(self.start)
        parent = self.current
        self.name.append(name_id)
        self.parent.append(parent)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.work.append(0)
        self.aux.append(0)
        self.current = idx
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.current = parent
        if counter is not None:
            self.work[idx], self.aux[idx] = counter(args, result)
        return result

    def _wrapper(self, name: str, fn, counter):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            return self.call(name_id, fn, args, kwargs, counter)

        return traced

    def install(self) -> None:
        for owner, attr, name, counter in SITES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def run_job(self, job_id: int, fn, *args):
        """Trace one job: wrappers installed, the job itself as span ``cli.main``."""
        self.job_id = job_id
        self.install()
        try:
            return self.call(self._name_id("cli.main"), fn, args, {})
        finally:
            self.uninstall()
            self.job_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "work": np.frombuffer(self.work, dtype=np.int64),
            "aux": np.frombuffer(self.aux, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def job_metrics(self, job_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced job, summed over its spans."""
        a = self.arrays()
        idx = np.flatnonzero(a["job"] == job_id)
        # A job's spans are contiguous, and each span is appended at entry,
        # so a parent always precedes its children.
        first = int(idx[0])
        name = a["name"][idx]
        dur = a["end"][idx] - a["start"][idx]
        parent = np.where(a["parent"][idx] >= first, a["parent"][idx] - first, -1)
        work = a["work"][idx]
        aux = a["aux"][idx]
        nested = parent >= 0
        child = np.zeros(len(idx))
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        calib_id = self._ids.get("penalties.calibrate_beta", -1)
        in_calibration = np.zeros(len(idx), dtype=bool)
        for j, p in enumerate(parent.tolist()):
            in_calibration[j] = name[j] == calib_id or (p >= 0 and in_calibration[p])

        def pick(span):
            return name == self._ids.get(span, -1)

        def total(span, values=dur):
            return float(values[pick(span)].sum())

        def calls(span):
            return int(pick(span).sum())

        def per_cell(span):
            cells = total(span, work)
            return total(span) / cells * 1e9 if cells else 0.0

        def unique_scans(span):
            # A scan's key is its (l, u); its parent is the WBS run that issued it.
            mask = pick(span)
            return len(set(zip(parent[mask].tolist(), aux[mask].tolist())))

        scans = calls("single_change.scan_interval")
        unique = unique_scans("single_change.scan_interval")
        reps = int((pick("penalties.sample_model") & nested
                    & (name[np.maximum(parent, 0)] == calib_id)).sum())
        calib_s = total("penalties.calibrate_beta")
        return {
            "reports.read_csv.s": total("reports.read_csv"),
            "reports.write.s": total("reports.write"),
            "costs.model_build.calls": calls("costs.model_build"),
            "costs.model_build.s": total("costs.model_build"),
            "costs.gain_matrix.calls": calls("costs.gain_matrix"),
            "costs.gain_matrix.cells": int(total("costs.gain_matrix", work)),
            "costs.gain_matrix.s": total("costs.gain_matrix"),
            "costs.gain_matrix.ns_per_cell": per_cell("costs.gain_matrix"),
            "costs.boundary_cost_matrix.calls": calls("costs.boundary_cost_matrix"),
            "costs.boundary_cost_matrix.s": total("costs.boundary_cost_matrix"),
            "single_change.scan_interval.calls": scans,
            "single_change.scan_interval.self_s": total("single_change.scan_interval", self_time),
            "single_change.scan_interval.hit_ratio": (
                total("single_change.scan_interval", work) / scans if scans else 0.0
            ),
            "wbs.subset_wbs.s": total("wbs.subset_wbs"),
            "wbs.scans_issued": scans,
            "wbs.scans_unique": unique,
            "wbs.scan_reuse_ratio": unique / scans if scans else 0.0,
            "wbs.draw_intervals.calls": calls("wbs.draw_intervals"),
            "wbs.draw_intervals.s": total("wbs.draw_intervals"),
            "postprocess.s": total("postprocess"),
            "postprocess.candidates_in": int(total("postprocess", work)),
            "postprocess.candidates_kept": int(total("postprocess", aux)),
            "penalties.calibrate_beta.s": calib_s,
            "penalties.calibrate_beta.self_s": total("penalties.calibrate_beta", self_time),
            "penalties.calib_reps": reps,
            "penalties.rep_s": calib_s / reps if reps else 0.0,
            "penalties.sample_model.s": total("penalties.sample_model"),
            "penalties.calib_gain_cells": int(
                work[pick("costs.gain_matrix") & in_calibration].sum()
            ),
            "penalties.calibrate_baseline_threshold.s": total(
                "penalties.calibrate_baseline_threshold"
            ),
            "baselines.cusum_matrix.calls": calls("baselines.cusum_matrix"),
            "baselines.cusum_matrix.cells": int(total("baselines.cusum_matrix", work)),
            "baselines.cusum_matrix.ns_per_cell": per_cell("baselines.cusum_matrix"),
            "baselines.scan_interval_baseline.calls": calls("baselines.scan_interval_baseline"),
            "baselines.scan_interval_baseline.self_s": total(
                "baselines.scan_interval_baseline", self_time
            ),
            "baselines.baseline_wbs.s": total("baselines.baseline_wbs"),
            "baselines.scans_issued": calls("baselines.scan_interval_baseline"),
            "baselines.scans_unique": unique_scans("baselines.scan_interval_baseline"),
            "diagnostics.pearson_residual_correlations.s": total(
                "diagnostics.pearson_residual_correlations"
            ),
            "simlab.generate.s": total("simlab.generate"),
            "simlab.evaluate.s": total("simlab.evaluate"),
            "simlab.run_experiment.s": total("simlab.run_experiment"),
            "cli.main.s": total("cli.main"),
            "cli.self_s": total("cli.main", self_time),
            "trace.spans_per_job": len(idx),
        }

    def missing_spans(self, job_id: int, expected) -> list[str]:
        """Expected span names with no call in the given job."""
        seen = {self.names[k] for k, j in zip(self.name, self.job) if j == job_id}
        return [name for name in expected if name not in seen]


def median_metrics(per_job: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_job) for key in per_job[0]}
