"""Benchmark subsetcp end to end through its command-line entry point.

Run from the repository root:

    python3 perfbench/run.py --workload detect_wide --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 36 --trace 1

Each run times set-up in fresh processes, then runs the workload's jobs in
one fresh worker process for ``--seconds`` seconds.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` prints the per-layer metrics from a
traced run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; progress and a
readable summary go to standard error.  A results file with provenance is
written to ``.perfbench/`` at the repository root.  README.md in this
directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".perfbench"
WORKLOADS = ("detect_wide", "detect_counts", "compare_small")
# Set-up is timed in this many fresh processes per run; the median is reported.
SETUP_SAMPLES = 3
# Every process this benchmark starts is killed after this many seconds.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# glibc's allocator by default moves its mmap threshold with the allocation
# history, so the same detect_wide job took 0.85M to 1.26M page faults (a
# fifth to a third of its time) depending on what ran before it.  Fixed
# thresholds above the largest temporary (d x n doubles = 8 MB) keep
# freed temporaries in the heap: about 11k faults per job, every job.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(64 * 2**20),
}


class BenchmarkError(Exception):
    """A run that produced no result: a worker crashed, hung or printed garbage."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """This process's environment with BLAS and OpenMP threads capped at nproc
    and the allocator thresholds fixed."""
    env = {**os.environ, **MALLOC_ENV}
    cap = nproc()
    for var in THREAD_VARS:
        current = env.get(var, "")
        keep = current.isdigit() and 0 < int(current) <= cap
        env[var] = current if keep else str(cap)
    return env


def launch(worker_args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return seconds from start to READY and its remaining output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *worker_args],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or rc != 0:
        raise BenchmarkError(f"worker {' '.join(worker_args)} failed with exit code {rc}")
    return setup_s, rest


def git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    OUTDIR.mkdir(exist_ok=True)
    worker_args = [
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--outdir", str(OUTDIR),
    ]
    setups = [
        launch([*worker_args, "--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)
    ]
    setup_s, output = launch(worker_args, deadline)
    setups.append(setup_s)
    try:
        result = json.loads(output.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchmarkError(f"worker printed no result: {exc}") from None

    jobs = result["jobs"]
    untraced = [job for job in jobs if not job["traced"]]
    failed = sum(1 for job in jobs if job["problems"])
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s": (statistics.fmean(job["wall_s"] for job in untraced), "s"),
        "job_cpu_s": (statistics.fmean(job["cpu_s"] for job in untraced), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    scored = [job for job in jobs if job["missed"] is not None]
    accuracy = {
        "failed_frac": (failed / len(jobs), "ratio"),
        "missed_per_job": (
            statistics.median(job["missed"] for job in scored) if scored else None, "count"),
        "false_alarms_per_job": (
            statistics.median(job["false_alarms"] for job in scored) if scored else None,
            "count"),
    }
    summary = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": len(jobs),
        "failed": failed,
        "correct": failed == 0 and not result.get("missing_spans"),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "accuracy": {k: {"value": v, "unit": u} for k, (v, u) in accuracy.items()},
        "setup_samples_s": setups,
        "problems": sorted({p for job in jobs for p in job["problems"]}),
        "provenance": {
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "nproc": nproc(),
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": result["numpy"],
            "scipy": result["scipy"],
            "blas_threads": result["blas_threads"],
            "child_env": {var: child_env()[var] for var in (*THREAD_VARS, *MALLOC_ENV)},
            "platform": platform.platform(),
        },
        "job_records": jobs,
    }
    if trace:
        summary["layers"] = result["layers"]
        summary["missing_spans"] = result["missing_spans"]
        summary["spans_file"] = result["spans_file"]
    path = OUTDIR / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    report(summary, path)
    return summary


def report(summary: dict, path: Path) -> None:
    out = sys.stderr
    print(
        f"[perfbench] {summary['workload']} seed {summary['seed']}: "
        f"{summary['jobs']} jobs, {summary['failed']} failed -> {path.relative_to(ROOT)}",
        file=out,
    )
    sections = [summary["end_to_end"], summary["accuracy"]]
    if summary["trace"]:
        sections.append(summary["layers"])
    for section in sections:
        for key, metric in section.items():
            print(f"  {key:<45} {metric['value']!s:>14} {metric['unit']}", file=out)
    for problem in summary["problems"]:
        print(f"  FAILED CHECK: {problem}", file=out)
    for span in summary.get("missing_spans", ()):
        print(f"  SPAN NOT RECORDED: {span} (wrapper on the wrong name?)", file=out)


def metrics_of(summary: dict) -> dict:
    return summary["layers"] if summary["trace"] else summary["end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or not 1 <= opts.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")
    if not (ROOT / "src" / "subsetcp" / "__init__.py").is_file():
        print(f"perfbench: no subsetcp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if opts.workload == "all" else (opts.workload,)
    try:
        summaries = [run_workload(name, opts.seed, opts.seconds, opts.trace) for name in names]
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if len(summaries) == 1:
        metrics = metrics_of(summaries[0])
    else:
        metrics = {
            f"{s['workload']}.{key}": metric
            for s in summaries
            for key, metric in {**metrics_of(s), **s["accuracy"]}.items()
        }
        for key, metric in metrics.items():
            print(f"{key:<60} {metric['value']!s:>14} {metric['unit']}")
    correct = all(s["correct"] for s in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["jobs"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
