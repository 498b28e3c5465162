"""One workload process: set up, print READY, run timed jobs, print a JSON result.

Started by run.py, once per workload run (and a few more times with
``--setup-only`` to time set-up).  Jobs run one at a time in this process
(a closed loop with one client).  In a traced run, jobs alternate
untraced and traced, so the tracing overhead is measured in the same
process.  The result is the last line of standard output; the program's
own standard output is captured per job and checked, and progress goes to
standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def usage() -> tuple[float, int]:
    """CPU seconds (user + sys) and minor page faults so far, children included."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return cpu, own.ru_minflt + children.ru_minflt


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, if it can be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_job(main, args) -> tuple[int, str]:
    """One ``cli.main`` call; exceptions and ``SystemExit`` become exit codes."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            rc = main(args)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, captured.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--outdir", required=True)
    opts = parser.parse_args()

    import subsetcp
    from subsetcp import cli

    if not Path(subsetcp.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"subsetcp imported from {subsetcp.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import REFERENCE_SEED, WORKLOADS

    workload = WORKLOADS[opts.workload]()
    workdir = Path(opts.outdir) / f"work-{opts.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.prepare(opts.seed, workdir)
        print("READY", flush=True)
        if opts.setup_only:
            return 0
        result = run_jobs(workload, cli.main, opts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = None
    if opts.seed == REFERENCE_SEED:
        with open(Path(__file__).with_name("reference.json")) as handle:
            reference = json.load(handle)[opts.workload]
    check_outputs(workload, result["jobs"], result.pop("signatures"), reference)

    import numpy
    import scipy

    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas_threads=blas_threads(),
    )
    print(json.dumps(result), flush=True)
    return 0


def run_jobs(workload, cli_main, opts) -> dict:
    tracer = None
    if opts.trace:
        from tracing import Tracer

        tracer = Tracer()
    jobs: list[dict] = []
    signatures = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        # A traced run pairs each traced job with an untraced one on the same input.
        variant = (len(jobs) // 2 if tracer else len(jobs)) % workload.variants
        workload.select(variant)
        t0, (c0, f0) = time.perf_counter(), usage()
        if traced:
            rc, out = tracer.run_job(len(jobs), run_job, cli_main, workload.args)
        else:
            rc, out = run_job(cli_main, workload.args)
        wall, (c1, f1) = time.perf_counter() - t0, usage()
        outcome = workload.check(rc, out)
        jobs.append({
            "wall_s": wall,
            "cpu_s": c1 - c0,
            "minor_faults": f1 - f0,
            "traced": traced,
            "variant": variant,
            "rc": rc,
            "missed": outcome.missed,
            "false_alarms": outcome.false_alarms,
            "problems": outcome.problems,
        })
        signatures.append(outcome.signature)

        elapsed = time.perf_counter() - begin
        typical = statistics.median(job["wall_s"] for job in jobs)
        remaining = opts.seconds - elapsed
        # Start another job only if most of it fits in the run; a traced run
        # needs at least one untraced and one traced job.
        more = remaining > typical / 2 or (tracer is not None and len(jobs) < 2)
        left = max(0, math.floor(remaining / typical + 0.5)) if more else 0
        print(
            f"[perfbench] {opts.workload} job {len(jobs)}/{len(jobs) + left} "
            f"{wall:.2f}s{' traced' if traced else ''} elapsed {elapsed:.1f}s "
            f"eta {left * typical:.1f}s",
            file=sys.stderr,
            flush=True,
        )
        if not more:
            break

    result = {"jobs": jobs, "signatures": signatures}
    if tracer is not None:
        result.update(layer_metrics(tracer, jobs, workload))
        spans_path = Path(opts.outdir) / f"{opts.workload}-seed{opts.seed}-spans.npz"
        tracer.save(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def layer_metrics(tracer, jobs, workload) -> dict:
    """Median over traced jobs of each per-layer metric, plus the tracing overhead."""
    from tracing import METRICS, median_metrics

    traced = [i for i, job in enumerate(jobs) if job["traced"]]
    values = median_metrics([tracer.job_metrics(i) for i in traced])
    # Means, as for job_s in run.py; each traced job repeats the untraced
    # job before it on the same input.
    traced_s = statistics.fmean(jobs[i]["wall_s"] for i in traced)
    untraced_s = statistics.fmean(job["wall_s"] for job in jobs if not job["traced"])
    scored = [job for job in jobs if job["missed"] is not None]
    values.update({
        "process.minor_faults": statistics.median(jobs[i]["minor_faults"] for i in traced),
        "trace.job_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "accuracy.missed_per_job": (
            statistics.median(job["missed"] for job in scored) if scored else None),
        "accuracy.false_alarms_per_job": (
            statistics.median(job["false_alarms"] for job in scored) if scored else None),
    })
    missing = {name for i in traced for name in tracer.missing_spans(i, workload.expected_spans)}
    return {
        "layers": {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS},
        "missing_spans": sorted(missing),
    }


def check_outputs(workload, jobs, signatures, reference) -> None:
    """Add reference and repeatability problems to each job that passed its own check."""
    first: dict[int, object] = {}
    for job, signature in zip(jobs, signatures):
        variant = job["variant"]
        if job["problems"]:
            continue
        if reference is not None:
            job["problems"] += workload.reference_problems(signature, reference[variant])
        if first.setdefault(variant, signature) != signature:
            job["problems"].append("output differs from an earlier job on the same input")


if __name__ == "__main__":
    sys.exit(main())
