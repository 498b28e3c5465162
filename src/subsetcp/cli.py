"""Command-line interface: detect, simulate, calibrate, benchmark.

Exit codes: 0 success, 1 invalid input, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from .baselines import BASELINE_METHODS
from .core import InputDataError, NumericalError, RandomSource, TimeSeriesMatrix
from .costs import GAUSSIAN, NEGBIN, gaussian_model, negbin_model
from .diagnostics import pearson_residual_correlations
from .penalties import NullModel, PenaltyConfig, calibrate_beta
from .postprocess import postprocess
from .reports import (
    atomic_write_text,
    build_report,
    read_csv,
    write_pairs_csv,
    write_report,
)
from .simlab import (
    SCENARIO_NAMES,
    DetectorConfig,
    replicate_table,
    run_experiment,
    scenario,
)
from .wbs import draw_intervals, subset_wbs

_METHODS = ("subset", *BASELINE_METHODS)


def _maybe_warn_counts(matrix: TimeSeriesMatrix) -> None:
    values = matrix.values
    if np.any(values < 0) or np.any(values != np.floor(values)):
        return
    means = values.mean(axis=1)
    variances = values.var(axis=1, ddof=1)
    if np.any(variances > means):
        warnings.warn(
            "input looks like over-dispersed counts; the negbin model is recommended",
            stacklevel=2,
        )


def _parse_sigma(text: str | None, d: int):
    if text is None:
        return None
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        raise InputDataError(f"cannot parse sigma list {text!r}") from None
    if len(parts) == 1:
        return parts[0]
    if len(parts) != d:
        raise InputDataError(f"sigma list has {len(parts)} entries for {d} variates")
    return parts


def _resolve_penalties(args, n: int, d: int, null: NullModel, rng: RandomSource) -> PenaltyConfig:
    manual = [args.alpha, args.beta, args.K]
    if any(v is not None for v in manual):
        if any(v is None for v in manual):
            raise InputDataError("set all of --alpha, --beta, --K or none of them")
        try:
            return PenaltyConfig(alpha=args.alpha, beta=args.beta, K=args.K, source="manual")
        except ValueError as exc:
            raise InputDataError(str(exc)) from None
    return calibrate_beta(
        n,
        d,
        null,
        rng,
        target_fp=args.fp,
        reps=args.calib_reps,
        intervals=args.intervals,
    )


def cmd_detect(args) -> int:
    matrix = read_csv(args.input)
    rng = RandomSource(args.seed)
    if args.model == GAUSSIAN:
        _maybe_warn_counts(matrix)
        model = gaussian_model(matrix, sigma=_parse_sigma(args.sigma, matrix.d))
        null = NullModel(kind=GAUSSIAN, estimate_scale=args.sigma is None)
    else:
        model = negbin_model(matrix)
        null = NullModel(kind=NEGBIN)

    penalties = _resolve_penalties(args, matrix.n, matrix.d, null, rng.child(0))
    intervals = draw_intervals(matrix.n, args.intervals, rng.child(1))
    result = subset_wbs(model, penalties, intervals)
    if not args.no_postprocess:
        result = postprocess(model, result)
    kind, scale = model.kind, model.scale
    del model  # the diagnostics need no prefix table

    mean_corr = pearson_residual_correlations(matrix, kind, scale, result)
    report = build_report(matrix, result, args.model, args.seed, args.intervals, mean_corr)
    write_report(report, args.output)
    pairs_path = str(args.output)
    pairs_path = pairs_path[: -len(".json")] if pairs_path.endswith(".json") else pairs_path
    try:
        write_pairs_csv(report, pairs_path + ".pairs.csv")
    except InputDataError:
        os.unlink(args.output)  # a failed run leaves no half of its output
        raise

    print(f"wrote {args.output} ({len(report['detections'])} changepoints)")
    for det in report["detections"]:
        when = f" ({det['time_label']})" if det["time_label"] else ""
        print(f"  tau={det['tau']}{when} kind={det['kind']} affected={','.join(det['affected'])}")
    return 0


def _scenario(args):
    return scenario(
        args.scenario,
        model=args.model,
        n=args.n,
        d=args.d,
        delta=args.delta,
        dp=args.dp,
        r=args.r,
        base_p=args.base_p,
        surge=args.surge,
    )


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or print it when no path is given."""
    if path:
        atomic_write_text(path, text + "\n")
        print(f"wrote {path}")
    else:
        print(text)


def cmd_simulate(args) -> int:
    detector = DetectorConfig(
        method=args.method,
        intervals=args.intervals,
        target_fp=args.fp,
        calib_reps=args.calib_reps,
        run_postprocess=not args.no_postprocess,
    )
    report = run_experiment(_scenario(args), detector, args.reps, RandomSource(args.seed))
    table = replicate_table(report)
    if args.surge:
        table += "\n# surge counted as two true changes"
    _emit(table, args.output)
    return 0


def cmd_calibrate(args) -> int:
    null = NullModel(kind=args.model, r=args.r, p=args.base_p)
    penalties = calibrate_beta(
        args.n,
        args.d,
        null,
        RandomSource(args.seed),
        target_fp=args.fp,
        reps=args.reps,
        intervals=args.intervals,
    )
    print(f"alpha={penalties.alpha:.6f}")
    print(f"beta={penalties.beta:.6f}")
    print(f"K={penalties.K:.6f}")
    print(f"source={penalties.source} target_fp={args.fp} reps={args.reps}")
    return 0


def cmd_benchmark(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise InputDataError(f"no method given; choose from {_METHODS}")
    for method in methods:
        if method not in _METHODS:
            raise InputDataError(f"unknown method {method!r}; choose from {_METHODS}")
    spec = _scenario(args)
    lines = [f"scenario={args.scenario} model={args.model} reps={args.reps} n={args.n}"]
    lines.append("method\tavg_missed\tavg_false_alarms")
    for k, method in enumerate(methods):
        detector = DetectorConfig(
            method=method,
            intervals=args.intervals,
            target_fp=args.fp,
            calib_reps=args.calib_reps,
        )
        report = run_experiment(spec, detector, args.reps, RandomSource(args.seed).child(k))
        lines.append(f"{method}\t{report.avg_missed:.2f}\t{report.avg_false_alarms:.2f}")
    _emit("\n".join(lines), args.output)
    return 0


def _add_common_sim_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", required=True, help=f"one of {', '.join(SCENARIO_NAMES)}")
    sub.add_argument("--model", choices=(GAUSSIAN, NEGBIN), default=GAUSSIAN)
    sub.add_argument("--reps", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--n", type=int, default=1000)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--delta", type=float, default=1.0, help="Gaussian mean shift per change")
    sub.add_argument("--dp", type=float, default=0.1, help="count probability shift per change")
    sub.add_argument("--r", type=float, default=20.0, help="count dispersion for data generation")
    sub.add_argument("--base-p", type=float, default=0.5)
    sub.add_argument("--surge", action="store_true")
    sub.add_argument("--intervals", type=int, default=1000)
    sub.add_argument("--fp", type=float, default=0.05)
    sub.add_argument("--calib-reps", type=int, default=200)
    sub.add_argument("--output", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetcp",
        description="Multivariate changepoint detection with sparse/dense penalties",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    detect = commands.add_parser("detect", help="detect changepoints in a CSV file")
    detect.add_argument("--input", required=True)
    detect.add_argument("--model", choices=(GAUSSIAN, NEGBIN), default=GAUSSIAN)
    detect.add_argument("--alpha", type=float, default=None)
    detect.add_argument("--beta", type=float, default=None)
    detect.add_argument("--K", type=float, default=None)
    detect.add_argument("--fp", type=float, default=0.05, help="calibration false-alarm target")
    detect.add_argument("--calib-reps", type=int, default=200)
    detect.add_argument("--intervals", type=int, default=1000)
    detect.add_argument("--seed", type=int, default=0)
    detect.add_argument("--sigma", default=None, help="known scale, scalar or comma list")
    detect.add_argument("--output", required=True)
    detect.add_argument("--no-postprocess", action="store_true")
    detect.set_defaults(func=cmd_detect)

    simulate = commands.add_parser("simulate", help="run a scenario experiment")
    _add_common_sim_flags(simulate)
    simulate.add_argument("--method", choices=_METHODS, default="subset")
    simulate.add_argument("--no-postprocess", action="store_true")
    simulate.set_defaults(func=cmd_simulate)

    calibrate = commands.add_parser("calibrate", help="Monte Carlo penalty calibration")
    calibrate.add_argument("--n", type=int, required=True)
    calibrate.add_argument("--d", type=int, required=True)
    calibrate.add_argument("--model", choices=(GAUSSIAN, NEGBIN), default=GAUSSIAN)
    calibrate.add_argument("--fp", type=float, default=0.05)
    calibrate.add_argument("--reps", type=int, default=200)
    calibrate.add_argument("--intervals", type=int, default=1000)
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument("--r", type=float, default=20.0)
    calibrate.add_argument("--base-p", type=float, default=0.5)
    calibrate.set_defaults(func=cmd_calibrate)

    benchmark = commands.add_parser("benchmark", help="compare methods on a scenario")
    _add_common_sim_flags(benchmark)
    benchmark.add_argument("--methods", default="subset,mean,max,binweight")
    benchmark.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except BrokenPipeError:
        # Send what is left to devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
