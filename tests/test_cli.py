"""Command-line behavior: exit codes, messages, and written artifacts."""

import ast
import importlib
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import subsetcp
from subsetcp import RandomSource, generate, scenario, theoretical_penalties
from subsetcp.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBCOMMANDS = ("detect", "calibrate", "simulate", "benchmark")


def _count_csv(tmp_path, name="counts.csv"):
    rng = np.random.default_rng(220)
    a = np.concatenate(
        [rng.negative_binomial(20, 0.5, 40), rng.negative_binomial(20, 0.3, 40)]
    )
    b = rng.negative_binomial(20, 0.5, 80)
    lines = ["time,a,b"] + [f"{t + 1},{a[t]},{b[t]}" for t in range(80)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def _detect_args(csv_path, out_path):
    return [
        "detect",
        "--input",
        str(csv_path),
        "--model",
        "negbin",
        "--calib-reps",
        "30",
        "--intervals",
        "60",
        "--seed",
        "11",
        "--output",
        str(out_path),
    ]


def test_detect_finds_the_planted_count_change(tmp_path, capsys):
    csv_path = _count_csv(tmp_path)
    out = tmp_path / "report.json"
    assert main(_detect_args(csv_path, out)) == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out} (1 changepoints)" in stdout
    assert "tau=40" in stdout

    report = json.loads(out.read_text())
    assert list(report) == [
        "n", "d", "model", "penalties", "seed", "intervals", "detections", "diagnostics",
    ]
    assert report["model"] == "negbin"
    assert report["intervals"] == 60
    assert report["penalties"]["source"] == "calibrated"
    (rec,) = report["detections"]
    assert rec["tau"] == 40
    assert rec["kind"] == "sparse"
    assert rec["affected"] == ["a"]
    assert rec["time_label"] == "40"
    assert (tmp_path / "report.pairs.csv").read_text() == "tau,variate\n40,a\n"


def test_detect_output_is_bit_identical_for_a_fixed_seed(tmp_path, capsys):
    csv_path = _count_csv(tmp_path)
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert main(_detect_args(csv_path, first)) == 0
    assert main(_detect_args(csv_path, second)) == 0
    capsys.readouterr()
    assert first.read_text() == second.read_text()
    assert (tmp_path / "one.pairs.csv").read_text() == (
        tmp_path / "two.pairs.csv"
    ).read_text()


def _gaussian_csv(tmp_path):
    rng = np.random.default_rng(230)
    y = 2.0 * rng.standard_normal((4, 100))
    y[:2, 50:] += 3.0
    lines = ["time,a,b,c,d"] + [
        f"{t + 1}," + ",".join(f"{v:.3f}" for v in y[:, t]) for t in range(100)
    ]
    path = tmp_path / "gauss.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _pinned_report(n, d, model, alpha, beta, K, seed, intervals, tau, affected, stat, corr):
    report = {
        "n": n,
        "d": d,
        "model": model,
        "penalties": {"alpha": alpha, "beta": beta, "K": K, "source": "calibrated"},
        "seed": seed,
        "intervals": intervals,
        "detections": [
            {
                "tau": tau,
                "time_label": str(tau),
                "kind": "sparse",
                "affected": affected,
                "statistic": stat,
            }
        ],
        "diagnostics": {"mean_residual_correlation": corr},
    }
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("model", ["gaussian", "negbin"])
def test_detect_output_is_pinned(tmp_path, capsys, model):
    # Gaussian: scales estimated from the data, beta calibrated.
    out = tmp_path / "report.json"
    if model == "gaussian":
        args = [
            "detect", "--input", str(_gaussian_csv(tmp_path)), "--calib-reps", "20",
            "--intervals", "40", "--seed", "3", "--output", str(out),
        ]
        want = _pinned_report(
            100, 4, "gaussian", 2.772588722239781, 18.146885545115083, 34.19574791302853,
            3, 40, 50, ["a", "b"], 71.63755579566947, 0.004054667271816322,
        )
        pairs = "tau,variate\n50,a\n50,b\n"
    else:
        args = _detect_args(_count_csv(tmp_path), out)
        want = _pinned_report(
            80, 2, "negbin", 1.3862943611198906, 13.2122005698833, 22.48191874045451,
            11, 60, 40, ["a"], 35.18983075729375, -0.11283750757753963,
        )
        pairs = "tau,variate\n40,a\n"
    assert main(args) == 0
    capsys.readouterr()
    assert out.read_text() == want
    assert (tmp_path / "report.pairs.csv").read_text() == pairs


def test_detect_warns_when_counts_are_fit_with_the_gaussian_model(tmp_path, capsys):
    csv_path = _count_csv(tmp_path)
    out = tmp_path / "report.json"
    args = [
        "detect", "--input", str(csv_path), "--model", "gaussian",
        "--alpha", "2.0", "--beta", "15.0", "--K", "25.0",
        "--intervals", "40", "--output", str(out),
    ]
    with pytest.warns(UserWarning, match="negbin model is recommended"):
        assert main(args) == 0
    capsys.readouterr()


def test_partial_manual_penalties_are_rejected(tmp_path, capsys):
    csv_path = _count_csv(tmp_path)
    args = [
        "detect", "--input", str(csv_path), "--model", "negbin",
        "--alpha", "2.0", "--output", str(tmp_path / "r.json"),
    ]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "error: set all of --alpha, --beta, --K or none of them" in err


@pytest.mark.parametrize(
    ("penalties", "message"),
    [
        (["--alpha", "nan", "--beta", "9", "--K", "20"], "must be finite"),
        (["--alpha", "-1", "--beta", "1", "--K", "5"], "must be non-negative"),
        (["--alpha", "2", "--beta", "5", "--K", "1"], "must be at least beta"),
    ],
)
def test_invalid_manual_penalties_fail_with_a_message(tmp_path, capsys, penalties, message):
    out = tmp_path / "r.json"
    args = [
        "detect", "--input", str(_count_csv(tmp_path)), "--model", "negbin",
        *penalties, "--output", str(out),
    ]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_unparseable_cell_fails_with_coordinates(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("time,a,b\n1,0.5,NA\n2,0.5,1.0\n3,0.5,1.0\n")
    args = ["detect", "--input", str(path), "--output", str(tmp_path / "r.json")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "row 2, column 'b'" in err
    assert "'NA'" in err


def test_undecodable_input_fails_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"time,a,b\n1,1,2\n2,3,\xff4\n3,5,6\n")
    out = tmp_path / "r.json"
    args = [
        "detect", "--input", str(path), "--alpha", "1", "--beta", "1", "--K", "5",
        "--output", str(out),
    ]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["detect", "simulate"])
@pytest.mark.parametrize("target", ["missing/out", "directory"])
def test_unwritable_output_fails_with_a_message(tmp_path, capsys, command, target):
    # A missing parent fails before the temp file exists, a directory in
    # the way fails when the temp file replaces it.
    (tmp_path / "directory").mkdir()
    out = tmp_path / target
    args = {
        "detect": [
            "detect", "--input", str(_count_csv(tmp_path)), "--model", "negbin",
            "--alpha", "2", "--beta", "15", "--K", "25", "--intervals", "10",
        ],
        "simulate": [
            "simulate", "--scenario", "Aprime", "--n", "100", "--reps", "1",
            "--intervals", "5", "--calib-reps", "20",
        ],
    }[command]
    assert main([*args, "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert not list(tmp_path.rglob(f".{out.name}.*"))


@pytest.mark.parametrize("blocked", ["r.json", "r.pairs.csv"])
def test_failed_detect_write_leaves_neither_output(tmp_path, capsys, blocked):
    # A directory in the way of either output fails its write; the run must
    # then leave neither the report nor the pairs CSV behind.
    (tmp_path / blocked).mkdir()
    out = tmp_path / "r.json"
    args = [
        "detect", "--input", str(_count_csv(tmp_path)), "--model", "negbin",
        "--alpha", "2", "--beta", "15", "--K", "25", "--intervals", "10",
        "--output", str(out),
    ]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / blocked}: ")
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == ["counts.csv"]


def _panel_csv(tmp_path, n, d, tau, offset=0.0, twin=False):
    """Seeded standard Gaussian panel plus ``offset``; the first min(d, 5)
    variates shift by 8 after ``tau`` (no shift when tau is None).  With
    ``twin`` the last variate is a copy of the first."""
    y = offset + np.random.default_rng(240).standard_normal((d, n))
    if tau is not None:
        y[:5, tau:] += 8.0
    if twin:
        y[-1] = y[0]
    lines = ["time," + ",".join(f"x{i}" for i in range(1, d + 1))] + [
        f"{t + 1}," + ",".join(f"{v:.6f}" for v in y[:, t]) for t in range(n)
    ]
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


_SHIFTED = ["x1", "x2", "x3", "x4", "x5"]


@pytest.mark.parametrize(
    ("n", "d", "tau", "panel", "penalties", "status", "taus", "pinned"),
    [
        (200, 10, 1, {}, [], 0, [1], [(1, "sparse", _SHIFTED)]),
        (200, 10, 199, {}, [], 0, [199], None),
        (3, 10, None, {}, [], 0, [], None),
        (200, 1, 100, {}, [], 1, None, None),
        # taus None: the planted change is among the detections.
        (200, 1, 100, {}, ["--alpha", "0", "--beta", "10", "--K", "10"], 0, None, None),
        # x10 is x1's twin, so their residuals correlate at 1.  The dense
        # branch wins, and postprocess trims its affected set to the six
        # shifted variates.
        (200, 10, 100, {"twin": True}, [], 0, [100], [(100, "dense", [*_SHIFTED, "x10"])]),
        (200, 10, 100, {"offset": 1e8}, [], 0, [100], [(100, "sparse", _SHIFTED)]),
    ],
    ids=[
        "change-at-1", "change-at-n-1", "n-3", "d-1-calibrated", "d-1-manual",
        "duplicated-variate", "offset-1e8",
    ],
)
def test_awkward_inputs_through_detect(
    tmp_path, capsys, n, d, tau, panel, penalties, status, taus, pinned
):
    # ``pinned`` lists each detection's (tau, kind, affected) exactly; without
    # it the affected sets need only lie among the shifted variates.
    out = tmp_path / "r.json"
    args = [
        "detect", "--input", str(_panel_csv(tmp_path, n, d, tau, **panel)),
        "--calib-reps", "20", "--intervals", "50", *penalties, "--output", str(out),
    ]
    assert main(args) == status
    if status:
        assert "error: calibration needs d >= 2" in capsys.readouterr().err
        assert not out.exists()
        return
    capsys.readouterr()
    report = json.loads(out.read_text())
    detections = report["detections"]
    found = [det["tau"] for det in detections]
    assert found == taus if taus is not None else tau in found
    assert -1.0 <= report["diagnostics"]["mean_residual_correlation"] <= 1.0
    if pinned is not None:
        assert [(det["tau"], det["kind"], det["affected"]) for det in detections] == pinned
        return
    shifted = {f"x{i}" for i in range(1, min(d, 5) + 1)}
    for det in detections:
        assert set(det["affected"]) <= shifted


def test_constant_gaussian_series_fails_numerically(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    rows = [f"{t},{3.0},{np.sin(t):.4f}" for t in range(1, 31)]
    path.write_text("time,a,b\n" + "\n".join(rows) + "\n")
    base = [
        "detect", "--input", str(path), "--model", "gaussian",
        "--alpha", "2.0", "--beta", "20.0", "--K", "30.0",
        "--intervals", "20", "--output", str(tmp_path / "r.json"),
    ]
    assert main(base) == 2
    err = capsys.readouterr().err
    assert "scale estimate is zero" in err and "pass sigma explicitly" in err
    assert "variates ['a']" in err
    # known sigma moves the failure to the residual diagnostic, same exit code
    assert main([*base, "--sigma", "1.0"]) == 2
    assert "zero-variance residual" in capsys.readouterr().err


def _detect_peak_in_panels(tmp_path, capsys, values, fmt, options):
    """tracemalloc peak of ``main(["detect", ...])`` on ``values`` written as
    a CSV, with the theoretical penalties passed as manual ones, in panels
    of 8 d n bytes."""
    d, n = values.shape
    path = tmp_path / "wide.csv"
    with open(path, "w") as handle:
        handle.write("time," + ",".join(f"x{i}" for i in range(1, d + 1)) + "\n")
        rows = np.column_stack([np.arange(1, n + 1), values.T])
        np.savetxt(handle, rows, delimiter=",", fmt=fmt)
    pen = theoretical_penalties(n, d, J=4)
    args = [
        "detect", "--input", str(path), "--output", str(tmp_path / "r.json"), *options,
        "--alpha", repr(pen.alpha), "--beta", repr(pen.beta), "--K", repr(pen.K),
    ]
    tracemalloc.start()
    try:
        rc = main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, capsys.readouterr().err
    return peak / (8 * n * d)


def test_wide_detect_holds_few_copies_of_the_panel(tmp_path, capsys):
    # The input matrix and the prefix table are one panel (8 d n bytes) each.
    # The scans hold one block of rows of gains and a (d, u - l) boolean
    # mask, and the diagnostic one residual panel beside the input, so the
    # job peaks at about 2.5 panels, during wild binary segmentation.  A
    # whole (d, u - l) gain block in the scans or a d x d correlation matrix
    # in the diagnostic (one more panel at d = n) pushes it past 3: to 3.2
    # with either, 3.3 with both.
    n = d = 1000
    matrix, _ = generate(scenario("E", model="gaussian", n=n, d=d), RandomSource(0).child(0))
    options = ["--intervals", "50"]
    assert _detect_peak_in_panels(tmp_path, capsys, matrix.values, "%.17g", options) < 3.0


def test_wide_negbin_detect_holds_few_copies_of_the_panel(tmp_path, capsys):
    # NB(20, 0.5) counts with p down to 0.4 on 50 variates after t = 600.
    # The scans hold the input, the prefix table, one block of rows of the
    # negbin kernel's temporaries, and the memo of scanned intervals, whose
    # dense candidates each keep a d-element affected set: about 3.5 panels
    # in all.
    # A whole (d, u - l) gain block in the scans pushes it to 4.2.
    n = d = 1000
    p = np.full((d, n), 0.5)
    p[:50, 600:] = 0.4
    counts = np.random.default_rng(0).negative_binomial(20, p)
    options = ["--model", "negbin", "--intervals", "200"]
    assert _detect_peak_in_panels(tmp_path, capsys, counts, "%d", options) < 3.8


def test_all_zero_count_variate_fails_in_the_residual_diagnostic(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    rows = [f"{t},{t % 5},0" for t in range(1, 31)]
    path.write_text("time,a,b\n" + "\n".join(rows) + "\n")
    args = [
        "detect", "--input", str(path), "--model", "negbin",
        "--alpha", "2.0", "--beta", "20.0", "--K", "30.0",
        "--intervals", "20", "--output", str(tmp_path / "r.json"),
    ]
    assert main(args) == 2
    assert "zero-variance residual series for variates ['b']" in capsys.readouterr().err


def test_fractional_counts_are_rejected_for_the_count_model(tmp_path, capsys):
    path = tmp_path / "frac.csv"
    path.write_text("time,a\n1,1.5\n2,2.0\n3,3.0\n")
    args = [
        "detect", "--input", str(path), "--model", "negbin",
        "--output", str(tmp_path / "r.json"),
    ]
    assert main(args) == 1
    assert "error:" in capsys.readouterr().err


def test_calibrate_prints_the_config_deterministically(capsys):
    args = [
        "calibrate", "--n", "60", "--d", "3", "--reps", "20",
        "--intervals", "20", "--seed", "5",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.splitlines()
    assert lines[0] == f"alpha={2 * np.log(3):.6f}"
    assert lines[1].startswith("beta=")
    assert lines[2].startswith("K=")
    assert "source=calibrated" in lines[3]
    assert "target_fp=0.05" in lines[3]
    assert "reps=20" in lines[3]


@pytest.mark.parametrize(
    ("model", "beta", "K"),
    [("gaussian", "22.822716", "40.334996"), ("negbin", "23.003214", "40.568822")],
)
def test_calibrate_output_is_pinned(capsys, model, beta, K):
    args = [
        "calibrate", "--n", "200", "--d", "4", "--reps", "20",
        "--intervals", "50", "--model", model,
    ]
    assert main(args) == 0
    assert capsys.readouterr().out == (
        f"alpha=2.772589\nbeta={beta}\nK={K}\n"
        "source=calibrated target_fp=0.05 reps=20\n"
    )


def test_simulate_writes_a_replicate_table(tmp_path, capsys):
    out = tmp_path / "table.tsv"
    args = [
        "simulate", "--scenario", "Aprime", "--n", "120", "--d", "12",
        "--delta", "2.0", "--reps", "2", "--seed", "601",
        "--intervals", "30", "--calib-reps", "20", "--output", str(out),
    ]
    for surge in (False, True):
        assert main([*args, "--surge"] if surge else args) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        if surge:
            assert lines.pop() == "# surge counted as two true changes"
        assert lines[0] == "seed\tmissed\tfalse_alarms\ttpr\tfpr"
        assert len(lines) == 4
        assert lines[-1].startswith("summary\t")


def test_unknown_scenario_fails_listing_the_choices(tmp_path, capsys):
    args = ["simulate", "--scenario", "Z", "--reps", "1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "unknown scenario 'Z'" in err
    assert "Aprime" in err


def test_benchmark_compares_methods(tmp_path, capsys):
    args = [
        "benchmark", "--scenario", "Aprime", "--n", "120", "--d", "12",
        "--delta", "2.0", "--reps", "2", "--seed", "601",
        "--intervals", "30", "--calib-reps", "20", "--methods", "subset,mean",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("scenario=Aprime")
    assert out[1] == "method\tavg_missed\tavg_false_alarms"
    assert out[2].startswith("subset\t")
    assert out[3].startswith("mean\t")

    assert main([*args[:-1], "median"]) == 1
    assert "unknown method 'median'" in capsys.readouterr().err
    for empty in (",", ""):
        assert main([*args[:-1], empty]) == 1
        assert "error: no method given" in capsys.readouterr().err


def test_out_of_range_false_alarm_target_fails_with_a_message(capsys):
    args = [
        "benchmark", "--scenario", "Aprime", "--n", "120", "--reps", "1",
        "--intervals", "20", "--calib-reps", "20", "--methods", "mean", "--fp", "1.5",
    ]
    assert main(args) == 1
    assert "error: target_fp must be in (0, 1), got 1.5" in capsys.readouterr().err


def test_impossible_count_scenario_fails_before_calibrating(monkeypatch, capsys):
    def no_draws(*args):
        raise AssertionError("a null dataset was sampled")

    monkeypatch.setattr(subsetcp.NullModel, "sample_model", no_draws)
    args = [
        "simulate", "--scenario", "Aprime", "--model", "negbin", "--dp", "0.2",
        "--n", "300", "--calib-reps", "100", "--reps", "2",
    ]
    assert main(args) == 1
    assert (
        "error: planted shifts push success probability outside (0, 1)"
        in capsys.readouterr().err
    )


def _small_runs(tmp_path):
    """One quick invocation of each subcommand, without --seed."""
    sim = ["--scenario", "Aprime", "--n", "100", "--reps", "1", "--calib-reps", "20",
           "--intervals", "10"]
    return {
        "detect": ["detect", "--input", str(_count_csv(tmp_path)), "--model", "negbin",
                   "--calib-reps", "20", "--intervals", "10",
                   "--output", str(tmp_path / "r.json")],
        "calibrate": ["calibrate", "--n", "100", "--d", "3", "--reps", "20", "--intervals", "10"],
        "simulate": ["simulate", *sim],
        "benchmark": ["benchmark", *sim, "--methods", "mean"],
    }


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_negative_seed_fails_with_a_message(tmp_path, capsys, command):
    assert main([*_small_runs(tmp_path)[command], "--seed", "-1"]) == 1
    assert "error: seed must be non-negative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (["calibrate", "--n", "100", "--d", "3", "--model", "negbin", "--r", "nan"], "finite r"),
        (["simulate", "--scenario", "Aprime", "--model", "negbin", "--r", "inf"], "finite r"),
        (["simulate", "--scenario", "Aprime", "--model", "negbin", "--dp", "nan"], "non-zero"),
        (["simulate", "--scenario", "Aprime", "--n", "300", "--delta", "inf"], "non-zero"),
        (["calibrate", "--n", "-5", "--d", "3", "--reps", "20"], "needs n >= 3, got -5"),
        (["calibrate", "--n", "2", "--d", "3", "--reps", "20"], "needs n >= 3, got 2"),
        (["calibrate", "--n", "1000", "--d", "1000", "--reps", "20", "--intervals", "-1"],
         "interval count must be >= 0, got -1"),
    ],
)
def test_non_finite_model_parameters_fail_before_sampling(monkeypatch, capsys, args, message):
    def no_draws(*args):
        raise AssertionError("a null dataset was sampled")

    monkeypatch.setattr(subsetcp.NullModel, "sample_model", no_draws)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    args = _small_runs(tmp_path)["benchmark"]
    src_root = Path(subsetcp.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "subsetcp.cli", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src_root)},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_help_and_bad_usage_exit_codes(capsys):
    with pytest.raises(SystemExit) as help_exit:
        main(["--help"])
    assert help_exit.value.code == 0
    usage = capsys.readouterr().out
    for command in SUBCOMMANDS:
        assert command in usage
    with pytest.raises(SystemExit) as bad_exit:
        main([])
    assert bad_exit.value.code == 2
    capsys.readouterr()


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy is a test-only dependency; loading it would add to start-up
    # time and resident memory of every command.
    src_root = Path(subsetcp.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, subsetcp.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    assert not any("scipy" in dep for dep in _load_toml(PYPROJECT)["project"]["dependencies"])


def test_benchmark_tracer_sites_resolve(monkeypatch):
    # perfbench wraps these names in place; a renamed or removed one would
    # otherwise fail only in the benchmark, inside Tracer.install.
    monkeypatch.syspath_prepend(str(PYPROJECT.parent / "perfbench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    for owner, attr, *_ in tracing.SITES:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
    # A traced run fails on an expected span that nothing records: each must
    # be a site's span or cli.main, the span of the job itself.
    recorded = {"cli.main", *(span for _, _, span, _ in tracing.SITES)}
    for name, workload in workloads.WORKLOADS.items():
        unrecorded = sorted(set(workload.expected_spans) - recorded)
        assert not unrecorded, f"{name} expects spans no site records: {unrecorded}"


def test_package_has_no_function_local_imports():
    # A function-local import hides a dependency, often an import cycle;
    # every module's imports belong at its top, where a reader finds them.
    sources = sorted((PYPROJECT.parent / "src" / "subsetcp").glob("*.py"))
    assert sources
    local = set()
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                local.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert not local, f"imports inside function bodies: {sorted(local)}"


def _load_toml(path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with path.open("rb") as fh:
        return tomllib.load(fh)


def _assert_help_lists_subcommands(exe, env=None):
    proc = subprocess.run(
        [exe, "--help"], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    for command in SUBCOMMANDS:
        assert command in proc.stdout


def test_console_script_is_installed(tmp_path):
    # Checks the command that pyproject.toml declares, through the same
    # wrapper an installer writes, so no install step is needed.
    scripts = _load_toml(PYPROJECT)["project"].get("scripts", {})
    assert set(scripts) == {"subsetcp"}
    entry = importlib.metadata.EntryPoint(
        name="subsetcp", value=scripts["subsetcp"], group="console_scripts"
    )
    assert entry.load() is main

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    wrapper = bin_dir / "subsetcp"
    wrapper.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n"
    )
    wrapper.chmod(0o755)
    exe = shutil.which("subsetcp", path=str(bin_dir))
    assert exe is not None
    # Run the code under test whether or not the package is installed.
    src_root = Path(subsetcp.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_root)}
    _assert_help_lists_subcommands(exe, env=env)


@pytest.mark.skipif(
    shutil.which("subsetcp") is None,
    reason="no subsetcp executable on PATH: the package is not installed",
)
def test_installed_console_script_lists_the_subcommands():
    _assert_help_lists_subcommands(shutil.which("subsetcp"))
