"""Command-line behavior: exit codes, messages, and written artifacts."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subsetcp
from subsetcp import parse_report
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

    report = parse_report(out)
    assert report.model == "negbin"
    assert report.penalties.source == "calibrated"
    (rec,) = report.detections
    assert rec.tau == 40
    assert rec.kind == "sparse"
    assert rec.affected == ("a",)
    assert rec.time_label == "40"
    assert (tmp_path / "report.pairs.csv").read_text() == "tau,variate\n40,a\n"

    payload = json.loads(out.read_text())
    assert set(payload) == {
        "n", "d", "model", "penalties", "seed", "intervals", "detections", "diagnostics",
    }


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


def test_unparseable_cell_fails_with_coordinates(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("time,a,b\n1,0.5,NA\n2,0.5,1.0\n3,0.5,1.0\n")
    args = ["detect", "--input", str(path), "--output", str(tmp_path / "r.json")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "row 2, column 'b'" in err
    assert "'NA'" in err


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
    assert "pass sigma explicitly" in capsys.readouterr().err
    # known sigma moves the failure to the residual diagnostic, same exit code
    assert main([*base, "--sigma", "1.0"]) == 2
    assert "zero-variance residual" in capsys.readouterr().err


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


def test_simulate_writes_a_replicate_table(tmp_path, capsys):
    out = tmp_path / "table.tsv"
    args = [
        "simulate", "--scenario", "Aprime", "--n", "120", "--d", "12",
        "--delta", "2.0", "--reps", "2", "--seed", "601",
        "--intervals", "30", "--calib-reps", "20", "--output", str(out),
    ]
    assert main(args) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    lines = out.read_text().splitlines()
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


def test_out_of_range_false_alarm_target_fails_with_a_message(capsys):
    args = [
        "benchmark", "--scenario", "Aprime", "--n", "120", "--reps", "1",
        "--intervals", "20", "--calib-reps", "20", "--methods", "mean", "--fp", "1.5",
    ]
    assert main(args) == 1
    assert "error: target_fp must be in (0, 1), got 1.5" in capsys.readouterr().err


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
