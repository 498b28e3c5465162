"""CSV input, JSON report round-trips, and model-fit diagnostics."""

import numpy as np
import pytest

from subsetcp import (
    AnalysisReport,
    Detection,
    InputDataError,
    NumericalError,
    PenaltyConfig,
    RandomSource,
    ScenarioSpec,
    SegmentationResult,
    build_report,
    gaussian_model,
    generate,
    make_matrix,
    negbin_model,
    parse_report,
    pearson_residual_correlations,
    pearson_residuals,
    read_csv,
    segment_parameters,
    theoretical_penalties,
    write_pairs_csv,
    write_report,
)
from subsetcp.diagnostics import variate_segments
from subsetcp.reports import atomic_write_text


def _pen() -> PenaltyConfig:
    return PenaltyConfig(alpha=1.5, beta=4.0, K=9.0, source="manual")


def _null_result(n, d, model="gaussian_known_var") -> SegmentationResult:
    return SegmentationResult(
        detections=(), penalties=_pen(), model=model, n=n, d=d
    )


# --- CSV input ---------------------------------------------------------------


def test_csv_round_trip_with_time_labels(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "time,x1,x2\n2020-01,1.5,2\n2020-02,-0.5,3\n2020-03,0.25,4\n"
    )
    matrix = read_csv(path)
    assert matrix.n == 3 and matrix.d == 2
    assert matrix.variate_names == ("x1", "x2")
    assert matrix.time_labels == ("2020-01", "2020-02", "2020-03")
    assert matrix.values.tolist() == [[1.5, -0.5, 0.25], [2.0, 3.0, 4.0]]


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("time,a\n1,0.5\n\n2,1.5\n")
    assert read_csv(path).n == 2


def test_csv_reports_ragged_row_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,a,b\n1,0.5,1.0\n2,0.5\n")
    with pytest.raises(InputDataError, match=r"row 3 has 2 fields, expected 3"):
        read_csv(path)


def test_csv_reports_unparseable_cell_coordinates(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,a,b\n1,0.5,oops\n2,0.5,1.0\n")
    with pytest.raises(
        InputDataError, match=r"row 2, column 'b': cannot parse 'oops'"
    ):
        read_csv(path)


def test_csv_rejects_duplicate_names(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,a,a\n1,0.5,1.0\n2,0.5,1.0\n")
    with pytest.raises(InputDataError, match=r"duplicate variate names \['a'\]"):
        read_csv(path)


def test_csv_needs_two_data_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,a\n1,0.5\n")
    with pytest.raises(InputDataError, match="at least 2 data rows, got 1"):
        read_csv(path)


def test_csv_rejects_empty_and_headerless_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InputDataError, match="empty"):
        read_csv(empty)
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("time\n1\n2\n")
    with pytest.raises(InputDataError, match="header needs"):
        read_csv(narrow)
    with pytest.raises(InputDataError, match="cannot open"):
        read_csv(tmp_path / "missing.csv")


# --- analysis report ---------------------------------------------------------


def _report_fixture():
    values = [[0.0, 0.0, 3.0, 3.0], [1.0, 1.0, 1.0, 1.0]]
    matrix = make_matrix(values, names=("alpha", "beta"))
    labeled = make_matrix(values, names=("alpha", "beta"))
    result = SegmentationResult(
        detections=(
            Detection(
                tau=2,
                kind="sparse",
                affected=frozenset({1}),
                statistic=9.0,
                interval=(1, 4),
            ),
        ),
        penalties=_pen(),
        model="gaussian_known_var",
        n=4,
        d=2,
        seed=3,
        n_intervals=10,
    )
    return matrix, result


def test_report_dict_shape_and_name_mapping():
    matrix, result = _report_fixture()
    report = build_report(matrix, result, "gaussian", seed=3, mean_residual_correlation=0.02)
    data = report.to_dict()
    assert set(data) == {
        "n", "d", "model", "penalties", "seed", "intervals", "detections", "diagnostics",
    }
    assert set(data["penalties"]) == {"alpha", "beta", "K", "source"}
    assert data["diagnostics"] == {"mean_residual_correlation": 0.02}
    (det,) = data["detections"]
    assert set(det) == {"tau", "time_label", "kind", "affected", "statistic"}
    assert det["tau"] == 2
    assert det["affected"] == ["alpha"]
    assert det["time_label"] is None


def test_report_uses_time_labels_when_present():
    values = np.array([[0.0, 0.0, 3.0, 3.0]])
    from subsetcp import TimeSeriesMatrix

    matrix = TimeSeriesMatrix(values, ("a",), time_labels=("t1", "t2", "t3", "t4"))
    result = SegmentationResult(
        detections=(
            Detection(
                tau=2,
                kind="sparse",
                affected=frozenset({1}),
                statistic=9.0,
                interval=(1, 4),
            ),
        ),
        penalties=_pen(),
        model="gaussian_known_var",
        n=4,
        d=1,
    )
    report = build_report(matrix, result, "gaussian", seed=0, mean_residual_correlation=0.0)
    assert report.detections[0].time_label == "t2"


def test_report_file_round_trip(tmp_path):
    matrix, result = _report_fixture()
    report = build_report(matrix, result, "gaussian", seed=3, mean_residual_correlation=0.02)
    path = tmp_path / "report.json"
    write_report(report, path)
    assert parse_report(path) == report
    assert AnalysisReport.from_dict(report.to_dict()) == report


def test_pairs_csv_lists_each_assignment(tmp_path):
    matrix = make_matrix(
        [[0.0, 0.0, 3.0, 3.0], [0.0, 0.0, 3.0, 3.0]], names=("a", "b")
    )
    result = SegmentationResult(
        detections=(
            Detection(
                tau=2,
                kind="dense",
                affected=frozenset({1, 2}),
                statistic=9.0,
                interval=(1, 4),
            ),
        ),
        penalties=_pen(),
        model="gaussian_known_var",
        n=4,
        d=2,
    )
    path = tmp_path / "pairs.csv"
    write_pairs_csv(result, matrix, path)
    assert path.read_text() == "tau,variate\n2,a\n2,b\n"


def test_atomic_write_replaces_and_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    atomic_write_text(path, "new contents")
    assert path.read_text() == "new contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# --- diagnostics -------------------------------------------------------------


def _two_change_result(n):
    return SegmentationResult(
        detections=(
            Detection(
                tau=40, kind="sparse", affected=frozenset({1}), statistic=5.0, interval=(1, n)
            ),
            Detection(
                tau=80,
                kind="dense",
                affected=frozenset({1, 2}),
                statistic=5.0,
                interval=(1, n),
            ),
        ),
        penalties=_pen(),
        model="gaussian_known_var",
        n=n,
        d=3,
    )


def test_variate_segments_use_only_own_changepoints():
    result = _two_change_result(120)
    assert variate_segments(result, 1) == [(1, 40), (41, 80), (81, 120)]
    assert variate_segments(result, 2) == [(1, 80), (81, 120)]
    assert variate_segments(result, 3) == [(1, 120)]


def test_segment_parameters_are_segment_means():
    values = np.zeros((3, 120))
    values[0, 40:80] += 2.0
    values[0, 80:] += 5.0
    values[1, 80:] -= 1.0
    matrix = make_matrix(values)
    params = segment_parameters(matrix, _two_change_result(120))
    assert params[0] == [(1, 40, 0.0), (41, 80, 2.0), (81, 120, 5.0)]
    assert params[1] == [(1, 80, 0.0), (81, 120, -1.0)]
    assert params[2] == [(1, 120, 0.0)]


def test_gaussian_residuals_are_centred_per_segment():
    rng = np.random.default_rng(210)
    values = rng.standard_normal((3, 120))
    values[0, 40:] += 3.0
    matrix = make_matrix(values)
    model = gaussian_model(matrix, sigma=2.0)
    result = _two_change_result(120)
    resid = pearson_residuals(matrix, model, result)
    assert resid.shape == (3, 120)
    assert abs(resid[0, :40].mean()) < 1e-12
    assert abs(resid[0, 40:80].mean()) < 1e-12
    seg = matrix.values[0, :40]
    assert np.allclose(resid[0, :40], (seg - seg.mean()) / 2.0)


def test_independent_variates_have_small_residual_correlation():
    rng = np.random.default_rng(205)
    matrix = make_matrix(rng.standard_normal((4, 500)))
    model = gaussian_model(matrix, sigma=1.0)
    corr, mean_off = pearson_residual_correlations(
        matrix, model, _null_result(500, 4)
    )
    assert corr.shape == (4, 4)
    assert np.allclose(np.diag(corr), 1.0)
    assert abs(mean_off) < 0.06


def test_shared_factor_shows_up_as_residual_correlation():
    rng = np.random.default_rng(206)
    factor = rng.standard_normal(500)
    values = np.vstack([factor + 0.3 * rng.standard_normal(500) for _ in range(3)])
    matrix = make_matrix(values)
    model = gaussian_model(matrix, sigma=1.0)
    _, mean_off = pearson_residual_correlations(matrix, model, _null_result(500, 3))
    assert mean_off > 0.5


def test_single_variate_correlation_is_defined_as_zero():
    rng = np.random.default_rng(211)
    matrix = make_matrix(rng.standard_normal((1, 50)))
    model = gaussian_model(matrix, sigma=1.0)
    corr, mean_off = pearson_residual_correlations(matrix, model, _null_result(50, 1))
    assert corr.shape == (1, 1)
    assert mean_off == 0.0


def test_constant_residuals_raise_with_variate_index():
    values = np.vstack([np.full(50, 3.0), np.random.default_rng(212).standard_normal(50)])
    matrix = make_matrix(values)
    model = gaussian_model(matrix, sigma=1.0)
    with pytest.raises(NumericalError, match=r"variates \['x1'\]"):
        pearson_residual_correlations(matrix, model, _null_result(50, 2))


def test_count_model_residuals_standardize_on_null_data():
    src = RandomSource(204)
    spec = ScenarioSpec(
        model="negbin", n=2000, d=3, changes=(), negbin_r=20.0, negbin_p=0.5
    )
    matrix, _ = generate(spec, src.child(0))
    model = negbin_model(matrix)
    result = SegmentationResult(
        detections=(),
        penalties=theoretical_penalties(2000, 3),
        model="negbin",
        n=2000,
        d=3,
    )
    resid = pearson_residuals(matrix, model, result)
    assert abs(resid.mean()) < 0.1
    assert abs(resid.var() - 1.0) < 0.1


def test_count_residual_scale_matches_the_formula():
    counts = make_matrix([[1.0, 2.0, 3.0, 1.0, 2.0, 30.0, 28.0, 35.0]])
    model = negbin_model(counts)
    result = _null_result(8, 1, model="negbin")
    resid = pearson_residuals(counts, model, result)
    row = counts.values[0]
    mu = row.mean()
    scale = np.sqrt(mu * (1.0 + mu / model.r[0]))
    assert np.allclose(resid[0], (row - mu) / scale)
