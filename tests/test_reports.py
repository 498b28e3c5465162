"""CSV input, JSON report round-trips, and model-fit diagnostics."""

import csv
import os
import stat
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import segment_parameters
from subsetcp import (
    GAUSSIAN,
    NEGBIN,
    Detection,
    InputDataError,
    NumericalError,
    PenaltyConfig,
    RandomSource,
    SegmentationResult,
    TimeSeriesMatrix,
    gaussian_model,
    make_matrix,
    negbin_model,
    pearson_residual_correlations,
    pearson_residuals,
)
from subsetcp.diagnostics import variate_segments
from subsetcp.penalties import theoretical_penalties
from subsetcp.reports import (
    _parse_cells,
    _parse_fast,
    atomic_write_text,
    build_report,
    read_csv,
    write_pairs_csv,
)
from subsetcp.simlab import ScenarioSpec, generate


def _pen() -> PenaltyConfig:
    return PenaltyConfig(alpha=1.5, beta=4.0, K=9.0, source="manual")


def _null_result(n) -> SegmentationResult:
    return SegmentationResult(detections=(), penalties=_pen(), n=n)


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


_GOOD_CELLS = st.one_of(
    st.floats().map(lambda x: "%.17g" % x),
    st.integers(-(10**12), 10**12).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", " 1.5 ", "\t-2", "1e999", ".5", "-0"]),
)
# Cells float() rejects, or accepts where loadtxt does not.
_BAD_CELLS = st.sampled_from(["", " ", "oops", "1_000", "\u0661\u0662", "0x10"])
_LABELS = st.sampled_from(["1", "2020-01", " t ", "", "#3", "\u00e9t\u00e9"])
_QUOTED = st.sampled_from(['"2020,01"', '"q"', 'a"b', '"1"', '"1,5"'])


@st.composite
def _csv_texts(draw):
    """Header plus rows.  Each kind of trouble the numpy pass must leave to
    the loop is switched on or off per file: bad cells, quotes, ragged and
    whitespace-only rows, duplicate names."""
    trouble = st.sampled_from([False, False, True])
    bad_cells, quotes, ragged, dupes = (draw(trouble) for _ in range(4))
    cells = st.one_of(_GOOD_CELLS, _BAD_CELLS) if bad_cells else _GOOD_CELLS
    labels = st.one_of(_LABELS, _QUOTED) if quotes else _LABELS
    cells = st.one_of(cells, _QUOTED) if quotes else cells
    d = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(["a", "b", " c ", "x1"]), min_size=d, max_size=d,
                          unique=not dupes))
    lines = ["time," + ",".join(names)]
    kinds = ["row"] * 4 + [""] + (["  ", "ragged"] if ragged else [])
    for _ in range(draw(st.integers(2, 7))):
        line = draw(st.sampled_from(kinds))
        if line in ("row", "ragged"):
            width = d + (draw(st.sampled_from([-1, 1])) if line == "ragged" else 0)
            line = ",".join([draw(labels), *draw(st.lists(cells, min_size=width, max_size=width))])
        lines.append(line)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _loop_read(path):
    with open(path, newline="") as handle:
        names, labels, values = _parse_cells(handle, path)
    return TimeSeriesMatrix(values, names, labels)


def _outcome(read, path):
    try:
        return read(path)
    except InputDataError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts())
def test_numpy_read_matches_the_cell_loop(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, newline="")
        with open(path, newline="") as handle:
            try:
                fast = _parse_fast(handle)
            except ValueError:
                fast = None
        if fast is not None:
            with open(path, newline="") as handle:
                names, labels, values = _parse_cells(handle, path)
            assert fast[:2] == (names, labels)
            assert np.array_equal(fast[2], values, equal_nan=True)
        expected, got = _outcome(_loop_read, path), _outcome(read_csv, path)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert (got.variate_names, got.time_labels) == (
            expected.variate_names,
            expected.time_labels,
        )
        assert got.values.tobytes() == expected.values.tobytes()


# --- analysis report ---------------------------------------------------------


def _report_fixture():
    values = [[0.0, 0.0, 3.0, 3.0], [1.0, 1.0, 1.0, 1.0]]
    matrix = TimeSeriesMatrix(values, ("alpha", "beta"))
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
        n=4,
    )
    return matrix, result


def test_report_dict_shape_and_name_mapping():
    matrix, result = _report_fixture()
    data = build_report(
        matrix, result, "gaussian", seed=3, intervals=10, mean_residual_correlation=0.02
    )
    assert set(data) == {
        "n", "d", "model", "penalties", "seed", "intervals", "detections", "diagnostics",
    }
    assert data["intervals"] == 10
    assert set(data["penalties"]) == {"alpha", "beta", "K", "source"}
    assert data["diagnostics"] == {"mean_residual_correlation": 0.02}
    (det,) = data["detections"]
    assert set(det) == {"tau", "time_label", "kind", "affected", "statistic"}
    assert det["tau"] == 2
    assert det["affected"] == ["alpha"]
    assert det["time_label"] is None


def test_report_uses_time_labels_when_present():
    values = np.array([[0.0, 0.0, 3.0, 3.0]])
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
        n=4,
    )
    report = build_report(
        matrix, result, "gaussian", seed=0, intervals=10, mean_residual_correlation=0.0
    )
    assert report["detections"][0]["time_label"] == "t2"


def test_pairs_csv_lists_each_assignment(tmp_path):
    matrix = TimeSeriesMatrix([[0.0, 0.0, 3.0, 3.0], [0.0, 0.0, 3.0, 3.0]], ("a", "b"))
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
        n=4,
    )
    report = build_report(
        matrix, result, "gaussian", seed=0, intervals=10, mean_residual_correlation=0.0
    )
    path = tmp_path / "pairs.csv"
    write_pairs_csv(report, path)
    assert path.read_text() == "tau,variate\n2,a\n2,b\n"


def test_pairs_csv_reads_back_every_name_that_read_csv_accepts(tmp_path):
    # Names with a delimiter, a quote or a line break in them are legal in
    # a quoted header; the pairs CSV must quote them in turn, including a
    # bare carriage return.
    names = ["a,b", "c", 'd"q', "e\rf", "g\nh", "i\r\nj"]
    source = tmp_path / "data.csv"
    with source.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", *names])
        writer.writerows([[t, *(float(t + i) for i in range(len(names)))] for t in range(3)])
    matrix = read_csv(source)
    assert matrix.variate_names == tuple(names)
    detection = Detection(
        tau=1,
        kind="dense",
        affected=frozenset(range(1, len(names) + 1)),
        statistic=9.0,
        interval=(1, 3),
    )
    result = SegmentationResult(detections=(detection,), penalties=_pen(), n=3)
    report = build_report(
        matrix, result, "gaussian", seed=0, intervals=10, mean_residual_correlation=0.0
    )
    path = tmp_path / "pairs.csv"
    write_pairs_csv(report, path)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [["tau", "variate"], *(["1", name] for name in names)]


def test_atomic_write_replaces_and_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    atomic_write_text(path, "new contents")
    assert path.read_text() == "new contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize(("umask", "mode"), [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_gives_the_mode_of_a_plain_write(tmp_path, umask, mode):
    # mkstemp creates its file 0600; a new output must follow the umask
    # instead, and an overwritten one must keep its own mode, as with open().
    path = tmp_path / "out.txt"
    previous = os.umask(umask)
    try:
        atomic_write_text(path, "text")
        created = stat.S_IMODE(path.stat().st_mode)
        path.chmod(0o640)
        atomic_write_text(path, "new text")
    finally:
        os.umask(previous)
    assert created == mode
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_text() == "new text"


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
        n=n,
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
    resid = pearson_residuals(matrix, model.kind, model.scale, result)
    assert resid.shape == (3, 120)
    assert abs(resid[0, :40].mean()) < 1e-12
    assert abs(resid[0, 40:80].mean()) < 1e-12
    seg = matrix.values[0, :40]
    assert np.allclose(resid[0, :40], (seg - seg.mean()) / 2.0)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    offset=st.sampled_from([0.0, 1e4, 1e8]),
    kind=st.sampled_from([GAUSSIAN, NEGBIN]),
    twins=st.integers(0, 3),
)
def test_residual_correlation_matches_the_corrcoef_mean(d, seed, offset, kind, twins):
    # The O(dn) identity against the mean of the full np.corrcoef matrix.
    # Up to ``twins`` variates copy another variate's series, scale and
    # changepoints, so their residuals are equal and correlate at 1, which
    # np.corrcoef clips.
    n = 80
    g = np.random.default_rng(seed)
    if kind == GAUSSIAN:
        values = offset + g.standard_normal((d, n))
        scale = g.uniform(0.5, 2.0, size=d)
    else:
        values = offset + g.negative_binomial(5, 0.3, size=(d, n))
        scale = g.uniform(0.5, 50.0, size=d)
    taus = sorted(g.choice(np.arange(10, n - 10), size=2, replace=False).tolist())
    member = g.random((len(taus), d)) < 0.5
    for _ in range(twins):
        src, dst = g.integers(0, d, size=2)
        values[dst], scale[dst], member[:, dst] = values[src], scale[src], member[:, src]
    detections = tuple(
        Detection(
            tau=tau,
            kind="sparse",
            affected=frozenset(int(i) + 1 for i in np.flatnonzero(row))
            or frozenset(range(1, d + 1)),
            statistic=1.0,
            interval=(1, n),
        )
        for tau, row in zip(taus, member)
    )
    matrix = make_matrix(values)
    result = SegmentationResult(detections=detections, penalties=_pen(), n=n)
    expected = oracles.corrcoef_mean(pearson_residuals(matrix, kind, scale, result))
    got = pearson_residual_correlations(matrix, kind, scale, result)
    assert abs(got - expected) <= 1e-12


def test_residual_correlation_holds_about_one_panel_beyond_its_input():
    # The residuals are the one panel-size array.  A d x d correlation
    # matrix (one more panel at d = n, 2.1 panels in all) or a temporary
    # copy of the residuals would take about one panel more.
    n = d = 1000
    g = np.random.default_rng(213)
    matrix = make_matrix(g.standard_normal((d, n)))
    result = SegmentationResult(
        detections=(
            Detection(
                tau=400, kind="sparse", affected=frozenset(range(1, 51)), statistic=1.0,
                interval=(1, n),
            ),
        ),
        penalties=_pen(),
        n=n,
    )
    tracemalloc.start()
    try:
        pearson_residual_correlations(matrix, GAUSSIAN, np.ones(d), result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * n * d) < 1.2


def test_independent_variates_have_small_residual_correlation():
    rng = np.random.default_rng(205)
    matrix = make_matrix(rng.standard_normal((4, 500)))
    model = gaussian_model(matrix, sigma=1.0)
    mean_off = pearson_residual_correlations(matrix, model.kind, model.scale, _null_result(500))
    resid = pearson_residuals(matrix, model.kind, model.scale, _null_result(500))
    assert abs(mean_off - oracles.corrcoef_mean(resid)) <= 1e-12
    assert abs(mean_off) < 0.06


def test_shared_factor_shows_up_as_residual_correlation():
    rng = np.random.default_rng(206)
    factor = rng.standard_normal(500)
    values = np.vstack([factor + 0.3 * rng.standard_normal(500) for _ in range(3)])
    matrix = make_matrix(values)
    model = gaussian_model(matrix, sigma=1.0)
    mean_off = pearson_residual_correlations(matrix, model.kind, model.scale, _null_result(500))
    assert mean_off > 0.5


def test_single_variate_correlation_is_defined_as_zero():
    rng = np.random.default_rng(211)
    matrix = make_matrix(rng.standard_normal((1, 50)))
    model = gaussian_model(matrix, sigma=1.0)
    assert pearson_residual_correlations(matrix, model.kind, model.scale, _null_result(50)) == 0.0


def test_constant_residuals_raise_with_variate_index():
    values = np.vstack([np.full(50, 3.0), np.random.default_rng(212).standard_normal(50)])
    matrix = make_matrix(values)
    model = gaussian_model(matrix, sigma=1.0)
    with pytest.raises(NumericalError, match=r"variates \['x1'\]"):
        pearson_residual_correlations(matrix, model.kind, model.scale, _null_result(50))


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
        n=2000,
    )
    resid = pearson_residuals(matrix, model.kind, model.scale, result)
    assert abs(resid.mean()) < 0.1
    assert abs(resid.var() - 1.0) < 0.1


def test_count_residual_scale_matches_the_formula():
    counts = make_matrix([[1.0, 2.0, 3.0, 1.0, 2.0, 30.0, 28.0, 35.0]])
    model = negbin_model(counts)
    result = _null_result(8)
    resid = pearson_residuals(counts, model.kind, model.scale, result)
    row = counts.values[0]
    mu = row.mean()
    scale = np.sqrt(mu * (1.0 + mu / model.scale[0]))
    assert np.allclose(resid[0], (row - mu) / scale)
