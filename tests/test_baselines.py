"""CUSUM aggregation baselines: statistics, configs, wrapped segmentation."""

import math

import numpy as np
import pytest

import oracles
from subsetcp import (
    GAUSSIAN,
    InputDataError,
    NullModel,
    RandomSource,
    draw_intervals,
    gaussian_model,
    make_matrix,
    negbin_model,
)
from subsetcp.baselines import (
    BaselineConfig,
    baseline_statistic,
    baseline_wbs,
    cusum_matrix,
    scan_interval_baseline,
)
from subsetcp.penalties import calibrate_baseline_threshold


def test_cusum_hand_values():
    matrix = make_matrix([[0.0, 0.0, 2.0, 2.0]])
    model = gaussian_model(matrix, sigma=1.0)
    assert cusum_matrix(model, 1, 4)[0, 1] == pytest.approx(2.0)
    assert model.cusum(1, 4)[0, 1] == pytest.approx(2.0)
    falling = gaussian_model(make_matrix([[2.0, 2.0, 0.0, 0.0]]), sigma=1.0)
    assert falling.cusum(1, 4)[0, 1] == pytest.approx(-2.0)
    flat = gaussian_model(make_matrix([[3.0, 3.0, 3.0, 3.0]]), sigma=1.0)
    assert np.all(cusum_matrix(flat, 1, 4) == 0.0)
    with pytest.raises(ValueError, match="interval"):
        cusum_matrix(model, 4, 4)


def test_cusum_squares_to_the_split_gain():
    rng = np.random.default_rng(501)
    y = rng.standard_normal((3, 40))
    matrix = make_matrix(y)
    model = gaussian_model(matrix, sigma=1.0)
    for l, u in ((1, 40), (5, 30), (17, 21)):
        w = cusum_matrix(model, l, u)
        gains = model.gain_matrix(l, u)
        assert np.allclose(w**2, gains, atol=1e-9)


def test_cusum_matrix_row_matches_scalar_cusum():
    rng = np.random.default_rng(502)
    y = rng.standard_normal((2, 25))
    model = gaussian_model(make_matrix(y), sigma=None)
    w = cusum_matrix(model, 3, 20)
    for t in range(3, 20):
        for i in (1, 2):
            expect = abs(oracles.cusum(y[i - 1], 3, 20, t, model.scale[i - 1]))
            assert w[i - 1, t - 3] == pytest.approx(expect)


def test_aggregated_statistics_on_a_known_row():
    w = np.array([3.0, 1.0])
    for method, threshold, alpha, want in (
        ("mean", 1.0, None, 1.0),
        ("max", 4.0, None, -1.0),
        ("binweight", 1.0, 2.0, 2.0),
    ):
        assert oracles.baseline_statistic(method, threshold, w, alpha) == pytest.approx(want)


def test_baseline_statistic_uses_the_derived_binweight_cut_off():
    rng = np.random.default_rng(506)
    n, d = 60, 4
    y = rng.standard_normal((d, n))
    y[:2, 30:] += 1.0
    model = gaussian_model(make_matrix(y), sigma=1.0)
    cut = math.sqrt(2 * math.log(n))
    between = 0
    for l, u in ((1, 60), (10, 45)):
        for method in ("mean", "max", "binweight"):
            got = baseline_statistic(cusum_matrix(model, l, u), method, n)
            assert got.shape == (u - l,)
            for t in range(l, u):
                w = [abs(oracles.cusum(y[i], l, u, t)) for i in range(d)]
                want = oracles.baseline_statistic(method, 0.0, w, cut)
                assert got[t - l] == pytest.approx(want, rel=1e-9, abs=1e-12)
                # values between sqrt(2 ln d) and sqrt(2 ln n) tell the two apart
                between += sum(math.sqrt(2 * math.log(d)) < x <= cut for x in w)
    assert between > 0


def test_aggregation_is_monotone_in_each_entry():
    rng = np.random.default_rng(503)
    for _ in range(50):
        w = np.abs(rng.standard_normal(6))
        bumped = w.copy()
        j = int(rng.integers(0, 6))
        bumped[j] += rng.uniform(0.1, 2.0)
        for method, alpha in (("mean", None), ("max", None), ("binweight", 1.0)):
            before = oracles.baseline_statistic(method, 0.0, w, alpha)
            after = oracles.baseline_statistic(method, 0.0, bumped, alpha)
            assert after >= before - 1e-12


def test_config_validation():
    with pytest.raises(InputDataError, match="unknown baseline"):
        BaselineConfig(method="median", threshold=1.0)


def test_baselines_reject_count_models():
    counts = make_matrix([[1.0, 2.0, 3.0, 1.0, 2.0, 30.0, 28.0, 35.0]])
    model = negbin_model(counts)
    with pytest.raises(InputDataError, match="Gaussian"):
        model.cusum(1, 8)
    with pytest.raises(InputDataError, match="Gaussian"):
        cusum_matrix(model, 1, 8)


def test_scan_reports_best_split_or_none():
    rng = np.random.default_rng(504)
    y = rng.standard_normal((2, 80))
    y[:, 40:] += 3.0
    model = gaussian_model(make_matrix(y), sigma=1.0)
    cfg = BaselineConfig(method="mean", threshold=3.0)
    det = scan_interval_baseline(model, cfg, 1, 80)
    assert det is not None
    assert abs(det.tau - 40) <= 2
    assert det.kind == "dense"
    assert det.affected == frozenset({1, 2})
    assert det.statistic > 0
    quiet = BaselineConfig(method="mean", threshold=1e6)
    assert scan_interval_baseline(model, quiet, 1, 80) is None
    with pytest.raises(ValueError, match="interior"):
        scan_interval_baseline(model, cfg, 5, 6)


def test_baseline_segmentation_finds_a_dense_change():
    rng = np.random.default_rng(505)
    y = rng.standard_normal((4, 200))
    y[:, 100:] += 2.0
    model = gaussian_model(make_matrix(y), sigma=1.0)
    cfg = BaselineConfig(method="mean", threshold=3.0)
    iv = draw_intervals(200, 60, RandomSource(12))
    result = baseline_wbs(model, cfg, iv)
    assert any(abs(det.tau - 100) <= 3 for det in result.detections)
    assert result.penalties is None


def test_baseline_segmentation_checks_interval_length():
    model = gaussian_model(make_matrix([[0.0, 1.0, 0.0, 1.0, 0.0]]), sigma=1.0)
    cfg = BaselineConfig(method="max", threshold=2.0)
    with pytest.raises(InputDataError):
        baseline_wbs(model, cfg, draw_intervals(9, 0, RandomSource(0)))


def test_calibration_rejects_count_nulls_and_tiny_reps():
    null = NullModel(kind="negbin", r=20.0, p=0.5)
    with pytest.raises(InputDataError, match="Gaussian"):
        calibrate_baseline_threshold(50, 3, "mean", null, RandomSource(0))
    with pytest.raises(InputDataError, match="replicates"):
        calibrate_baseline_threshold(
            50, 3, "mean", NullModel(kind=GAUSSIAN), RandomSource(0), reps=5
        )


@pytest.mark.parametrize("target_fp", (0.0, 1.5))
def test_calibration_rejects_a_bad_target_before_sampling(monkeypatch, target_fp):
    def no_draws(*args):
        raise AssertionError("a null dataset was sampled")

    monkeypatch.setattr(NullModel, "sample_model", no_draws)
    with pytest.raises(InputDataError, match=r"target_fp must be in \(0, 1\)"):
        calibrate_baseline_threshold(
            50, 3, "mean", NullModel(kind=GAUSSIAN), RandomSource(0), target_fp=target_fp, reps=20
        )


def test_calibrated_mean_baseline_is_quiet_on_null_data():
    null = NullModel(kind=GAUSSIAN)
    src = RandomSource(208)
    thr = calibrate_baseline_threshold(
        100, 5, "mean", null, src.child(3), target_fp=0.1, reps=60, intervals=30
    )
    cfg = BaselineConfig(method="mean", threshold=thr)
    empty = 0
    for rep in range(100):
        model = null.sample_model(100, 5, src.child(4, rep))
        iv = draw_intervals(100, 30, src.child(5, rep))
        result = baseline_wbs(model, cfg, iv)
        empty += not result.detections
    assert 0.80 <= empty / 100 <= 0.97
