"""Random-interval segmentation driver: drawing, recursion, determinism."""

import numpy as np
import pytest

import oracles
from subsetcp import (
    ChangeSpec,
    GAUSSIAN,
    InputDataError,
    IntervalSet,
    NullModel,
    PenaltyConfig,
    RandomSource,
    ScenarioSpec,
    TimeSeriesMatrix,
    calibrate_beta,
    draw_intervals,
    gaussian_model,
    generate,
    make_matrix,
    subset_wbs,
)


def test_zero_extra_intervals_means_plain_binary_segmentation():
    iv = draw_intervals(10, 0, RandomSource(1))
    assert iv.pairs == ((1, 10),)
    assert iv.m == 0


def test_interval_draws_are_valid_and_reproducible():
    iv = draw_intervals(564, 1000, RandomSource(2))
    assert len(iv.pairs) == 1001
    assert iv.pairs[0] == (1, 564)
    for l, u in iv.pairs:
        assert 1 <= l < u <= 564
    again = draw_intervals(564, 1000, RandomSource(2))
    assert iv == again


@pytest.mark.parametrize("n", (3, 4, 5, 10, 1000))
def test_batched_interval_draws_match_one_pair_at_a_time(n):
    for m in (0, 1, 200):
        for seed in (0, 1, 7, 2024):
            src = RandomSource(seed).child(1, m)
            assert list(draw_intervals(n, m, src).pairs) == oracles.draw_intervals(
                n, m, src.generator()
            )


def test_interval_drawing_rejects_tiny_series():
    with pytest.raises(InputDataError):
        draw_intervals(2, 5, RandomSource(3))


def test_interval_set_requires_leading_full_interval():
    with pytest.raises(ValueError):
        IntervalSet(n=10, m=1, pairs=((2, 9), (1, 10)))
    with pytest.raises(ValueError):
        IntervalSet(n=10, m=1, pairs=((1, 10),))


def test_two_strong_changes_found_without_random_intervals():
    rng = np.random.default_rng(207)
    base = np.zeros(60)
    base[20:40] += 10.0
    base[40:] += 20.0
    y = base + 0.01 * rng.standard_normal(60)
    matrix = make_matrix([y])
    model = gaussian_model(matrix, sigma=1.0)
    pen = PenaltyConfig(alpha=2.0, beta=8.0, K=11.0, source="manual")
    result = subset_wbs(matrix, model, pen, draw_intervals(60, 0, RandomSource(0)))
    assert result.changepoints == (20, 40)


def test_detections_stay_inside_their_intervals_and_are_sorted():
    rng = np.random.default_rng(301)
    y = rng.standard_normal((3, 200))
    y[0, 60:] += 2.0
    y[1, 140:] += 2.0
    matrix = make_matrix(y)
    model = gaussian_model(matrix, sigma=1.0)
    pen = PenaltyConfig(alpha=2.2, beta=9.0, K=18.0, source="manual")
    iv = draw_intervals(200, 150, RandomSource(4))
    result = subset_wbs(matrix, model, pen, iv, seed=99)
    taus = result.changepoints
    assert list(taus) == sorted(taus)
    assert len(set(taus)) == len(taus)
    for det in result.detections:
        l, u = det.interval
        assert 1 <= l <= det.tau < u <= 200
    assert result.seed == 99
    assert result.n_intervals == 150
    assert result.n == 200 and result.d == 3


def test_same_inputs_give_identical_segmentations():
    rng = np.random.default_rng(302)
    y = rng.standard_normal((2, 120))
    y[:, 70:] += 1.5
    matrix = make_matrix(y)
    model = gaussian_model(matrix, sigma=1.0)
    pen = PenaltyConfig(alpha=1.4, beta=7.0, K=14.0, source="manual")
    iv = draw_intervals(120, 80, RandomSource(6))
    a = subset_wbs(matrix, model, pen, iv)
    b = subset_wbs(matrix, model, pen, iv)
    assert a == b


def test_interval_set_length_must_match_data():
    matrix = make_matrix([[0.0, 1.0, 0.0, 1.0, 0.0]])
    model = gaussian_model(matrix, sigma=1.0)
    pen = PenaltyConfig(alpha=1.0, beta=1.0, K=3.0, source="manual")
    iv = draw_intervals(7, 0, RandomSource(0))
    with pytest.raises(InputDataError):
        subset_wbs(matrix, model, pen, iv)


def test_null_data_with_calibrated_penalties_rarely_detects():
    null = NullModel(kind=GAUSSIAN, sigma=1.0)
    src = RandomSource(208)
    pen = calibrate_beta(100, 5, null, src.child(0), target_fp=0.1, reps=60, intervals=30)
    names = tuple(f"x{i}" for i in range(1, 6))
    empty = 0
    for rep in range(100):
        model = null.sample_model(100, 5, src.child(1, rep))
        values = model.cum_y[:, 1:] - model.cum_y[:, :-1]
        matrix = TimeSeriesMatrix(np.asarray(values), names)
        iv = draw_intervals(100, 30, src.child(2, rep))
        result = subset_wbs(matrix, model, pen, iv)
        empty += not result.detections
    assert 0.80 <= empty / 100 <= 0.97


def test_single_dense_change_is_found_exactly_once():
    n, d = 1000, 12
    null = NullModel(kind=GAUSSIAN, sigma=1.0)
    src = RandomSource(203)
    pen = calibrate_beta(n, d, null, src.child(999), target_fp=0.05, reps=100, intervals=200)
    spec = ScenarioSpec(
        model=GAUSSIAN,
        n=n,
        d=d,
        changes=(ChangeSpec(tau=600, affected=tuple(range(1, 13)), delta=1.0),),
    )
    exactly_one = 0
    for rep in range(100):
        matrix, _ = generate(spec, src.child(rep, 0))
        model = gaussian_model(matrix, sigma=1.0)
        iv = draw_intervals(n, 200, src.child(rep, 1))
        result = subset_wbs(matrix, model, pen, iv)
        close = [det for det in result.detections if abs(det.tau - 600) <= 7]
        exactly_one += len(close) == 1 and len(result.detections) == 1
    assert exactly_one >= 95
