"""Segment costs: closed forms, estimators, and prefix-sum kernels against
the brute-force oracles in ``oracles.py``."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import subsetcp.costs as costs
from oracles import (
    d_statistic,
    fixed_r_model,
    gaussian_cost,
    moments_dispersion,
    negbin_cost,
    negbin_loglik,
    negbin_mle_p,
    negbin_span_cost,
    one_pass_cusum,
    one_pass_negbin_gains,
)
from subsetcp import (
    InputDataError,
    NumericalError,
    estimate_dispersion,
    gaussian_model,
    make_matrix,
    negbin_model,
)


def test_gaussian_cost_hand_values():
    assert gaussian_cost([1, 1, 1], 1, 3) == pytest.approx(0.0, abs=1e-12)
    assert gaussian_cost([0, 2], 1, 2) == pytest.approx(2.0, abs=1e-12)
    assert gaussian_cost([1, 2, 3, 4], 1, 4) == pytest.approx(5.0, abs=1e-12)
    # the model's gains are the same costs less those of the two halves
    model = gaussian_model(make_matrix([[0, 2]]), sigma=1.0)
    assert model.gain_matrix(1, 2)[0, 0] == pytest.approx(2.0, abs=1e-12)
    model = gaussian_model(make_matrix([[1, 2, 3, 4]]), sigma=1.0)
    assert model.gain_matrix(1, 4)[0, 1] == pytest.approx(5.0 - 0.5 - 0.5, abs=1e-12)


def test_cost_rejects_reversed_bounds():
    model = gaussian_model(make_matrix([[1, 2, 3]]), sigma=1.0)
    with pytest.raises(ValueError):
        model.gain_matrix(3, 2)
    with pytest.raises(ValueError):
        model.cusum(3, 2)
    with pytest.raises(ValueError):
        fixed_r_model(make_matrix([[1, 2, 3]]), 1.0).gain_matrix(3, 2)


def test_length_one_segments_cost_zero():
    y = [4.0, -1.0, 2.5]
    for t in (1, 2, 3):
        assert gaussian_cost(y, t, t, sigma=2.0) == pytest.approx(0.0, abs=1e-12)
    # so the model's gain on a pair is the cost of the pair itself
    model = gaussian_model(make_matrix([y]), sigma=2.0)
    for t in (1, 2):
        assert model.gain_matrix(t, t + 1)[0, 0] == pytest.approx(
            gaussian_cost(y, t, t + 1, sigma=2.0), abs=1e-12
        )


def _sigma_hat(y) -> float:
    """The scale ``gaussian_model`` estimates for one series."""
    return float(gaussian_model(make_matrix([y])).scale[0])


def test_sigma_estimate_recovers_unit_noise():
    rng = np.random.default_rng(201)
    estimates = [_sigma_hat(rng.standard_normal(10000)) for _ in range(100)]
    assert abs(np.mean(estimates) - 1.0) < 0.05


def test_sigma_estimate_scales_with_data():
    rng = np.random.default_rng(17)
    y = rng.standard_normal(500)
    assert _sigma_hat(3.0 * y) == pytest.approx(3.0 * _sigma_hat(y), rel=1e-12)


def test_sigma_estimate_rejects_constant_series():
    with pytest.raises(NumericalError, match="zero"):
        _sigma_hat(np.full(50, 2.0))


def test_sigma_estimate_ignores_mean_shifts():
    rng = np.random.default_rng(23)
    y = rng.standard_normal(4000)
    shifted = y + np.repeat([0.0, 50.0], 2000)
    assert abs(_sigma_hat(shifted) - 1.0) < 0.1


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 40),
    n=st.integers(2, 3000),
    seed=st.integers(0, 2**32 - 1),
    offset=st.sampled_from([0.0, 1e8]),
    rounded=st.booleans(),
    rows_per_block=st.sampled_from([None, 1, 7]),
)
def test_block_sigma_estimates_equal_the_row_by_row_ones(
    rows, n, seed, offset, rounded, rows_per_block
):
    # Rounded rows have repeated differences, so ties fall on the median.
    values = offset + np.random.default_rng(seed).standard_normal((rows, n))
    if rounded:
        values = np.round(values * 4.0)
    expected = [costs._mad_sigma(row[None, :])[0] for row in values]
    cells = costs._ROW_BLOCK_CELLS if rows_per_block is None else rows_per_block * n
    with mock.patch.object(costs, "_ROW_BLOCK_CELLS", cells):
        block = costs._mad_sigma(values)
    assert block.shape == (rows,)
    assert block.tolist() == expected
    if min(expected) <= 0.0:
        with pytest.raises(NumericalError, match="scale estimate is zero"):
            gaussian_model(make_matrix(values))
        return
    assert gaussian_model(make_matrix(values)).scale.tolist() == expected


def test_dispersion_hand_value():
    # mean 2, variance 4 (ddof=1) -> 4 / (4 - 2) = 2
    assert estimate_dispersion(np.array([0.0, 2.0, 4.0])) == pytest.approx(2.0)


def test_dispersion_caps_underdispersed_series():
    assert estimate_dispersion(np.array([3.0, 3.0, 3.0, 4.0])) == 10_000.0
    # an all-zero series is under-dispersed too (v = m = 0)
    assert estimate_dispersion(np.zeros(10)) == 10_000.0


def test_dispersion_caps_barely_overdispersed_series():
    # v = m exactly, but v rounds just above m: m^2 / (v - m) is about 1.4e15
    assert estimate_dispersion(np.array([0.0, 0.0, 0.0, 0.0, 1.0])) == 10_000.0
    # a Poisson(20) draw with v - m = 0.0013, so m^2 / (v - m) is about 3e5
    y = np.random.default_rng(32).poisson(20, 200).astype(float)
    m, v = np.mean(y), np.var(y, ddof=1)
    assert 0 < v - m < 0.002
    assert m * m / (v - m) == pytest.approx(295121.0, rel=1e-6)
    assert estimate_dispersion(y) == 10_000.0


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 12),
    n=st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
    zero_rows=st.sets(st.integers(0, 11), max_size=3),
)
def test_block_dispersion_estimates_equal_the_scalar_formula(rows, n, seed, zero_rows):
    # NB draws from near-Poisson (under-dispersed estimates) to r = 0.5,
    # with all-zero rows forced in.
    rng = np.random.default_rng(seed)
    r = rng.choice([0.5, 5.0, 1e3], size=(rows, 1))
    y = rng.negative_binomial(r, r / (r + rng.uniform(0.1, 50.0, size=(rows, 1))), size=(rows, n))
    y = y.astype(float)
    y[[i for i in zero_rows if i < rows]] = 0.0
    expected = [moments_dispersion(row) for row in y]
    assert estimate_dispersion(y).tolist() == expected
    assert [estimate_dispersion(row) for row in y] == expected
    assert negbin_model(make_matrix(y)).scale.tolist() == expected


def test_dispersion_recovers_generating_parameter():
    rng = np.random.default_rng(202)
    for _ in range(20):
        y = rng.negative_binomial(20, 0.5, size=100_000).astype(float)
        assert 18.0 <= estimate_dispersion(y) <= 22.0


def test_dispersion_rejects_bad_counts():
    with pytest.raises(InputDataError):
        estimate_dispersion(np.array([0.0, 1.5, 2.0]))
    with pytest.raises(InputDataError):
        estimate_dispersion(np.array([0.0, -1.0, 2.0]))


def test_negbin_cost_zero_segment_is_free():
    y = [0, 0, 0, 1]
    assert negbin_cost(y, 1, 3, r=2.0) == pytest.approx(0.0, abs=1e-12)
    model = fixed_r_model(make_matrix([y]), 2.0)
    assert model.boundary_cost_matrix(np.array([0, 3, 4]), 1)[0, 0] == pytest.approx(
        0.0, abs=1e-12
    )


def test_negbin_mle_probability_plugin():
    # L=3, r=2, total 6 -> p = 6 / (6 + 6)
    assert negbin_mle_p(2.0, 3, 6.0) == pytest.approx(0.5)


def _direct_negbin_cost(seg: np.ndarray, r: float) -> float:
    # p may approach 1 (an all-zero segment costs 0 there).
    return minimize_scalar(
        lambda p: -2.0 * negbin_loglik(seg, r, p),
        bounds=(1e-9, 1 - 1e-15),
        method="bounded",
        options={"xatol": 1e-12},
    ).fun


def test_negbin_cost_matches_direct_likelihood_maximization():
    rng = np.random.default_rng(31)
    for _ in range(25):
        y = rng.negative_binomial(5, 0.4, size=12).astype(float)
        if y.sum() == 0:
            continue
        r = float(rng.uniform(1.0, 8.0))
        whole = _direct_negbin_cost(y, r)
        assert negbin_cost(y, 1, 12, r) == pytest.approx(whole, abs=1e-8)
        gains = fixed_r_model(make_matrix([y]), r).gain_matrix(1, 12)[0]
        for t in range(1, 12):
            direct = whole - _direct_negbin_cost(y[:t], r) - _direct_negbin_cost(y[t:], r)
            assert gains[t - 1] == pytest.approx(max(direct, 0.0), abs=1e-8)


def test_negbin_cost_never_beaten_by_nearby_probability():
    rng = np.random.default_rng(37)
    y = rng.negative_binomial(4, 0.5, size=20).astype(float)
    r = 4.0
    p_hat = negbin_mle_p(r, 20, float(y.sum()))
    best = negbin_cost(y, 1, 20, r)
    for eps in (-1e-3, 1e-3):
        assert best <= -2.0 * negbin_loglik(y, r, p_hat + eps) + 1e-12


def test_gaussian_cost_split_never_increases():
    rng = np.random.default_rng(41)
    y = rng.standard_normal(40)
    whole = gaussian_cost(y, 1, 40)
    gains = gaussian_model(make_matrix([y]), sigma=1.0).gain_matrix(1, 40)[0]
    for t in range(1, 40):
        split = gaussian_cost(y, 1, t) + gaussian_cost(y, t + 1, 40)
        assert whole >= split - 1e-9
        assert gains[t - 1] == pytest.approx(whole - split, abs=1e-9)
    assert np.all(gains >= 0.0)


def test_gaussian_cost_translation_invariant():
    rng = np.random.default_rng(43)
    y = rng.standard_normal(30)
    a = gaussian_model(make_matrix([y]), sigma=1.0)
    b = gaussian_model(make_matrix([y + 117.0]), sigma=1.0)
    for s, t in ((1, 30), (5, 12), (29, 30)):
        assert gaussian_cost(y, s, t) == pytest.approx(
            gaussian_cost(y + 117.0, s, t), rel=1e-9, abs=1e-9
        )
        assert np.allclose(a.gain_matrix(s, t), b.gain_matrix(s, t), rtol=1e-9, atol=1e-9)


def test_prefix_sums_match_direct_summation_everywhere():
    rng = np.random.default_rng(47)
    y = rng.standard_normal(25) * 2.0 + 1.0
    counts = rng.negative_binomial(3, 0.3, size=25).astype(float)
    cases = (
        (gaussian_model(make_matrix([y, -y]), sigma=[1.0, 1.3]), y, {"sigma": 1.3}),
        (fixed_r_model(make_matrix([counts, counts]), [1.5, 3.0]), counts, {"r": 3.0}),
    )
    # the last variate must use its own parameter
    for model, series, param in cases:
        for l in range(1, 25):
            for u in range(l + 1, 26):
                gains = model.gain_matrix(l, u)[-1]
                for t in range(l, u):
                    direct = d_statistic(series, l, u, t, **param)
                    assert gains[t - l] == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_gaussian_prefix_table_is_the_scaled_series_summed_in_place():
    rng = np.random.default_rng(61)
    values = 1e8 + rng.standard_normal((7, 300)) * rng.uniform(0.1, 10.0, size=(7, 1))
    model = gaussian_model(make_matrix(values))
    scaled = (values - values.mean(axis=1, keepdims=True)) / model.scale[:, None]
    expected = np.zeros((7, 301))
    np.cumsum(scaled, axis=1, out=expected[:, 1:])
    assert model.cum_y.tobytes() == expected.tobytes()
    # The table is the only panel-size array the build allocates: a scaled
    # copy summed into a new table would take two panels.
    matrix = make_matrix(rng.standard_normal((1000, 1000)))
    tracemalloc.start()
    try:
        gaussian_model(matrix, sigma=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * 1000 * 1001) < 1.5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows_per_block", [None, 1, 9])
def test_blocked_cusum_equals_the_one_pass_formula(monkeypatch, dtype, rows_per_block):
    # 700 variates: the default block takes 164 rows of the full interval,
    # and 9 rows a block leaves a short last block too.
    rng = np.random.default_rng(67)
    values = rng.standard_normal((700, 400)) + rng.uniform(-1e8, 1e8, size=(700, 1))
    values[:10, 250:] += 2.0
    model = gaussian_model(make_matrix(values))
    for l, u in ((1, 400), (17, 260), (200, 202), (399, 400)):
        if rows_per_block is not None:
            monkeypatch.setattr(costs, "_ROW_BLOCK_CELLS", rows_per_block * (u - l))
        w = model.cusum(l, u, dtype)
        expected = one_pass_cusum(model, l, u, dtype)
        assert w.dtype == expected.dtype == dtype
        assert w.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows_per_block", [None, 1, 9])
def test_blocked_negbin_gains_equal_the_one_pass_formula(monkeypatch, dtype, rows_per_block):
    # 700 variates: the default block takes 164 rows of the full interval,
    # and 9 rows a block leaves a short last block too.
    rng = np.random.default_rng(71)
    r = rng.choice([0.5, 20.0, 1e3], size=(700, 1))
    values = rng.negative_binomial(r, r / (r + rng.uniform(0.5, 50.0, size=(700, 1))), (700, 400))
    values[:10, 250:] += 7
    values[10:20] = 0
    model = negbin_model(make_matrix(values.astype(float)))
    for l, u in ((1, 400), (17, 260), (200, 202), (399, 400)):
        if rows_per_block is not None:
            monkeypatch.setattr(costs, "_ROW_BLOCK_CELLS", rows_per_block * (u - l))
        gains = model.gain_matrix(l, u, dtype)
        expected = one_pass_negbin_gains(model, l, u, dtype)
        assert gains.dtype == expected.dtype == dtype
        assert gains.tobytes() == expected.tobytes()


def test_negbin_gain_kernel_holds_about_one_panel():
    # The (d, n - 1) output is one panel; the temporaries are one block of
    # rows, where whole-panel pieces and span costs would take several.
    y = np.random.default_rng(73).negative_binomial(20, 0.5, size=(1000, 1000))
    model = negbin_model(make_matrix(y.astype(float)))
    tracemalloc.start()
    try:
        model.gain_matrix(1, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * 1000 * 1000) < 2.0


def test_model_builders_validate_inputs():
    counts = make_matrix([[0, 1, 2, 1]])
    with pytest.raises(InputDataError, match="Gaussian"):
        negbin_model(counts).cusum(1, 2)
    with pytest.raises(InputDataError):
        negbin_model(make_matrix([[0.5, 1.0, 2.0]]))
    with pytest.raises(InputDataError, match="positive"):
        gaussian_model(counts, sigma=-1.0)


def test_gaussian_model_estimates_scale_per_variate():
    rng = np.random.default_rng(53)
    y1 = rng.standard_normal(3000)
    y2 = 5.0 * rng.standard_normal(3000)
    model = gaussian_model(make_matrix([y1, y2]))
    assert abs(model.scale[0] - 1.0) < 0.1
    assert abs(model.scale[1] - 5.0) < 0.5


def test_negbin_model_estimates_dispersion_once_per_variate():
    rng = np.random.default_rng(59)
    y = rng.negative_binomial(20, 0.5, size=(2, 20000)).astype(float)
    model = negbin_model(make_matrix(y))
    assert np.all(model.scale > 15) and np.all(model.scale < 25)


def test_boundary_costs_match_segment_costs():
    # Model costs omit terms that add over time points, so compare the cost
    # of each span against those of the two pieces an inner boundary makes.
    rng = np.random.default_rng(61)
    y = rng.standard_normal(30)
    counts = rng.negative_binomial(3, 0.3, size=30).astype(float)
    cases = (
        (gaussian_model(make_matrix([y]), sigma=1.0), 1, y, {"sigma": 1.0}),
        # variate 2 must use its own dispersion, not variate 1's
        (fixed_r_model(make_matrix([counts, counts]), [1.5, 3.0]), 2, counts, {"r": 3.0}),
    )
    bounds = np.array([0, 4, 11, 19, 30])
    for model, i, series, param in cases:
        ending = [model.boundary_cost_matrix(bounds, j) for j in range(len(bounds))]
        assert [block.shape for block in ending] == [(model.d, j) for j in range(len(bounds))]
        for a, k, b in itertools.combinations(range(len(bounds)), 3):
            direct = d_statistic(series, bounds[a] + 1, bounds[b], bounds[k], **param)
            got = ending[b][i - 1, a] - ending[k][i - 1, a] - ending[b][i - 1, k]
            assert got == pytest.approx(direct, abs=1e-9)


@st.composite
def _count_panels(draw):
    """Counts up to 1e5 a cell under extreme dispersions, with all-zero
    variates and all-zero leading spans forced in, plus an interval (l, u)."""
    n = draw(st.integers(2, 2000))
    d = draw(st.integers(1, 4))
    r = np.array(draw(st.lists(st.sampled_from([1e-3, 0.5, 20.0, 1e4]), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([1, 10, 1000, 10**5]))
    y = rng.integers(0, top, size=(d, n), endpoint=True).astype(float)
    l = draw(st.integers(1, n - 1))
    u = draw(st.integers(l + 1, n))
    y[:, : draw(st.one_of(st.sampled_from([0, l, u]), st.integers(0, n)))] = 0.0
    for i in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        y[i] = 0.0
    bounds = np.unique([0, l - 1, u, n, *draw(st.lists(st.integers(0, n), max_size=6))])
    return y, r, l, u, bounds


@settings(max_examples=200, deadline=None)
@given(panel=_count_panels())
def test_negbin_kernel_matches_the_xlogy_span_cost(panel):
    # The kernel takes numpy logs where the oracle takes xlogy; both must
    # agree to rounding relative to the span costs involved.
    y, r, l, u, bounds = panel
    model = fixed_r_model(make_matrix(y), r)
    gains = model.gain_matrix(l, u)
    length = u - l + 1
    len_left = np.arange(1, length, dtype=float)
    sum_full = y[:, l - 1 : u].sum(axis=1, keepdims=True)
    sum_left = np.cumsum(y[:, l - 1 : u - 1], axis=1)
    costs = (
        negbin_span_cost(sum_full, length, r[:, None]),
        negbin_span_cost(sum_left, len_left, r[:, None]),
        negbin_span_cost(sum_full - sum_left, length - len_left, r[:, None]),
    )
    want = np.maximum(costs[0] - costs[1] - costs[2], 0.0)
    tol = 1e-13 * (sum(np.abs(c) for c in costs) + 1.0)
    assert np.all(np.isfinite(gains)) and np.all(gains >= 0.0)
    assert np.all(np.abs(gains - want) <= tol)

    cum = np.concatenate((np.zeros((len(r), 1)), np.cumsum(y, axis=1)), axis=1)
    for j in range(1, len(bounds)):
        seg_sum = cum[:, bounds[j] : bounds[j] + 1] - cum[:, bounds[:j]]
        seg_len = (bounds[j] - bounds[:j]).astype(float)
        got = model.boundary_cost_matrix(bounds, j)
        want = negbin_span_cost(seg_sum, seg_len, r[:, None])
        assert got.shape == (len(r), j)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(want) + 1.0))
