"""Penalty construction: defaults, the closed-form sparse threshold, calibration."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from oracles import (
    branch_maxima,
    calibrated_beta,
    calibration_maxima,
    fixed_r_model,
    minimal_quiet_beta,
    sparse_beta_closed_form,
)
from subsetcp import (
    BASELINE_METHODS,
    GAUSSIAN,
    NEGBIN,
    CostModel,
    InputDataError,
    NullModel,
    PenaltyConfig,
    RandomSource,
    calibrate_baseline_threshold,
    calibrate_beta,
    dense_cap,
    draw_intervals,
    gaussian_model,
    make_matrix,
    negbin_model,
    scan_interval,
    theoretical_penalties,
)
from subsetcp import baselines, penalties
from subsetcp.penalties import (
    _aggregated_maxima,
    _branch_maxima,
    _minimal_quiet_beta,
    _null_maxima,
    _screen_error,
)
from subsetcp.single_change import branch_sums


def test_default_penalty_hand_values():
    pen = theoretical_penalties(1000, 12, J=2.0)
    assert pen.alpha == pytest.approx(2 * math.log(12), abs=1e-12)
    assert pen.alpha == pytest.approx(4.969813299576001, abs=1e-12)
    assert pen.beta == pytest.approx(2.1 * math.log(1000), abs=1e-12)
    assert pen.beta == pytest.approx(14.506286085862488, abs=1e-12)
    assert pen.K == pytest.approx(pen.beta + 12 + math.sqrt(2 * pen.beta * 12), abs=1e-12)
    assert pen.source == "theoretical"


def test_dense_cap_hand_value():
    assert dense_cap(10.0, 12) == pytest.approx(22 + math.sqrt(240), abs=1e-12)
    assert dense_cap(10.0, 12) == pytest.approx(37.49193338482967, abs=1e-12)


def test_default_penalties_require_two_variates():
    with pytest.raises(InputDataError):
        theoretical_penalties(100, 1)


def test_penalty_config_validation():
    with pytest.raises(ValueError):
        PenaltyConfig(alpha=-1.0, beta=1.0, K=2.0, source="manual")
    with pytest.raises(ValueError, match="K"):
        PenaltyConfig(alpha=1.0, beta=5.0, K=4.0, source="manual")
    with pytest.raises(ValueError, match="source"):
        PenaltyConfig(alpha=1.0, beta=1.0, K=2.0, source="guessed")
    for alpha, beta, K in ((math.nan, 9.0, 20.0), (2.2, 9.0, math.nan), (2.2, math.inf, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            PenaltyConfig(alpha=alpha, beta=beta, K=K, source="manual")


def test_sparse_threshold_closed_form_value():
    beta = sparse_beta_closed_form(100, 4, C=math.sqrt(2))
    q = erfc(math.sqrt(math.log(4)))
    expect = (math.sqrt(2 * 4 * q) + math.sqrt(2) * math.sqrt(math.log(100))) ** 2
    assert beta == pytest.approx(expect, rel=1e-12)
    assert beta == pytest.approx(15.293672607755585, abs=1e-9)


def test_sparse_threshold_tail_mass_matches_quadrature():
    # erfc(sqrt(x)) equals the normalized upper incomplete gamma of order 1/2
    for d in (2, 4, 12, 100):
        x = math.log(d)
        integral, _ = quad(lambda t: t ** (-0.5) * math.exp(-t), x, np.inf)
        assert erfc(math.sqrt(x)) == pytest.approx(integral / math.sqrt(math.pi), abs=1e-10)


def test_sparse_threshold_vanishes_for_tiny_constant_and_huge_dimension():
    # with C ~ 0 only the tail-mass term 2*d*erfc(sqrt(ln d)) remains, which
    # decays like 1/sqrt(ln d); assert the slow march toward zero
    values = [sparse_beta_closed_form(100, d, C=1e-9) for d in (10, 10_000, 10_000_000)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 0.3


def test_sparse_threshold_grows_with_series_length():
    betas = [sparse_beta_closed_form(n, 12, C=1.0) for n in (50, 500, 5000)]
    assert betas[0] < betas[1] < betas[2]


def test_null_model_rejects_non_finite_parameters():
    for r in (float("nan"), float("inf"), 0.0):
        with pytest.raises(InputDataError, match="finite r"):
            NullModel(kind=NEGBIN, r=r)
    with pytest.raises(InputDataError, match="p in"):
        NullModel(kind=NEGBIN, p=float("nan"))


def test_calibration_input_validation():
    null = NullModel(kind=GAUSSIAN)
    rng = RandomSource(0)
    with pytest.raises(InputDataError, match="replicates"):
        calibrate_beta(100, 5, null, rng, reps=10)
    with pytest.raises(InputDataError):
        calibrate_beta(100, 1, null, rng, reps=50)
    with pytest.raises(InputDataError):
        calibrate_beta(100, 5, null, rng, target_fp=0.0, reps=50)


def _no_draws(*args):
    raise AssertionError("a null dataset was sampled")


@pytest.mark.parametrize("n", (-5, 0, 2))
def test_calibration_rejects_a_short_series_before_sampling(monkeypatch, n):
    monkeypatch.setattr(NullModel, "sample_model", _no_draws)
    null = NullModel(kind=GAUSSIAN)
    with pytest.raises(InputDataError, match=f"calibration needs n >= 3, got {n}"):
        calibrate_beta(n, 3, null, RandomSource(0), reps=20)
    with pytest.raises(InputDataError, match=f"calibration needs n >= 3, got {n}"):
        calibrate_baseline_threshold(n, 3, "mean", null, RandomSource(0), reps=20)


def test_calibration_rejects_a_negative_interval_count_before_sampling(monkeypatch):
    monkeypatch.setattr(NullModel, "sample_model", _no_draws)
    null = NullModel(kind=GAUSSIAN)
    with pytest.raises(InputDataError, match="interval count must be >= 0, got -1"):
        calibrate_beta(1000, 1000, null, RandomSource(0), reps=20, intervals=-1)
    with pytest.raises(InputDataError, match="interval count must be >= 0, got -1"):
        calibrate_baseline_threshold(1000, 3, "mean", null, RandomSource(0), reps=20,
                                     intervals=-1)


def test_calibration_is_reproducible():
    null = NullModel(kind=GAUSSIAN)
    a = calibrate_beta(80, 4, null, RandomSource(5), target_fp=0.1, reps=25, intervals=10)
    b = calibrate_beta(80, 4, null, RandomSource(5), target_fp=0.1, reps=25, intervals=10)
    assert a == b
    assert a.source == "calibrated"
    assert a.K == pytest.approx(dense_cap(a.beta, 4), abs=1e-12)


def _block_windows(models, block, l, u):
    """The (replicate, l, u) of each window stacked in a block of
    ``_equal_length_blocks``: (1, L) priced on G d rows of L + 1 prefix sums.
    A window is found by its second prefix column, unique on Gaussian data,
    then matched in full."""
    assert (l, u) == (1, block.n)
    d = models[0].d
    owners = {
        model.cum_y[:, j].tobytes(): (rep, j)
        for rep, model in enumerate(models)
        for j in range(1, model.n + 1)
    }
    found = []
    for window in block.cum_y.reshape(-1, d, block.n + 1):
        rep, start = owners[window[:, 1].tobytes()]
        assert np.array_equal(window, models[rep].cum_y[:, start - 1 : start + block.n])
        found.append((rep, start, start + block.n - 1))
    return found


def test_calibration_prices_every_split_interval_once_per_replicate(monkeypatch):
    # perfbench counts calibration's gain and |CUSUM| cells by wrapping the
    # class attribute CostModel.gain_matrix and baselines.cusum_matrix, so
    # every interval with a split must be priced through them: once per
    # replicate in a block of equal-length windows (float32 for the beta
    # screen), then, for beta, rescanned in float64 on the replicate's own
    # model only where the screen cannot decide.
    models, gain_calls, cusum_calls = [], [], []
    sample, gain, cusum = NullModel.sample_model, CostModel.gain_matrix, baselines.cusum_matrix

    def sampling(null, n, d, rng):
        models.append(sample(null, n, d, rng))
        return models[-1]

    def counting_gain(model, l, u, dtype=np.float64):
        gain_calls.append((model, l, u, np.dtype(dtype)))
        return gain(model, l, u, dtype)

    def counting_cusum(model, l, u):
        cusum_calls.append((model, l, u))
        return cusum(model, l, u)

    monkeypatch.setattr(NullModel, "sample_model", sampling)
    monkeypatch.setattr(CostModel, "gain_matrix", counting_gain)
    monkeypatch.setattr(baselines, "cusum_matrix", counting_cusum)
    n, d, reps, intervals = 80, 4, 20, 15
    src = RandomSource(9)
    expected = [
        (rep, l, u)
        for rep in range(reps)
        for l, u in draw_intervals(n, intervals, src.child(rep, 1)).pairs
        if u - l > 1
    ]
    cells = sum(d * (u - l) for _, l, u in expected)

    calibrate_beta(n, d, NullModel(kind=GAUSSIAN), src, target_fp=0.1, reps=reps,
                   intervals=intervals)
    assert len(models) == reps
    screens = [(m, l, u) for m, l, u, dtype in gain_calls if dtype == np.float32]
    assert sum(block.d * (u - l) for block, l, u in screens) == cells
    covered = [w for call in screens for w in _block_windows(models, *call)]
    assert Counter(covered) == Counter(expected)
    assert len(screens) < len(expected)
    rescans = [
        (next(rep for rep, own in enumerate(models) if own is model), l, u)
        for model, l, u, dtype in gain_calls
        if dtype == np.float64
    ]
    assert reps <= len(rescans) < len(expected)
    assert set(rescans) <= set(expected)

    models.clear()
    calibrate_baseline_threshold(n, d, "max", NullModel(kind=GAUSSIAN), src, target_fp=0.1,
                                 reps=reps, intervals=intervals)
    assert len(models) == reps
    assert sum(block.d * (u - l) for block, l, u in cusum_calls) == cells
    covered = [w for call in cusum_calls for w in _block_windows(models, *call)]
    assert Counter(covered) == Counter(expected)
    assert len(cusum_calls) < len(expected)


def test_calibrated_threshold_hits_target_on_fresh_nulls():
    null = NullModel(kind=GAUSSIAN)
    src = RandomSource(206)
    pen = calibrate_beta(100, 5, null, src.child(0), target_fp=0.1, reps=50, intervals=0)
    hits = sum(
        scan_interval(null.sample_model(100, 5, src.child(1, rep)), pen, 1, 100) is not None
        for rep in range(200)
    )
    assert 0.1 - 0.03 <= hits / 200 <= 0.1 + 0.03


def test_calibration_handles_count_nulls():
    null = NullModel(kind=NEGBIN, r=20.0, p=0.5)
    pen = calibrate_beta(60, 3, null, RandomSource(11), target_fp=0.1, reps=20, intervals=5)
    assert pen.beta > 0
    assert pen.K == pytest.approx(dense_cap(pen.beta, 3), abs=1e-12)


def test_calibration_survives_all_zero_count_variates():
    # Neg-Bin(0.5, 0.95) draws 0 with probability 0.95**0.5, so a few of the
    # 2400 simulated variates per run are zero at all 300 time points.
    null = NullModel(kind=NEGBIN, r=0.5, p=0.95)
    for seed in (1, 2):
        src = RandomSource(seed)
        pen = calibrate_beta(300, 12, null, src, reps=200, intervals=0)
        assert pen.beta > 0
        zero_rows = 0
        for rep in range(200):
            model = null.sample_model(300, 12, src.child(rep, 0))
            zero = model.cum_y[:, -1] == 0
            zero_rows += int(zero.sum())
            assert np.all(model.gain_matrix(1, 300)[zero] == 0.0)
        assert zero_rows > 0


def test_scan_statistic_monotone_in_shift_size():
    rng = np.random.default_rng(113)
    noise = rng.standard_normal((4, 100))
    pen = theoretical_penalties(100, 4)
    previous = -math.inf
    for delta in np.arange(0.0, 2.01, 0.25):
        y = noise.copy()
        y[:2, 50:] += delta
        gains = gaussian_model(make_matrix(y), sigma=1.0).gain_matrix(1, 100)
        sparse, dense = branch_sums(gains, pen.alpha)
        current = float(np.maximum(sparse - pen.beta, dense - pen.K).max())
        assert current >= previous - 1e-9
        previous = current


def test_minimal_quiet_beta_hand_values():
    # (sparse_max, dense_max, d): dense_cap(12, 6) = 12 + 6 + sqrt(144) = 30,
    # so a dense maximum of 30 binds beta at 12
    assert _minimal_quiet_beta(7.0, 30.0, 6) == pytest.approx(12.0, rel=1e-12)
    assert _minimal_quiet_beta(6.99, 30.0, 6) == pytest.approx(12.0, rel=1e-12)
    assert _minimal_quiet_beta(20.0, 30.0, 6) == 20.0
    assert _minimal_quiet_beta(-1.0, 6.0, 6) == 0.0
    np.testing.assert_allclose(
        _minimal_quiet_beta(np.array([7.0, 20.0, -1.0]), np.array([30.0, 30.0, 6.0]), 6),
        [12.0, 20.0, 0.0],
        rtol=1e-12,
    )


def _exactly_quiet(beta: float, sparse_max: float, dense_max: float, d: int) -> bool:
    """Neither branch fires at ``beta``, in exact rational arithmetic:
    dense_max <= beta + d + sqrt(2 beta d) with the square root squared away."""
    b = Fraction(beta)
    excess = Fraction(dense_max) - b - d
    return Fraction(sparse_max) <= b and (excess <= 0 or excess * excess <= 2 * b * d)


MAXIMA = st.floats(-10.0, 1e5, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(sparse_max=MAXIMA, dense_max=MAXIMA, d=st.integers(2, 10_000))
@example(sparse_max=0.0, dense_max=10.0, d=4)  # minimum 2, on the bisection grid
@example(sparse_max=0.25, dense_max=5.0, d=4)  # minimum below the first bisection bracket
@example(sparse_max=0.0, dense_max=12.000001, d=12)  # dense sum just above d
@example(sparse_max=-1.0, dense_max=3.0, d=3)  # quiet at beta = 0
def test_closed_form_quiet_beta_is_quiet_and_minimal(sparse_max, dense_max, d):
    beta = float(_minimal_quiet_beta(sparse_max, dense_max, d))
    assert sparse_max <= beta
    # Rounding in dense_cap leaves it one ulp short of dense_max in about 15%
    # of random cases (relative 6e-16 at most); 1e-12 bounds that.
    assert dense_max <= dense_cap(beta, d) * (1 + 1e-12)
    if beta > 0:
        assert not _exactly_quiet(beta * (1 - 1e-9), sparse_max, dense_max, d)
    # The bisection stops within 1e-3 above the minimum; when the minimum is
    # on its grid the two agree up to rounding.
    reference = minimal_quiet_beta(sparse_max, dense_max, d)
    assert beta <= reference * (1 + 1e-12)
    assert reference < beta + 1e-3


def test_null_model_scale_estimation_path():
    src = RandomSource(12)
    known = NullModel(kind=GAUSSIAN)
    estimated = NullModel(kind=GAUSSIAN, estimate_scale=True)
    m_known = known.sample_model(400, 2, src.child(0))
    m_est = estimated.sample_model(400, 2, src.child(0))
    assert np.all(m_known.scale == 1.0)
    assert not np.any(m_est.scale == 1.0)
    assert np.all(np.abs(m_est.scale - 1.0) < 0.25)


@st.composite
def _screened_datasets(draw):
    """A cost model, its interval set and alpha = 2 ln d, as one calibration
    replicate sees them, with the inputs that stress a float32 screen:
    count totals above 2^24, extreme dispersions, all-zero count variates,
    Gaussian series offset by 1e8 with estimated scales, the full interval
    alone (intervals = 0) and intervals thousands of points long."""
    n = draw(st.one_of(st.integers(3, 60), st.sampled_from([500, 3000])))
    d = draw(st.integers(2, 6))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        scale = np.array([draw(st.sampled_from([1.0, 1e3, 1e6])) for _ in range(d)])
        values = np.floor(g.exponential(scale[:, None], (d, n)))
        for i in draw(st.sets(st.integers(0, d - 1), max_size=d - 1)):
            values[i] = 0.0
        r = [draw(st.sampled_from([1e-3, 0.5, 20.0, 1e4])) for _ in range(d)]
        matrix = make_matrix(values)
        model = negbin_model(matrix) if draw(st.booleans()) else fixed_r_model(matrix, r)
    else:
        offset = draw(st.sampled_from([0.0, 1e8]))
        values = offset + g.standard_normal((d, n)) * g.uniform(0.5, 3.0, (d, 1))
        if draw(st.booleans()):
            values[:, n // 2 :] += draw(st.sampled_from([0.5, 3.0]))
        estimated = offset > 0 or draw(st.booleans())
        model = gaussian_model(make_matrix(values), sigma=None if estimated else 1.0)
    intervals = draw(st.sampled_from([0, 1, 5, 40]))
    pairs = draw_intervals(n, intervals, RandomSource(draw(st.integers(0, 1000)))).pairs
    return model, [(l, u) for l, u in pairs if u - l > 1], 2.0 * math.log(d)


@settings(max_examples=150, deadline=None)
@given(data=_screened_datasets())
def test_screened_replicate_maxima_equal_the_float64_scan(data):
    model, pairs, alpha = data
    screened = _branch_maxima([model], [pairs], alpha)
    assert screened.shape == (1, 2)
    assert screened[0].tobytes() == branch_maxima(model, pairs, alpha).tobytes()


@settings(max_examples=150, deadline=None)
@given(data=_screened_datasets())
def test_float32_branch_values_lie_within_the_screen_bound(data):
    model, pairs, alpha = data
    wide = [model.gain_matrix(l, u) for l, u in pairs]
    narrow = [model.gain_matrix(l, u, np.float32) for l, u in pairs]
    wide_sums = [branch_sums(gains.copy(), alpha) for gains in wide]
    narrow_sums = [branch_sums(gains.copy(), alpha) for gains in narrow]
    screened = np.array([(s.max(), t.max()) for s, t in narrow_sums], dtype=float)
    error = _screen_error(model, pairs, screened, alpha)
    ls, us = np.array(pairs).T
    gain_error = model.gain_error_bound(ls, us, screened[:, 1])
    for k, (g64, g32) in enumerate(zip(wide, narrow)):
        assert g32.dtype == np.float32
        column_error = np.abs(g32.astype(float) - g64).sum(axis=0)
        assert np.all(column_error <= gain_error[k])
        (sparse64, dense64), (sparse32, dense32) = wide_sums[k], narrow_sums[k]
        assert sparse32.dtype == dense32.dtype == np.float32
        assert np.all(np.abs(sparse32.astype(float) - sparse64) <= error[k, 0])
        assert np.all(np.abs(dense32.astype(float) - dense64) <= error[k, 1])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(3, 150),
    d=st.integers(2, 5),
    intervals=st.sampled_from([0, 3, 30]),
    null=st.sampled_from([
        NullModel(kind=GAUSSIAN),
        NullModel(kind=GAUSSIAN, estimate_scale=True),
        NullModel(kind=NEGBIN, r=20.0, p=0.5),
        NullModel(kind=NEGBIN, r=0.5, p=0.95),
        NullModel(kind=NEGBIN, r=1e4, p=1e-4),
    ]),
    seed=st.integers(0, 1000),
)
def test_calibrated_beta_equals_the_unscreened_loop(n, d, intervals, null, seed):
    reps, target_fp = 20, 0.1
    expected = calibration_maxima(n, d, null, RandomSource(seed), reps, intervals)
    alpha = 2.0 * math.log(d)
    maxima = _null_maxima(
        n, d, null, RandomSource(seed), target_fp, reps, intervals,
        lambda models, pairs: _branch_maxima(models, pairs, alpha),
    )
    assert maxima.tobytes() == expected.tobytes()
    pen = calibrate_beta(n, d, null, RandomSource(seed), target_fp, reps, intervals)
    assert pen.beta == calibrated_beta(expected, d, target_fp)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 60),
    d=st.integers(2, 4),
    intervals=st.sampled_from([0, 3, 30]),
    null=st.sampled_from([
        NullModel(kind=GAUSSIAN),
        NullModel(kind=GAUSSIAN, estimate_scale=True),
        NullModel(kind=NEGBIN, r=20.0, p=0.5),
        NullModel(kind=NEGBIN, r=0.5, p=0.95),
    ]),
    block_cells=st.sampled_from([1, 100, 2**15]),
    batch_cells=st.sampled_from([1, 500, 2**17]),
    seed=st.integers(0, 1000),
)
# d = 2, with groups of short intervals split over blocks of a few windows
@example(n=40, d=2, intervals=30, null=NullModel(kind=GAUSSIAN), block_cells=100,
         batch_cells=500, seed=1)
@example(n=40, d=2, intervals=30, null=NullModel(kind=NEGBIN, r=20.0, p=0.5),
         block_cells=100, batch_cells=2**17, seed=2)
# one replicate per batch and one window per block: single-interval groups
@example(n=25, d=3, intervals=3, null=NullModel(kind=GAUSSIAN), block_cells=1,
         batch_cells=1, seed=3)
def test_batched_replicate_maxima_equal_the_per_interval_loop(
    n, d, intervals, null, block_cells, batch_cells, seed
):
    reps, target_fp = 20, 0.1
    alpha = 2.0 * math.log(d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(penalties, "_BLOCK_CELLS", block_cells)
        patch.setattr(penalties, "_BATCH_CELLS", batch_cells)
        maxima = _null_maxima(
            n, d, null, RandomSource(seed), target_fp, reps, intervals,
            lambda models, pairs: _branch_maxima(models, pairs, alpha),
        )
        expected = calibration_maxima(n, d, null, RandomSource(seed), reps, intervals)
        assert maxima.tobytes() == expected.tobytes()
        if null.kind != GAUSSIAN:
            return
        for method in BASELINE_METHODS:
            maxima = _null_maxima(
                n, d, null, RandomSource(seed), target_fp, reps, intervals,
                lambda models, pairs: _aggregated_maxima(models, pairs, method),
            )
            expected = calibration_maxima(
                n, d, null, RandomSource(seed), reps, intervals, method
            )
            assert maxima.tobytes() == expected.tobytes()
