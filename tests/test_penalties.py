"""Penalty construction: defaults, the closed-form sparse threshold, calibration."""

import math
import os
import platform
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import erfc

from oracles import (
    branch_maxima,
    calibrated_beta,
    calibration_maxima,
    fixed_r_model,
    minimal_quiet_beta,
    null_fire_rate,
    sparse_beta_closed_form,
)
from subsetcp import (
    GAUSSIAN,
    NEGBIN,
    CostModel,
    InputDataError,
    NullModel,
    PenaltyConfig,
    RandomSource,
    calibrate_beta,
    draw_intervals,
    gaussian_model,
    make_matrix,
    negbin_model,
    subset_wbs,
)
from subsetcp import baselines, costs, penalties
from subsetcp.baselines import BASELINE_METHODS
from subsetcp.penalties import (
    _aggregate_bounds,
    _aggregated_maxima,
    _branch_maxima,
    _minimal_quiet_beta,
    _null_maxima,
    _screen_error,
    _screened_aggregates,
    calibrate_baseline_threshold,
    dense_cap,
    theoretical_penalties,
)
from subsetcp.single_change import branch_sums, scan_interval
from subsetcp.wbs import segmentation_driver


def test_default_penalty_hand_values():
    pen = theoretical_penalties(1000, 12, J=2.0)
    assert pen.alpha == pytest.approx(2 * math.log(12), abs=1e-12)
    assert pen.alpha == pytest.approx(4.969813299576001, abs=1e-12)
    assert pen.beta == pytest.approx(2.1 * math.log(1000), abs=1e-12)
    assert pen.beta == pytest.approx(14.506286085862488, abs=1e-12)
    assert pen.K == pytest.approx(pen.beta + 12 + math.sqrt(2 * pen.beta * 12), abs=1e-12)
    assert pen.source == "theoretical"


@pytest.mark.parametrize("J", [2.0, 4.0])
def test_theoretical_penalties_fire_on_a_wbs_run_as_documented(J):
    # The guarantee covers one scan of (1, n): a run over 200 random
    # intervals fires on most nulls with J = 2, and on few with J = 4.
    n, d = 300, 12
    pen = theoretical_penalties(n, d, J)
    rate, low, high = null_fire_rate(
        lambda model, rng: subset_wbs(model, pen, draw_intervals(n, 200, rng)),
        NullModel(), n, d, k=100, rng=RandomSource(32),
    )
    if J == 2.0:
        assert low > 0.5, f"fire rate {rate} in ({low:.3f}, {high:.3f})"
    else:
        assert high < 0.1, f"fire rate {rate} in ({low:.3f}, {high:.3f})"


def test_null_fire_rate_gives_the_clopper_pearson_interval():
    # Each end is the rate at which `fires` or more (or `fires` or fewer)
    # of k has probability 0.025; a count of 0 or k pins its own end.
    k = 12
    for fires in (0, 5, k):
        calls = iter(range(k))
        rate, low, high = null_fire_rate(
            lambda model, rng: SimpleNamespace(detections=(1,) if next(calls) < fires else ()),
            NullModel(), 5, 2, k=k, rng=RandomSource(0),
        )
        assert rate == fires / k
        if fires:
            assert stats.binom.sf(fires - 1, k, low) == pytest.approx(0.025)
        else:
            assert low == 0.0
        if fires < k:
            assert stats.binom.cdf(fires, k, high) == pytest.approx(0.025)
        else:
            assert high == 1.0


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


@pytest.mark.parametrize("d", (0, -3))
def test_baseline_calibration_rejects_an_empty_panel_before_sampling(monkeypatch, d):
    monkeypatch.setattr(NullModel, "sample_model", _no_draws)
    null = NullModel(kind=GAUSSIAN)
    with pytest.raises(InputDataError, match=f"calibration needs d >= 1, got {d}"):
        calibrate_baseline_threshold(100, d, "mean", null, RandomSource(0), reps=20)


def test_baseline_calibration_rejects_an_unknown_method_before_sampling(monkeypatch):
    monkeypatch.setattr(NullModel, "sample_model", _no_draws)
    null = NullModel(kind=GAUSSIAN)
    with pytest.raises(InputDataError, match="unknown baseline 'median'"):
        calibrate_baseline_threshold(100, 3, "median", null, RandomSource(0), reps=20)


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
    then matched in full, each replicate's table rounded to the block's
    dtype as the block rounds it."""
    assert (l, u) == (1, block.n)
    d, dtype = models[0].d, block.cum_y.dtype
    owners = {
        model.cum_y[:, j].astype(dtype).tobytes(): (rep, j)
        for rep, model in enumerate(models)
        for j in range(1, model.n + 1)
    }
    found = []
    for window in block.cum_y.reshape(-1, d, block.n + 1):
        rep, start = owners[window[:, 1].tobytes()]
        expected = models[rep].cum_y[:, start - 1 : start + block.n].astype(dtype)
        assert window.tobytes() == expected.tobytes()
        found.append((rep, start, start + block.n - 1))
    return found


def test_calibration_prices_every_split_interval_once_per_replicate(monkeypatch):
    # perfbench counts calibration's gain and |CUSUM| cells by wrapping the
    # class attribute CostModel.gain_matrix and baselines.cusum_matrix, so
    # every interval with a split must be priced through them: once per
    # replicate in a float32 block of equal-length windows, then rescanned
    # in float64 on the replicate's own model (on row slices of it, for
    # beta) only where the screen cannot decide.
    models, gain_calls, cusum_calls = [], [], []
    sample, gain, cusum = NullModel.sample_model, CostModel.gain_matrix, baselines.cusum_matrix

    def sampling(null, n, d, rng):
        models.append(sample(null, n, d, rng))
        return models[-1]

    def counting_gain(model, l, u, dtype=np.float64):
        gain_calls.append((model, l, u, np.dtype(dtype)))
        return gain(model, l, u, dtype)

    def counting_cusum(model, l, u, dtype=np.float64):
        cusum_calls.append((model, l, u, np.dtype(dtype)))
        return cusum(model, l, u, dtype)

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
        (next(rep for rep, own in enumerate(models) if np.shares_memory(m.cum_y, own.cum_y)), l, u)
        for m, l, u, dtype in gain_calls
        if dtype == np.float64
    ]
    assert reps <= len(rescans) < len(expected)
    assert set(rescans) <= set(expected)

    models.clear()
    calibrate_baseline_threshold(n, d, "max", NullModel(kind=GAUSSIAN), src, target_fp=0.1,
                                 reps=reps, intervals=intervals)
    assert len(models) == reps
    screens = [(m, l, u) for m, l, u, dtype in cusum_calls if dtype == np.float32]
    assert sum(block.d * (u - l) for block, l, u in screens) == cells
    covered = [w for call in screens for w in _block_windows(models, *call)]
    assert Counter(covered) == Counter(expected)
    assert len(screens) < len(expected)
    rescans = [
        (next(rep for rep, own in enumerate(models) if m is own), l, u)
        for m, l, u, dtype in cusum_calls
        if dtype == np.float64
    ]
    assert set(rescans) <= set(expected)
    assert {rep for rep, _, _ in rescans} == set(range(reps))
    assert len(rescans) < len(expected)


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


@pytest.mark.parametrize(("kind", "panels"), [(NEGBIN, 2.5), (GAUSSIAN, 2.1)])
def test_a_wide_null_replicate_holds_few_copies_of_the_panel(kind, panels):
    # The draws go straight into the matrix, which makes the one float64
    # copy; the model adds its prefix table.  Converting the int64 counts
    # before the matrix copied them again took 3.2 panels.
    tracemalloc.start()
    try:
        NullModel(kind=kind).sample_model(1000, 1000, RandomSource(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * 1000 * 1000) < panels


def test_count_calibration_rounds_blocks_not_tables():
    # The batch holds 20 float64 prefix tables (1.8 MiB) and its interval
    # indices; each block rounds its own windows to float32.  A float32 copy
    # of every table, kept for the batch, took the peak to 5.63 MiB.  The
    # first call imports and caches what the second would count.
    null = NullModel(kind=NEGBIN)
    calibrate_beta(100, 12, null, RandomSource(1), reps=20, intervals=30)
    tracemalloc.start()
    try:
        calibrate_beta(1000, 12, null, RandomSource(0), reps=20, intervals=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.0 * 2**20


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="measures glibc's allocator")
def test_count_calibration_keeps_its_kernel_temporaries_paged_in():
    # With glibc's default, moving mmap and trim thresholds, four kernel
    # temporaries per block went back to the operating system after every
    # block and were faulted in again: about 0.42 M minor page faults per
    # calibration.  A fresh process without MALLOC_* settings sees those
    # defaults; its first call imports and warms up.
    code = (
        "import resource\n"
        "from subsetcp import NEGBIN, NullModel, RandomSource, calibrate_beta\n"
        "null = NullModel(kind=NEGBIN)\n"
        "calibrate_beta(100, 12, null, RandomSource(1), reps=20, intervals=30)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "calibrate_beta(1000, 12, null, RandomSource(0), reps=20, intervals=1000)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = {key: value for key, value in os.environ.items() if not key.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(Path(penalties.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 50_000


def _known_sigmas(d):
    """Known Gaussian scales: 1, 1e-12, or 1, 1e20 or 1e40 per variate.  At
    1e20 float32 squares underflow; at 1e40 the float32 prefix sums are
    subnormal, so only the underflow term of ``cusum_error_bound`` covers
    their rounding."""
    mixed = st.lists(st.sampled_from([1.0, 1e20, 1e40]), min_size=d, max_size=d)
    return st.one_of(st.sampled_from([1.0, 1e-12]), mixed)


@st.composite
def _screened_datasets(draw):
    """A cost model, its interval set and alpha = 2 ln d, as one calibration
    replicate sees them, with the inputs that stress a float32 screen:
    count totals above 2^24, extreme dispersions, all-zero count variates,
    Gaussian series offset by 1e8 with estimated scales, the full interval
    alone (intervals = 0) and intervals thousands of points long.  Some
    screen bounds are infinite, and every such interval must be rescanned:
    counts around 1e10, whose long intervals sum past 2^40, and a known
    sigma of 1e-12, whose scaled prefix sums pass 2^40 and make every bound
    infinite.  Known sigmas of 1, 1e20 and 1e40 mixed over the variates give
    float32 gains that underflow to subnormals or to 0."""
    n = draw(st.one_of(st.integers(3, 60), st.sampled_from([200, 500, 3000])))
    d = draw(st.integers(2, 6))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        scale = np.array([draw(st.sampled_from([1.0, 1e3, 1e6, 1e10])) for _ in range(d)])
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
        sigma = None if estimated else draw(_known_sigmas(d))
        model = gaussian_model(make_matrix(values), sigma=sigma)
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


@settings(max_examples=100, deadline=None)
@given(data=_screened_datasets())
def test_screened_maxima_equal_the_float64_scan_with_one_row_blocks(data):
    # With blocks of one row, each float64 rescan takes d blocks, every one
    # after the first carrying the sums of the rows before it.
    model, pairs, alpha = data
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(costs, "_ROW_BLOCK_CELLS", 1)
        screened = _branch_maxima([model], [pairs], alpha)
    assert screened[0].tobytes() == branch_maxima(model, pairs, alpha).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 300),
    d=st.integers(2, 4),
    reps=st.integers(1, 3),
    top=st.sampled_from([1, 100, 2**16]),
    peak=st.sampled_from([None, 2**24 - 1, 2**24 + 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_blocks_round_to_float32_only_below_2_24(n, d, reps, top, peak, seed):
    # float32 holds every integer below 2^24, but not 2^24 + 1, so a batch
    # whose largest prefix sum reaches 2^24 keeps float64 windows.  Either
    # way the maxima equal those of a float64 scan.
    g = np.random.default_rng(seed)
    values = [g.integers(0, top, (d, n), endpoint=True) for _ in range(reps)]
    if peak is not None:
        # The first count lifts the other prefix sums of the row to about
        # peak, where float32 rounds odd ones and their differences with them.
        row = values[-1][0]
        row[0] = max(peak - row[1:].sum(), 0)
    models = [negbin_model(make_matrix(v)) for v in values]
    pairs = []
    for rep in range(reps):
        drawn = np.array(draw_intervals(n, 10, RandomSource(seed).child(rep)).pairs)
        pairs.append(drawn[drawn[:, 1] - drawn[:, 0] > 1])
    exact = max(model.cum_y[:, -1].max() for model in models) < 2**24
    flat = [(rep, l, u) for rep, rep_pairs in enumerate(pairs) for l, u in rep_pairs.tolist()]
    for block, slots in penalties._equal_length_blocks(models, pairs):
        assert block.cum_y.dtype == (np.float32 if exact else np.float64)
        gains = block.gain_matrix(1, block.n, np.float32).reshape(len(slots), d, -1)
        for member, slot in zip(gains, slots):
            rep, l, u = flat[slot]
            assert member.tobytes() == models[rep].gain_matrix(l, u, np.float32).tobytes()
    alpha = 2.0 * math.log(d)
    screened = _branch_maxima(models, pairs, alpha)
    for model, rep_pairs, row in zip(models, pairs, screened):
        assert row.tobytes() == branch_maxima(model, rep_pairs.tolist(), alpha).tobytes()


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


@st.composite
def _cut_off_datasets(draw):
    """A Gaussian cost model and its interval set, as a baseline calibration
    replicate sees them: series offset by 1e8 with estimated scales, a known
    sigma of 1e-12, whose scaled prefix sums pass 2^40 and make every bound
    infinite, known sigmas of 1, 1e20 and 1e40 mixed over the variates,
    whose float32 values underflow, and tables with one interval whose
    |CUSUM| sits within a few float32 rounding errors of the binweight
    cut-off sqrt(2 ln n) at every split, on prefix sums up to 1e6, so that
    rounding can carry entries across."""
    n = draw(st.one_of(st.integers(3, 60), st.sampled_from([500, 3000])))
    d = draw(st.integers(1, 6))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1e8]))
    values = offset + g.standard_normal((d, n)) * g.uniform(0.5, 3.0, (d, 1))
    if draw(st.booleans()):
        values[:, n // 2 :] += draw(st.sampled_from([0.5, 3.0]))
    estimated = offset > 0 or draw(st.booleans())
    sigma = None if estimated else draw(_known_sigmas(d))
    model = gaussian_model(make_matrix(values), sigma=sigma)
    intervals = draw(st.sampled_from([0, 5, 40]))
    pairs = draw_intervals(n, intervals, RandomSource(draw(st.integers(0, 1000)))).pairs
    pairs = [(l, u) for l, u in pairs if u - l > 1]
    if draw(st.integers(0, 3)):
        # The CUSUM at split j of (l, u) is nu_j times
        # C[l - 1] (1 - s) + C[u] s - C[l - 1 + j], with s = j / L.
        l = draw(st.integers(1, n - 2))
        u = draw(st.integers(l + 2, min(n, l + draw(st.sampled_from([2, 6, 60, 600])))))
        length = u - l + 1
        j = np.arange(1, length)
        share, norm = j / length, np.sqrt(length / (j * (length - j)))
        peak = draw(st.sampled_from([1.0, 1e3, 1e6]))
        cum_y = model.cum_y.copy()
        cum_y[:, [l - 1, u]] = g.choice([-peak, peak], size=(d, 2)) * g.uniform(0.5, 1.0, (d, 2))
        error = g.uniform(-2.0, 2.0, (d, length - 1)) * 2.0**-24 * peak
        near = math.sqrt(2.0 * math.log(n)) + error
        sign = g.choice([-1.0, 1.0], size=(d, length - 1))
        cum_y[:, l:u] = (
            cum_y[:, l - 1 : l] * (1.0 - share) + cum_y[:, u : u + 1] * share - sign * near / norm
        )
        model = CostModel(GAUSSIAN, model.scale, cum_y)
        pairs.append((l, u))
    return model, pairs


@settings(max_examples=150, deadline=None)
@given(data=_cut_off_datasets(), method=st.sampled_from(BASELINE_METHODS))
def test_float32_aggregates_lie_within_the_screen_bound(data, method):
    # Each split is screened as a block member of its own, so the bounds on
    # a member's maximum bound that split's float64 statistic.
    model, pairs = data
    reach = model.cusum_error_bound()
    for l, u in pairs:
        wide = baselines.cusum_matrix(model, l, u)
        narrow = baselines.cusum_matrix(model, l, u, np.float32)
        assert narrow.dtype == np.float32
        assert np.all(np.abs(narrow.astype(float) - wide) <= reach[:, None])
        exact = baselines.baseline_statistic(wide, method, model.n)
        screened = _screened_aggregates(narrow.T[:, :, None], method, model.n, reach.max())
        low, high = _aggregate_bounds(screened, method, reach)
        assert np.all(low <= exact) and np.all(exact <= high)


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


@pytest.mark.parametrize(
    ("n", "intervals", "seed"), [(3, 5, 1), (8, 40, 2), (60, 100, 3), (200, 0, 4)]
)
def test_calibration_prices_the_intervals_the_detector_scans(n, intervals, seed):
    # A calibrated beta bounds the detector's statistic only if each null
    # replicate takes its maxima over what segmentation_driver scans on the
    # same intervals before its recursion: the distinct stored pairs with
    # a split.  The recording scanner finds nothing, so no recursion follows.
    batches = []

    def record(models, pairs):
        batches.extend(pairs)
        return np.zeros((len(models), 1))

    rng = RandomSource(seed)
    _null_maxima(n, 2, NullModel(), rng, 0.1, 20, intervals, record)
    assert len(batches) == 20
    for rep, pairs in enumerate(batches):
        scanned = []
        drawn = draw_intervals(n, intervals, rng.child(rep, 1))
        segmentation_driver(n, drawn, lambda l, u: scanned.append((l, u)))
        assert len(set(scanned)) == len(scanned)
        assert set(map(tuple, pairs.tolist())) == set(scanned)


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
