"""Penalty construction: defaults, the closed-form sparse threshold, calibration."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from oracles import minimal_quiet_beta
from subsetcp import (
    GAUSSIAN,
    NEGBIN,
    InputDataError,
    NullModel,
    PenaltyConfig,
    RandomSource,
    calibrate_beta,
    dense_cap,
    scan_interval,
    sparse_beta_closed_form,
    theoretical_penalties,
)
from subsetcp.penalties import _minimal_quiet_beta


def test_default_penalty_hand_values():
    pen = theoretical_penalties(1000, 12, J=2.0, eps=0.1)
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


def test_calibration_input_validation():
    null = NullModel(kind=GAUSSIAN, sigma=1.0)
    rng = RandomSource(0)
    with pytest.raises(InputDataError, match="replicates"):
        calibrate_beta(100, 5, null, rng, reps=10)
    with pytest.raises(InputDataError):
        calibrate_beta(100, 1, null, rng, reps=50)
    with pytest.raises(InputDataError):
        calibrate_beta(100, 5, null, rng, target_fp=0.0, reps=50)


def test_calibration_is_reproducible():
    null = NullModel(kind=GAUSSIAN, sigma=1.0)
    a = calibrate_beta(80, 4, null, RandomSource(5), target_fp=0.1, reps=25, intervals=10)
    b = calibrate_beta(80, 4, null, RandomSource(5), target_fp=0.1, reps=25, intervals=10)
    assert a == b
    assert a.source == "calibrated"
    assert a.target_fp == 0.1
    assert a.calib_reps == 25
    assert a.K == pytest.approx(dense_cap(a.beta, 4), abs=1e-12)


def test_calibrated_threshold_hits_target_on_fresh_nulls():
    null = NullModel(kind=GAUSSIAN, sigma=1.0)
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
    from subsetcp import make_matrix, gaussian_model, statistic_profile

    previous = -math.inf
    for delta in np.arange(0.0, 2.01, 0.25):
        y = noise.copy()
        y[:2, 50:] += delta
        profile = statistic_profile(gaussian_model(make_matrix(y), sigma=1.0), pen, 1, 100)
        current = float(profile.s.max())
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
    known = NullModel(kind=GAUSSIAN, sigma=2.0)
    estimated = NullModel(kind=GAUSSIAN, sigma=2.0, estimate_scale=True)
    m_known = known.sample_model(400, 2, src.child(0))
    m_est = estimated.sample_model(400, 2, src.child(0))
    assert np.all(m_known.sigma == 2.0)
    assert not np.any(m_est.sigma == 2.0)
    assert np.all(np.abs(m_est.sigma - 2.0) < 0.5)
