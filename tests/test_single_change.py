"""Single-interval scan: split statistics, penalty branches, tie rules."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import subsetcp.costs as costs
from oracles import cusum, d_statistic
from subsetcp import (
    GAUSSIAN,
    KIND_DENSE,
    KIND_SPARSE,
    NEGBIN,
    CostModel,
    PenaltyConfig,
    gaussian_model,
    make_matrix,
    negbin_model,
)
from subsetcp.baselines import BaselineConfig, scan_interval_baseline
from subsetcp.single_change import branch_sums, scan_interval


def test_split_gain_on_constant_series_is_zero():
    model = gaussian_model(make_matrix([[0, 0, 0, 0]]), sigma=1.0)
    assert np.all(model.gain_matrix(1, 4) == 0.0)
    for t in (1, 2, 3):
        assert d_statistic([0, 0, 0, 0], 1, 4, t, sigma=1.0) == pytest.approx(0.0, abs=1e-12)


def test_split_gain_hand_value():
    model = gaussian_model(make_matrix([[0, 0, 2, 2]]), sigma=1.0)
    assert model.gain_matrix(1, 4)[0, 1] == pytest.approx(4.0, abs=1e-12)
    assert d_statistic([0, 0, 2, 2], 1, 4, 2, sigma=1.0) == pytest.approx(4.0, abs=1e-12)


def test_split_gain_rejects_out_of_range_split():
    # a split t needs l <= t < u, so intervals with no split are rejected
    model = gaussian_model(make_matrix([[0, 0, 2, 2]]), sigma=1.0)
    for l, u in ((4, 4), (3, 2), (0, 4), (2, 5)):
        with pytest.raises(ValueError):
            model.gain_matrix(l, u)


def test_split_gain_equals_squared_cusum():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(8, 40))
        sigma = float(rng.uniform(0.5, 2.0))
        y = sigma * rng.standard_normal(n) + 3.0
        model = gaussian_model(make_matrix([y]), sigma=sigma)
        l = int(rng.integers(1, n - 2))
        u = int(rng.integers(l + 2, n + 1))
        t = int(rng.integers(l, u))
        w = cusum(y, l, u, t, sigma)
        assert model.gain_matrix(l, u)[0, t - l] == pytest.approx(w * w, abs=1e-9)
        assert d_statistic(y, l, u, t, sigma=sigma) == pytest.approx(w * w, abs=1e-9)


def test_scan_sparse_branch_hand_example():
    # D at t=2 is (9, 0.25); alpha = 2 ln 2, beta = 4, K = 10.
    matrix = make_matrix([[0, 0, 3, 3], [0, 0, 0.5, 0.5]])
    model = gaussian_model(matrix, sigma=1.0)
    pen = PenaltyConfig(alpha=2 * math.log(2), beta=4.0, K=10.0, source="manual")
    det = scan_interval(model, pen, 1, 4)
    assert det is not None
    assert det.tau == 2
    assert det.kind == KIND_SPARSE
    assert det.affected == frozenset({1})
    assert det.statistic == pytest.approx(9.0 - 2 * math.log(2) - 4.0, abs=1e-12)
    assert det.interval == (1, 4)


def test_scan_returns_nothing_under_heavy_penalties():
    rng = np.random.default_rng(73)
    model = gaussian_model(make_matrix(rng.standard_normal((3, 50))), sigma=1.0)
    pen = PenaltyConfig(alpha=5.0, beta=1e6, K=1e6, source="manual")
    assert scan_interval(model, pen, 1, 50) is None


def test_scan_rejects_degenerate_interval():
    model = gaussian_model(make_matrix([[0, 1, 2]]), sigma=1.0)
    pen = PenaltyConfig(alpha=1.0, beta=1.0, K=3.0, source="manual")
    with pytest.raises(ValueError):
        scan_interval(model, pen, 3, 4)


def _brute_force_best(gains: np.ndarray, alpha: float, beta: float, K: float):
    """Max over every variate subset and split of the penalized gain sum."""
    d = gains.shape[0]
    masks = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    penalties = np.minimum(beta + alpha * masks.sum(axis=1), K)
    values = masks @ gains - penalties[:, None]
    per_split = values.max(axis=0)
    best = int(np.argmax(per_split))
    return float(per_split[best]), best


def test_scan_matches_exhaustive_subset_search():
    rng = np.random.default_rng(79)
    for _ in range(30):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(6, 25))
        shift = rng.standard_normal((d, 1)) * rng.integers(0, 3, size=(d, 1))
        y = rng.standard_normal((d, n))
        y[:, n // 2 :] += shift
        model = gaussian_model(make_matrix(y), sigma=1.0)
        alpha = float(rng.uniform(0.5, 4.0))
        beta = float(rng.uniform(0.5, 6.0))
        K = beta + d + math.sqrt(2 * beta * d)
        pen = PenaltyConfig(alpha=alpha, beta=beta, K=K, source="manual")
        gains = model.gain_matrix(1, n)
        sparse, dense = branch_sums(gains.copy(), alpha)
        brute_value, brute_t = _brute_force_best(gains, alpha, beta, K)
        s = np.maximum(sparse - beta, dense - K)
        assert float(s.max()) == pytest.approx(brute_value, abs=1e-9)
        assert int(np.argmax(s)) == brute_t


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_branch_sums_equal_the_allocating_form_and_leave_the_excesses(dtype):
    # A batch of 3 blocks of 7 variates, with gains equal to alpha and zeros.
    rng = np.random.default_rng(73)
    alpha = 2.5
    gains = (3.0 * rng.standard_normal((3, 7, 40)) ** 2).astype(dtype)
    gains[0, :, :5] = alpha
    gains[1, :, :5] = 0.0
    excess = np.maximum(gains - alpha, 0.0)
    expected = (excess.sum(axis=-2), gains.sum(axis=-2))
    sums = branch_sums(gains, alpha)
    for got, want in zip(sums, expected):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
    assert gains.tobytes() == excess.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    batch=st.sampled_from([(), (3,)]),
    d=st.integers(1, 30),
    m=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_carried_branch_sums_equal_the_whole_block_sums(dtype, batch, d, m, seed, data):
    # Gains of (d, m) or (G, d, m) blocks, split by rows into parts of one
    # row, parts of a size that does not divide d, and at drawn cut points;
    # each part carries the sums of the parts before it.  The last sums must
    # equal the whole block's, byte for byte.
    rng = np.random.default_rng(seed)
    alpha = float(rng.uniform(0.0, 6.0))
    gains = (3.0 * rng.standard_normal((*batch, d, m)) ** 2).astype(dtype)
    gains[..., rng.random(d) < 0.2, :] = dtype(alpha)
    gains[..., rng.random(d) < 0.2, :] = 0.0
    want = branch_sums(gains.copy(), alpha)
    cuts = data.draw(st.lists(st.integers(1, d - 1), unique=True)) if d > 1 else []
    non_divisors = [k for k in range(2, d) if d % k]
    splits = [range(1, d), range(0, d, non_divisors[0])[1:] if non_divisors else [], cuts]
    for split in splits:
        bounds = [0, *sorted(split), d]
        sums = None
        for start, stop in zip(bounds, bounds[1:]):
            sums = branch_sums(gains[..., start:stop, :].copy(), alpha, sums)
        for got, expected in zip(sums, want):
            assert got.dtype == expected.dtype == dtype
            assert got.tobytes() == expected.tobytes()


def test_statistic_is_branch_maximum_and_gains_nonnegative():
    rng = np.random.default_rng(83)
    model = gaussian_model(make_matrix(rng.standard_normal((4, 30))), sigma=1.0)
    pen = PenaltyConfig(alpha=1.0, beta=2.0, K=9.0, source="manual")
    gains = model.gain_matrix(3, 28)
    sparse, dense = branch_sums(gains.copy(), pen.alpha)
    assert np.all(gains >= 0.0)
    s = np.maximum(sparse - pen.beta, dense - pen.K)
    det = scan_interval(model, pen, 3, 28)
    assert det is not None and det.statistic == s.max() and det.tau == 3 + int(np.argmax(s))
    assert gains.shape == (4, 25)


def test_sparse_affected_set_is_exactly_above_threshold():
    rng = np.random.default_rng(89)
    y = rng.standard_normal((5, 60))
    y[1, 30:] += 3.0
    y[4, 30:] += 2.0
    model = gaussian_model(make_matrix(y), sigma=1.0)
    pen = PenaltyConfig(alpha=2 * math.log(5), beta=5.0, K=100.0, source="manual")
    det = scan_interval(model, pen, 1, 60)
    assert det is not None and det.kind == KIND_SPARSE
    gains = model.gain_matrix(1, 60)[:, det.tau - 1]
    assert det.affected == frozenset(
        int(i) + 1 for i in np.flatnonzero(gains > pen.alpha)
    )


def test_dense_branch_labels_every_variate():
    # huge alpha empties the sparse branch; the capped branch still fires
    rng = np.random.default_rng(97)
    y = rng.standard_normal((6, 80)) + np.repeat([0.0, 1.5], 40)[None, :]
    model = gaussian_model(make_matrix(y), sigma=1.0)
    pen = PenaltyConfig(alpha=1e6, beta=5.0, K=20.0, source="manual")
    det = scan_interval(model, pen, 1, 80)
    assert det is not None
    assert det.kind == KIND_DENSE
    assert det.affected == frozenset(range(1, 7))
    # Dense candidates of one model, and baseline candidates, share one set.
    other = scan_interval(model, pen, 11, 70)
    baseline = scan_interval_baseline(model, BaselineConfig("mean", 0.1), 1, 80)
    assert other is not None and other.kind == KIND_DENSE and baseline is not None
    assert other.affected is det.affected and baseline.affected is det.affected


def test_equal_splits_keep_the_smallest_index():
    # symmetric series: t=1 and t=2 give identical statistics
    model = gaussian_model(make_matrix([[1.0, 0.0, 1.0]]), sigma=1.0)
    pen = PenaltyConfig(alpha=0.01, beta=0.01, K=1.0, source="manual")
    det = scan_interval(model, pen, 1, 3)
    assert det is not None
    assert det.tau == 1


def test_exact_branch_tie_is_labelled_sparse():
    # d=1 with alpha=1, beta=1, K=2: branches agree whenever D >= 1
    model = gaussian_model(make_matrix([[0, 0, 2, 2]]), sigma=1.0)
    pen = PenaltyConfig(alpha=1.0, beta=1.0, K=2.0, source="manual")
    sparse, dense = branch_sums(model.gain_matrix(1, 4), pen.alpha)
    s1, s2 = sparse - pen.beta, dense - pen.K
    best = int(np.argmax(np.maximum(s1, s2)))
    assert s1[best] == pytest.approx(s2[best], abs=1e-12)
    det = scan_interval(model, pen, 1, 4)
    assert det is not None and det.kind == KIND_SPARSE


def test_scan_outcome_invariant_to_common_rescaling():
    rng = np.random.default_rng(101)
    y = rng.standard_normal((3, 40))
    y[0, 20:] += 2.0
    pen = PenaltyConfig(alpha=2 * math.log(3), beta=3.0, K=12.0, source="manual")
    base = scan_interval(gaussian_model(make_matrix(y), sigma=1.0), pen, 1, 40)
    scaled = scan_interval(gaussian_model(make_matrix(7.5 * y), sigma=7.5), pen, 1, 40)
    assert base is not None and scaled is not None
    assert (base.tau, base.kind, base.affected) == (scaled.tau, scaled.kind, scaled.affected)
    assert base.statistic == pytest.approx(scaled.statistic, rel=1e-9)


@st.composite
def _scan_cases(draw):
    """A short panel of either model with a change on some variates, an
    interval (l, u) with at least two splits, and three fractions that place
    alpha below the largest gain and beta and K among the branch sums."""
    kind = draw(st.sampled_from([GAUSSIAN, NEGBIN]))
    n = draw(st.integers(3, 30))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tau = draw(st.integers(1, n - 1))
    shifted = rng.random(d) < 0.5
    if kind == GAUSSIAN:
        y = rng.standard_normal((d, n)) + rng.uniform(-5.0, 5.0, size=(d, 1))
        y[shifted, tau:] += draw(st.sampled_from([0.0, 1.0, 3.0]))
        y *= rng.uniform(0.5, 3.0, size=(d, 1))
    else:
        r = rng.choice([0.5, 5.0, 50.0], size=(d, 1))
        mean = np.repeat(rng.uniform(3.0, 30.0, size=(d, 1)), n, axis=1)
        mean[shifted, tau:] *= draw(st.sampled_from([1.0, 2.0, 4.0]))
        y = rng.negative_binomial(r, r / (r + mean)).astype(float)
    l = draw(st.integers(1, n - 2))
    u = draw(st.integers(l + 2, n))
    fractions = draw(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 1.5), st.floats(0.05, 1.5)))
    return kind, y, l, u, fractions


def test_scan_matches_the_scalar_oracle():
    # oracles.scan_interval scores every split with d_statistic on the raw
    # series, each variate with the sigma given or its own moments r, so a
    # parameter fed to the wrong variate changes the gains.  Draws whose
    # outcome turns on a near-tie (two splits, the two branches, a gain and
    # alpha, or the statistic and 0, within 1e-9 of the gains' scale) are
    # discarded, and they must stay rare.
    draws = {"all": 0, "near_tie": 0}

    @settings(max_examples=300, deadline=None)
    @given(case=_scan_cases())
    def check(case):
        kind, y, l, u, (fa, fb, fk) = case
        draws["all"] += 1
        if kind == GAUSSIAN:
            sigma = np.std(y, axis=1) + 0.5
            model = gaussian_model(make_matrix(y), sigma=sigma)
            params = [{"sigma": float(s)} for s in sigma]
        else:
            model = negbin_model(make_matrix(y))
            params = [{"r": oracles.moments_dispersion(row)} for row in y]
        gains = oracles.split_gains(y, l, u, params)
        top = float(gains.max())
        alpha = fa * top if top > 0.0 else fa
        sparse = np.maximum(gains - alpha, 0.0).sum(axis=0)
        dense = gains.sum(axis=0)
        beta = fb * float(sparse.max())
        pen = PenaltyConfig(alpha, beta, max(beta, fk * float(dense.max())))
        s1, s2 = sparse - pen.beta, dense - pen.K
        s = np.maximum(s1, s2)
        best = int(np.argmax(s))
        tol = 1e-9 * (1.0 + float(dense.max()) + pen.beta + pen.K)
        others = np.delete(s, best)
        # Only a detection reads the split, the branch and the affected set.
        near_tie = abs(s[best]) <= tol or (
            s[best] > 0.0
            and (
                abs(s1[best] - s2[best]) <= tol
                or np.any(np.abs(gains[:, best] - alpha) <= tol)
                or np.any(others >= s[best] - tol)
            )
        )
        if near_tie:
            draws["near_tie"] += 1
        assume(not near_tie)
        got = scan_interval(model, pen, l, u)
        want = oracles.scan_interval(y, l, u, pen, params)
        if want is None:
            assert got is None
            return
        assert got is not None
        assert (got.tau, got.kind, got.affected, got.interval) == (
            want.tau, want.kind, want.affected, want.interval
        )
        assert abs(got.statistic - want.statistic) <= tol

    check()
    assert draws["near_tie"] < 0.1 * draws["all"]


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from([GAUSSIAN, NEGBIN]),
    n=st.integers(3, 40),
    d=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    fractions=st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
    split=st.integers(1, 39),
)
def test_blocked_scan_equals_the_one_block_scan(kind, n, d, seed, fractions, split):
    # scan_interval prices (l, u) a block of rows at a time; with one row per
    # block, with a block size that does not divide d, and at the default it
    # must give the one-block scan's tau, kind, affected set and statistic
    # bytes, and price every (variate, split) cell exactly once.
    rng = np.random.default_rng(seed)
    tau = 1 + split % (n - 1)
    shifted = rng.random(d) < 0.3
    if kind == GAUSSIAN:
        y = rng.standard_normal((d, n)) + rng.uniform(-5.0, 5.0, size=(d, 1))
        y[shifted, tau:] += 2.0
        model = gaussian_model(make_matrix(y), sigma=rng.uniform(0.5, 2.0, size=d))
    else:
        mean = np.repeat(rng.uniform(3.0, 30.0, size=(d, 1)), n, axis=1)
        mean[shifted, tau:] *= 3.0
        y = rng.negative_binomial(5.0, 5.0 / (5.0 + mean)).astype(float)
        model = negbin_model(make_matrix(y))
    l = int(rng.integers(1, n - 1))
    u = int(rng.integers(l + 2, n + 1))
    gains = model.gain_matrix(l, u)
    fa, fb, fk = fractions
    alpha = fa * float(gains.max())
    sparse, dense = branch_sums(gains, alpha)
    beta = fb * float(sparse.max())
    pen = PenaltyConfig(alpha, beta, max(beta, fk * float(dense.max())))
    want = oracles.one_block_scan(model, pen, l, u)

    cells = []
    gain_matrix = CostModel.gain_matrix

    def counted(block, *args):
        cells.append(block.d * (u - l))
        return gain_matrix(block, *args)

    non_divisors = [k for k in range(2, d) if d % k]
    for rows in [1, *non_divisors[:1], None]:
        patched = costs._ROW_BLOCK_CELLS if rows is None else rows * (u - l)
        cells.clear()
        with mock.patch.object(costs, "_ROW_BLOCK_CELLS", patched), mock.patch.object(
            CostModel, "gain_matrix", counted
        ):
            got = scan_interval(model, pen, l, u)
        assert sum(cells) == d * (u - l)
        if rows is not None:
            assert len(cells) == -(-d // rows)
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert (got.tau, got.kind, got.affected, got.interval) == (
            want.tau, want.kind, want.affected, want.interval
        )
        assert np.float64(got.statistic).tobytes() == np.float64(want.statistic).tobytes()
