"""Random-interval segmentation driver: drawing, recursion, determinism."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from subsetcp import (
    KIND_DENSE,
    NEGBIN,
    Detection,
    GAUSSIAN,
    InputDataError,
    IntervalSet,
    NullModel,
    PenaltyConfig,
    RandomSource,
    TimeSeriesMatrix,
    calibrate_beta,
    draw_intervals,
    gaussian_model,
    make_matrix,
    negbin_model,
    postprocess,
    subset_wbs,
)
from subsetcp.baselines import BASELINE_METHODS, BaselineConfig, scan_interval_baseline
from subsetcp.simlab import ChangeSpec, ScenarioSpec, generate
from subsetcp.single_change import scan_interval
from subsetcp.wbs import segmentation_driver


def test_zero_extra_intervals_means_plain_binary_segmentation():
    iv = draw_intervals(10, 0, RandomSource(1))
    assert iv.pairs == ((1, 10),)


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
        IntervalSet(n=10, pairs=((2, 9), (1, 10)))
    with pytest.raises(ValueError):
        IntervalSet(n=10, pairs=())
    with pytest.raises(ValueError):
        IntervalSet(n=10, pairs=((1, 10), (0, 5)))


def test_two_strong_changes_found_without_random_intervals():
    rng = np.random.default_rng(207)
    base = np.zeros(60)
    base[20:40] += 10.0
    base[40:] += 20.0
    y = base + 0.01 * rng.standard_normal(60)
    matrix = make_matrix([y])
    model = gaussian_model(matrix, sigma=1.0)
    pen = PenaltyConfig(alpha=2.0, beta=8.0, K=11.0, source="manual")
    result = subset_wbs(model, pen, draw_intervals(60, 0, RandomSource(0)))
    assert [det.tau for det in result.detections] == [20, 40]


def test_detections_stay_inside_their_intervals_and_are_sorted():
    rng = np.random.default_rng(301)
    y = rng.standard_normal((3, 200))
    y[0, 60:] += 2.0
    y[1, 140:] += 2.0
    matrix = make_matrix(y)
    model = gaussian_model(matrix, sigma=1.0)
    pen = PenaltyConfig(alpha=2.2, beta=9.0, K=18.0, source="manual")
    iv = draw_intervals(200, 150, RandomSource(4))
    result = subset_wbs(model, pen, iv)
    taus = [det.tau for det in result.detections]
    assert list(taus) == sorted(taus)
    assert len(set(taus)) == len(taus)
    for det in result.detections:
        l, u = det.interval
        assert 1 <= l <= det.tau < u <= 200
    assert result.n == 200


def test_same_inputs_give_identical_segmentations():
    rng = np.random.default_rng(302)
    y = rng.standard_normal((2, 120))
    y[:, 70:] += 1.5
    matrix = make_matrix(y)
    model = gaussian_model(matrix, sigma=1.0)
    pen = PenaltyConfig(alpha=1.4, beta=7.0, K=14.0, source="manual")
    iv = draw_intervals(120, 80, RandomSource(6))
    a = subset_wbs(model, pen, iv)
    b = subset_wbs(model, pen, iv)
    assert a == b


def test_interval_set_length_must_match_data():
    matrix = make_matrix([[0.0, 1.0, 0.0, 1.0, 0.0]])
    model = gaussian_model(matrix, sigma=1.0)
    pen = PenaltyConfig(alpha=1.0, beta=1.0, K=3.0, source="manual")
    iv = draw_intervals(7, 0, RandomSource(0))
    with pytest.raises(InputDataError):
        subset_wbs(model, pen, iv)


def test_null_data_with_calibrated_penalties_rarely_detects():
    null = NullModel(kind=GAUSSIAN)
    src = RandomSource(208)
    pen = calibrate_beta(100, 5, null, src.child(0), target_fp=0.1, reps=60, intervals=30)
    names = tuple(f"x{i}" for i in range(1, 6))
    empty = 0
    for rep in range(100):
        model = null.sample_model(100, 5, src.child(1, rep))
        values = model.cum_y[:, 1:] - model.cum_y[:, :-1]
        matrix = TimeSeriesMatrix(np.asarray(values), names)
        iv = draw_intervals(100, 30, src.child(2, rep))
        result = subset_wbs(model, pen, iv)
        empty += not result.detections
    assert 0.80 <= empty / 100 <= 0.97


def test_single_dense_change_is_found_exactly_once():
    n, d = 1000, 12
    null = NullModel(kind=GAUSSIAN)
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
        result = subset_wbs(model, pen, iv)
        close = [det for det in result.detections if abs(det.tau - 600) <= 7]
        exactly_one += len(close) == 1 and len(result.detections) == 1
    assert exactly_one >= 95


def _pair(n):
    ends = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    return ends.map(lambda p: (min(p), max(p)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scanning_each_interval_once_matches_rescanning(data):
    n = data.draw(st.integers(3, 60), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    kind = data.draw(st.sampled_from((GAUSSIAN, NEGBIN)), label="model")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == GAUSSIAN:
        # Small integers give many exactly equal gains.
        model = gaussian_model(make_matrix(rng.integers(0, 4, (d, n))), sigma=1.0)
    else:
        model = negbin_model(make_matrix(rng.negative_binomial(5, 0.5, (d, n))))
    alpha = data.draw(st.floats(0.0, 3.0), label="alpha")
    beta = data.draw(st.floats(0.0, 4.0), label="beta")
    K = beta + data.draw(st.floats(0.0, 2.0 * d), label="K - beta")
    pen = PenaltyConfig(alpha=alpha, beta=beta, K=K)
    scanners = [lambda l, u: scan_interval(model, pen, l, u)]
    if kind == GAUSSIAN:
        for method in BASELINE_METHODS:
            config = BaselineConfig(method, data.draw(st.floats(0.0, 2.0), label=method))
            scanners.append(lambda l, u, c=config: scan_interval_baseline(model, c, l, u))

    # Stored intervals repeat each other and the intervals, segments
    # included, that a first recursion scans.
    pairs = data.draw(st.lists(_pair(n), max_size=20), label="pairs")
    if pairs:
        pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=5), label="repeats")
    visited = set()

    def recording(l, u):
        visited.add((l, u))
        return scanners[0](l, u)

    oracles.segmentation_driver(n, IntervalSet(n, ((1, n), *pairs)), recording)
    pairs += data.draw(st.lists(st.sampled_from(sorted(visited)), max_size=5), label="visited")
    iv = IntervalSet(n, ((1, n), *pairs))
    for scan in scanners:
        assert segmentation_driver(n, iv, scan) == oracles.segmentation_driver(n, iv, scan)


def test_each_interval_is_scanned_once_and_ties_go_to_the_segment_then_the_lowest_index():
    def det(tau, interval):
        return Detection(tau, KIND_DENSE, frozenset({1}), 5.0, interval)

    # Every candidate has statistic 5.0.  (1, 20) ties (3, 9) and (11, 18)
    # and wins as the segment; inside (1, 10), (3, 9) at index 1 beats
    # (2, 10) at index 4.
    candidates = {(1, 20): det(10, (1, 20)), (3, 9): det(6, (3, 9)),
                  (2, 10): det(4, (2, 10)), (11, 18): det(14, (11, 18))}
    pairs = ((1, 20), (3, 9), (3, 9), (11, 18), (2, 10), (11, 18), (1, 10))
    calls = {}

    def scan(l, u):
        calls[l, u] = calls.get((l, u), 0) + 1
        return candidates.get((l, u))

    found = segmentation_driver(20, IntervalSet(20, pairs), scan)
    assert found == [candidates[3, 9], candidates[1, 20], candidates[11, 18]]
    assert calls == dict.fromkeys(
        [(1, 20), (3, 9), (11, 18), (2, 10), (1, 10), (11, 20), (1, 6), (7, 10), (11, 14),
         (15, 20)],
        1,
    )


@st.composite
def _detector_cases(draw):
    """A short panel of either model with changes on some variates, its
    stored intervals, and manual penalties placed among the gains of the
    full interval, as (kind, y, sigma, pairs, penalties, tied).  Gaussian
    scales are given (``sigma``); count dispersions are estimated.  ``tied``
    is False: these draws are kept only without near ties."""
    kind = draw(st.sampled_from([GAUSSIAN, NEGBIN]))
    n = draw(st.integers(3, 30))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taus = sorted(set(draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=2))))
    if kind == GAUSSIAN:
        y = rng.standard_normal((d, n)) + rng.uniform(-5.0, 5.0, size=(d, 1))
        for tau in taus:
            y[rng.random(d) < 0.5, tau:] += draw(st.sampled_from([1.0, 3.0]))
        y *= rng.uniform(0.5, 3.0, size=(d, 1))
        sigma = np.std(y, axis=1) + 0.5
    else:
        r = rng.choice([0.5, 5.0, 50.0], size=(d, 1))
        mean = np.repeat(rng.uniform(3.0, 30.0, size=(d, 1)), n, axis=1)
        for tau in taus:
            mean[rng.random(d) < 0.5, tau:] *= draw(st.sampled_from([2.0, 4.0]))
        y = rng.negative_binomial(r, r / (r + mean)).astype(float)
        sigma = None
    pairs = draw(st.lists(_pair(n), max_size=8))
    gains = oracles.split_gains(y, 1, n, _oracle_params(kind, y, sigma))
    fa, fb, fk = draw(
        st.tuples(st.floats(0.05, 0.95), st.floats(0.2, 1.5), st.floats(0.2, 1.5))
    )
    top = float(gains.max())
    alpha = fa * top if top > 0.0 else fa
    beta = fb * float(np.maximum(gains - alpha, 0.0).sum(axis=0).max())
    pen = PenaltyConfig(alpha, beta, max(beta, fk * float(gains.sum(axis=0).max())))
    return kind, y, sigma, pairs, pen, False


def _oracle_params(kind, y, sigma):
    if kind == GAUSSIAN:
        return [{"sigma": float(s)} for s in sigma]
    return [{"r": oracles.moments_dispersion(row)} for row in y]


def test_detector_matches_the_whole_detector_oracle():
    # oracles.subset_wbs runs the scalar scanner through the memo-free
    # driver and postprocesses by enumerating partitions, all on the raw
    # series.  A draw in which any comparison of the oracle (two splits,
    # two candidates of a step, the branches, a gain and alpha, a statistic
    # and 0, two partitions) lies within 1e-9 relative is discarded, and
    # such draws must stay rare.  The explicit examples are exact ties in
    # both, which the tie rules must decide as the oracle does: a series
    # mirrored about its midpoint (on two duplicated variates) ties two
    # splits, so the smaller wins; alpha = 0 with K = beta ties the
    # branches, so the candidate is sparse; and two overlapping stored
    # intervals holding the same values tie, so the first stored wins (were
    # the second to win, the first would straddle its split and be lost).
    draws = {"all": 0, "near_tie": 0}

    @settings(max_examples=200, deadline=None)
    @given(case=_detector_cases())
    @example(case=(GAUSSIAN, np.array([[0.0, 3, 0], [0, 3, 0]]), [1.0, 1.0], [],
                   PenaltyConfig(1.0, 0.25, 10.0), True))
    @example(case=(GAUSSIAN, np.array([[0.0, 0, 3, 3]]), [1.0], [],
                   PenaltyConfig(0.0, 1.0, 1.0), True))
    @example(case=(GAUSSIAN, np.array([[7.0, 1, 7, 1, 7, 1]]), [1.0], [(1, 4), (3, 6)],
                   PenaltyConfig(1.0, 10.0, 100.0), True))
    def check(case):
        kind, y, sigma, pairs, pen, tied = case
        n = y.shape[1]
        draws["all"] += 1
        ties = oracles.TieLog(1e-9)
        iv = IntervalSet(n, ((1, n), *pairs))
        want = oracles.subset_wbs(y, iv, pen, _oracle_params(kind, y, sigma), ties)
        if tied:
            assert ties.ties
        else:
            draws["near_tie"] += bool(ties.ties)
            assume(not ties.ties)
        matrix = make_matrix(y)
        model = gaussian_model(matrix, sigma=sigma) if kind == GAUSSIAN else negbin_model(matrix)
        got = postprocess(model, subset_wbs(model, pen, iv)).detections
        assert [(g.tau, g.kind, g.affected, g.interval) for g in got] == [
            (w.tau, w.kind, w.affected, w.interval) for w in want
        ]
        for g, w in zip(got, want):
            assert abs(g.statistic - w.statistic) <= 1e-9 * (1.0 + abs(w.statistic))

    check()
    assert draws["near_tie"] < 0.1 * draws["all"]


def test_reversing_time_mirrors_the_detections():
    # Reversing time maps the split after t to the split after n - t, and
    # interval (l, u) to (n + 1 - u, n + 1 - l).  With every stored interval
    # mirrored, each detection must move from tau to n - tau with the same
    # kind, affected set and statistic, on both models.  Draws in which a
    # comparison of the oracle, on either series, lies within 1e-9 relative
    # are discarded, as in the whole-detector oracle test: the tie rules
    # (smallest split, first stored interval) do not commute with reversal.
    draws = {"all": 0, "near_tie": 0}

    @settings(max_examples=150, deadline=None)
    @given(case=_detector_cases())
    def check(case):
        kind, y, sigma, pairs, pen, _ = case
        n = y.shape[1]
        draws["all"] += 1
        forward = IntervalSet(n, ((1, n), *pairs))
        backward = IntervalSet(n, tuple((n + 1 - u, n + 1 - l) for l, u in forward.pairs))
        ties = oracles.TieLog(1e-9)
        found = []
        for series, iv in ((y, forward), (y[:, ::-1], backward)):
            oracles.subset_wbs(series, iv, pen, _oracle_params(kind, series, sigma), ties)
            matrix = make_matrix(series)
            model = gaussian_model(matrix, sigma) if kind == GAUSSIAN else negbin_model(matrix)
            found.append(postprocess(model, subset_wbs(model, pen, iv)).detections)
        draws["near_tie"] += bool(ties.ties)
        assume(not ties.ties)
        ahead, behind = found
        mirrored = {}
        for det in behind:
            l, u = det.interval
            mirrored[n - det.tau] = (det.kind, det.affected, (n + 1 - u, n + 1 - l), det.statistic)
        assert sorted(mirrored) == sorted(det.tau for det in ahead)
        for det in ahead:
            kind, affected, interval, statistic = mirrored[det.tau]
            assert (det.kind, det.affected, det.interval) == (kind, affected, interval)
            assert abs(statistic - det.statistic) <= 1e-9 * (1.0 + abs(det.statistic))

    check()
    assert draws["near_tie"] < 0.1 * draws["all"]
