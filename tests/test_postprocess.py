"""Per-variate candidate assignment and pruning of orphan detections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import best_partition, fixed_r_model, gaussian_cost, kept_taus
from subsetcp import (
    GAUSSIAN,
    NEGBIN,
    Detection,
    PenaltyConfig,
    SegmentationResult,
    gaussian_model,
    make_matrix,
    optimal_partition,
    postprocess,
)


def _pen(alpha: float) -> PenaltyConfig:
    return PenaltyConfig(alpha=alpha, beta=1.0, K=10.0, source="manual")


def test_partition_keeps_a_clear_split():
    matrix = make_matrix([[0.0, 0.0, 0.0, 5.0, 5.0, 5.0]])
    model = gaussian_model(matrix, sigma=1.0)
    assert optimal_partition(model, (3,), 4.0).tolist() == [[True]]


def test_partition_with_no_candidates_charges_one_segment():
    matrix = make_matrix([[0.0, 0.0, 0.0, 5.0, 5.0, 5.0]])
    model = gaussian_model(matrix, sigma=1.0)
    assert optimal_partition(model, (), 4.0).shape == (1, 0)
    assert gaussian_cost(matrix.values[0], 1, 6) == pytest.approx(37.5)


def test_partition_drops_an_expensive_split():
    matrix = make_matrix([[0.0, 0.0, 0.0, 5.0, 5.0, 5.0]])
    model = gaussian_model(matrix, sigma=1.0)
    # keeping the split costs 0 + 0 + 2 * 41, more than 37.5 + 41
    assert optimal_partition(model, (3,), 41.0).tolist() == [[False]]
    assert optimal_partition(model, (3,), 36.0).tolist() == [[True]]


def test_partition_rejects_bad_candidates():
    matrix = make_matrix([[0.0, 1.0, 0.0, 1.0, 0.0, 1.0]])
    model = gaussian_model(matrix, sigma=1.0)
    with pytest.raises(ValueError, match="increasing"):
        optimal_partition(model, (4, 2), 1.0)
    with pytest.raises(ValueError):
        optimal_partition(model, (0, 2), 1.0)
    with pytest.raises(ValueError):
        optimal_partition(model, (6,), 1.0)
    with pytest.raises(ValueError, match="alpha"):
        optimal_partition(model, (2,), -1.0)


def test_partition_matches_exhaustive_subset_search():
    rng = np.random.default_rng(401)
    for _ in range(25):
        n = int(rng.integers(12, 30))
        y = rng.standard_normal((2, n))
        jumps = rng.choice(np.arange(3, n - 2), size=2, replace=False)
        for j in jumps:
            y[0, j:] += rng.normal(0, 2)
        matrix = make_matrix(y)
        model = gaussian_model(matrix, sigma=1.0)
        q = int(rng.integers(1, 6))
        taus = sorted(rng.choice(np.arange(1, n), size=q, replace=False).tolist())
        alpha = float(rng.uniform(0.5, 6.0))
        selected = kept_taus(optimal_partition(model, taus, alpha), taus)
        for i in (1, 2):
            assert selected[i - 1] == best_partition(y[i - 1], taus, alpha, sigma=1.0)

    rng = np.random.default_rng(402)
    for _ in range(25):
        n = int(rng.integers(12, 30))
        counts = rng.negative_binomial(4, 0.4, size=(1, n)).astype(float)
        counts[0, n // 2 :] *= 3
        model = fixed_r_model(make_matrix(counts), 4.0)
        taus = sorted(rng.choice(np.arange(1, n), size=4, replace=False).tolist())
        alpha = float(rng.uniform(0.5, 6.0))
        want = best_partition(counts[0], taus, alpha, r=4.0)
        assert kept_taus(optimal_partition(model, taus, alpha), taus) == [want]


@st.composite
def _partition_problems(draw):
    """A panel of up to 5 variates with at most one planted change each, up
    to 6 candidates and an alpha that may be 0.  Count panels give every
    variate its own dispersion and may hold all-zero variates."""
    kind = draw(st.sampled_from([GAUSSIAN, NEGBIN]))
    d = draw(st.integers(1, 5))
    n = draw(st.integers(2, 40))
    q = draw(st.integers(0, min(6, n - 1)))
    alpha = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taus = sorted(rng.choice(np.arange(1, n), size=q, replace=False).tolist())
    after = np.arange(n) >= rng.integers(0, n, size=(d, 1))
    if kind == GAUSSIAN:
        y = rng.standard_normal((d, n)) + rng.normal(0.0, 2.0, size=(d, 1)) * after
        return gaussian_model(make_matrix(y), sigma=1.0), y, taus, alpha, [{"sigma": 1.0}] * d
    r = np.array(draw(st.permutations([0.5, 2.0, 7.0, 40.0, 1e4]))[:d])
    rate = rng.uniform(50.0, 500.0, size=(d, 1)) * np.where(after, rng.uniform(0.5, 2.0), 1.0)
    y = rng.negative_binomial(r[:, None], r[:, None] / (r[:, None] + rate)).astype(float)
    y[sorted(draw(st.sets(st.integers(0, d - 1), max_size=d)))] = 0.0
    return fixed_r_model(make_matrix(y), r), y, taus, alpha, [{"r": v} for v in r]


@settings(max_examples=100, deadline=None)
@given(problem=_partition_problems())
def test_partition_matches_exhaustive_search_on_every_variate(problem):
    model, y, taus, alpha, params = problem
    selected = kept_taus(optimal_partition(model, taus, alpha), taus)
    want = [best_partition(row, taus, alpha, **param) for row, param in zip(y, params)]
    assert selected == want


def test_postprocess_reassigns_variates_to_their_own_changes():
    rng = np.random.default_rng(403)
    y = rng.standard_normal((3, 120))
    y[0, 40:] += 4.0
    y[1, 80:] += 4.0
    matrix = make_matrix(y)
    model = gaussian_model(matrix, sigma=1.0)
    raw = SegmentationResult(
        detections=(
            Detection(
                tau=40,
                kind="sparse",
                affected=frozenset({1, 2}),
                statistic=50.0,
                interval=(1, 120),
            ),
            Detection(
                tau=80,
                kind="sparse",
                affected=frozenset({2}),
                statistic=50.0,
                interval=(1, 120),
            ),
        ),
        penalties=_pen(4.0),
        n=120,
    )
    cleaned = postprocess(model, raw)
    assert [det.tau for det in cleaned.detections] == [40, 80]
    assert cleaned.detections[0].affected == frozenset({1})
    assert cleaned.detections[1].affected == frozenset({2})


def test_postprocess_drops_candidates_no_variate_wants():
    rng = np.random.default_rng(404)
    y = rng.standard_normal((2, 100))
    y[:, 50:] += 5.0
    matrix = make_matrix(y)
    model = gaussian_model(matrix, sigma=1.0)
    raw = SegmentationResult(
        detections=(
            Detection(
                tau=17,
                kind="sparse",
                affected=frozenset({1}),
                statistic=3.0,
                interval=(1, 100),
            ),
            Detection(
                tau=50,
                kind="dense",
                affected=frozenset({1, 2}),
                statistic=400.0,
                interval=(1, 100),
            ),
        ),
        penalties=_pen(3.0),
        n=100,
    )
    cleaned = postprocess(model, raw)
    assert [det.tau for det in cleaned.detections] == [50]
    assert cleaned.detections[0].affected == frozenset({1, 2})


def test_postprocess_keeps_labels_statistics_and_metadata():
    rng = np.random.default_rng(405)
    y = rng.standard_normal((2, 80))
    y[:, 30:] += 5.0
    matrix = make_matrix(y)
    model = gaussian_model(matrix, sigma=1.0)
    raw = SegmentationResult(
        detections=(
            Detection(
                tau=30,
                kind="dense",
                affected=frozenset({1, 2}),
                statistic=123.0,
                interval=(1, 80),
            ),
        ),
        penalties=_pen(2.5),
        n=80,
    )
    cleaned = postprocess(model, raw)
    det = cleaned.detections[0]
    assert det.kind == "dense"
    assert det.statistic == 123.0
    assert det.interval == (1, 80)
    assert cleaned.penalties == raw.penalties


def test_postprocess_without_candidates_is_a_no_op():
    matrix = make_matrix([[0.0, 1.0, 0.0, 1.0]])
    model = gaussian_model(matrix, sigma=1.0)
    raw = SegmentationResult(detections=(), penalties=_pen(1.0), n=4)
    assert postprocess(model, raw) is raw


def test_huge_alpha_empties_the_result():
    rng = np.random.default_rng(406)
    y = rng.standard_normal((2, 60))
    y[:, 30:] += 2.0
    matrix = make_matrix(y)
    model = gaussian_model(matrix, sigma=1.0)
    raw = SegmentationResult(
        detections=(
            Detection(
                tau=30,
                kind="dense",
                affected=frozenset({1, 2}),
                statistic=9.0,
                interval=(1, 60),
            ),
        ),
        penalties=_pen(1e9),
        n=60,
    )
    assert postprocess(model, raw).detections == ()


def test_partition_ignores_variate_order_of_other_rows():
    rng = np.random.default_rng(407)
    y = rng.standard_normal((3, 50))
    y[1, 25:] += 3.0
    model_a = gaussian_model(make_matrix(y), sigma=1.0)
    model_b = gaussian_model(make_matrix(y[::-1]), sigma=1.0)
    a = optimal_partition(model_a, (10, 25, 40), 3.0)
    b = optimal_partition(model_b, (10, 25, 40), 3.0)
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a, b[::-1])
