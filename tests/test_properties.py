"""Invariance properties: results must not change under transformations the
model says are irrelevant."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsetcp import (
    RandomSource,
    draw_intervals,
    gaussian_model,
    make_matrix,
    negbin_model,
    postprocess,
    subset_wbs,
)
from subsetcp.penalties import theoretical_penalties

N, D = 120, 6
SEEDS = st.integers(0, 2**32 - 1)


def _panel(seed: int) -> np.ndarray:
    """Noise on a 1/8 grid with a sparse change and a dense one.

    Grid values stay exact when an integer offset up to 1e8 is added, so an
    offset panel differs from this one by a pure shift and nothing else.
    """
    rng = np.random.default_rng(seed)
    y = np.round(8 * rng.standard_normal((D, N))) / 8
    y[:2, 40:] += 2.0
    y[:, 85:] += 1.0
    return y


def _detect(y: np.ndarray, seed: int):
    matrix = make_matrix(y)
    model = gaussian_model(matrix)
    pen = theoretical_penalties(N, D)
    result = subset_wbs(model, pen, draw_intervals(N, 40, RandomSource(seed)))
    return postprocess(model, result).detections


@settings(max_examples=25, deadline=None)
@given(
    seed=SEEDS,
    offsets=st.lists(st.integers(-(10**8), 10**8), min_size=D, max_size=D),
)
@example(seed=0, offsets=[10**8, -(10**8), 10**8, 10**6, -(10**6), 0])
def test_gaussian_results_ignore_per_variate_offsets(seed, offsets):
    y = _panel(seed)
    shifted = y + np.array(offsets, dtype=float)[:, None]
    a = gaussian_model(make_matrix(y), sigma=1.0)
    b = gaussian_model(make_matrix(shifted), sigma=1.0)
    for l, u in ((1, N), (30, 100), (84, 87)):
        np.testing.assert_allclose(b.gain_matrix(l, u), a.gain_matrix(l, u), rtol=1e-9, atol=1e-9)
    want = [(det.tau, det.kind, det.affected) for det in _detect(y, seed)]
    assert want
    assert [(det.tau, det.kind, det.affected) for det in _detect(shifted, seed)] == want


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, perm=st.permutations(range(D)))
def test_permuting_variates_permutes_affected_sets(seed, perm):
    y = _panel(seed)
    # row j of the permuted panel is variate perm[j] + 1 of the original
    permuted = _detect(y[list(perm)], seed)
    want = [(det.tau, det.kind, det.affected) for det in _detect(y, seed)]
    got = [
        (det.tau, det.kind, frozenset(perm[i - 1] + 1 for i in det.affected))
        for det in permuted
    ]
    assert got == want


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, scale=st.floats(1e-3, 1e3))
@example(seed=0, scale=7.5)
def test_detections_ignore_common_rescaling_with_estimated_scale(seed, scale):
    y = _panel(seed)
    want = [(det.tau, det.kind, det.affected) for det in _detect(y, seed)]
    assert want
    assert [(det.tau, det.kind, det.affected) for det in _detect(scale * y, seed)] == want


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS)
def test_reversing_time_reverses_full_interval_gains(seed):
    counts = np.random.default_rng(seed).negative_binomial(20.0, 0.5, size=(D, N)).astype(float)
    counts[:2, 40:] += 5.0
    for build, y in ((gaussian_model, _panel(seed)), (negbin_model, counts)):
        forward = build(make_matrix(y)).gain_matrix(1, N)
        backward = build(make_matrix(y[:, ::-1])).gain_matrix(1, N)
        # Column t - 1 splits after t; in the reversed series that split is
        # after N - t.  A count gain is a difference of span costs near 1e4,
        # so near-zero gains differ by rounding of about 1e-12: hence atol.
        np.testing.assert_allclose(backward[:, ::-1], forward, rtol=1e-9, atol=1e-9)
