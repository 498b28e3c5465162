"""Data model basics: matrix construction, detections, randomness contract."""

import numpy as np
import pytest

import subsetcp
from subsetcp import (
    Detection,
    InputDataError,
    PenaltyConfig,
    RandomSource,
    SegmentationResult,
    TimeSeriesMatrix,
    make_matrix,
)


def test_make_matrix_two_by_two():
    m = make_matrix([[1, 2], [3, 4]])
    assert (m.d, m.n) == (2, 2)
    assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert m.variate_names == ("x1", "x2")


def test_make_matrix_ragged_rows_rejected():
    with pytest.raises(InputDataError, match="ragged"):
        make_matrix([[1, 2], [3]])


def test_make_matrix_empty_rejected():
    with pytest.raises(InputDataError, match="empty"):
        make_matrix([])


def test_matrix_rejects_short_series_and_bad_labels():
    with pytest.raises(InputDataError):
        make_matrix([[1.0]])
    with pytest.raises(InputDataError, match="unique"):
        TimeSeriesMatrix(np.zeros((2, 3)), ("a", "a"))
    with pytest.raises(InputDataError, match="time labels"):
        TimeSeriesMatrix(np.zeros((1, 3)), ("a",), time_labels=("t1", "t2"))
    with pytest.raises(InputDataError, match="NaN"):
        make_matrix([[1.0, float("nan")]])


def test_matrix_values_are_read_only():
    m = make_matrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        m.values[0, 0] = 9.0
    src = np.array([[1.0, 2.0, 3.0]])
    m2 = TimeSeriesMatrix(src, ("a",))
    src[0, 0] = 99.0
    assert m2.values[0, 0] == 1.0


def test_detection_validation():
    det = Detection(tau=5, kind="sparse", affected=frozenset({2}), statistic=1.5, interval=(1, 10))
    assert det.tau == 5
    with pytest.raises(ValueError, match="kind"):
        Detection(tau=5, kind="huge", affected=frozenset({1}), statistic=0.0, interval=(1, 10))
    with pytest.raises(ValueError, match="affected"):
        Detection(tau=5, kind="dense", affected=frozenset(), statistic=0.0, interval=(1, 10))
    with pytest.raises(ValueError, match="inside"):
        Detection(tau=10, kind="dense", affected=frozenset({1}), statistic=0.0, interval=(1, 10))


PEN = PenaltyConfig(alpha=1.0, beta=2.0, K=5.0, source="manual")


def _det(tau: int) -> Detection:
    return Detection(tau=tau, kind="sparse", affected=frozenset({1}), statistic=1.0, interval=(1, 100))


def test_result_requires_increasing_changepoints():
    ok = SegmentationResult(detections=(_det(3), _det(9)), penalties=PEN, n=100)
    assert [det.tau for det in ok.detections] == [3, 9]
    with pytest.raises(ValueError, match="increasing"):
        SegmentationResult(detections=(_det(9), _det(3)), penalties=PEN, n=100)
    with pytest.raises(ValueError, match="increasing"):
        SegmentationResult(detections=(_det(3), _det(3)), penalties=PEN, n=100)


def test_random_source_rejects_negative_seeds():
    with pytest.raises(InputDataError, match="non-negative"):
        RandomSource(-1)


def test_random_source_is_reproducible():
    a = RandomSource(42).generator().standard_normal(8)
    b = RandomSource(42).generator().standard_normal(8)
    assert a.tolist() == b.tolist()


def test_random_source_children_are_distinct_streams():
    base = RandomSource(7)
    x = base.child(0).generator().standard_normal(4)
    y = base.child(1).generator().standard_normal(4)
    z = base.child(0).generator().standard_normal(4)
    assert x.tolist() == z.tolist()
    assert x.tolist() != y.tolist()
    assert base.child(1, 2).stream == (1, 2)
    assert base.child(1).child(2).stream == (1, 2)


def test_public_names_resolve():
    names = subsetcp.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    namespace = {}
    exec("from subsetcp import *", namespace)
    assert all(name in namespace for name in names)
