"""Data model basics: matrix construction, detections, randomness contract."""

import re
import tracemalloc
import types
from pathlib import Path

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
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(InputDataError, match="NaN or infinite"):
            make_matrix([[1.0, 2.0], [3.0, float(bad)]])


def test_matrix_values_are_read_only():
    m = make_matrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        m.values[0, 0] = 9.0
    src = np.array([[1.0, 2.0, 3.0]])
    m2 = TimeSeriesMatrix(src, ("a",))
    src[0, 0] = 99.0
    assert m2.values[0, 0] == 1.0


def _conversion_inputs():
    ints = np.arange(12, dtype=np.int64).reshape(3, 4) * 7 - 20
    floats = np.random.default_rng(3).standard_normal((3, 4)) * 1e5
    return {
        "int64": ints,
        "float32": floats.astype(np.float32),
        "lists": ints.tolist(),
        "fortran": np.asfortranarray(floats),
        "c-order": floats,
    }


@pytest.mark.parametrize("kind", list(_conversion_inputs()))
def test_matrix_makes_the_one_float64_copy(kind):
    # Callers pass their data as drawn or parsed; the matrix alone converts.
    x = _conversion_inputs()[kind]
    values = TimeSeriesMatrix(x, ("a", "b", "c")).values
    assert values.dtype == np.float64
    assert values.flags.c_contiguous and not values.flags.writeable
    assert not np.shares_memory(values, np.asarray(x))
    assert values.tobytes() == np.asarray(x, dtype=float).copy().tobytes()


def test_make_matrix_of_a_wide_array_copies_it_once():
    rows = np.random.default_rng(5).standard_normal((1000, 1000))
    tracemalloc.start()
    try:
        make_matrix(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / rows.nbytes < 1.2


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
    # A name dropped from __all__ must not linger as a hidden re-export.
    submodules = {
        name
        for name, value in vars(subsetcp).items()
        if isinstance(value, types.ModuleType) and value.__name__ == f"subsetcp.{name}"
    }
    public = {name for name in vars(subsetcp) if not name.startswith("_")}
    assert public - submodules == set(names)
    # The public surface is what README's "Library use" documents.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    undocumented = [name for name in names if not re.search(rf"\b{name}\b", section)]
    assert undocumented == []
