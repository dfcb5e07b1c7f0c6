import numpy as np
import pytest

from twistpf.windows import LookaheadError, ObservationWindow


def test_basic_indexing():
    w = ObservationWindow(0, [10.0, 11.0, 12.0])
    assert w.y(0) == 10.0
    assert w.y(2) == 12.0
    assert len(w) == 3
    assert w.end == 3


def test_origin_offsets():
    w = ObservationWindow(-2, [1.0, 2.0, 3.0, 4.0])
    assert w.y(-2) == 1.0
    assert w.y(1) == 4.0
    assert w.end == 2


def test_out_of_range_raises_lookahead_error():
    w = ObservationWindow(0, [1.0, 2.0])
    with pytest.raises(LookaheadError):
        w.y(2)
    with pytest.raises(LookaheadError):
        w.y(-1)
    err = None
    try:
        w.y(5, context="unit test")
    except LookaheadError as exc:
        err = exc
    assert err is not None
    assert "unit test" in str(err)
    assert "5" in str(err)


def test_lookahead_error_is_index_error():
    # callers that catch IndexError keep working
    assert issubclass(LookaheadError, IndexError)


def test_require_inclusive_range():
    w = ObservationWindow(0, [1.0, 2.0, 3.0])
    w.require(0, 2)
    with pytest.raises(LookaheadError):
        w.require(0, 3)
    # empty range never raises
    w.require(5, 4)


def test_shift_relabels_indices():
    w = ObservationWindow(0, [1.0, 2.0, 3.0, 4.0])
    s = w.shift(2)
    # index t of the shifted window reads index t + 2 of the original
    assert s.origin == -2
    assert s.y(-2) == w.y(0)
    assert s.y(0) == w.y(2)
    assert s.y(1) == w.y(3)


def test_shift_composes():
    w = ObservationWindow(0, np.arange(10.0))
    assert w.shift(3).shift(2).y(0) == w.y(5)
    assert w.shift(3).shift(-3).y(4) == w.y(4)


def test_values_are_read_only():
    w = ObservationWindow(0, [1.0, 2.0])
    with pytest.raises(ValueError):
        w.values[0] = 9.0


def test_source_mutation_does_not_leak():
    src = np.array([1.0, 2.0, 3.0])
    w = ObservationWindow(0, src)
    src[0] = 99.0
    assert w.y(0) == 1.0


def test_integer_observations_preserved():
    w = ObservationWindow(0, np.array([0, 2, 1]))
    assert w.values.dtype.kind == "i"
    assert w.y(1) == 2
