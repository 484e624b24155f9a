import numpy as np
import pytest

from fsglab.errors import DimensionError, EmptyHistoryError
from fsglab.history import GradientHistoryBuffer
from fsglab.rng import Rng


def test_fifo_eviction():
    buf = GradientHistoryBuffer(0, 2, capacity=3)
    for v in range(1, 6):
        buf.push(np.full(2, float(v)))
    entries = buf.entries()
    assert len(entries) == 3
    assert [e[0] for e in entries] == [3.0, 4.0, 5.0]


def test_single_push():
    buf = GradientHistoryBuffer(0, 3, capacity=4)
    buf.push(np.array([1.0, 2.0, 3.0]))
    assert len(buf) == 1
    assert np.array_equal(buf.window(), [1.0, 2.0, 3.0])


def test_conv_gradient_flattens_row_major():
    buf = GradientHistoryBuffer(1, 4, capacity=2)
    grad = np.array([[[[1.0]], [[2.0]]], [[[3.0]], [[4.0]]]])  # (2,2,1,1)
    buf.push(grad)
    assert np.array_equal(buf.window(), [1.0, 2.0, 3.0, 4.0])


def test_window_oldest_first():
    buf = GradientHistoryBuffer(0, 2, capacity=3)
    buf.push(np.array([1.0, 2.0]))
    buf.push(np.array([3.0, 4.0]))
    assert np.array_equal(buf.window(), [1.0, 2.0, 3.0, 4.0])


def test_window_tail_is_newest_for_full_conv_buffer():
    rng = Rng(3)
    buf = GradientHistoryBuffer(0, 9, capacity=6)
    grads = [rng.normals((1, 1, 3, 3)) for _ in range(8)]
    for g in grads:
        buf.push(g)
    win = buf.window()
    assert win.shape == (54,)
    assert np.array_equal(win[-9:], grads[-1].reshape(-1))


@pytest.mark.parametrize("capacity", [1, 3, 6])
def test_length_is_min_t_l(capacity):
    buf = GradientHistoryBuffer(0, 2, capacity)
    for t in range(1, 21):
        buf.push(np.full(2, float(t)))
        assert len(buf) == min(t, capacity)
        win = buf.window()
        assert win.shape == (2 * min(t, capacity),)
        assert np.array_equal(win[-2:], [float(t), float(t)])


def test_wrong_size_rejected():
    buf = GradientHistoryBuffer(2, 4, capacity=2)
    with pytest.raises(DimensionError, match="layer 2"):
        buf.push(np.zeros(5))


def test_empty_window_rejected():
    buf = GradientHistoryBuffer(0, 2, capacity=2)
    with pytest.raises(EmptyHistoryError):
        buf.window()


def test_memory_ceiling():
    buf = GradientHistoryBuffer(0, 3, capacity=4)
    for t in range(50):
        buf.push(np.zeros(3))
    assert sum(e.size for e in buf.entries()) <= 4 * 3


def test_load_round_trip():
    buf = GradientHistoryBuffer(0, 2, capacity=3)
    stacked = np.array([[1.0, 2.0], [3.0, 4.0]])
    buf.load(stacked)
    assert np.array_equal(buf.window(), [1.0, 2.0, 3.0, 4.0])

