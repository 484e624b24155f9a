"""Historical gradient storage: a per-layer FIFO of flattened gradients.

Each binarized layer keeps the last `capacity` weight gradients, flattened
row-major to length xi = prod(weight shape).  The window is read back
oldest-first as one column of length xi * m, which is what the slow
sequence model consumes.  Warm-up windows with fewer than `capacity`
entries are valid; consumers handle variable length.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import DimensionError, EmptyHistoryError
from .tensor import DTYPE


class GradientHistoryBuffer:
    def __init__(self, layer_index: int, xi: int, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if xi < 1:
            raise ValueError(f"xi must be >= 1, got {xi}")
        self.layer_index = layer_index
        self.xi = xi
        self.capacity = capacity
        self._entries: deque[np.ndarray] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=DTYPE)
        if grad.size != self.xi:
            raise DimensionError(
                f"layer {self.layer_index}: gradient has {grad.size} elements, "
                f"buffer expects {self.xi}"
            )
        # deque with maxlen evicts the oldest entry automatically
        self._entries.append(grad.reshape(-1).copy())

    def window(self) -> np.ndarray:
        """Oldest-first concatenation, shape (xi * m,)."""
        if not self._entries:
            raise EmptyHistoryError(f"layer {self.layer_index}: history is empty")
        return np.concatenate(list(self._entries))

    def entries(self):
        return [e.copy() for e in self._entries]

    def clear(self) -> None:
        self._entries.clear()

    def load(self, stacked: np.ndarray) -> None:
        """Restore from an (m, xi) array, oldest row first."""
        self.clear()
        for row in np.asarray(stacked, dtype=DTYPE).reshape(-1, self.xi):
            self.push(row)
