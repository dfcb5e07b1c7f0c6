"""Observation windows: finite, shiftable slices of an observation path.

Every operator in this package is indexed by an absolute time ``t`` and reads
observations through a window. A window stores the values for absolute indices
``origin, ..., origin + length - 1``; access outside that range raises
:class:`LookaheadError` naming the missing index, never wrapping around.

``shift(a)`` re-centers the time axis so that index ``t`` of the shifted
window addresses index ``t + a`` of the original. Running any time-indexed
operation on ``w.shift(1)`` at time ``t`` is therefore the same as running it
on ``w`` at time ``t + 1``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LookaheadError", "ObservationWindow"]


class LookaheadError(IndexError):
    """An operation needed an observation index outside the window."""

    def __init__(self, index: int, origin: int, length: int, context: str = ""):
        self.index = index
        self.origin = origin
        self.length = length
        msg = (
            f"observation index {index} is outside the window "
            f"[{origin}, {origin + length})"
        )
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class ObservationWindow:
    """Read-only view of observations ``y_t`` for ``origin <= t < origin + length``."""

    __slots__ = ("origin", "values")

    def __init__(self, origin: int, values, _copy: bool = True):
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError("window values must be one-dimensional")
        if _copy:
            values = values.copy()
            values.flags.writeable = False
        self.origin = int(origin)
        self.values = values

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def end(self) -> int:
        """One past the largest valid index."""
        return self.origin + self.length

    def y(self, t: int, context: str = ""):
        """Observation at absolute index ``t``."""
        i = t - self.origin
        if i < 0 or i >= self.length:
            raise LookaheadError(t, self.origin, self.length, context)
        return self.values[i]

    def require(self, lo: int, hi: int, context: str = "") -> None:
        """Check that every index in ``lo..hi`` (inclusive) is in range."""
        if hi < lo:
            return
        if lo < self.origin:
            raise LookaheadError(lo, self.origin, self.length, context)
        if hi >= self.end:
            raise LookaheadError(hi, self.origin, self.length, context)

    def shift(self, a: int) -> "ObservationWindow":
        """Window for the path advanced by ``a`` steps (shares the value buffer)."""
        return ObservationWindow(self.origin - int(a), self.values, _copy=False)

    def __len__(self):
        return self.length

    def __repr__(self):
        return f"ObservationWindow(origin={self.origin}, length={self.length})"
