"""Multinomial resampling from log weights."""

from __future__ import annotations

import numpy as np

__all__ = ["multinomial_resample", "resample_rows"]


def multinomial_resample(log_weights, count: int, gen: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. ancestor indices with P(i) proportional to exp(log_weights[i]).

    Weights are normalized after subtracting the max, so any common additive
    constant in the log weights cancels. Raises ``ValueError`` if no weight is
    finite or any weight is NaN.
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.ndim != 1 or lw.size == 0:
        raise ValueError("log_weights must be a non-empty 1-d array")
    return resample_rows(lw[None, :], gen.random(count)[None, :])[0]


def resample_rows(log_weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Ancestor indices for a block of clouds: row ``r`` maps the uniforms
    ``uniforms[r]`` through the CDF of ``exp(log_weights[r])``, exactly as
    :func:`multinomial_resample` maps its own draws.

    Every row needs a finite weight and none may be NaN (``ValueError``).
    Each row is searched on its own: searching all rows at once in one
    offset CDF would lose precision as the row count grows.
    """
    m = np.maximum.reduce(log_weights, axis=1, keepdims=True)  # NaN where a row has one
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        if np.isnan(m).any():
            raise ValueError("log weights contain NaN")
        raise ValueError("resampling needs at least one finite log weight")
    cdf = np.exp(log_weights - m)
    np.add.accumulate(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    cdf[:, -1] = 1.0
    if uniforms.shape[1] == 1:
        # the CDF is non-decreasing, so counting its entries at or below the
        # draw gives searchsorted's index, without a call per row
        return np.add.reduce(cdf <= uniforms, axis=1, keepdims=True)
    out = np.empty(uniforms.shape, dtype=np.int64)
    for row, c, u in zip(out, cdf, uniforms):
        row[:] = c.searchsorted(u, side="right")
    return out
