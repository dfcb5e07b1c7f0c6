"""Multinomial resampling from log weights."""

from __future__ import annotations

import numpy as np

__all__ = ["resample_rows"]

_ONE_BITS = np.float64(1.0).view(np.uint64)


def resample_rows(log_weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Ancestor indices for a block of clouds: row ``r`` maps the uniforms
    ``uniforms[r]`` through the CDF of ``exp(log_weights[r])``: each index is
    the number of CDF entries at or below its uniform
    (``searchsorted(side="right")``). The weights are normalized after
    subtracting the row max, so a common additive constant in a row cancels.

    Every row needs a finite weight and none may be NaN, and every uniform
    must lie in [0, 1) (``ValueError``).

    With one uniform per row the entries at or below it are counted. Otherwise
    a guide table (Chen & Asau 1974) makes the search linear in the block
    size and exact, since it compares the same doubles ``searchsorted`` would
    (searching all rows at once in one offset CDF would lose precision as the
    row count grows); see :func:`_guide_table_search`.
    """
    uniforms = np.asarray(uniforms, dtype=np.float64)
    m = np.maximum.reduce(log_weights, axis=1, keepdims=True)  # NaN where a row has one
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        if np.isnan(m).any():
            raise ValueError("log weights contain NaN")
        raise ValueError("resampling needs at least one finite log weight")
    # the guide table bins each uniform by its value, so one outside [0, 1)
    # would read another row's bins; a count would give index N for 1.0 and
    # 0 for NaN. As unsigned integers the bit patterns of the doubles in
    # [+0.0, 1.0) are exactly those below 1.0's; negative values and NaN lie
    # above it. One reduction, not a min and a max.
    if np.maximum.reduce(uniforms.view(np.uint64), axis=None, initial=0) >= _ONE_BITS:
        raise ValueError("resampling uniforms must lie in [0, 1)")
    cdf = np.exp(log_weights - m)
    np.add.accumulate(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    cdf[:, -1] = 1.0
    if uniforms.shape[1] == 1:
        # the CDF is non-decreasing, so counting its entries at or below the
        # draw gives searchsorted's index, without a call per row
        return np.add.reduce(cdf <= uniforms, axis=1, keepdims=True)
    return _guide_table_search(cdf, uniforms)


def _guide_table_search(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``cdf[r].searchsorted(uniforms[r], side="right")`` for every row at once,
    in time linear in the block size.

    ``[0, 1)`` is cut into ``M = 2**ceil(log2 N)`` bins. Scaling by a power of
    two is exact, so ``floor(c * M)`` bins every CDF entry and every uniform
    with no rounding, and an entry in a lower bin than a uniform is below it,
    one in a higher bin above it. A uniform's index is therefore the count of
    entries in lower bins (the bin's first index, from one bincount and a
    cumulative sum over all rows, in integers) plus the entries of its own bin
    at or below it. Those are contiguous and resolved by comparing the same
    doubles as ``searchsorted``, so the indices are identical: one linear
    step, then a binary search bounded by the end of the bin for the few
    keys still open. The entry ending the bin is always above the uniform
    (each row ends at 1.0 > u), which bounds both.
    """
    n_rows, n = cdf.shape
    m = 1 << (n - 1).bit_length()
    offset = np.arange(0, n_rows * (m + 1), m + 1)[:, None]  # row r owns bins r(M+1) .. r(M+1)+M
    cbin = (cdf * m).astype(np.int64)
    cbin += offset + 1
    # first[b]: flat index of the first entry in global bin b or above
    first = np.bincount(cbin.ravel(), minlength=n_rows * (m + 1) + 1)
    np.add.accumulate(first, out=first)
    ubin = (uniforms * m).astype(np.int64)
    ubin += offset
    flat = cdf.ravel()
    pos = first.take(ubin)
    pos += flat.take(pos) <= uniforms  # most bins hold at most one entry
    todo = np.flatnonzero(flat.take(pos) <= uniforms)
    if todo.size:
        key = uniforms.ravel()[todo]
        lo = pos.ravel()[todo] + 1  # flat[lo - 1] <= key < flat[hi] throughout
        hi = first[1:].take(ubin.ravel()[todo])
        for _ in range(int((hi - lo).max()).bit_length()):
            mid = (lo + hi) >> 1
            go = flat.take(mid) <= key
            lo = np.where(go, mid + 1, lo)
            hi = np.where(go, hi, mid)
        pos.ravel()[todo] = lo
    pos -= np.arange(0, n_rows * n, n)[:, None]
    return pos
