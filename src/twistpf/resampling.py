"""Multinomial resampling from log weights, the weights pass it shares with
the estimators, and the step buffers both write into."""

from __future__ import annotations

import bisect
import math
import threading

import numpy as np

__all__ = ["Workspace", "weights_pass", "ancestors"]

_ONE_BITS = np.float64(1.0).view(np.uint64)
# particles x replicates per block: small clouds share each step's array calls
# among many replicates, a cloud of over 2**13 particles runs alone; the step
# buffers of a block within this size are kept (:func:`step_buffers`)
BLOCK_ELEMENTS = 1 << 14
_THREAD = threading.local()


class Workspace:
    """Named scratch arrays that a particle step writes into instead of
    allocating: a buffer is made on first request and reused by every later
    one of its name and dtype, grown when a larger shape is asked for. A
    buffer's contents are never read before its caller writes them. Each
    buffer keeps the view last taken, which a request of the same shape gets
    back as it is."""

    def __init__(self):
        self._views = {}

    def take(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        key = (name, dtype)
        view = self._views.get(key)
        if view is not None and view.shape == shape:
            return view
        size = math.prod(shape)
        buf = None if view is None else view.base  # the buffer the view was cut from
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype)
        view = self._views[key] = buf[:size].reshape(shape)
        return view


def step_buffers(elements: int) -> Workspace:
    """The step buffers for arrays of ``elements`` particles: this thread's
    own, kept from call to call, up to ``BLOCK_ELEMENTS`` (a few MB at most);
    beyond, a new workspace, so a large cloud's buffers go with it.
    Temporaries freed every step, or buffers freed after every study, leave
    glibc to trim and regrow the heap top or not by incidental layout, and a
    run's page faults and time swing with it.

    A step's temporaries live here: the step loop's, and those of the
    models' and twists' formulas. One that is dead before its function calls
    another or returns takes a shared name, ``"term"`` for doubles and
    ``"le"`` for booleans: the guide table's, a finite move's gathered column
    and comparison, a Gaussian formula's intermediate."""
    if elements > BLOCK_ELEMENTS:
        return Workspace()
    if not hasattr(_THREAD, "workspace"):
        _THREAD.workspace = Workspace()
    return _THREAD.workspace


def scratch(name: str, like: np.ndarray, dtype=np.float64) -> np.ndarray:
    """The step buffer ``name`` in ``like``'s shape (:func:`step_buffers`)."""
    return step_buffers(like.size).take(name, like.shape, dtype)


def cast_into(out: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``a`` cast to ``out``'s dtype (truncating floats) by a copy into
    ``out``: a ufunc that reads or writes another dtype than it computes in
    casts through a buffer of numpy's own, allocated per call."""
    np.copyto(out, a, casting="unsafe")
    return out


def weights_pass(log_weights: np.ndarray, ws: Workspace):
    """The row max ``m`` of a block of log weights, ``(R, N)``, and the shifted
    exponentials ``exp(log_weights - m[:, None])``, written into ``ws``'s
    ``"exp"`` buffer. One pass serves an estimator's log mean exp and the
    resampling CDF (:func:`ancestors`).

    Every row needs a finite weight and none may be NaN (``ValueError``)."""
    m = np.maximum.reduce(log_weights, axis=1)  # NaN where a row has one
    if not np.logical_and.reduce(np.isfinite(m)):
        if np.isnan(m).any():
            raise ValueError("log weights contain NaN")
        raise ValueError("every row needs at least one finite log weight")
    e = np.subtract(log_weights, m[:, None], out=ws.take("exp", log_weights.shape))
    return m, np.exp(e, out=e)


def ancestors(exps: np.ndarray, uniforms: np.ndarray, ws: Workspace) -> np.ndarray:
    """Ancestor indices from the shifted exponentials of :func:`weights_pass`,
    which are overwritten (with the row CDFs, or with their partial sums for
    one row and one uniform): row ``r`` maps the uniforms ``uniforms[r]``
    through the normalized CDF of ``exps[r]``, and each index is the number
    of CDF entries at or below its uniform (``searchsorted(side="right")``).
    Every uniform must lie in [0, 1) (``ValueError``). The indices and every
    temporary live in ``ws``'s buffers, the indices in ``"anc"`` (one
    uniform per row: a new array).

    One row and one uniform, a twisted step's slot: the partial sums ``S``
    are bisected for the count of ``i < N - 1`` with ``S[i] / S[-1] <= u``.
    Those quotients are the doubles the normalized CDF holds, and dividing
    by a positive constant keeps their order, so the index is the count's,
    with no pass over the row but the sums. More rows with one uniform each:
    the entries at or below it are counted. Otherwise a guide table (Chen &
    Asau 1974) makes the search linear in the block size and exact, since it
    compares the same doubles ``searchsorted`` would (searching all rows at
    once in one offset CDF would lose precision as the row count grows); see
    :func:`_guide_table_search`.
    """
    # the guide table bins each uniform by its value, so one outside [0, 1)
    # would read another row's bins; a count would give index N for 1.0 and
    # 0 for NaN. As unsigned integers the bit patterns of the doubles in
    # [+0.0, 1.0) are exactly those below 1.0's; negative values and NaN lie
    # above it. One reduction, not a min and a max.
    if np.maximum.reduce(uniforms.view(np.uint64), axis=None, initial=0) >= _ONE_BITS:
        raise ValueError("resampling uniforms must lie in [0, 1)")
    cdf = np.add.accumulate(exps, axis=1, out=exps)
    if uniforms.size == 1:
        # the count of i < N - 1 with S[i] / S[-1] <= u, by bisection (the
        # last entry, set to 1.0 in a CDF, is never at or below u)
        total = cdf.item(-1)
        i = bisect.bisect_right(cdf[0], uniforms.item(0), 0, cdf.size - 1, key=lambda s: s / total)
        return np.array([[i]], dtype=np.int64)
    cdf /= cdf[:, -1:].copy()  # dividing by a view of itself, numpy copies the whole block
    cdf[:, -1] = 1.0
    if uniforms.shape[1] == 1:
        # the CDF is non-decreasing, so counting its entries at or below the
        # draw gives searchsorted's index, without a call per row
        below = np.less_equal(cdf, uniforms, out=ws.take("le", cdf.shape, bool))
        return np.add.reduce(below, axis=1, keepdims=True)
    return _guide_table_search(cdf, uniforms, ws)


def _guide_table_search(cdf: np.ndarray, uniforms: np.ndarray, ws: Workspace) -> np.ndarray:
    """``cdf[r].searchsorted(uniforms[r], side="right")`` for every row at once,
    in time linear in the block size.

    ``[0, 1)`` is cut into ``M = 2**ceil(log2 N)`` bins. Scaling by a power of
    two is exact, so ``floor(c * M)`` bins every CDF entry and every uniform
    with no rounding, and an entry in a lower bin than a uniform is below it,
    one in a higher bin above it. A uniform's index is therefore the count of
    entries in lower bins (the bin's first index, from one count per bin and
    a cumulative sum over all rows, in integers) plus the entries of its own
    bin at or below it. Those are contiguous and resolved by comparing the
    same doubles as ``searchsorted``, so the indices are identical: one
    linear step, then a binary search bounded by the end of the bin for the
    few keys still open. The entry ending the bin is always above the uniform
    (each row ends at 1.0 > u), which bounds both, so every index taken is in
    range and the takes into buffers may skip their bounds check.
    """
    n_rows, n = cdf.shape
    m = 1 << (n - 1).bit_length()
    offset = np.arange(0, n_rows * (m + 1), m + 1)[:, None]  # row r owns bins r(M+1) .. r(M+1)+M
    # bins are cast from the scaled doubles by a copy (:func:`cast_into`)
    cbin = cast_into(ws.take("bins", cdf.shape, np.int64),
                     np.multiply(cdf, m, out=ws.take("term", cdf.shape)))
    cbin += offset + 1
    # first[b]: flat index of the first entry in global bin b or above
    first = ws.take("first", (n_rows * (m + 1) + 1,), np.int64)
    first.fill(0)
    np.add.at(first, cbin.ravel(), 1)
    np.add.accumulate(first, out=first)
    # the entries' bins are spent: the uniforms' bins take their buffer
    ubin = cast_into(ws.take("bins", uniforms.shape, np.int64),
                     np.multiply(uniforms, m, out=ws.take("term", uniforms.shape)))
    ubin += offset
    flat = cdf.ravel()
    pos = first.take(ubin, out=ws.take("anc", ubin.shape, np.int64), mode="clip")
    vals, below = ws.take("term", ubin.shape), ws.take("le", ubin.shape, bool)
    # most bins hold at most one entry; the entries compared, their buffer
    # takes the comparisons as integers
    pos += cast_into(vals.view(np.int64),
                     np.less_equal(flat.take(pos, out=vals, mode="clip"), uniforms, out=below))
    todo = np.flatnonzero(np.less_equal(flat.take(pos, out=vals, mode="clip"), uniforms,
                                        out=below))
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
    if n_rows > 1:
        pos -= np.arange(0, n_rows * n, n)[:, None]
    return pos
