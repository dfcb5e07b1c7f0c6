"""Core Feynman-Kac abstractions: the model interface and the numeric
kernels the models and twists share.

A model couples an initial law ``mu0``, a mutation kernel ``M`` and a strictly
positive potential ``G``, all indexed by absolute time through an observation
window. The one-step unnormalized operator is

    Q_t(phi)(x) = G_t(x) * integral M_t(x, dz) phi(z).

The models themselves, and the exact references built on the operator
(``q_apply_log`` on finite grids, forward recursion, Kalman filter,
eigenfunction sweeps), live in :mod:`twistpf.models` and
:mod:`twistpf.twists`. The kernels here are table lookups, categorical
draws from row CDFs, and a log-sum-exp.
"""

from __future__ import annotations

import numpy as np

from .resampling import cast_into, scratch

__all__ = [
    "FKModel",
    "logsumexp",
]


class FKModel:
    """Base class: initial sampler, potential and mutation.

    A mutation is split into the draws and a transform: ``noise`` takes one
    uniform (or, for Gaussian models, one standard normal) per particle from a
    generator, and ``mutate`` maps positions of any shape plus noise of the
    same shape to new positions, elementwise. Particle runs draw the noise per
    replicate stream and transform a whole block of replicates at once.

    ``noise``, ``log_g`` and ``mutate`` write their result into ``out`` when
    one is given (an array of the result's shape and dtype, which the call
    returns), so a run's steps reuse buffers instead of allocating; never
    into ``x`` or ``noise``.
    """

    def fk(self) -> "FKModel":
        """The model itself, for callers that build one from its parameters."""
        return self

    def sample_initial(self, size: int, gen: np.random.Generator):
        raise NotImplementedError("subclass must implement sample_initial")

    def log_g(self, window, t: int, x, out=None):
        """log G_t at the particle positions ``x`` (vectorized)."""
        raise NotImplementedError("subclass must implement log_g")

    def noise(self, gen: np.random.Generator, size: int, out=None) -> np.ndarray:
        """The draws one mutation of ``size`` particles consumes, into ``out``
        (of that size) when given; numpy then takes the shape from ``out``
        instead of checking ``size`` against it, a fifth of a small call."""
        return gen.random(size if out is None else None, out=out)

    def mutate(self, window, t: int, x, noise, out=None):
        """M_t(x, .) driven by ``noise`` (from :meth:`noise`), elementwise."""
        raise NotImplementedError("subclass must implement mutate")


def lookup(table, x, out=None) -> np.ndarray:
    """``table[x]`` for states ``x``, into ``out`` when given; states written
    by a run are in range, and there the take skips the bounds check, which
    would copy through a temporary."""
    x = np.asarray(x, dtype=np.int64)
    return table[x] if out is None else table.take(x, out=out, mode="clip")


def count_at_or_below(cdf, u) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for a non-decreasing CDF
    ending at 1.0 and uniforms in [0, 1): the number of entries at or below
    each uniform, by ``k - 1`` comparisons per uniform instead of a binary
    search per unsorted key. The last entry, 1.0, is never at or below one."""
    return np.add.reduce(cdf[:-1, None] <= u, axis=0, dtype=np.int64)


def categorical_counts(cdf, x, u, out=None) -> np.ndarray:
    """Categorical draws by table lookup: for each particle, the number of
    entries of its state's row ``cdf[x]`` (a ``k x k`` table of row CDFs)
    strictly below its uniform ``u``, into ``out`` when given. Each column is
    gathered for all particles and compared, and the comparisons are tallied,
    which is much faster than reducing a short last axis of per-particle
    rows. Every row ends at 1.0, which no uniform in [0, 1) exceeds, so the
    last column is skipped. States must be in range.

    The gathered column, its comparison and the tally are step buffers
    (:func:`~twistpf.resampling.scratch`). The tally is of bytes, to which a
    comparison adds with no cast (k - 1 <= 255 columns fit; more take 64-bit
    integers), copied into the counts at the end."""
    assert (cdf[:, -1] == 1.0).all(), "every CDF row must end at 1.0"
    x = np.asarray(x, dtype=np.int64)
    gathered, below = scratch("term", x), scratch("le", x, bool)
    tally = scratch("tally", x, np.uint8 if len(cdf) <= 256 else np.int64)
    tally.fill(0)
    for column in cdf.T[:-1]:
        np.less(column.take(x, out=gathered, mode="clip"), u, out=below)
        tally += below.view(np.uint8)
    return tally.astype(np.int64) if out is None else cast_into(out, tally)


# a row max below this in magnitude keeps every shift a - amax within the float range
_SHIFT_MAX = 2.0**969


def logsumexp(a, axis: int = -1) -> np.ndarray:
    """``log(sum(exp(a)))`` along one axis, by ``scipy.special.logsumexp``'s
    formula and with its results, without its array-API dispatch.

    The maximal entries are taken out of the sum for precision:
    ``log1p(s / m) + log(m) + amax`` with ``m`` the number of maximal entries
    and ``s`` the sum of the shifted exponentials of the others. With every
    row max finite and below ``_SHIFT_MAX`` in magnitude that is
    :func:`logsumexp_bounded`. Otherwise (an ``inf``, a NaN, an all ``-inf``
    row or a huge max) the same formula is computed with floating-point
    errors ignored, and where it is not finite the direct one decides.
    """
    a = np.asarray(a, dtype=float)
    amax = np.maximum.reduce(a, axis, None, None, True)
    if not np.maximum.reduce(np.abs(amax), None) < _SHIFT_MAX:  # False for a NaN too
        return _logsumexp_guarded(a, axis, amax)
    return logsumexp_bounded(a, amax, axis)


def logsumexp_bounded(a: np.ndarray, amax: np.ndarray, axis: int = -1) -> np.ndarray:
    """:func:`logsumexp` of a float array whose row maxima ``amax`` (kept
    dimensions) the caller knows to be finite and below ``_SHIFT_MAX`` in
    magnitude, so that no step can overflow or divide by zero.

    An entry is maximal exactly where its shifted value is 0, whose
    exponential is 1: ``m`` and ``s`` are the sums of one ``(2, ...)`` block,
    the indicator of the maximal entries and the exponentials less that
    indicator, reduced in one call. Its rows are the summands of the two
    separate sums, so the bits are theirs.
    """
    parts = np.empty((2,) + a.shape)
    d = np.subtract(a, amax, out=parts[1])
    is_max = np.heaviside(d, 1.0, out=parts[0])  # d <= 0: 1.0 exactly where d == 0
    np.exp(d, out=d)
    d -= is_max
    sums = np.add.reduce(parts, axis if axis < 0 else axis + 1)
    m, out = sums[0, ...], sums[1, ...]
    np.log1p(np.divide(out, m, out=out), out=out)
    out += np.log(m, out=m)
    out += amax.squeeze(axis)
    return out


def _logsumexp_guarded(a, axis, amax):
    """:func:`logsumexp` as scipy computes it, for rows whose max is not
    finite or is huge."""
    is_max = a == amax
    m = np.add.reduce(is_max, axis, float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.add.reduce(np.exp(np.where(is_max, -np.inf, a) - amax), axis)
        # m >= 1 unless the max is NaN, whose result the fallback decides
        out = np.log1p(s / m) + np.log(m) + amax.squeeze(axis)
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.add.reduce(np.exp(a), axis)))
    return out
