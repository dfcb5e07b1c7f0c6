"""Core Feynman-Kac abstractions.

A model couples an initial law ``mu0``, a mutation kernel ``M`` and a strictly
positive potential ``G``, all indexed by absolute time through an observation
window. The one-step unnormalized operator is

    Q_t(phi)(x) = G_t(x) * integral M_t(x, dz) phi(z).

For finite-state models it is evaluated exactly, in log domain, by
``q_apply_log``; the exact references built on it (forward recursion, Kalman
filter, eigenfunction sweeps) live in :mod:`twistpf.models` and
:mod:`twistpf.twists`. A finite model's tables are checked once, when it is
built, so the particle moves, the oracle and the eigen sweeps all read the
same model: finite entries, ``mu0`` and the rows of ``trans`` probability
vectors, ``emit`` strictly positive.
"""

from __future__ import annotations

import numpy as np

from .resampling import cast_into, scratch

__all__ = [
    "FKModel",
    "FiniteFK",
    "ARGaussianFK",
    "q_apply_log",
    "logsumexp",
]

_PROB_TOL = 1e-12


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


class FiniteFK(FKModel):
    """Finite-state model: categorical initial law, constant transition matrix,
    potential given by an emission table indexed by the observed symbol.

    Every check names the table it rejects (``mu0``, ``trans``, ``emit``) as
    the first word of its ``ValueError``. All entries must be finite, since a
    comparison with NaN is false and would pass the others."""

    def __init__(self, mu0, trans, emit):
        mu0 = np.asarray(mu0, dtype=float)
        trans = np.asarray(trans, dtype=float)
        emit = np.asarray(emit, dtype=float)
        for name, table in (("mu0", mu0), ("trans", trans), ("emit", emit)):
            if not np.isfinite(table).all():
                raise ValueError(f"{name} entries must be finite numbers")
        k = mu0.shape[0]
        if trans.shape != (k, k):
            raise ValueError(f"trans has shape {trans.shape}, need ({k}, {k})")
        if emit.ndim != 2 or emit.shape[0] != k:
            raise ValueError("emit must have one row per state")
        if (emit <= 0).any():
            raise ValueError("emit entries must be strictly positive")
        if (trans < 0).any() or np.abs(trans.sum(axis=1) - 1.0).max() > _PROB_TOL:
            raise ValueError("trans rows must be probability vectors")
        if abs(mu0.sum() - 1.0) > _PROB_TOL or (mu0 < 0).any():
            raise ValueError("mu0 must be a probability vector")
        for a in (mu0, trans, emit):
            a.flags.writeable = False
        self.mu0 = mu0
        self.trans = trans
        self.emit = emit
        self.log_trans = np.log(np.where(trans > 0, trans, 1e-300))
        self.trans_cdf = np.cumsum(trans, axis=1)
        self.trans_cdf[:, -1] = 1.0
        self.log_emit = np.log(emit)
        for a in (self.log_trans, self.trans_cdf, self.log_emit):
            a.flags.writeable = False
        self.k = k

    def log_g_grid(self, window, t) -> np.ndarray:
        """log G_t over the full state grid ``0..k-1``; for a 1-d integer
        array of times, one such row per time."""
        if isinstance(t, np.ndarray):
            if t.size:
                window.require(int(t.min()), int(t.max()), context="potential evaluation")
            return self.log_emit.T[window.values[t - window.origin].astype(np.int64)]
        y = int(window.y(t, context="potential evaluation"))
        return self.log_emit[:, y]

    def log_g(self, window, t: int, x, out=None):
        return lookup(self.log_g_grid(window, t), x, out)

    def sample_initial(self, size: int, gen) -> np.ndarray:
        cdf = np.cumsum(self.mu0)
        cdf[-1] = 1.0
        return count_at_or_below(cdf, gen.random(size))

    def mutate(self, window, t: int, x, noise, out=None) -> np.ndarray:
        return categorical_counts(self.trans_cdf, x, noise, out)


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


class ARGaussianFK(FKModel):
    """Scalar AR(1) state dynamics: X_{t+1} = a X_t + N(0, q)."""

    def __init__(self, a, q, mu0_mean, mu0_var):
        if not q > 0:
            raise ValueError("state noise variance q must be > 0")
        if not mu0_var > 0:
            raise ValueError("initial variance must be > 0")
        self.a = float(a)
        self.q = float(q)
        self.mu0_mean = float(mu0_mean)
        self.mu0_var = float(mu0_var)

    def sample_initial(self, size: int, gen) -> np.ndarray:
        return self.mu0_mean + np.sqrt(self.mu0_var) * gen.standard_normal(size)

    def noise(self, gen, size: int, out=None) -> np.ndarray:
        return gen.standard_normal(size if out is None else None, out=out)

    def mutate(self, window, t: int, x, noise, out=None) -> np.ndarray:
        # a x + sqrt(q) noise, the scaled noise in a step buffer
        moved = np.multiply(self.a, np.asarray(x, dtype=float), out=out)
        moved += np.multiply(np.sqrt(self.q), noise, out=scratch("term", noise))
        return moved


def q_apply_log(model: FiniteFK, window, t, log_phi) -> np.ndarray:
    """``log Q_t(exp(log_phi))`` on a finite grid, ``log G_t + log(M_t @ phi)``,
    safe for long compositions. ``log_phi`` may hold several functions as
    rows, shape (m, k), and ``t`` may then give one time per row, a 1-d array
    of m times; each row gives the same bits it would on its own."""
    if not isinstance(model, FiniteFK):
        raise TypeError("q_apply_log is exact only for finite-state models")
    log_phi = np.asarray(log_phi, dtype=float)
    lt = model.log_trans + log_phi[..., None, :]
    return model.log_g_grid(window, t) + logsumexp(lt, axis=-1)


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
