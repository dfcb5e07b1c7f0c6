"""Core Feynman-Kac abstractions.

A model couples an initial law ``mu0``, a mutation kernel ``M`` and a strictly
positive potential ``G``, all indexed by absolute time through an observation
window. The one-step unnormalized operator is

    Q_t(phi)(x) = G_t(x) * integral M_t(x, dz) phi(z),

and ``phi_map`` is the associated normalized map on laws: it propagates a
prediction law one step and returns the log normalizer ``log mu(G_t)``.
Composing the normalizers over ``n`` steps yields the marginal likelihood of
the first ``n`` observations.

Exact operator evaluations are available for finite-state models (dense
matrices) and, through ``phi_map``, for linear-Gaussian models (closed-form
Gaussian propagation).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DistributionVector",
    "FKModel",
    "FiniteFK",
    "ARGaussianFK",
    "q_apply",
    "q_apply_log",
    "phi_map",
    "logsumexp",
]

_PROB_TOL = 1e-12


class DistributionVector:
    """A validated law on the state space: finite probability vector or Gaussian."""

    __slots__ = ("kind", "probs", "mean", "var")

    def __init__(self, kind, probs=None, mean=None, var=None):
        self.kind = kind
        self.probs = probs
        self.mean = mean
        self.var = var

    @classmethod
    def finite(cls, probs) -> "DistributionVector":
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1:
            raise ValueError("probability vector must be one-dimensional")
        if (p < 0).any():
            raise ValueError("probability vector has negative entries")
        s = p.sum()
        if abs(s - 1.0) > _PROB_TOL:
            raise ValueError(f"probability vector sums to {s!r}, not 1")
        p = p / s
        p.flags.writeable = False
        return cls("finite", probs=p)

    @classmethod
    def gaussian(cls, mean: float, var: float) -> "DistributionVector":
        if not var > 0:
            raise ValueError(f"gaussian law needs variance > 0, got {var!r}")
        return cls("gaussian", mean=float(mean), var=float(var))

    def __repr__(self):
        if self.kind == "finite":
            return f"DistributionVector(finite, k={self.probs.shape[0]})"
        return f"DistributionVector(gaussian, mean={self.mean}, var={self.var})"


class FKModel:
    """Base class: initial sampler, potential and mutation sampler.

    ``lookahead`` declares how many observation indices beyond the current
    step the potential reads; runners validate window coverage up front.

    A mutation is split into the draws and a transform: ``noise`` takes one
    uniform (or, for Gaussian models, one standard normal) per particle from a
    generator, and ``mutate`` maps positions of any shape plus noise of the
    same shape to new positions, elementwise. Particle runs draw the noise per
    replicate stream and transform a whole block of replicates at once.
    """

    lookahead = 0

    def sample_initial(self, size: int, gen: np.random.Generator):
        raise NotImplementedError("subclass must implement sample_initial")

    def log_g(self, window, t: int, x):
        """log G_t at the particle positions ``x`` (vectorized)."""
        raise NotImplementedError("subclass must implement log_g")

    def noise(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """The draws one mutation of ``size`` particles consumes."""
        return gen.random(size)

    def mutate(self, window, t: int, x, noise):
        """M_t(x, .) driven by ``noise`` (from :meth:`noise`), elementwise."""
        raise NotImplementedError("subclass must implement mutate")

    def sample_mutation(self, window, t: int, x, gen: np.random.Generator):
        """One draw from M_t(x_i, .) for each position in the 1-d ``x``."""
        return self.mutate(window, t, x, self.noise(gen, len(x)))


class FiniteFK(FKModel):
    """Finite-state model: categorical initial law, constant transition matrix,
    potential given by an emission table indexed by the observed symbol."""

    def __init__(self, mu0, trans, emit):
        mu0 = np.asarray(mu0, dtype=float)
        trans = np.asarray(trans, dtype=float)
        emit = np.asarray(emit, dtype=float)
        k = mu0.shape[0]
        if trans.shape != (k, k):
            raise ValueError(f"transition matrix shape {trans.shape} != ({k}, {k})")
        if emit.ndim != 2 or emit.shape[0] != k:
            raise ValueError("emission table must have one row per state")
        if (emit <= 0).any():
            raise ValueError("emission probabilities must be strictly positive")
        if np.abs(trans.sum(axis=1) - 1.0).max() > _PROB_TOL:
            raise ValueError("transition matrix rows must sum to 1")
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
        self.k = k
        self.n_symbols = emit.shape[1]

    def trans_matrix(self, window, t: int) -> np.ndarray:
        return self.trans

    def log_g_grid(self, window, t: int) -> np.ndarray:
        """log G_t over the full state grid ``0..k-1``."""
        y = int(window.y(t, context="potential evaluation"))
        return self.log_emit[:, y]

    def log_g(self, window, t: int, x):
        return self.log_g_grid(window, t)[np.asarray(x, dtype=np.int64)]

    def sample_initial(self, size: int, gen) -> np.ndarray:
        cdf = np.cumsum(self.mu0)
        cdf[-1] = 1.0
        return np.searchsorted(cdf, gen.random(size), side="right").astype(np.int64)

    def mutate(self, window, t: int, x, noise) -> np.ndarray:
        return categorical_counts(self.trans_cdf, x, noise)


def categorical_counts(cdf, x, u) -> np.ndarray:
    """Categorical draws by table lookup: for each particle, the number of
    entries of its state's row ``cdf[x]`` (a ``k x k`` table of row CDFs)
    strictly below its uniform ``u``. Each column is gathered for all
    particles and the k comparisons are summed over the leading axis, which
    is much faster than reducing a short last axis of per-particle rows."""
    x = np.asarray(x, dtype=np.int64)
    return np.add.reduce(cdf.T.take(x, axis=1) < u, axis=0, dtype=np.int64)


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

    def noise(self, gen, size: int) -> np.ndarray:
        return gen.standard_normal(size)

    def mutate(self, window, t: int, x, noise) -> np.ndarray:
        return self.a * np.asarray(x, dtype=float) + np.sqrt(self.q) * noise


def q_apply(model: FiniteFK, window, t: int, phi) -> np.ndarray:
    """Exact one-step operator on a finite grid: ``G_t * (M_t @ phi)``."""
    if not isinstance(model, FiniteFK):
        raise TypeError("q_apply is exact only for finite-state models")
    phi = np.asarray(phi, dtype=float)
    g = np.exp(model.log_g_grid(window, t))
    return g * (model.trans_matrix(window, t) @ phi)


def q_apply_log(model: FiniteFK, window, t: int, log_phi) -> np.ndarray:
    """Log-domain version of :func:`q_apply` for long compositions."""
    if not isinstance(model, FiniteFK):
        raise TypeError("q_apply_log is exact only for finite-state models")
    log_phi = np.asarray(log_phi, dtype=float)
    lt = model.log_trans + log_phi[None, :]
    return model.log_g_grid(window, t) + logsumexp(lt, axis=1)


def logsumexp(a, axis: int = -1) -> np.ndarray:
    """``log(sum(exp(a)))`` along one axis, by ``scipy.special.logsumexp``'s
    formula and with its results, without its array-API dispatch.

    The maximal entries are taken out of the sum for precision:
    ``log1p(s / m) + log(m) + amax`` with ``m`` the number of maximal entries
    and ``s`` the sum of the shifted exponentials of the others. Where that is
    not finite (all ``-inf``, an ``inf`` or a NaN) the direct formula decides.
    """
    a = np.asarray(a, dtype=float)
    amax = a.max(axis=axis, keepdims=True)
    is_max = a == amax
    m = is_max.sum(axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(is_max, -np.inf, a) - amax).sum(axis=axis, keepdims=True)
        # m >= 1 unless the max is NaN, whose result the fallback decides
        out = np.log1p(s / m) + np.log(m) + amax
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    return np.squeeze(out, axis=axis)


def phi_map(model: FKModel, window, t: int, dist: DistributionVector):
    """Propagate a prediction law one step: returns ``(new law, log normalizer)``.

    The normalizer is ``log mu(G_t)``; summed over steps it reproduces the
    log marginal likelihood. Exact for finite-state models and for
    linear-Gaussian models (where it is one filter recursion step).
    """
    if isinstance(model, FiniteFK):
        if dist.kind != "finite":
            raise TypeError("finite model needs a finite law")
        g = np.exp(model.log_g_grid(window, t))
        weighted = dist.probs * g
        norm = weighted.sum()
        if not norm > 0:
            raise ValueError("potential annihilated the law")
        nxt = weighted @ model.trans_matrix(window, t) / norm
        return DistributionVector.finite(nxt / nxt.sum()), float(np.log(norm))
    if hasattr(model, "r_obs"):
        if dist.kind != "gaussian":
            raise TypeError("linear-Gaussian model needs a gaussian law")
        a, q, r = model.a, model.q, model.r_obs
        y = float(window.y(t, context="filter recursion"))
        s = dist.var + r
        log_norm = -0.5 * (np.log(2.0 * np.pi * s) + (y - dist.mean) ** 2 / s)
        gain = dist.var / s
        m_post = dist.mean + gain * (y - dist.mean)
        v_post = dist.var * (1.0 - gain)
        return DistributionVector.gaussian(a * m_post, a * a * v_post + q), float(log_norm)
    raise TypeError(
        "phi_map is exact only for finite-state or linear-Gaussian models"
    )
