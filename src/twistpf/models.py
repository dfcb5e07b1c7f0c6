"""Models: linear-Gaussian, finite-state, stochastic volatility.

Each parameter class is its own bootstrap-form Feynman-Kac model
(:class:`~twistpf.fkcore.FKModel`): potential = observation density at the
current index, mutation = state dynamics. A model is a frozen dataclass of
its parameters, and its ``__post_init__`` is the one place they are checked
and what the moves read is derived; each check names the one parameter (or
table) it rejects as the first word of its ``ValueError``. Exact references
live here too: ``q_apply_log``, the exact one-step operator of a finite
model; ``kalman_run`` for the linear-Gaussian model and ``finite_forward``
for finite-state models, both returning per-step prediction laws and the
cumulative log marginal likelihood. The two filters are implemented
independently of the operator so they can serve as oracles for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .fkcore import FKModel, categorical_counts, count_at_or_below, logsumexp, lookup
from .resampling import scratch
from .rng import SIMULATE, RngStream
from .windows import ObservationWindow

__all__ = [
    "LinearGaussianParams",
    "FiniteHMMParams",
    "SVParams",
    "q_apply_log",
    "simulate",
    "kalman_run",
    "finite_forward",
    "KalmanResult",
    "ForwardResult",
]

_PROB_TOL = 1e-12


def _set(model, **values) -> None:
    """Set attributes of a frozen model, in its ``__post_init__``."""
    for name, value in values.items():
        object.__setattr__(model, name, value)


def _finite_floats(params) -> None:
    """Make every scalar parameter a float (``None`` is left to the class),
    rejecting one that is not a finite number by name, as the first word of
    the ``ValueError``."""
    for f in fields(params):
        value = getattr(params, f.name)
        if value is None:
            continue
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if not math.isfinite(number):
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        _set(params, **{f.name: number})


class _AR1(FKModel):
    """The scalar AR(1) state law of both Gaussian-state models:
    X_0 ~ N(mu0_mean, init_var), X_{t+1} = a X_t + N(0, q). A subclass sets
    the four floats ``a``, ``q``, ``mu0_mean`` and ``init_var``."""

    def sample_initial(self, size: int, gen) -> np.ndarray:
        return self.mu0_mean + np.sqrt(self.init_var) * gen.standard_normal(size)

    def noise(self, gen, size: int, out=None) -> np.ndarray:
        return gen.standard_normal(size if out is None else None, out=out)

    def mutate(self, window, t: int, x, noise, out=None) -> np.ndarray:
        # a x + sqrt(q) noise, the scaled noise in a step buffer
        moved = np.multiply(self.a, np.asarray(x, dtype=float), out=out)
        moved += np.multiply(np.sqrt(self.q), noise, out=scratch("term", noise))
        return moved


@dataclass(frozen=True)
class LinearGaussianParams(_AR1):
    """X_{t+1} = a X_t + N(0, q), Y_t = X_t + N(0, r_obs).

    ``mu0_var=None`` selects the stationary initial law N(mu0_mean, q/(1-a^2));
    ``init_var`` is the initial variance either way.
    """

    a: float
    q: float
    r_obs: float
    mu0_mean: float = 0.0
    mu0_var: float | None = None

    def __post_init__(self):
        _finite_floats(self)
        if not self.q > 0:
            raise ValueError("q must be > 0")
        if not self.r_obs > 0:
            raise ValueError("r_obs must be > 0")
        if self.mu0_var is None and not abs(self.a) < 1:
            raise ValueError("a must satisfy |a| < 1 for the stationary initial law; "
                             "give mu0_var otherwise")
        if self.mu0_var is not None and not self.mu0_var > 0:
            raise ValueError("mu0_var must be > 0")
        _set(self, init_var=(self.q / (1.0 - self.a * self.a) if self.mu0_var is None
                             else self.mu0_var))

    def log_g(self, window, t, x, out=None):
        # -(log(2 pi r) + (y - x)^2 / r) / 2, every step into the result
        y = float(window.y(t, context="potential evaluation"))
        v = np.subtract(y, np.asarray(x, dtype=float), out=out)
        v *= v
        v /= self.r_obs
        v += np.log(2.0 * np.pi * self.r_obs)
        v *= -0.5
        return v


@dataclass(frozen=True)
class SVParams(_AR1):
    """Log-volatility AR(1): X_{t+1} = persistence * X_t + N(0, vol_of_vol^2),
    Y_t = scale * exp(X_t / 2) * N(0, 1), from the stationary initial law."""

    persistence: float = 0.975
    vol_of_vol: float = 0.16
    scale: float = 0.63

    def __post_init__(self):
        _finite_floats(self)
        q = self.vol_of_vol**2
        if not abs(self.persistence) < 1:
            raise ValueError("persistence must satisfy |rho| < 1")
        if not (self.vol_of_vol > 0 and q > 0):
            raise ValueError("vol_of_vol must be > 0, with a square > 0")
        if not self.scale > 0:
            raise ValueError("scale must be > 0")
        _set(self, a=self.persistence, q=q, mu0_mean=0.0,
             init_var=q / (1.0 - self.persistence**2), obs_scale2=self.scale**2)

    def log_g(self, window, t, x, out=None):
        # -(log(2 pi b^2) + x + y^2 exp(-x) / b^2) / 2, in that order, the
        # exponential term in a step buffer; at y = 0 that term is exactly 0,
        # also where exp(-x) overflows
        y = float(window.y(t, context="potential evaluation"))
        x = np.asarray(x, dtype=float)
        term = np.negative(x, out=scratch("term", x))
        if y == 0.0:
            term.fill(0.0)
        else:
            np.exp(term, out=term)
            np.multiply(y * y, term, out=term)
            term /= self.obs_scale2
        v = np.add(np.log(2.0 * np.pi * self.obs_scale2), x, out=out)
        v += term
        v *= -0.5
        return v


def _table(name: str, value, ndim: int) -> np.ndarray:
    """A float64 copy of the table ``value``: an ``ndim``-d array of finite
    numbers."""
    try:
        table = np.array(value)
    except ValueError:  # a ragged nesting
        table = None
    if table is None or table.dtype.kind not in "iuf" or table.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-d array of numbers, got {value!r}")
    table = table.astype(np.float64, copy=False)
    if not np.isfinite(table).all():
        raise ValueError(f"{name} entries must be finite numbers")
    return table


@dataclass(frozen=True)
class FiniteHMMParams(FKModel):
    """Finite state space, finite observation alphabet: categorical initial
    law, constant transition matrix, potential given by an emission table
    indexed by the observed symbol.

    The tables are copied and checked in order, ``mu0``, ``trans``, ``emit``,
    each check naming its table as the first word of its ``ValueError``: all
    entries finite numbers (a comparison with NaN is false and would pass the
    others); ``mu0`` and the rows of ``trans`` (``k x k``) probability
    vectors; ``emit`` one strictly positive row per state, a column per
    symbol. The copies and the tables derived from them are read-only.
    """

    mu0: np.ndarray
    trans: np.ndarray
    emit: np.ndarray

    def __post_init__(self):
        mu0 = _table("mu0", self.mu0, 1)
        k = mu0.size
        if k == 0:
            raise ValueError("mu0 must have at least one state")
        if abs(mu0.sum() - 1.0) > _PROB_TOL or (mu0 < 0).any():
            raise ValueError("mu0 must be a probability vector")
        trans = _table("trans", self.trans, 2)
        if trans.shape != (k, k):
            raise ValueError(f"trans has shape {trans.shape}, need ({k}, {k}): a row and a "
                             "column per state of mu0")
        if (trans < 0).any() or np.abs(trans.sum(axis=1) - 1.0).max() > _PROB_TOL:
            raise ValueError("trans rows must be probability vectors")
        emit = _table("emit", self.emit, 2)
        if emit.shape[0] != k or emit.shape[1] == 0:
            raise ValueError(f"emit has shape {emit.shape}, need a row per state of mu0 "
                             f"({k}) and a column per symbol")
        if (emit <= 0).any():
            raise ValueError("emit entries must be strictly positive")
        trans_cdf = np.cumsum(trans, axis=1)
        trans_cdf[:, -1] = 1.0
        tables = {"mu0": mu0, "trans": trans, "emit": emit,
                  "log_trans": np.log(np.where(trans > 0, trans, 1e-300)),
                  "trans_cdf": trans_cdf, "log_emit": np.log(emit)}
        for table in tables.values():
            table.flags.writeable = False
        _set(self, **tables)

    @property
    def k(self) -> int:
        return self.mu0.shape[0]

    @property
    def is_mixing(self) -> bool:
        return bool((self.trans > 0).all())

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


def q_apply_log(model: FiniteHMMParams, window, t, log_phi) -> np.ndarray:
    """``log Q_t(exp(log_phi))`` on a finite grid, ``log G_t + log(M_t @ phi)``,
    safe for long compositions. ``log_phi`` may hold several functions as
    rows, shape (m, k), and ``t`` may then give one time per row, a 1-d array
    of m times; each row gives the same bits it would on its own."""
    if not isinstance(model, FiniteHMMParams):
        raise TypeError("q_apply_log is exact only for finite-state models")
    log_phi = np.asarray(log_phi, dtype=float)
    lt = model.log_trans + log_phi[..., None, :]
    return model.log_g_grid(window, t) + logsumexp(lt, axis=-1)


def simulate(params, n: int, seed: int, replicate: int = 0):
    """Simulate ``n`` steps of the state and observation path.

    Returns ``(x, window)`` where ``x`` has shape ``(n,)`` and the window has
    origin 0 and length ``n``. Callers needing lookahead simply request more
    steps. Deterministic in ``(seed, replicate)``.
    """
    gen = RngStream(seed, replicate).generator(0, SIMULATE)
    if isinstance(params, FiniteHMMParams):
        cdf_mu = np.cumsum(params.mu0)
        cdf_trans = np.cumsum(params.trans, axis=1)
        cdf_emit = np.cumsum(params.emit, axis=1)
        for c in (cdf_mu, cdf_trans.T, cdf_emit.T):
            c[-1] = 1.0
        # the draws in stream order: the initial state, then per step one for
        # the emission and one for the transition; every state's outcome of
        # each draw is looked up at once, and the loop only follows the path
        u = gen.random(1 + 2 * n)
        emit = [np.searchsorted(c, u[1::2], side="right").tolist() for c in cdf_emit]
        move = [np.searchsorted(c, u[2::2], side="right").tolist() for c in cdf_trans]
        state = int(np.searchsorted(cdf_mu, u[0], side="right"))
        x, y = [], []
        for t in range(n):
            x.append(state)
            y.append(emit[state][t])
            state = move[state][t]
        return np.array(x, dtype=np.int64), ObservationWindow(0, np.array(y, dtype=np.int64))
    if isinstance(params, LinearGaussianParams):
        x = np.empty(n, dtype=float)
        state = params.mu0_mean + np.sqrt(params.init_var) * gen.standard_normal()
        sq = np.sqrt(params.q)
        for t in range(n):
            x[t] = state
            state = params.a * state + sq * gen.standard_normal()
        y = x + np.sqrt(params.r_obs) * gen.standard_normal(n)
        return x, ObservationWindow(0, y)
    if isinstance(params, SVParams):
        x = np.empty(n, dtype=float)
        state = np.sqrt(params.init_var) * gen.standard_normal()
        sq = params.vol_of_vol
        for t in range(n):
            x[t] = state
            state = params.persistence * state + sq * gen.standard_normal()
        y = params.scale * np.exp(x / 2.0) * gen.standard_normal(n)
        return x, ObservationWindow(0, y)
    raise TypeError(f"cannot simulate from {type(params).__name__}")


@dataclass
class KalmanResult:
    mean: np.ndarray      # prediction mean per step, shape (n+1,)
    var: np.ndarray       # prediction variance per step, shape (n+1,)
    log_z: np.ndarray     # cumulative log marginal likelihood, shape (n+1,)


@dataclass
class ForwardResult:
    pred: np.ndarray      # prediction law per step, shape (n+1, k)
    log_z: np.ndarray     # cumulative log marginal likelihood, shape (n+1,)


def kalman_run(params: LinearGaussianParams, window, n: int) -> KalmanResult:
    """Exact filter for the linear-Gaussian model over indices ``0..n-1``."""
    window.require(0, n - 1, context="kalman_run")
    mean = np.empty(n + 1)
    var = np.empty(n + 1)
    log_z = np.zeros(n + 1)
    m, v = params.mu0_mean, params.init_var
    a, q, r = params.a, params.q, params.r_obs
    for t in range(n):
        mean[t], var[t] = m, v
        y = float(window.y(t))
        s = v + r
        log_z[t + 1] = log_z[t] - 0.5 * (np.log(2.0 * np.pi * s) + (y - m) ** 2 / s)
        gain = v / s
        m_post = m + gain * (y - m)
        v_post = v * (1.0 - gain)
        m, v = a * m_post, a * a * v_post + q
    mean[n], var[n] = m, v
    return KalmanResult(mean, var, log_z)


def finite_forward(params: FiniteHMMParams, window, n: int) -> ForwardResult:
    """Exact forward pass for a finite model over indices ``0..n-1``.

    Direct alpha recursion on the prediction law, independent of
    :func:`q_apply_log`.
    """
    window.require(0, n - 1, context="finite_forward")
    # the emission column of each observation, and the logs of the step
    # masses, taken for all steps at once
    emit = params.emit.T[window.values[np.arange(n) - window.origin].astype(np.int64)]
    pred = np.empty((n + 1, params.k))
    norms = np.empty(n)
    alpha = params.mu0.copy()
    for t in range(n):
        pred[t] = alpha
        weighted = alpha * emit[t]
        norm = norms[t] = np.add.reduce(weighted)
        if not norm > 0:
            raise ValueError(f"zero likelihood at step {t}")
        alpha = (weighted / norm) @ params.trans
        alpha = alpha / np.add.reduce(alpha)
    pred[n] = alpha
    log_z = np.zeros(n + 1)
    np.cumsum(np.log(norms), out=log_z[1:])
    return ForwardResult(pred, log_z)

