"""Model instances: linear-Gaussian, finite-state, stochastic volatility.

Each parameter set builds a bootstrap-form Feynman-Kac model (potential =
observation density at the current index, mutation = state dynamics) via
``.fk()``. Exact references live here too: ``kalman_run`` for the
linear-Gaussian model and ``finite_forward`` for finite-state models, both
returning per-step prediction laws and the cumulative log marginal
likelihood. The two are implemented independently of the operator layer so
they can serve as oracles for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .fkcore import ARGaussianFK, FiniteFK
from .resampling import scratch
from .rng import SIMULATE, RngStream
from .windows import ObservationWindow

__all__ = [
    "LinearGaussianParams",
    "FiniteHMMParams",
    "SVParams",
    "LinearGaussianFK",
    "StochasticVolatilityFK",
    "simulate",
    "kalman_run",
    "finite_forward",
    "KalmanResult",
    "ForwardResult",
]


def _check_finite(params) -> None:
    """Reject a non-finite parameter (``None`` is left to the class), naming
    it as the first word of the ``ValueError``."""
    for f in fields(params):
        value = getattr(params, f.name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class LinearGaussianParams:
    """X_{t+1} = a X_t + N(0, q), Y_t = X_t + N(0, r_obs).

    ``mu0_var=None`` selects the stationary initial law N(mu0_mean, q/(1-a^2)).
    Each check names the one parameter it rejects as the first word of its
    ``ValueError``.
    """

    a: float
    q: float
    r_obs: float
    mu0_mean: float = 0.0
    mu0_var: float | None = None

    def __post_init__(self):
        _check_finite(self)
        if not self.q > 0:
            raise ValueError("q must be > 0")
        if not self.r_obs > 0:
            raise ValueError("r_obs must be > 0")
        if self.mu0_var is None and not abs(self.a) < 1:
            raise ValueError("a must satisfy |a| < 1 for the stationary initial law; "
                             "give mu0_var otherwise")
        if self.mu0_var is not None and not self.mu0_var > 0:
            raise ValueError("mu0_var must be > 0")

    @property
    def init_var(self) -> float:
        if self.mu0_var is not None:
            return float(self.mu0_var)
        return self.q / (1.0 - self.a * self.a)

    def fk(self) -> "LinearGaussianFK":
        return LinearGaussianFK(self)


@dataclass(frozen=True)
class FiniteHMMParams:
    """Finite state space, finite observation alphabet.

    ``trans`` rows and ``mu0`` must be probability vectors; ``emit`` rows are
    per-state distributions over symbols and must be strictly positive.
    The model is built, and so checked, once with the params; ``fk()``
    returns that one model, whose tables are read-only.
    """

    mu0: np.ndarray
    trans: np.ndarray
    emit: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu0", np.asarray(self.mu0, dtype=float))
        object.__setattr__(self, "trans", np.asarray(self.trans, dtype=float))
        object.__setattr__(self, "emit", np.asarray(self.emit, dtype=float))
        object.__setattr__(self, "_fk", FiniteFK(self.mu0, self.trans, self.emit))

    @property
    def k(self) -> int:
        return self.mu0.shape[0]

    @property
    def is_mixing(self) -> bool:
        return bool((self.trans > 0).all())

    def fk(self) -> FiniteFK:
        return self._fk


@dataclass(frozen=True)
class SVParams:
    """Log-volatility AR(1): X_{t+1} = persistence * X_t + N(0, vol_of_vol^2),
    Y_t = scale * exp(X_t / 2) * N(0, 1). Each check names the one parameter
    it rejects as the first word of its ``ValueError``."""

    persistence: float = 0.975
    vol_of_vol: float = 0.16
    scale: float = 0.63

    def __post_init__(self):
        _check_finite(self)
        if not abs(self.persistence) < 1:
            raise ValueError("persistence must satisfy |rho| < 1")
        if not self.vol_of_vol > 0:
            raise ValueError("vol_of_vol must be > 0")
        if not self.scale > 0:
            raise ValueError("scale must be > 0")

    @property
    def state_var(self) -> float:
        return self.vol_of_vol**2

    @property
    def init_var(self) -> float:
        return self.state_var / (1.0 - self.persistence**2)

    def fk(self) -> "StochasticVolatilityFK":
        return StochasticVolatilityFK(self)


class LinearGaussianFK(ARGaussianFK):
    """Bootstrap-form model for :class:`LinearGaussianParams`."""

    def __init__(self, params: LinearGaussianParams):
        super().__init__(params.a, params.q, params.mu0_mean, params.init_var)
        self.r_obs = float(params.r_obs)
        self.params = params

    def log_g(self, window, t, x, out=None):
        # -(log(2 pi r) + (y - x)^2 / r) / 2, every step into the result
        y = float(window.y(t, context="potential evaluation"))
        v = np.subtract(y, np.asarray(x, dtype=float), out=out)
        v *= v
        v /= self.r_obs
        v += np.log(2.0 * np.pi * self.r_obs)
        v *= -0.5
        return v


class StochasticVolatilityFK(ARGaussianFK):
    """Bootstrap-form model for :class:`SVParams`."""

    def __init__(self, params: SVParams):
        super().__init__(params.persistence, params.state_var, 0.0, params.init_var)
        self.obs_scale2 = float(params.scale) ** 2
        self.params = params

    def log_g(self, window, t, x, out=None):
        # -(log(2 pi b^2) + x + y^2 exp(-x) / b^2) / 2, in that order, the
        # exponential term in a step buffer
        y = float(window.y(t, context="potential evaluation"))
        x = np.asarray(x, dtype=float)
        term = np.negative(x, out=scratch("term", x))
        np.exp(term, out=term)
        np.multiply(y * y, term, out=term)
        term /= self.obs_scale2
        v = np.add(np.log(2.0 * np.pi * self.obs_scale2), x, out=out)
        v += term
        v *= -0.5
        return v


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

    Direct alpha recursion on the prediction law, independent of the operator
    layer in :mod:`twistpf.fkcore`.
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

