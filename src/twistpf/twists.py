"""Twist functions: multiplicative reweightings of the mutation kernel.

A twist ``psi`` is a strictly positive bounded function of (time, state),
specified in log domain and only up to an additive constant per time index.
Consumers must use it exclusively through normalized quantities, so shifting
``log_psi`` by a constant leaves every filter output unchanged.

The interface every twist implements:

* ``log_psi(window, t, x)``: log psi_t at positions ``x``.
* ``log_q_psi(window, t, x)``: log of G_t(x) * integral M_t(x, dz) psi_{t+1}(z),
  carrying the same per-time constants as ``log_psi``.
* ``sample_twisted_mutation(window, t, x, gen)``: one draw per position from
  the reweighted kernel M_t(x, dz) psi_{t+1}(z) / integral; split, as for
  models, into ``noise(gen, size)`` (one uniform or standard normal per
  position) and the elementwise transform ``twisted_mutate(window, t, x, noise)``.
* ``lookahead``: largest future offset read, i.e. evaluating at time ``t``
  touches observation indices up to ``t + lookahead``.

Twists that can also be integrated against the initial law (needed by the
auxiliary filter) provide ``log_mu0_psi(window)`` and
``sample_twisted_initial(window, size, gen)``.

Families provided here:

* :class:`ConstantTwist`: psi = 1; reduces every consumer to its standard form.
* :class:`FiniteLagTwist`: psi_t = conditional likelihood of the next ``ell``
  observations, by backward matrix recursion on a finite grid.
* :class:`LinearGaussianLagTwist`: the same quantity in closed Gaussian form.
* :class:`StochasticVolatilityTwist`: Gaussian approximation for the
  stochastic volatility model (second-order expansion of each log observation
  density in the log-volatility, curvature floored so psi stays bounded).
* :class:`EigenTwist`: the generalized eigenfunction of the one-step operator,
  precomputed by :func:`eigen_triple` on finite models.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fkcore import categorical_counts, logsumexp, q_apply_log
from .models import FiniteHMMParams, LinearGaussianParams, SVParams

__all__ = [
    "TwistFunction",
    "ConstantTwist",
    "FiniteLagTwist",
    "LinearGaussianLagTwist",
    "StochasticVolatilityTwist",
    "EigenTriple",
    "EigenTwist",
    "eigen_triple",
    "ConvergenceError",
    "with_log_offset",
    "make_twist",
]


class ConvergenceError(RuntimeError):
    pass


class TwistFunction:
    """Interface; see module docstring."""

    lookahead = 0

    def log_psi(self, window, t: int, x):
        raise NotImplementedError

    def log_q_psi(self, window, t: int, x):
        raise NotImplementedError

    def noise(self, gen, size: int):
        return gen.random(size)

    def twisted_mutate(self, window, t: int, x, noise):
        raise NotImplementedError

    def sample_twisted_mutation(self, window, t: int, x, gen):
        return self.twisted_mutate(window, t, x, self.noise(gen, len(x)))

    def log_mu0_psi(self, window) -> float:
        raise NotImplementedError(
            f"{type(self).__name__} cannot integrate psi against the initial law"
        )

    def sample_twisted_initial(self, window, size: int, gen):
        raise NotImplementedError(
            f"{type(self).__name__} cannot sample the reweighted initial law"
        )


class ConstantTwist(TwistFunction):
    """psi = 1. All consumers collapse to their untwisted behavior."""

    lookahead = 0

    def __init__(self, model):
        self.model = model

    def log_psi(self, window, t, x):
        return np.zeros(np.shape(x), dtype=float)

    def log_q_psi(self, window, t, x):
        return self.model.log_g(window, t, x)

    def noise(self, gen, size):
        return self.model.noise(gen, size)

    def twisted_mutate(self, window, t, x, noise):
        return self.model.mutate(window, t, x, noise)

    def log_mu0_psi(self, window):
        return 0.0

    def sample_twisted_initial(self, window, size, gen):
        return self.model.sample_initial(size, gen)


def _categorical_rows(logits: np.ndarray, x, u) -> np.ndarray:
    """One categorical draw per uniform in ``u`` for a particle in state
    ``x``, from the unnormalized log masses in row ``x`` of the ``k x k``
    table ``logits``. The CDF of each state's row is built once per call."""
    z = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(z)
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    cdf[..., -1] = 1.0
    return categorical_counts(cdf, x, u)


class FiniteLagTwist(TwistFunction):
    """psi_t proportional to the likelihood of the ``ell`` observations from
    index ``t`` onward, given the current state. ``ell = 0`` is the constant
    twist; ``ell = 1`` is proportional to the potential."""

    def __init__(self, params: FiniteHMMParams, ell: int):
        if ell < 0:
            raise ValueError("lag must be >= 0")
        self.params = params
        self.ell = int(ell)
        self.lookahead = self.ell
        self.fk = params.fk()
        self._memo: dict = {}

    # tables are max-centered per (window, t); the constant is shared by
    # log_psi and log_q_psi so it cancels in every consumer
    def _table(self, window, t: int) -> np.ndarray:
        key = (window, t)
        tab = self._memo.get(key)
        if tab is None:
            tab = np.zeros(self.params.k)
            for s in range(t + self.ell - 1, t - 1, -1):
                tab = q_apply_log(self.fk, window, s, tab)
                tab = tab - tab.max()
            self._memo[key] = tab
        return tab

    def _q_table(self, window, t: int) -> np.ndarray:
        key = ("q", window, t)
        tab = self._memo.get(key)
        if tab is None:
            tab = q_apply_log(self.fk, window, t, self._table(window, t + 1))
            self._memo[key] = tab
        return tab

    def log_psi(self, window, t, x):
        return self._table(window, t)[np.asarray(x, dtype=np.int64)]

    def log_q_psi(self, window, t, x):
        return self._q_table(window, t)[np.asarray(x, dtype=np.int64)]

    def twisted_mutate(self, window, t, x, noise):
        return _categorical_rows(self.fk.log_trans + self._table(window, t + 1), x, noise)

    def log_mu0_psi(self, window):
        return float(logsumexp(np.log(self.params.mu0) + self._table(window, 0)))

    def sample_twisted_initial(self, window, size, gen):
        logits = np.log(self.params.mu0) + self._table(window, 0)
        z = np.exp(logits - logits.max())
        cdf = np.cumsum(z)
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        return np.searchsorted(cdf, gen.random(size), side="right").astype(np.int64)


class _GaussianQuadTwist(TwistFunction):
    """Shared machinery for twists of the form
    log psi_t(x) = -c x^2 / 2 + d x + e built by folding per-step quadratic
    observation terms through the AR(1) dynamics, in closed form."""

    def __init__(self, ell: int):
        if ell < 0:
            raise ValueError("lag must be >= 0")
        self.ell = int(ell)
        self.lookahead = self.ell
        self._memo: dict = {}

    # subclasses set self.model (ARGaussianFK) and implement _obs_quad
    def _obs_quad(self, window, t: int):
        raise NotImplementedError

    def _integrate(self, c, d, e):
        """Quadratic in x of log integral N(z; a x, q) exp(-c z^2/2 + d z + e) dz."""
        a, q = self.model.a, self.model.q
        denom = 1.0 + q * c
        return (
            a * a * c / denom,
            a * d / denom,
            e + d * d * q / (2.0 * denom) - 0.5 * np.log(denom),
        )

    def _psi_quad(self, window, t: int):
        key = (window, t)
        quad = self._memo.get(key)
        if quad is None:
            c, d, e = 0.0, 0.0, 0.0
            for s in range(t + self.ell - 1, t - 1, -1):
                c, d, e = self._integrate(c, d, e)
                cg, dg, eg = self._obs_quad(window, s)
                c, d, e = c + cg, d + dg, e + eg
            quad = (c, d, e)
            self._memo[key] = quad
        return quad

    @staticmethod
    def _eval(quad, x):
        c, d, e = quad
        x = np.asarray(x, dtype=float)
        return -0.5 * c * x * x + d * x + e

    def log_psi(self, window, t, x):
        return self._eval(self._psi_quad(window, t), x)

    def log_q_psi(self, window, t, x):
        mid = self._integrate(*self._psi_quad(window, t + 1))
        return self.model.log_g(window, t, x) + self._eval(mid, x)

    def noise(self, gen, size):
        return gen.standard_normal(size)

    def twisted_mutate(self, window, t, x, noise):
        c, d, _ = self._psi_quad(window, t + 1)
        a, q = self.model.a, self.model.q
        x = np.asarray(x, dtype=float)
        prec = c + 1.0 / q
        var = 1.0 / prec
        mean = (a * x / q + d) * var
        return mean + np.sqrt(var) * noise

    def log_mu0_psi(self, window):
        c, d, e = self._psi_quad(window, 0)
        m0, v0 = self.model.mu0_mean, self.model.mu0_var
        big_a = c + 1.0 / v0
        big_b = m0 / v0 + d
        return float(
            e + big_b * big_b / (2.0 * big_a) - m0 * m0 / (2.0 * v0)
            - 0.5 * np.log(v0 * big_a)
        )

    def sample_twisted_initial(self, window, size, gen):
        c, d, _ = self._psi_quad(window, 0)
        m0, v0 = self.model.mu0_mean, self.model.mu0_var
        prec = c + 1.0 / v0
        var = 1.0 / prec
        mean = (m0 / v0 + d) * var
        return mean + np.sqrt(var) * gen.standard_normal(size)


class LinearGaussianLagTwist(_GaussianQuadTwist):
    """Exact lag twist for the linear-Gaussian model: psi_t is the Gaussian
    likelihood of the next ``ell`` observations given the current state."""

    def __init__(self, params: LinearGaussianParams, ell: int):
        super().__init__(ell)
        self.params = params
        self.model = params.fk()

    def _obs_quad(self, window, t):
        r = self.params.r_obs
        y = float(window.y(t, context="lag twist"))
        return 1.0 / r, y / r, -y * y / (2.0 * r) - 0.5 * np.log(2.0 * np.pi * r)


class StochasticVolatilityTwist(_GaussianQuadTwist):
    """Approximate lag twist for the stochastic volatility model.

    Each log observation density is replaced by its second-order expansion in
    the log-volatility around the mode, with the curvature floored at a small
    positive value so the resulting psi is a bounded Gaussian shape even for
    near-zero observations. Any strictly positive bounded psi gives valid
    (unbiased) estimators; the approximation quality only affects variance.
    """

    curvature_floor = 1e-4

    def __init__(self, params: SVParams, ell: int):
        super().__init__(ell)
        self.params = params
        self.model = params.fk()

    def _obs_quad(self, window, t):
        b2 = self.model.obs_scale2
        y = float(window.y(t, context="sv twist"))
        delta = 1e-8 * b2
        xhat = np.log((y * y + delta) / b2)
        c = max(y * y / (2.0 * (y * y + delta)), self.curvature_floor)
        d = -0.5 + c * (1.0 + xhat)
        log_g_hat = -0.5 * (
            np.log(2.0 * np.pi * b2) + xhat + y * y * np.exp(-xhat) / b2
        )
        e = log_g_hat + 0.5 * c * xhat * xhat - d * xhat
        return c, d, e


@dataclass
class EigenTriple:
    """Generalized eigen-elements of the one-step operator on a finite grid.

    For each time ``t`` in ``[t_lo, t_hi]`` of the construction window:
    ``h[t]`` (eigenfunction, normalized so eta_t(h_t) = 1), ``eta[t]``
    (eigenmeasure, a probability vector) and ``lam[t] = eta_t(G_t)``, linked by
    Q_t(h_{t+1}) = lam_t h_t and eta_t Q_t = lam_t eta_{t+1}.
    ``lambda_hat`` is the average of ``log lam`` over the range, an estimate of
    the asymptotic growth rate of the marginal likelihood.
    """

    params: FiniteHMMParams
    window_origin: int
    t_lo: int
    t_hi: int
    h: np.ndarray          # (t_hi - t_lo + 1, k), linear scale
    eta: np.ndarray        # (t_hi - t_lo + 1, k)
    lam: np.ndarray        # (t_hi - t_lo + 1,)
    lambda_hat: float
    residuals: dict
    tol: float

    @property
    def log_h(self) -> np.ndarray:
        return np.log(self.h)

    def row(self, t: int) -> int:
        if t < self.t_lo or t > self.t_hi:
            raise ValueError(
                f"eigen tables cover absolute indices [{self.t_lo}, {self.t_hi}], "
                f"requested t={t}"
            )
        return t - self.t_lo

    def as_twist(self) -> "EigenTwist":
        return EigenTwist(self)


def _centered_gap(u: np.ndarray, v: np.ndarray) -> float:
    """Sup-norm of u - v after removing the best common additive constant."""
    g = u - v
    return float(g.max() - g.min())


def eigen_triple(
    params: FiniteHMMParams,
    window,
    tol: float = 1e-9,
    t_lo: int | None = None,
    t_hi: int | None = None,
) -> EigenTriple:
    """Compute the eigen-elements on ``[t_lo, t_hi]`` inside the window.

    The eigenfunction comes from the backward recursion u_t = Q_t(u_{t+1})
    started from the window's right edge (renormalized each step); the
    eigenmeasure from the forward normalized recursion started at the left
    edge. Both are certified converged by comparing two sweeps with different
    starting points; the certificate must beat ``tol`` in the centered
    sup-norm of logs, otherwise a :class:`ConvergenceError` asks for a longer
    window.
    """
    if not params.is_mixing:
        warnings.warn(
            "transition matrix has zero entries; the eigen recursions are not "
            "guaranteed to converge",
            stacklevel=2,
        )
    fk = params.fk()
    o, e_idx = window.origin, window.end
    length = window.length
    if t_lo is None:
        t_lo = o + max(1, length // 4)
    if t_hi is None:
        t_hi = e_idx - 1 - max(1, length // 4)
    if not (o <= t_lo <= t_hi <= e_idx - 1):
        raise ValueError(
            f"evaluation range [{t_lo}, {t_hi}] must sit inside [{o}, {e_idx - 1}]"
        )
    k = params.k
    n_rows = e_idx - o + 1  # log u_t for t in [o, e_idx]

    def backward(start: int) -> np.ndarray:
        logs = np.full((n_rows, k), np.nan)
        u = np.zeros(k)
        logs[start - o] = u
        for t in range(start - 1, o - 1, -1):
            u = q_apply_log(fk, window, t, u)
            u = u - u.max()
            logs[t - o] = u
        return logs

    back_a = backward(e_idx)
    back_b = backward(e_idx - 1)
    gap_h = max(
        _centered_gap(back_a[t - o], back_b[t - o]) for t in range(t_lo, t_hi + 1)
    )
    if gap_h > tol:
        raise ConvergenceError(
            f"eigenfunction not converged on [{t_lo}, {t_hi}]: certificate "
            f"{gap_h:.3e} > tol {tol:.3e}; extend the window right edge beyond "
            f"index {e_idx - 1}"
        )

    def forward(init: np.ndarray) -> np.ndarray:
        probs = np.empty((n_rows, k))
        p = init
        probs[0] = p
        for t in range(o, e_idx):
            g = np.exp(fk.log_g_grid(window, t))
            w = p * g
            p = w @ fk.trans
            p = p / p.sum()
            probs[t + 1 - o] = p
        return probs

    fwd_a = forward(np.full(k, 1.0 / k))
    init_b = np.full(k, 1e-12)
    init_b[0] = 1.0
    fwd_b = forward(init_b / init_b.sum())
    gap_eta = max(
        _centered_gap(np.log(fwd_a[t - o]), np.log(fwd_b[t - o]))
        for t in range(t_lo, t_hi + 1)
    )
    if gap_eta > tol:
        raise ConvergenceError(
            f"eigenmeasure not converged on [{t_lo}, {t_hi}]: certificate "
            f"{gap_eta:.3e} > tol {tol:.3e}; extend the window left edge below "
            f"index {o}"
        )

    rows = t_hi - t_lo + 1
    h = np.empty((rows, k))
    eta = np.empty((rows, k))
    lam = np.empty(rows)
    for t in range(t_lo, t_hi + 1):
        eta_t = fwd_a[t - o]
        h_lin = np.exp(back_a[t - o] - back_a[t - o].max())
        h_t = h_lin / float(eta_t @ h_lin)
        g_t = np.exp(fk.log_g_grid(window, t))
        h[t - t_lo] = h_t
        eta[t - t_lo] = eta_t
        lam[t - t_lo] = float(eta_t @ g_t)

    # residuals of the defining identities, measured on the interior
    res_func = 0.0
    res_meas = 0.0
    for t in range(t_lo, t_hi):
        i = t - t_lo
        g_t = np.exp(fk.log_g_grid(window, t))
        qh = g_t * (fk.trans @ h[i + 1])
        res_func = max(res_func, float(np.abs(qh - lam[i] * h[i]).max()))
        flow = (eta[i] * g_t) @ fk.trans
        res_meas = max(res_meas, float(np.abs(flow - lam[i] * eta[i + 1]).max()))
    res_norm = float(np.abs((eta * h).sum(axis=1) - 1.0).max())
    residuals = {
        "eigenfunction": res_func,
        "eigenmeasure": res_meas,
        "normalization": res_norm,
        "certificate_h": gap_h,
        "certificate_eta": gap_eta,
    }
    lambda_hat = float(np.mean(np.log(lam)))
    return EigenTriple(
        params=params,
        window_origin=o,
        t_lo=t_lo,
        t_hi=t_hi,
        h=h,
        eta=eta,
        lam=lam,
        lambda_hat=lambda_hat,
        residuals=residuals,
        tol=tol,
    )


class EigenTwist(TwistFunction):
    """psi_t = h_t from a precomputed :class:`EigenTriple`.

    Valid for (shifts of) the construction window, on absolute indices within
    the triple's evaluation range. With this twist the estimator trajectory
    collapses onto the eigenvalue product; see the per-run identity tests.
    """

    lookahead = 0

    def __init__(self, triple: EigenTriple):
        self.triple = triple
        self.params = triple.params
        self.fk = triple.params.fk()

    def _abs_index(self, window, t: int) -> int:
        # index t of a shifted window addresses t + (o0 - origin) of the original
        return t + (self.triple.window_origin - window.origin)

    def log_psi(self, window, t, x):
        row = self.triple.row(self._abs_index(window, t))
        return self.triple.log_h[row][np.asarray(x, dtype=np.int64)]

    def log_q_psi(self, window, t, x):
        row = self.triple.row(self._abs_index(window, t) + 1)
        grid = self.fk.log_g_grid(window, t) + np.log(self.fk.trans @ self.triple.h[row])
        return grid[np.asarray(x, dtype=np.int64)]

    def twisted_mutate(self, window, t, x, noise):
        row = self.triple.row(self._abs_index(window, t) + 1)
        return _categorical_rows(self.fk.log_trans + self.triple.log_h[row], x, noise)

    def log_mu0_psi(self, window):
        row = self.triple.row(self._abs_index(window, 0))
        return float(np.log(self.params.mu0 @ self.triple.h[row]))

    def sample_twisted_initial(self, window, size, gen):
        row = self.triple.row(self._abs_index(window, 0))
        p = self.params.mu0 * self.triple.h[row]
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        return np.searchsorted(cdf, gen.random(size), side="right").astype(np.int64)


class _OffsetTwist(TwistFunction):
    def __init__(self, base: TwistFunction, offset: float):
        self.base = base
        self.offset = float(offset)
        self.lookahead = base.lookahead

    def log_psi(self, window, t, x):
        return self.base.log_psi(window, t, x) + self.offset

    def log_q_psi(self, window, t, x):
        return self.base.log_q_psi(window, t, x) + self.offset

    def noise(self, gen, size):
        return self.base.noise(gen, size)

    def twisted_mutate(self, window, t, x, noise):
        return self.base.twisted_mutate(window, t, x, noise)

    def log_mu0_psi(self, window):
        return self.base.log_mu0_psi(window) + self.offset

    def sample_twisted_initial(self, window, size, gen):
        return self.base.sample_twisted_initial(window, size, gen)


def with_log_offset(twist: TwistFunction, offset: float) -> TwistFunction:
    """The same twist with ``log_psi`` shifted by a constant (for testing
    that consumers are invariant to the constant)."""
    return _OffsetTwist(twist, offset)


def make_twist(params, spec: dict, window=None, model=None) -> TwistFunction:
    """Build a twist from a config mapping ``{kind, ell, tol}``.

    Kinds: ``constant``, ``lag``, ``exact_h`` (finite models only, needs the
    window at construction), ``sv_approx``.
    """
    kind = spec.get("kind", "constant")
    ell = int(spec.get("ell", 0))
    tol = float(spec.get("tol", 1e-9))
    if kind == "constant":
        return ConstantTwist(model if model is not None else params.fk())
    if kind == "lag":
        if isinstance(params, FiniteHMMParams):
            return FiniteLagTwist(params, ell)
        if isinstance(params, LinearGaussianParams):
            return LinearGaussianLagTwist(params, ell)
        if isinstance(params, SVParams):
            raise ValueError(
                "exact lag twists are not available for the stochastic "
                "volatility model; use kind 'sv_approx'"
            )
        raise ValueError(f"no lag twist for {type(params).__name__}")
    if kind == "exact_h":
        if not isinstance(params, FiniteHMMParams):
            raise ValueError("exact_h twists need a finite-state model")
        if window is None:
            raise ValueError("exact_h twists need the observation window up front")
        return eigen_triple(params, window, tol=tol).as_twist()
    if kind == "sv_approx":
        if not isinstance(params, SVParams):
            raise ValueError("sv_approx twists need the stochastic volatility model")
        return StochasticVolatilityTwist(params, ell)
    raise ValueError(f"unknown twist kind {kind!r}")
