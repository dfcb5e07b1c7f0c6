"""Exact oracles for finite-state models on the particle cloud chain.

The cloud of an N-particle run is a Markov chain whose every ingredient (the
product initial law, the mixture resample-mutate kernel, the particle-mean
potential and twist, the uniformly chosen twisted slot) is symmetric in the
particles. So it lumps exactly onto occupation counts ``c``, ``sum(c) = N``,
with multinomial transitions ``m_bold(c, c') = N! / prod_j c'_j! * prod_j
mix(c)_j ** c'_j`` where ``mix(c) = (c * g) @ trans / (c . g)``: C(N + k - 1,
k - 1) states instead of k^N, e.g. 36 instead of 2187 at k = 3, N = 7. Dense
kernels there give the exact first and second moments of the estimators, and
hence variance-growth rates, without sampling; they are the reference the
sampling algorithms are tested against.

:func:`build_bold_kernels` is the ordered product-space view of the same
formula (each tuple's counts, unit multiplicity), kept so tests can index
kernel rows by particle tuple. Both spaces are checked against one byte
budget, ``_BYTE_BUDGET``, before anything is allocated; past it a
``ValueError`` names N, k, the state count and the bytes needed.

Conventions: kernels built at time ``t`` map clouds at ``t`` to clouds at
``t + 1``; the twist enters through psi at ``t + 1``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .models import FiniteHMMParams, finite_forward
from .twists import TwistFunction

__all__ = [
    "product_states",
    "occupation_states",
    "BoldKernelSet",
    "build_bold_kernels",
    "OracleReport",
    "exact_moments",
    "SlopeFit",
    "fit_slope",
    "upsilon_slope",
    "CltVariances",
    "exact_clt_variances",
    "BoundReport",
    "upsilon_bound",
]

_BYTE_BUDGET = 256 * 2**20
_DENSE_ARRAYS = 8  # S x S float64 arrays live while one step is built (6 measured)


def _check_size(k: int, n_particles: int, n_states: int) -> None:
    if n_particles < 1:
        raise ValueError("need at least one particle")
    need = _DENSE_ARRAYS * 8 * n_states**2
    if need > _BYTE_BUDGET:
        raise ValueError(
            f"the cloud chain of N={n_particles} particles on k={k} states has "
            f"{n_states} states; its dense kernels need {need} bytes, over the "
            f"budget of {_BYTE_BUDGET}"
        )


def product_states(k: int, n_particles: int) -> np.ndarray:
    """All clouds of ``n_particles`` points on a ``k``-state grid, shape (k^N, N)."""
    _check_size(k, n_particles, int(k) ** n_particles)
    digits = itertools.product(range(k), repeat=n_particles)
    return np.array(list(digits), dtype=np.int64).reshape(-1, n_particles)


def occupation_states(k: int, n_particles: int) -> np.ndarray:
    """All occupation-count vectors of ``n_particles`` points on a ``k``-state
    grid, shape (C(N + k - 1, k - 1), k), enumerated by stars and bars."""
    size = math.comb(n_particles + k - 1, k - 1)
    _check_size(k, n_particles, size)
    bars = np.array(
        list(itertools.combinations(range(n_particles + k - 1), k - 1)), dtype=np.int64
    ).reshape(size, k - 1)
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, n_particles + k - 1))
    return np.diff(edges, axis=1) - 1


def _log0(x: np.ndarray) -> np.ndarray:
    # a finite stand-in for log 0 keeps 0 * log 0 = 0 inside matrix products
    # and still underflows exp to exactly 0
    return np.log(x, out=np.full(x.shape, -1e300), where=x > 0)


@dataclass
class BoldKernelSet:
    """Dense one-step kernels of the N-particle cloud chain at one time index.

    ``m_bold`` is the resample-mutate kernel, ``g_bold`` the cloud potential
    (mean of per-particle potentials), ``q_bold = diag(g_bold) m_bold``.
    ``m_tilde`` is the psi-twisted cloud kernel, ``phi`` the importance ratio
    ``d m_bold / d m_tilde``, and ``r_tilde = g_bold^2 phi^2 m_tilde`` the
    second-moment kernel of the twisted run. ``states`` holds the occupation
    counts, or the ordered tuples when built by :func:`build_bold_kernels`.
    """

    t: int
    states: np.ndarray
    g_bold: np.ndarray
    psi_bold: np.ndarray      # at time t + 1, up to the twist's constant
    m_bold: np.ndarray
    m_tilde: np.ndarray
    q_bold: np.ndarray
    phi: np.ndarray
    r_tilde: np.ndarray


def _cloud_kernels(params, twist, window, t, counts, log_coef) -> BoldKernelSet:
    """One-step kernels of the cloud chain on states given by their float
    occupation counts; ``log_coef`` is each state's log multiplicity as a
    successor (multinomial on the count space, zero on the ordered grid)."""
    fk = params.fk()
    n_particles = counts[0].sum()
    cg = counts * np.exp(fk.log_g_grid(window, t))                # (S, k)
    g_bold = cg.sum(axis=1) / n_particles
    mix = cg @ fk.trans / cg.sum(axis=1, keepdims=True)           # (S, k)
    m_bold = np.exp(_log0(mix) @ counts.T + log_coef[None, :])    # (S, S)

    lp = twist.log_psi(window, t + 1, np.arange(params.k))
    psi_bold = counts @ np.exp(lp - lp.max()) / n_particles       # (S,)
    mb_psi = m_bold @ psi_bold
    m_tilde = m_bold * psi_bold[None, :] / mb_psi[:, None]
    phi = mb_psi[:, None] / psi_bold[None, :]
    r_tilde = (g_bold**2)[:, None] * phi**2 * m_tilde
    q_bold = g_bold[:, None] * m_bold
    return BoldKernelSet(t, counts, g_bold, psi_bold, m_bold, m_tilde, q_bold, phi, r_tilde)


def build_bold_kernels(
    params: FiniteHMMParams,
    twist: TwistFunction,
    n_particles: int,
    window,
    t: int,
) -> BoldKernelSet:
    """The cloud kernels on the ordered product grid, ``states`` row by row."""
    states = product_states(params.k, n_particles)
    counts = (states[:, :, None] == np.arange(params.k)).sum(axis=1).astype(float)
    kern = _cloud_kernels(params, twist, window, t, counts, np.zeros(len(states)))
    kern.states = states
    return kern


@dataclass
class OracleReport:
    """Exact moments of the twisted estimator per horizon.

    ``log_first[p]`` and ``log_second[p]`` are the log first and second
    moments of the estimator after ``p`` steps, assembled from the twisted
    kernels (so any indexing error in the twist breaks the first moment);
    ``log_z`` is the exact log marginal likelihood; ``log_v`` the log relative
    second moment ``log E[Z_hat^2] - 2 log Z``.
    """

    n_particles: int
    n: np.ndarray
    log_first: np.ndarray
    log_second: np.ndarray
    log_z: np.ndarray
    log_v: np.ndarray

    @property
    def v_tilde(self) -> np.ndarray:
        return np.exp(self.log_v)


def exact_moments(
    params: FiniteHMMParams,
    twist: TwistFunction,
    n_particles: int,
    window,
    n_steps: int,
    mu0=None,
) -> OracleReport:
    """Exact E[Z_hat] and E[Z_hat^2] of the twisted run for horizons 0..n_steps,
    computed on the occupation-count chain.

    ``mu0`` optionally replaces the per-particle initial law (the cloud starts
    from its N-fold product either way).
    """
    window.require(0, n_steps - 1 + twist.lookahead, context="exact_moments")
    counts = occupation_states(params.k, n_particles).astype(float)
    log_coef = gammaln(n_particles + 1.0) - gammaln(counts + 1.0).sum(axis=1)
    init = params.mu0 if mu0 is None else np.asarray(mu0, dtype=float)
    if init.shape != (params.k,) or abs(init.sum() - 1.0) > 1e-9 or (init < 0).any():
        raise ValueError("mu0 override must be a probability vector on the grid")
    alpha1 = np.exp(log_coef + counts @ _log0(init))
    alpha2 = alpha1.copy()
    log_m1 = np.zeros(n_steps + 1)
    log_m2 = np.zeros(n_steps + 1)
    for p in range(1, n_steps + 1):
        kern = _cloud_kernels(params, twist, window, p - 1, counts, log_coef)
        step1 = kern.g_bold[:, None] * kern.phi * kern.m_tilde
        v1 = alpha1 @ step1
        s1 = v1.sum()
        log_m1[p] = log_m1[p - 1] + np.log(s1)
        alpha1 = v1 / s1
        v2 = alpha2 @ kern.r_tilde
        s2 = v2.sum()
        log_m2[p] = log_m2[p - 1] + np.log(s2)
        alpha2 = v2 / s2
        del kern, step1  # free this step's S x S arrays before the next build
    log_z = finite_forward(params, window, n_steps).log_z
    return OracleReport(
        n_particles=n_particles,
        n=np.arange(n_steps + 1),
        log_first=log_m1,
        log_second=log_m2,
        log_z=log_z,
        log_v=log_m2 - 2.0 * log_z,
    )


@dataclass
class SlopeFit:
    slope: float
    stderr: float
    intercept: float
    r2: float
    n_lo: int
    n_hi: int


def fit_slope(n_values, y_values, n_lo: int | None = None, n_hi: int | None = None) -> SlopeFit:
    """Least-squares slope of ``y`` against ``n`` over ``[n_lo, n_hi]``.

    Defaults to the last two thirds of the available range, where transients
    from the initial law have died out.
    """
    n_values = np.asarray(n_values, dtype=float)
    y_values = np.asarray(y_values, dtype=float)
    if n_hi is None:
        n_hi = int(n_values.max())
    if n_lo is None:
        n_lo = max(1, int(np.ceil(n_hi / 3.0)))
    mask = (n_values >= n_lo) & (n_values <= n_hi)
    x, y = n_values[mask], y_values[mask]
    if x.size < 3:
        raise ValueError("need at least 3 points to fit a slope")
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - intercept - slope * x
    dof = x.size - 2
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    stderr = float(np.sqrt(sigma2 / sxx))
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float(resid @ resid) / tss if tss > 0 else 1.0
    return SlopeFit(slope, stderr, intercept, r2, int(n_lo), int(n_hi))


def upsilon_slope(
    params: FiniteHMMParams,
    twist: TwistFunction,
    n_particles: int,
    window,
    n_range,
    n_lo: int | None = None,
    n_hi: int | None = None,
    mu0=None,
) -> tuple[SlopeFit, OracleReport]:
    """Exact variance-growth rate: slope of ``log V_tilde`` against ``n``.

    ``n_range`` is either the horizon (int) or an iterable of horizons whose
    min/max set the fit range.
    """
    if np.iterable(n_range):
        ns = [int(v) for v in n_range]
        n_steps = max(ns)
        n_lo = min(ns) if n_lo is None else n_lo
        n_hi = n_steps if n_hi is None else n_hi
    else:
        n_steps = int(n_range)
    report = exact_moments(params, twist, n_particles, window, n_steps, mu0=mu0)
    fit = fit_slope(report.n, report.log_v, n_lo=n_lo, n_hi=n_hi)
    return fit, report


@dataclass
class CltVariances:
    """Exact asymptotic variances at one horizon.

    ``sigma2`` is the variance of the normalized (filter) estimator error,
    independent of the twist; ``varsigma2_rel`` the variance of the relative
    unnormalized error (twist-dependent); ``varsigma2`` its absolute version
    ``varsigma2_rel * Z^2``.
    """

    sigma2: float
    varsigma2: float
    varsigma2_rel: float
    log_z: float
    eta_phi: float


def exact_clt_variances(
    params: FiniteHMMParams,
    twist: TwistFunction,
    phi,
    window,
    n_steps: int,
) -> CltVariances:
    """Exact CLT variances for a test function on the grid at horizon ``n_steps``."""
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (params.k,):
        raise ValueError("phi must be a vector on the state grid")
    fwd = finite_forward(params, window, n_steps)
    eta = fwd.pred                                    # (n+1, k) prediction laws
    fk = params.fk()
    grid = np.arange(params.k)
    g = [np.exp(fk.log_g_grid(window, t)) for t in range(n_steps)]
    c = [float(eta[t] @ g[t]) for t in range(n_steps)]

    # normalized backward operators applied to phi and to phi - eta_n(phi)
    eta_n_phi = float(eta[n_steps] @ phi)
    w_cent = np.empty((n_steps + 1, params.k))
    w_full = np.empty((n_steps + 1, params.k))
    w_cent[n_steps] = phi - eta_n_phi
    w_full[n_steps] = phi
    for t in range(n_steps - 1, -1, -1):
        w_cent[t] = g[t] * (fk.trans @ w_cent[t + 1]) / c[t]
        w_full[t] = g[t] * (fk.trans @ w_full[t + 1]) / c[t]

    sigma2 = 0.0
    varsigma2_rel = 0.0
    for p in range(n_steps + 1):
        sigma2 += float(eta[p] @ w_cent[p] ** 2)
        if p == 0:
            ratio = np.ones(params.k)
        else:
            lp = twist.log_psi(window, p, grid)
            psi = np.exp(lp - lp.max())
            ratio = psi / float(eta[p] @ psi)
        dev = w_full[p] - ratio * float(eta[p] @ w_full[p])
        varsigma2_rel += float(eta[p] @ dev**2)
    log_z = float(fwd.log_z[n_steps])
    return CltVariances(
        sigma2=sigma2,
        varsigma2=varsigma2_rel * float(np.exp(2.0 * log_z)),
        varsigma2_rel=varsigma2_rel,
        log_z=log_z,
        eta_phi=eta_n_phi,
    )


@dataclass
class BoundReport:
    """Discrepancy between a twist and the eigenfunction, and the induced
    bound ``log(1 + d_sup / (N - 1))`` on the variance-growth rate."""

    d_sup: float
    bound: float
    n_particles: int
    per_t: np.ndarray


def upsilon_bound(triple, twist: TwistFunction, window, ts, n_particles: int) -> BoundReport:
    """Growth-rate bound from the sup discrepancy over the time ensemble ``ts``.

    Scale-invariant in both the twist and the eigenfunction, so the additive
    constants carried by either do not matter.
    """
    if n_particles < 2:
        raise ValueError("the bound needs at least 2 particles")
    grid = np.arange(triple.params.k)
    per_t = []
    for t in ts:
        lh = triple.log_h[triple.row(t)]
        lpsi = np.asarray(twist.log_psi(window, t, grid), dtype=float)
        lpsi_c = lpsi - lpsi.max()
        lh_c = lh - lh.max()
        sup_psi_ratio = float(np.exp(-lpsi_c.min()))
        sup_psi_over_h = float(np.exp((lpsi_c - lh_c).max()))
        h_over_psi = np.exp(lh_c - lpsi_c)
        osc = float(h_over_psi.max() - h_over_psi.min())
        c_t = (2.0 * sup_psi_ratio - 1.0) * sup_psi_over_h
        per_t.append(c_t * osc)
    per_t = np.asarray(per_t)
    d_sup = float(per_t.max())
    return BoundReport(
        d_sup=d_sup,
        bound=float(np.log1p(d_sup / (n_particles - 1))),
        n_particles=n_particles,
        per_t=per_t,
    )

