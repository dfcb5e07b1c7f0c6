"""Exact oracles for finite-state models on the particle cloud chain.

The cloud of an N-particle run is a Markov chain whose every ingredient (the
product initial law, the mixture resample-mutate kernel, the particle-mean
potential and twist, the uniformly chosen twisted slot) is symmetric in the
particles. So it lumps exactly onto occupation counts ``c``, ``sum(c) = N``,
with multinomial transitions ``m_bold(c, c') = N! / prod_j c'_j! * prod_j
mix(c)_j ** c'_j`` where ``mix(c) = (c * g) @ trans / (c . g)``: C(N + k - 1,
k - 1) states instead of k^N, e.g. 36 instead of 2187 at k = 3, N = 7. The
chain gives the exact first and second moments of the estimators, and hence
variance-growth rates, without sampling; it is the reference the sampling
algorithms are tested against.

No step holds a dense S x S kernel. Under one multinomial(N, mix(c)) step the
expected cloud twist is ``mix(c) . psi``, and the twisted kernel, its
importance ratio and the second-moment kernel all collapse onto ``m_bold``:
``g phi m_tilde = g m_bold`` and ``g^2 phi^2 m_tilde = g^2 (mix . psi) m_bold /
psi_bold``. So both moment recursions are one ``(2, S) @ m_bold`` product per
step, built in row chunks of ``exp(log mix @ counts.T + log coef)`` that each
fit ``_CHUNK_BYTES``; ``log coef`` is read from a log-factorial table, ``log
i!`` for ``i = 0..N``, made once per call. What depends on the horizon
alone (the potentials, ``mix``, psi and its two contractions, and m_bold
itself when all its rows fit one chunk) is built for a batch of horizons at
once, so a step keeps only the recursions' own update: scale, multiply by
m_bold, divide by psi_bold and renormalize. A step costs time in S^2; chains
over ``_MAX_STATES`` states are refused with a ``ValueError`` naming N, k, the
state count and the bytes a dense kernel would take, before anything is
allocated. The ordered product-space view of the same kernels (k^N particle
tuples) lives only in the tests, as the reference the count space is checked
against.

Conventions: kernels built at time ``t`` map clouds at ``t`` to clouds at
``t + 1``; the twist enters through psi at ``t + 1``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .models import FiniteHMMParams, finite_forward
from .twists import TwistFunction

__all__ = [
    "occupation_states",
    "OracleReport",
    "exact_moments",
    "SlopeFit",
    "fit_slope",
    "CltVariances",
    "exact_clt_variances",
    "BoundReport",
    "upsilon_bound",
]

_CHUNK_BYTES = 4 * 2**20  # one row chunk of m_bold; a few MiB stay cache-friendly
_MAX_STATES = 2**14       # a step costs time in S^2: about 1 s per step at this ceiling


def _check_size(k: int, n_particles: int, n_states: int) -> None:
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if n_states > _MAX_STATES:
        raise ValueError(
            f"the cloud chain of N={n_particles} particles on k={k} states has "
            f"{n_states} states, over the ceiling of {_MAX_STATES}: each step "
            f"evaluates all {n_states}^2 kernel entries, {8 * n_states**2} bytes "
            f"if held at once (they are built in chunks of {_CHUNK_BYTES} bytes)"
        )


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


def _log_multinomial(states: np.ndarray, n_particles: int) -> np.ndarray:
    """``log(N! / prod_j c_j!)`` for each row ``c`` of the integer count array
    ``states`` (rows summing to N), from a table of ``log i!``, ``i = 0..N``,
    indexed by the counts."""
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n_particles + 1)])
    return log_fact[n_particles] - log_fact[states].sum(axis=1)


def _log0(x: np.ndarray) -> np.ndarray:
    # a finite stand-in for log 0 keeps 0 * log 0 = 0 inside matrix products
    # and still underflows exp to exactly 0
    return np.log(x, out=np.full(x.shape, -1e300), where=x > 0)


def _m_bold_rows(log_mix: np.ndarray, counts_t: np.ndarray, log_coef: np.ndarray, lo: int,
                 out: np.ndarray) -> np.ndarray:
    """Rows ``lo:lo + out.shape[1]`` of m_bold for each horizon of a batch,
    ``exp(log mix @ counts.T + log coef)``, into ``out`` (horizons, rows, S)."""
    block = np.matmul(log_mix[:, lo:lo + out.shape[1]], counts_t, out=out)
    block += log_coef
    return np.exp(block, out=block)


@dataclass
class OracleReport:
    """Exact moments of the twisted estimator per horizon.

    ``log_first[p]`` and ``log_second[p]`` are the log first and second
    moments of the estimator after ``p`` steps of the cloud chain; ``log_z``
    is the exact log marginal likelihood from :func:`finite_forward`, an
    independent recursion, so ``log_first == log_z`` checks the cloud chain
    itself. The twist cancels from the first moment (the kernel and the
    importance ratio use the same psi) and enters only the second; ``log_v``
    is the log relative second moment ``log E[Z_hat^2] - 2 log Z``.
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
    states = occupation_states(params.k, n_particles)
    log_coef = _log_multinomial(states, n_particles)
    counts = states.astype(float)
    counts_t = np.ascontiguousarray(counts.T)
    init = params.mu0 if mu0 is None else np.asarray(mu0, dtype=float)
    if init.shape != (params.k,) or abs(init.sum() - 1.0) > 1e-9 or (init < 0).any():
        raise ValueError("mu0 override must be a probability vector on the grid")
    grid = np.arange(params.k)
    n_states = len(states)
    # m_bold is built in chunks of rows that fit _CHUNK_BYTES; when one
    # chunk holds all S rows, the chunk buffer holds the kernels of a batch
    # of horizons, and everything a horizon alone decides is built for the
    # batch at once; otherwise a batch is one horizon
    rows = min(n_states, max(1, _CHUNK_BYTES // (8 * n_states)))
    batch = max(1, min(n_steps, _CHUNK_BYTES // (8 * n_states * rows))) if rows == n_states else 1
    kern = np.empty((batch, rows, n_states))
    alpha = np.exp(log_coef + counts @ _log0(init))
    alpha = np.stack([alpha, alpha])  # first- and second-moment laws
    sums = np.ones((2, n_steps + 1))  # per horizon, the mass each law is renormalized by
    for p0 in range(1, n_steps + 1, batch):
        ps = range(p0, min(p0 + batch, n_steps + 1))
        times = np.arange(p0 - 1, ps.stop - 1)
        cg = counts * np.exp(params.log_g_grid(window, times))[:, None, :]   # (B, S, k)
        cg_sum = cg.sum(axis=2)
        g_bold = cg_sum / n_particles
        mix = cg @ params.trans / cg_sum[:, :, None]
        lp = np.array([twist.log_psi(window, p, grid) for p in ps], dtype=float)
        psi = np.exp(lp - lp.max(axis=1, keepdims=True))[:, :, None]
        # the laws' factors before the step, and after it 1 and psi_bold at p
        fac = np.stack([g_bold, g_bold**2 * (mix @ psi)[:, :, 0]], axis=1)
        den = np.stack([np.ones_like(g_bold), (counts @ psi)[:, :, 0] / n_particles], axis=1)
        log_mix = _log0(mix)
        first = _m_bold_rows(log_mix, counts_t, log_coef, 0, kern[:len(ps)])
        for b, p in enumerate(ps):
            alpha *= fac[b]
            v = alpha[:, :rows] @ first[b]
            # more row chunks only where a batch is one horizon: each reuses
            # the buffer the first was read from
            for lo in range(rows, n_states, rows):
                block = _m_bold_rows(log_mix, counts_t, log_coef, lo, kern[:, :n_states - lo])
                v += alpha[:, lo:lo + rows] @ block[0]
            v /= den[b]
            s = sums[:, p:p + 1]
            np.add.reduce(v, 1, None, s, True)
            alpha = np.divide(v, s, out=v)
    log_m = np.cumsum(np.log(sums), axis=1)
    log_z = finite_forward(params, window, n_steps).log_z
    return OracleReport(
        n_particles=n_particles,
        n=np.arange(n_steps + 1),
        log_first=log_m[0],
        log_second=log_m[1],
        log_z=log_z,
        log_v=log_m[1] - 2.0 * log_z,
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
    grid = np.arange(params.k)
    g = [np.exp(params.log_g_grid(window, t)) for t in range(n_steps)]
    c = [float(eta[t] @ g[t]) for t in range(n_steps)]

    # normalized backward operators applied to phi and to phi - eta_n(phi)
    eta_n_phi = float(eta[n_steps] @ phi)
    w_cent = np.empty((n_steps + 1, params.k))
    w_full = np.empty((n_steps + 1, params.k))
    w_cent[n_steps] = phi - eta_n_phi
    w_full[n_steps] = phi
    for t in range(n_steps - 1, -1, -1):
        w_cent[t] = g[t] * (params.trans @ w_cent[t + 1]) / c[t]
        w_full[t] = g[t] * (params.trans @ w_full[t + 1]) / c[t]

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
    lh, lpsi = [], []
    for t in ts:
        lh.append(triple.log_h[triple.row(t)])
        lpsi.append(twist.log_psi(window, t, grid))
    # one row per t; each row is reduced on its own, so it keeps its per-t bits
    lh, lpsi = np.array(lh), np.array(lpsi, dtype=float)
    lpsi_c = lpsi - lpsi.max(axis=1, keepdims=True)
    lh_c = lh - lh.max(axis=1, keepdims=True)
    sup_psi_ratio = np.exp(-lpsi_c.min(axis=1))
    sup_psi_over_h = np.exp((lpsi_c - lh_c).max(axis=1))
    h_over_psi = np.exp(lh_c - lpsi_c)
    osc = h_over_psi.max(axis=1) - h_over_psi.min(axis=1)
    per_t = (2.0 * sup_psi_ratio - 1.0) * sup_psi_over_h * osc
    d_sup = float(per_t.max())
    return BoundReport(
        d_sup=d_sup,
        bound=float(np.log1p(d_sup / (n_particles - 1))),
        n_particles=n_particles,
        per_t=per_t,
    )

