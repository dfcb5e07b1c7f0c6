"""Twist functions: multiplicative reweightings of the mutation kernel.

A twist ``psi`` is a strictly positive bounded function of (time, state),
specified in log domain and only up to an additive constant per time index.
Consumers must use it exclusively through normalized quantities, so shifting
``log_psi`` by a constant leaves every filter output unchanged.

The interface every twist implements:

* ``log_psi(window, t, x)``: log psi_t at positions ``x``.
* ``log_q_psi(window, t, x)``: log of G_t(x) * integral M_t(x, dz) psi_{t+1}(z),
  carrying the same per-time constants as ``log_psi``.
* ``noise(gen, size)`` and ``twisted_mutate(window, t, x, noise)``: a move
  from the reweighted kernel M_t(x, dz) psi_{t+1}(z) / integral, split as for
  models into the draws (one uniform or standard normal per position) and
  an elementwise transform.
* ``log_mu0_psi(window)`` and ``sample_twisted_initial(window, size, gen)``:
  psi_0 integrated against, and reweighting, the initial law.
* ``lookahead``: largest future offset read, i.e. evaluating at time ``t``
  touches observation indices up to ``t + lookahead``.

The first four methods write their result into an ``out=`` array when one
is given, as the models' methods do.

``TWIST_KINDS`` is the one table of the twist kinds each model has, by
name, and the class of each, whose ``lagged`` and ``margins`` say how
:func:`make_twist` builds it and what it reads past the horizon:

* ``constant``, :class:`ConstantTwist`: psi = 1; every consumer reduces to
  its standard form.
* ``lag``: psi_t = conditional likelihood of the next ``ell`` observations,
  by backward matrix recursion on a finite grid (:class:`FiniteLagTwist`)
  or in closed Gaussian form (:class:`LinearGaussianLagTwist`).
* ``sv_approx``, :class:`StochasticVolatilityTwist`: a Gaussian
  approximation of the lag twist of the stochastic volatility model.
* ``exact_h``, :class:`EigenTwist`: the generalized eigenfunction of the
  one-step operator on finite models, from :func:`study_triple`.

The three lag twists share one table builder (:class:`_LagTwist`), and the
finite ``lag`` and ``exact_h`` twists one finite table base
(:class:`_FiniteTableTwist`). What a twist builds for a window is kept in
its one memo (:meth:`TwistFunction._memo`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .fkcore import categorical_counts, count_at_or_below, logsumexp, logsumexp_bounded, lookup
from .models import FiniteHMMParams, LinearGaussianParams, SVParams, q_apply_log
from .resampling import scratch

__all__ = [
    "TwistFunction",
    "ConstantTwist",
    "FiniteLagTwist",
    "LinearGaussianLagTwist",
    "StochasticVolatilityTwist",
    "EigenTriple",
    "EigenTwist",
    "eigen_triple",
    "study_triple",
    "ConvergenceError",
    "TWIST_KINDS",
    "make_twist",
]


class ConvergenceError(RuntimeError):
    """An eigen certificate failed on its window; ``edge`` is the window edge
    to extend, ``"left"`` or ``"right"``."""

    def __init__(self, message: str, edge: str | None = None):
        super().__init__(message)
        self.edge = edge


class TwistFunction:
    """Interface; see module docstring. ``triple``: an eigen twist's triple."""

    lookahead = 0
    lagged = False   # its kind takes a lag ``ell``, which an ``ell_grid`` varies
    margins = False  # it reads its study's eigen margins, not ``ell`` observations
    triple = None
    _memo_window = None

    def _memo(self, window, key, build):
        """What ``window`` decides under ``key``, ``build()`` on first use;
        met with another window, the twist drops all the last one's keys."""
        if window is not self._memo_window:
            self._memo_window, self._memo_rows = window, {}
        row = self._memo_rows.get(key)
        if row is None:
            row = self._memo_rows[key] = build()
        return row

    def log_psi(self, window, t: int, x, out=None):
        raise NotImplementedError

    def log_q_psi(self, window, t: int, x, out=None):
        raise NotImplementedError

    def noise(self, gen, size: int, out=None):
        return gen.random(size if out is None else None, out=out)

    def twisted_mutate(self, window, t: int, x, noise, out=None):
        raise NotImplementedError

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

    def __init__(self, model):
        self.model = model

    def log_psi(self, window, t, x, out=None):
        if out is None:
            return np.zeros(np.shape(x), dtype=float)
        out.fill(0.0)
        return out

    def log_q_psi(self, window, t, x, out=None):
        return self.model.log_g(window, t, x, out)

    def noise(self, gen, size, out=None):
        return self.model.noise(gen, size, out)

    def twisted_mutate(self, window, t, x, noise, out=None):
        return self.model.mutate(window, t, x, noise, out)

    def log_mu0_psi(self, window):
        return 0.0

    def sample_twisted_initial(self, window, size, gen):
        return self.model.sample_initial(size, gen)


# bytes of the (rows, k, k) temporaries of one batched q_apply_log call
_TABLE_BYTES = 4 << 20


def _q_rows(model, window, ts, log_phi) -> np.ndarray:
    """``q_apply_log`` with one time of ``ts`` per row of ``log_phi``, in
    chunks of rows whose temporaries fit ``_TABLE_BYTES``."""
    step = max(1, _TABLE_BYTES // (8 * model.k * model.k))
    out = np.empty_like(log_phi)
    for lo in range(0, len(ts), step):
        out[lo:lo + step] = q_apply_log(model, window, ts[lo:lo + step], log_phi[lo:lo + step])
    return out


class _FiniteTableTwist(TwistFunction):
    """A twist on the states ``0..k-1`` of a finite model (``self.model``),
    given per time by two log tables with a shared per-time constant:
    ``_log_table(window, t)``, log psi_t, and ``_log_table(window, t,
    q=True)``, log Q_t(psi_{t+1}). A subclass supplies both tables,
    ``_mu0_psi(window)`` (mu0 * psi_0 up to a constant factor) and
    ``log_mu0_psi``. The CDFs of the twisted kernel's rows at ``t`` and of
    the twisted initial law are built on first use and kept in the memo
    under ``("move", t)`` and ``"initial"``."""

    def log_psi(self, window, t, x, out=None):
        return lookup(self._log_table(window, t), x, out)

    def log_q_psi(self, window, t, x, out=None):
        return lookup(self._log_table(window, t, q=True), x, out)

    def twisted_mutate(self, window, t, x, noise, out=None):
        def build():
            # per state, the CDF of M_t(x, z) psi_{t+1}(z) over z, normalized
            logits = self.model.log_trans + self._log_table(window, t + 1)
            cdf = np.cumsum(np.exp(logits - logits.max(axis=1, keepdims=True)), axis=1)
            cdf /= cdf[:, -1:]
            cdf[:, -1] = 1.0
            return cdf

        return categorical_counts(self._memo(window, ("move", t), build), x, noise, out)

    def sample_twisted_initial(self, window, size, gen):
        def build():
            cdf = np.cumsum(self._mu0_psi(window))
            cdf /= cdf[-1]
            cdf[-1] = 1.0
            return cdf

        return count_at_or_below(self._memo(window, "initial", build), gen.random(size))


class _LagTwist(TwistFunction):
    """psi_t proportional to the likelihood of the ``ell`` observations from
    index ``t`` onward, given the current state; ``ell = 0`` is the constant
    twist, ``ell = 1`` is proportional to the potential.

    The first lookup in a window builds its tables for every time they
    exist: the rows of psi_t for ``t`` in ``[origin, end - ell]`` by ``ell``
    backward steps, one batched call per step with one observation offset
    per step and one time per row, and the rows of Q_t(psi_{t+1}) for ``t``
    below ``end - ell`` by one up step; each row gets the bits a recursion
    for its ``t`` alone would give. Both tables are kept in the memo under
    ``"tables"``. A family supplies
    ``_flat()`` (the row of psi = 1), ``_back(window, ts, rows)`` (the rows
    of psi_t from those of psi_{t+1}, reading observations ``ts``) and
    ``_up(window, ts, rows)`` (the rows of Q_t(psi_{t+1}))."""

    lagged = True

    def __init__(self, model, ell: int):
        if ell < 0:
            raise ValueError("lag must be >= 0")
        self.model = model
        self.ell = self.lookahead = int(ell)

    def _log_table(self, window, t: int, q: bool = False) -> np.ndarray:
        """Row ``t`` of the psi table, or with ``q`` of the Q(psi) table;
        out of range, the error names the index a recursion reading their
        observations from the top down would have failed on first."""
        if self.ell == 0 and not q:
            return self._flat()
        rows = self._memo(window, "tables", lambda: self._tables(window))[q]
        i = t - window.origin
        if not 0 <= i < rows.shape[0]:
            top = t + self.ell - 1 + q  # psi_t reads t .. t + ell - 1, Q_t one more
            window.require(top, top, context="potential evaluation")
            window.require(max(t, window.origin - 1), top, context="potential evaluation")
        return rows[i]

    def _tables(self, window):
        ts = np.arange(window.origin, window.end - self.ell + 1)
        psi = np.tile(self._flat(), (ts.size, 1))
        for j in range(self.ell - 1, -1, -1):  # observation t + j, top down
            psi = self._back(window, ts + j, psi)
        return psi, self._up(window, ts[:-1], psi[1:])


class FiniteLagTwist(_LagTwist, _FiniteTableTwist):
    """The lag twist of a finite model: its rows are log tables over the k
    states, each step one batched ``q_apply_log`` call, max-centered per
    ``t`` (the constant is shared by ``log_psi`` and ``log_q_psi``, so it
    cancels in every consumer). A window's tables hold 2 k doubles per
    index."""

    def _flat(self):
        return np.zeros(self.model.k)

    def _back(self, window, ts, psi):
        psi = _q_rows(self.model, window, ts, psi)
        return psi - psi.max(axis=1, keepdims=True)

    def _up(self, window, ts, psi):
        return _q_rows(self.model, window, ts, psi)

    def _mu0_psi(self, window):
        logits = np.log(self.model.mu0) + self._log_table(window, 0)
        return np.exp(logits - logits.max())

    def log_mu0_psi(self, window):
        return float(logsumexp(np.log(self.model.mu0) + self._log_table(window, 0)))


class _GaussianQuadTwist(_LagTwist):
    """Lag twists of the form log psi_t(x) = -c x^2 / 2 + d x + e, built by
    folding per-step quadratic observation terms through the AR(1) dynamics
    in closed form; a row is ``(c, d, e)``. A subclass supplies
    ``_obs_quad(y)``, the terms of an array of observations."""

    def _flat(self):
        return np.zeros(3)

    def _integrate(self, c, d, e):
        """Quadratic in x of log integral N(z; a x, q) exp(-c z^2/2 + d z + e) dz."""
        a, q = self.model.a, self.model.q
        denom = 1.0 + q * c
        return (
            a * a * c / denom,
            a * d / denom,
            e + d * d * q / (2.0 * denom) - 0.5 * np.log(denom),
        )

    def _back(self, window, ts, quad):
        c, d, e = self._integrate(*quad.T)
        cg, dg, eg = self._obs_quad(np.asarray(window.values[ts - window.origin], dtype=float))
        return np.stack([c + cg, d + dg, e + eg], axis=1)

    def _up(self, window, ts, quad):
        return np.stack(self._integrate(*quad.T), axis=1)

    @staticmethod
    def _eval(quad, x, out=None):
        # ((-c / 2) x) x + d x + e, the order of the formula, d x in a step buffer
        c, d, e = quad
        x = np.asarray(x, dtype=float)
        v = np.multiply(-0.5 * c, x, out=out)
        v *= x
        v += np.multiply(d, x, out=scratch("term", x))
        v += e
        return v

    def log_psi(self, window, t, x, out=None):
        return self._eval(self._log_table(window, t), x, out)

    def log_q_psi(self, window, t, x, out=None):
        mid = self._log_table(window, t, q=True)
        lg = self.model.log_g(window, t, x, out)
        lg += self._eval(mid, x, scratch("quad_eval", lg))
        return lg

    def noise(self, gen, size, out=None):
        return gen.standard_normal(size if out is None else None, out=out)

    def twisted_mutate(self, window, t, x, noise, out=None):
        c, d, _ = self._log_table(window, t + 1)
        a, q = self.model.a, self.model.q
        x = np.asarray(x, dtype=float)
        prec = c + 1.0 / q
        var = 1.0 / prec
        # (a x / q + d) var + sqrt(var) noise, the scaled noise in a step buffer
        mean = np.multiply(a, x, out=out)
        mean /= q
        mean += d
        mean *= var
        mean += np.multiply(np.sqrt(var), noise, out=scratch("term", noise))
        return mean

    def log_mu0_psi(self, window):
        c, d, e = self._log_table(window, 0)
        m0, v0 = self.model.mu0_mean, self.model.init_var
        big_a = c + 1.0 / v0
        big_b = m0 / v0 + d
        return float(
            e + big_b * big_b / (2.0 * big_a) - m0 * m0 / (2.0 * v0)
            - 0.5 * np.log(v0 * big_a)
        )

    def sample_twisted_initial(self, window, size, gen):
        c, d, _ = self._log_table(window, 0)
        m0, v0 = self.model.mu0_mean, self.model.init_var
        prec = c + 1.0 / v0
        var = 1.0 / prec
        mean = (m0 / v0 + d) * var
        return mean + np.sqrt(var) * gen.standard_normal(size)


class LinearGaussianLagTwist(_GaussianQuadTwist):
    """Exact lag twist for the linear-Gaussian model: psi_t is the Gaussian
    likelihood of the next ``ell`` observations given the current state."""

    def _obs_quad(self, y):
        r = self.model.r_obs
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

    def _obs_quad(self, y):
        b2 = self.model.obs_scale2
        delta = 1e-8 * b2
        xhat = np.log((y * y + delta) / b2)
        c = np.maximum(y * y / (2.0 * (y * y + delta)), self.curvature_floor)
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
    the asymptotic growth rate of the marginal likelihood. ``log_h`` is
    ``log(h)``, computed once for the twist and bound lookups.
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
    log_h: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.log_h = np.log(self.h)

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
    """Largest over rows of the sup-norm of u - v after removing the row's
    best common additive constant."""
    g = u - v
    return float((g.max(axis=-1) - g.min(axis=-1)).max())


def eigen_triple(
    params: FiniteHMMParams,
    window,
    tol: float = 1e-9,
    t_lo: int | None = None,
    t_hi: int | None = None,
) -> EigenTriple:
    """Compute the eigen-elements on ``[t_lo, t_hi]`` inside the window.

    The eigenfunction comes from the backward recursion u_t = Q_t(u_{t+1})
    started from the window's right edge (renormalized each step) and run
    down to ``t_lo``; the eigenmeasure from the forward normalized recursion
    started at the left edge and run up to ``t_hi``, so the sweeps read the
    range and the margins the certificates need, no further. Both are
    certified converged by comparing two sweeps with different
    starting points, run side by side as the two rows of one block (each row
    gets the bits it would get alone); the certificate must beat ``tol`` in
    the centered sup-norm of logs, otherwise a :class:`ConvergenceError` asks
    for a longer window.
    """
    if not params.is_mixing:
        warnings.warn(
            "transition matrix has zero entries; the eigen recursions are not "
            "guaranteed to converge",
            stacklevel=2,
        )
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
    n_in = t_hi - t_lo + 1

    # two backward sweeps as one (2, k) block, from the right edge down to
    # t_lo: row 0 starts from the right edge, row 1 one step earlier. A step
    # is q_apply_log on the block, max-centered per row (each row gets the
    # bits it gets alone), with the sweep's potentials read in one lookup,
    # top down, and its log kernel terms added into one (2, k, k) buffer.
    # Their row maxima lie in [log 1e-300, 0], since log_trans does and u is
    # max-centered (its max is 0), so logsumexp's bound check is skipped.
    # back[t - t_lo] holds both rows of log u_t.
    log_g_back = params.log_g_grid(window, np.arange(e_idx - 1, t_lo - 1, -1))
    back = np.empty((e_idx - t_lo, 2, k))
    terms = np.empty((2, k, k))

    def q_step(i, u, out):
        lt = np.add(params.log_trans, u[:, None, :], out=terms[:len(u)])
        lse = logsumexp_bounded(lt, np.maximum.reduce(lt, -1, None, None, True))
        np.add(log_g_back[i], lse, out=out)
        out -= np.maximum.reduce(out, 1, None, None, True)

    back[-1, 1] = 0.0
    q_step(0, back[-1, 1:], back[-1, :1])  # row 0 steps from row 1's zeros
    for i in range(1, len(back)):
        q_step(i, back[-i], back[-i - 1])
    gap_h = _centered_gap(back[:n_in, 0], back[:n_in, 1])
    if gap_h > tol:
        raise ConvergenceError(
            f"eigenfunction not converged on [{t_lo}, {t_hi}]: certificate "
            f"{gap_h:.3e} > tol {tol:.3e}; extend the window right edge beyond "
            f"index {e_idx - 1}", edge="right"
        )

    # two forward sweeps as one (2, k) block, from the left edge up to t_hi:
    # row 0 from the uniform law, row 1 from a law nearly all on state 0.
    # The potentials are read and exponentiated once; fwd[t - o] holds both
    # rows of eta_t, and a step is one vector-matrix product per row
    g = np.exp(params.log_g_grid(window, np.arange(o, t_hi + 1)))
    inner = slice(t_lo - o, t_hi - o + 1)
    init_b = np.full(k, 1e-12)
    init_b[0] = 1.0
    fwd = np.empty((t_hi - o + 1, 2, k))
    fwd[0, 0] = 1.0 / k
    fwd[0, 1] = init_b / init_b.sum()
    w, p = np.empty((2, 2, 1, k))
    w_rows, p_rows = w[:, 0], p[:, 0]
    for i in range(t_hi - o):
        np.multiply(fwd[i], g[i], out=w_rows)
        np.matmul(w, params.trans, out=p)
        np.divide(p_rows, np.add.reduce(p, 2), out=fwd[i + 1])
    gap_eta = _centered_gap(np.log(fwd[inner, 0]), np.log(fwd[inner, 1]))
    if gap_eta > tol:
        raise ConvergenceError(
            f"eigenmeasure not converged on [{t_lo}, {t_hi}]: certificate "
            f"{gap_eta:.3e} > tol {tol:.3e}; extend the window left edge below "
            f"index {o}", edge="left"
        )

    # per-row dot products as stacked (1, k) @ (k, 1) products, so every row
    # is the same vector product it would be on its own
    eta = fwd[inner, 0].copy()
    log_u = back[:n_in, 0]
    h_lin = np.exp(log_u - log_u.max(axis=1, keepdims=True))
    h = h_lin / (eta[:, None, :] @ h_lin[:, :, None])[:, 0]
    g = g[inner]
    lam = (eta[:, None, :] @ g[:, :, None])[:, 0, 0]

    # residuals of the defining identities, measured on the interior
    qh = g[:-1] * (params.trans @ h[1:, :, None])[:, :, 0]
    flow = ((eta[:-1] * g[:-1])[:, None, :] @ params.trans)[:, 0]
    res_func = float(np.abs(qh - lam[:-1, None] * h[:-1]).max(initial=0.0))
    res_meas = float(np.abs(flow - lam[:-1, None] * eta[1:]).max(initial=0.0))
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


class EigenTwist(_FiniteTableTwist):
    """psi_t = h_t from a precomputed :class:`EigenTriple`.

    Valid for (shifts of) the construction window, on absolute indices within
    the triple's evaluation range. With this twist the estimator trajectory
    collapses onto the eigenvalue product; see the per-run identity tests.
    """

    margins = True

    def __init__(self, triple: EigenTriple):
        self.model = triple.params
        self.triple = triple

    def _row(self, window, t: int) -> int:
        # index t of a shifted window addresses t + (o0 - origin) of the original
        return self.triple.row(t + self.triple.window_origin - window.origin)

    def _log_table(self, window, t, q=False):
        if not q:
            return self.triple.log_h[self._row(window, t)]

        def build():
            h = self.triple.h[self._row(window, t + 1)]
            return self.model.log_g_grid(window, t) + np.log(self.model.trans @ h)

        return self._memo(window, ("q", t), build)

    def _mu0_psi(self, window):
        return self.model.mu0 * self.triple.h[self._row(window, 0)]

    def log_mu0_psi(self, window):
        return float(np.log(self.model.mu0 @ self.triple.h[self._row(window, 0)]))


def study_triple(params: FiniteHMMParams, window, steps: int, tol: float = 1e-9) -> EigenTriple:
    """The eigen triple of a study of ``steps`` steps: on ``[0, steps + 1]``,
    certified on the margins; a window that ends there raises the
    ``LookaheadError`` of index ``steps + 2``."""
    t_hi = steps + 1
    window.require(t_hi + 1, t_hi + 1, context="eigen margins")
    return eigen_triple(params, window, tol=float(tol), t_lo=0, t_hi=t_hi)


# the twist kinds each model has, by name, and the class of each
TWIST_KINDS = {
    FiniteHMMParams: {"constant": ConstantTwist, "lag": FiniteLagTwist, "exact_h": EigenTwist},
    LinearGaussianParams: {"constant": ConstantTwist, "lag": LinearGaussianLagTwist},
    SVParams: {"constant": ConstantTwist, "sv_approx": StochasticVolatilityTwist},
}


def make_twist(params, spec: dict, window=None, steps: int | None = None) -> TwistFunction:
    """Build a twist from a config mapping ``{kind, ell, tol}``, of a kind the
    model has (``TWIST_KINDS``): from the model and ``ell`` for a kind that
    takes a lag, from the eigen triple of the study's ``window`` and
    ``steps`` (:func:`study_triple`) for one that reads the eigen margins,
    else from the model."""
    kind = spec.get("kind", "constant")
    kinds = TWIST_KINDS.get(type(params), {})
    if kind not in kinds:
        raise ValueError(f"twist kind {kind!r} is not one of {tuple(kinds)}, the kinds of "
                         f"{type(params).__name__}")
    cls = kinds[kind]
    if cls.lagged:
        return cls(params, int(spec.get("ell", 0)))
    if not cls.margins:
        return cls(params)
    if window is None or steps is None:
        raise ValueError("an exact_h twist is built from its eigen elements on a window: "
                         "make_twist(params, spec, window, steps) or "
                         "eigen_triple(params, window, ...).as_twist()")
    return cls(study_triple(params, window, steps, spec.get("tol", 1e-9)))
