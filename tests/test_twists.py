import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

from twistpf import twists
from twistpf.filters import run_filter
from twistpf.fkcore import categorical_counts, logsumexp_bounded

from twistpf.models import (
    FiniteHMMParams,
    LinearGaussianParams,
    SVParams,
    finite_forward,
    q_apply_log,
    simulate,
)
from twistpf.twists import (
    ConstantTwist,
    ConvergenceError,
    EigenTwist,
    FiniteLagTwist,
    LinearGaussianLagTwist,
    StochasticVolatilityTwist,
    eigen_triple,
    make_twist,
)
from twistpf.windows import LookaheadError, ObservationWindow

from scalar_draws import sample_twisted_mutation


def finite_params():
    return FiniteHMMParams(
        mu0=np.array([0.5, 0.3, 0.2]),
        trans=np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]),
        emit=np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]]),
    )


def centered(v):
    v = np.asarray(v, dtype=float)
    return v - v.max()


def norm_pdf(y, mean, var):
    return math.exp(-0.5 * (y - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)


def test_lag_zero_is_constant():
    params = finite_params()
    _, w = simulate(params, 12, seed=0)
    tw = FiniteLagTwist(params, 0)
    grid = np.arange(3)
    for t in range(6):
        lp = tw.log_psi(w, t, grid)
        assert np.allclose(lp, lp[0], atol=1e-15)
    lg = LinearGaussianLagTwist(LinearGaussianParams(0.9, 1.0, 1.0), 0)
    _, wy = simulate(LinearGaussianParams(0.9, 1.0, 1.0), 12, seed=0)
    assert np.allclose(lg.log_psi(wy, 3, np.array([-1.0, 0.0, 2.0])), 0.0, atol=1e-15)


def test_lag_one_matches_potential():
    params = finite_params()
    _, w = simulate(params, 12, seed=1)
    tw = FiniteLagTwist(params, 1)
    grid = np.arange(3)
    for t in range(8):
        got = centered(tw.log_psi(w, t, grid))
        want = centered(params.log_g(w, t, grid))
        assert np.allclose(got, want, atol=1e-13)


def test_finite_lag_matches_operator_chain():
    # independent oracle: apply the linear-scale one-step operator ell times
    # to the all-ones vector and compare up to the shared centering constant
    params = finite_params()
    _, w = simulate(params, 16, seed=2)
    for ell in range(5):
        tw = FiniteLagTwist(params, ell)
        for t in range(4):
            vec = np.ones(3)
            for s in range(t + ell - 1, t - 1, -1):
                vec = np.exp(params.log_g_grid(w, s)) * (params.trans @ vec)
            want = centered(np.log(vec)) if ell else np.zeros(3)
            got = centered(tw.log_psi(w, t, np.arange(3)))
            assert np.allclose(got, want, atol=1e-12)


def test_finite_q_psi_raises_lag_by_one():
    params = finite_params()
    _, w = simulate(params, 16, seed=3)
    grid = np.arange(3)
    for ell in range(4):
        tw = FiniteLagTwist(params, ell)
        up = FiniteLagTwist(params, ell + 1)
        for t in range(4):
            got = centered(tw.log_q_psi(w, t, grid))
            want = centered(up.log_psi(w, t, grid))
            assert np.allclose(got, want, atol=1e-12)


def test_lg_lag_one_closed_form():
    params = LinearGaussianParams(a=0.8, q=0.7, r_obs=1.3)
    _, w = simulate(params, 10, seed=4)
    tw = LinearGaussianLagTwist(params, 1)
    for t in range(4):
        for x in (-1.5, 0.0, 0.8):
            want = math.log(norm_pdf(w.y(t), x, 1.3))
            assert math.isclose(tw.log_psi(w, t, [x])[0], want, rel_tol=1e-13)


def test_lg_lag_two_closed_form_and_quad():
    # psi_t(x) = N(y_t; x, r) * N(y_{t+1}; a x, q + r); also cross-check the
    # inner integral numerically
    params = LinearGaussianParams(a=0.8, q=0.7, r_obs=1.3)
    _, w = simulate(params, 10, seed=5)
    tw = LinearGaussianLagTwist(params, 2)
    for t in range(3):
        for x in (-1.2, 0.4):
            want = math.log(norm_pdf(w.y(t), x, 1.3)) + math.log(
                norm_pdf(w.y(t + 1), 0.8 * x, 0.7 + 1.3)
            )
            got = tw.log_psi(w, t, [x])[0]
            assert math.isclose(got, want, rel_tol=1e-12)
            quad, _ = integrate.quad(
                lambda z: norm_pdf(z, 0.8 * x, 0.7) * norm_pdf(w.y(t + 1), z, 1.3),
                -30,
                30,
            )
            want_quad = math.log(norm_pdf(w.y(t), x, 1.3) * quad)
            assert math.isclose(got, want_quad, rel_tol=1e-9)


def test_lg_lag_three_nested_quad():
    params = LinearGaussianParams(a=0.9, q=1.0, r_obs=1.0)
    _, w = simulate(params, 10, seed=6)
    tw = LinearGaussianLagTwist(params, 3)
    x = 0.6

    def inner(z1):
        val, _ = integrate.quad(
            lambda z2: norm_pdf(z2, 0.9 * z1, 1.0) * norm_pdf(w.y(2), z2, 1.0),
            -30,
            30,
        )
        return norm_pdf(z1, 0.9 * x, 1.0) * norm_pdf(w.y(1), z1, 1.0) * val

    outer, _ = integrate.quad(inner, -30, 30)
    want = math.log(norm_pdf(w.y(0), x, 1.0) * outer)
    assert math.isclose(tw.log_psi(w, 0, [x])[0], want, rel_tol=1e-7)


def test_lg_q_psi_raises_lag_by_one():
    params = LinearGaussianParams(a=0.8, q=0.7, r_obs=1.3)
    _, w = simulate(params, 10, seed=7)
    xs = np.array([-2.0, -0.3, 0.0, 1.7])
    for ell in range(3):
        tw = LinearGaussianLagTwist(params, ell)
        up = LinearGaussianLagTwist(params, ell + 1)
        for t in range(3):
            assert np.allclose(
                tw.log_q_psi(w, t, xs), up.log_psi(w, t, xs), atol=1e-12
            )


def test_lg_twisted_mutation_moments():
    params = LinearGaussianParams(a=0.8, q=0.7, r_obs=1.3)
    _, w = simulate(params, 10, seed=8)
    tw = LinearGaussianLagTwist(params, 2)
    gen = np.random.default_rng(0)
    x0 = 0.5
    draws = sample_twisted_mutation(tw, w, 1, np.full(200_000, x0), gen)
    # twisted kernel is N(z; a x, q) psi_2(z) renormalized; with quadratic
    # log psi = -c z^2/2 + d z + e the result is Gaussian
    c, d, _ = tw._log_table(w, 2)
    var = 1.0 / (c + 1.0 / 0.7)
    mean = (0.8 * x0 / 0.7 + d) * var
    assert abs(draws.mean() - mean) < 4 * math.sqrt(var / draws.size)
    assert abs(draws.var() - var) < 0.02 * var


def test_finite_twisted_mutation_frequencies():
    params = finite_params()
    _, w = simulate(params, 10, seed=9)
    tw = FiniteLagTwist(params, 2)
    gen = np.random.default_rng(1)
    n = 200_000
    draws = sample_twisted_mutation(tw, w, 1, np.full(n, 2, dtype=np.int64), gen)
    logits = np.log(params.trans[2]) + tw.log_psi(w, 2, np.arange(3))
    p = np.exp(logits - logits.max())
    p /= p.sum()
    freq = np.bincount(draws, minlength=3) / n
    assert np.allclose(freq, p, atol=4 * np.sqrt(p.max() / n) + 1e-3)


def test_finite_twisted_initial_frequencies():
    params = finite_params()
    _, w = simulate(params, 10, seed=10)
    tw = FiniteLagTwist(params, 1)
    gen = np.random.default_rng(2)
    n = 200_000
    draws = tw.sample_twisted_initial(w, n, gen)
    logits = np.log(params.mu0) + tw.log_psi(w, 0, np.arange(3))
    p = np.exp(logits - logits.max())
    p /= p.sum()
    freq = np.bincount(draws, minlength=3) / n
    assert np.allclose(freq, p, atol=4 * np.sqrt(p.max() / n) + 1e-3)


def test_mu0_psi_matches_direct_sum():
    params = finite_params()
    _, w = simulate(params, 10, seed=11)
    for ell in (0, 1, 3):
        tw = FiniteLagTwist(params, ell)
        direct = math.log(
            float(params.mu0 @ np.exp(tw.log_psi(w, 0, np.arange(3))))
        )
        assert math.isclose(tw.log_mu0_psi(w), direct, rel_tol=1e-12)


def test_lg_mu0_psi_matches_quad():
    params = LinearGaussianParams(a=0.8, q=0.7, r_obs=1.3, mu0_mean=0.4, mu0_var=2.0)
    _, w = simulate(params, 10, seed=12)
    tw = LinearGaussianLagTwist(params, 2)
    val, _ = integrate.quad(
        lambda x: norm_pdf(x, 0.4, 2.0) * math.exp(tw.log_psi(w, 0, [x])[0]),
        -40,
        40,
    )
    assert math.isclose(tw.log_mu0_psi(w), math.log(val), rel_tol=1e-9)


def eigen_residual_oracle(params, w, tri):
    """Recompute the defining identities with plain matrix algebra."""
    worst = 0.0
    for t in range(tri.t_lo, tri.t_hi):
        r0, r1 = tri.row(t), tri.row(t + 1)
        g = np.exp(params.log_g_grid(w, t))
        lam = float(tri.eta[r0] @ g)
        worst = max(worst, abs(lam - tri.lam[r0]))
        qh = g * (params.trans @ tri.h[r1])
        worst = max(worst, np.max(np.abs(qh - lam * tri.h[r0])))
        etaq = (tri.eta[r0] * g) @ params.trans
        worst = max(worst, np.max(np.abs(etaq - lam * tri.eta[r1])))
        worst = max(worst, abs(float(tri.eta[r0] @ tri.h[r0]) - 1.0))
    return worst


def test_eigen_triple_satisfies_identities():
    params = finite_params()
    _, w = simulate(params, 160, seed=13)
    tri = eigen_triple(params, w.shift(60), t_lo=-20, t_hi=40, tol=1e-9)
    assert eigen_residual_oracle(params, w.shift(60), tri) < 1e-9
    assert np.all(tri.h > 0)
    assert np.allclose(tri.eta.sum(axis=1), 1.0, atol=1e-12)


def test_eigen_triple_short_window_raises():
    params = finite_params()
    _, w = simulate(params, 12, seed=13)
    with pytest.raises(ConvergenceError):
        eigen_triple(params, w, t_lo=0, t_hi=10, tol=1e-12)


def two_sweep_eigen_triple(params, window, tol=1e-9, t_lo=None, t_hi=None):
    # the eigen elements by one sweep at a time and one time index at a
    # time: the reference the batched sweeps must equal bit for bit
    o, e_idx = window.origin, window.end
    length = window.length
    t_lo = o + max(1, length // 4) if t_lo is None else t_lo
    t_hi = e_idx - 1 - max(1, length // 4) if t_hi is None else t_hi
    k = params.k
    n_rows = e_idx - o + 1

    def gap(u, v):
        g = u - v
        return float(g.max() - g.min())

    def backward(start):
        logs = np.full((n_rows, k), np.nan)
        u = np.zeros(k)
        logs[start - o] = u
        for t in range(start - 1, o - 1, -1):
            u = q_apply_log(params, window, t, u)
            u = u - u.max()
            logs[t - o] = u
        return logs

    back_a, back_b = backward(e_idx), backward(e_idx - 1)
    gap_h = max(gap(back_a[t - o], back_b[t - o]) for t in range(t_lo, t_hi + 1))
    if gap_h > tol:
        raise ConvergenceError(
            f"eigenfunction not converged on [{t_lo}, {t_hi}]: certificate "
            f"{gap_h:.3e} > tol {tol:.3e}; extend the window right edge beyond "
            f"index {e_idx - 1}"
        )

    def forward(init):
        probs = np.empty((n_rows, k))
        p = init
        probs[0] = p
        for t in range(o, e_idx):
            w = p * np.exp(params.log_g_grid(window, t))
            p = w @ params.trans
            p = p / p.sum()
            probs[t + 1 - o] = p
        return probs

    fwd_a = forward(np.full(k, 1.0 / k))
    init_b = np.full(k, 1e-12)
    init_b[0] = 1.0
    fwd_b = forward(init_b / init_b.sum())
    gap_eta = max(gap(np.log(fwd_a[t - o]), np.log(fwd_b[t - o]))
                  for t in range(t_lo, t_hi + 1))
    if gap_eta > tol:
        raise ConvergenceError(
            f"eigenmeasure not converged on [{t_lo}, {t_hi}]: certificate "
            f"{gap_eta:.3e} > tol {tol:.3e}; extend the window left edge below "
            f"index {o}"
        )
    rows = t_hi - t_lo + 1
    h, eta, lam = np.empty((rows, k)), np.empty((rows, k)), np.empty(rows)
    for t in range(t_lo, t_hi + 1):
        eta_t = fwd_a[t - o]
        h_lin = np.exp(back_a[t - o] - back_a[t - o].max())
        h[t - t_lo] = h_lin / float(eta_t @ h_lin)
        eta[t - t_lo] = eta_t
        lam[t - t_lo] = float(eta_t @ np.exp(params.log_g_grid(window, t)))
    res_func = res_meas = 0.0
    for t in range(t_lo, t_hi):
        i = t - t_lo
        g_t = np.exp(params.log_g_grid(window, t))
        qh = g_t * (params.trans @ h[i + 1])
        res_func = max(res_func, float(np.abs(qh - lam[i] * h[i]).max()))
        flow = (eta[i] * g_t) @ params.trans
        res_meas = max(res_meas, float(np.abs(flow - lam[i] * eta[i + 1]).max()))
    residuals = {
        "eigenfunction": res_func,
        "eigenmeasure": res_meas,
        "normalization": float(np.abs((eta * h).sum(axis=1) - 1.0).max()),
        "certificate_h": gap_h,
        "certificate_eta": gap_eta,
    }
    return h, eta, lam, float(np.mean(np.log(lam))), residuals


def acceptance_params():
    return FiniteHMMParams(
        mu0=np.array([0.5, 0.3, 0.2]),
        trans=np.array([[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]]),
        emit=np.array([[0.40, 0.32, 0.28], [0.29, 0.42, 0.29], [0.30, 0.28, 0.42]]),
    )


def sharp_params():
    return FiniteHMMParams(
        mu0=np.array([0.5, 0.3, 0.2]),
        trans=np.array([[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]]),
        emit=np.array([[0.70, 0.20, 0.10], [0.15, 0.70, 0.15], [0.10, 0.20, 0.70]]),
    )


def five_state_params():
    # k >= 4, where a 2-row matrix product and two vector products differ in
    # their last bits, and a transition matrix with zero entries
    rng = np.random.default_rng(3)
    trans = rng.random((5, 5)) * (np.eye(5, k=2) == 0)
    return FiniteHMMParams(
        mu0=np.full(5, 0.2),
        trans=trans / trans.sum(axis=1, keepdims=True),
        emit=rng.uniform(0.2, 1.0, (5, 3)) / 1.8,
    )


@pytest.mark.parametrize("make_params", [acceptance_params, sharp_params, finite_params,
                                         five_state_params])
def test_eigen_triple_matches_two_sweep_reference_bit_for_bit(make_params):
    params = make_params()
    _, w0 = simulate(params, 300, seed=21)
    cases = [(w0.shift(80), {}), (w0.shift(80), {"t_lo": 0, "t_hi": 61}),
             (w0.shift(80), {"t_lo": -20, "t_hi": 100, "tol": 1e-8}),
             (w0.shift(150).shift(-7), {"t_lo": -40, "t_hi": 40}), (w0, {})]
    for window, kw in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # five_state_params is not mixing
            tri = eigen_triple(params, window, **kw)
        h, eta, lam, lambda_hat, residuals = two_sweep_eigen_triple(params, window, **kw)
        assert np.array_equal(tri.h, h) and np.array_equal(tri.eta, eta), kw
        assert np.array_equal(tri.lam, lam) and tri.lambda_hat == lambda_hat, kw
        assert tri.residuals == residuals, kw
        assert np.array_equal(tri.log_h, np.log(h))


def test_eigen_triple_convergence_errors_match_two_sweep_reference():
    params = acceptance_params()
    _, w = simulate(params, 200, seed=22)
    w = w.shift(60)
    # right edge in range: the eigenfunction certificate fails; left edge in
    # range: the eigenmeasure certificate fails
    messages = []
    for kw in ({"t_lo": 0, "t_hi": w.end - 1}, {"t_lo": 0, "t_hi": w.end - 4, "tol": 1e-12},
               {"t_lo": w.origin, "t_hi": 10}):
        with pytest.raises(ConvergenceError) as want:
            two_sweep_eigen_triple(params, w, **kw)
        with pytest.raises(ConvergenceError) as got:
            eigen_triple(params, w, **kw)
        assert str(got.value) == str(want.value), kw
        messages.append(str(got.value))
    assert [m.split(" not converged")[0] for m in messages] == [
        "eigenfunction", "eigenfunction", "eigenmeasure"]


def test_eigen_sweeps_stop_at_the_evaluation_range(monkeypatch):
    # the backward sweep runs from the right edge down to t_lo, one step (one
    # logsumexp_bounded call, its row maxima within the bounds the sweep
    # relies on) per index, and the forward sweep reads from the left edge up
    # to t_hi; each sweep reads its potentials in one lookup, whose times are
    # recorded in the order the sweep reads them
    steps, reads = [], []

    def counted(a, amax, axis=-1):
        steps.append(a.shape)
        assert (amax <= 0.0).all() and (amax >= np.log(1e-300)).all()
        return logsumexp_bounded(a, amax, axis)

    def recorded(self, window, t):
        reads.append(np.asarray(t).tolist())
        return log_g_grid(self, window, t)

    log_g_grid = FiniteHMMParams.log_g_grid
    monkeypatch.setattr(twists, "logsumexp_bounded", counted)
    monkeypatch.setattr(FiniteHMMParams, "log_g_grid", recorded)
    params = acceptance_params()
    _, w0 = simulate(params, 300, seed=21)
    cases = [(w0.shift(80), {}), (w0.shift(80), {"t_lo": 0, "t_hi": 61}),
             (w0.shift(150).shift(-7), {"t_lo": -40, "t_hi": 40}), (w0, {})]
    for window, kw in cases:
        steps.clear()
        reads.clear()
        tri = eigen_triple(params, window, **kw)
        if kw:
            assert (tri.t_lo, tri.t_hi) == (kw["t_lo"], kw["t_hi"])
        else:  # quarter margins
            margin = window.length // 4
            assert (tri.t_lo, tri.t_hi) == (window.origin + margin, window.end - 1 - margin)
        backward = list(range(window.end - 1, tri.t_lo - 1, -1))
        k = params.k
        # the right edge steps row 0 alone, every later index both rows
        assert steps == [(1, k, k)] + [(2, k, k)] * (len(backward) - 1), kw
        assert len(steps) == window.end - tri.t_lo, kw
        assert reads == [backward, list(range(window.origin, tri.t_hi + 1))], kw


def per_t_lag_table(params, ell, window, t):
    # log psi_t by its own backward recursion, one time index at a time: the
    # reference the batched lag tables must equal bit for bit
    tab = np.zeros(params.k)
    for s in range(t + ell - 1, t - 1, -1):
        tab = q_apply_log(params, window, s, tab)
        tab = tab - tab.max()
    return tab


def per_t_lag_q_table(params, ell, window, t):
    return q_apply_log(params, window, t, per_t_lag_table(params, ell, window, t + 1))


@pytest.mark.parametrize("budget", [None, 1, 500], ids=["default", "row", "rows"])
@pytest.mark.parametrize("make_params", [finite_params, five_state_params])
def test_lag_tables_match_per_t_recursion_bit_for_bit(make_params, budget, monkeypatch):
    # every t of shifted windows and around them, for lags 0..4 and a window
    # shorter than the lag: equal tables where the recursion has one, and
    # the recursion's own LookaheadError message where it has none; also
    # with the tables built one row, or a few rows, per call
    if budget is not None:
        monkeypatch.setattr(twists, "_TABLE_BYTES", budget)
    params = make_params()
    _, w0 = simulate(params, 40, seed=23)
    grid = np.arange(params.k)
    windows = [w0, w0.shift(9), w0.shift(9).shift(-14), ObservationWindow(5, w0.values[:3])]
    for ell in range(5):
        for window in windows:
            tw = FiniteLagTwist(params, ell)
            for t in range(window.origin - ell - 2, window.end + 2):
                for lookup, reference in ((tw.log_psi, per_t_lag_table),
                                          (tw.log_q_psi, per_t_lag_q_table)):
                    try:
                        want = reference(params, ell, window, t)
                    except LookaheadError as exc:
                        with pytest.raises(LookaheadError) as got:
                            lookup(window, t, grid)
                        assert str(got.value) == str(exc), (ell, window, t)
                        assert (got.value.origin, got.value.length) == (exc.origin, exc.length)
                        continue
                    assert np.array_equal(lookup(window, t, grid), want), (ell, window, t)


def per_t_quad(tw, window, t):
    # (c, d, e) of log psi_t by its own backward recursion, one time index at
    # a time in Python floats, with the scalar observation terms below: the
    # reference the batched Gaussian lag tables must equal bit for bit
    c, d, e = 0.0, 0.0, 0.0
    for s in range(t + tw.ell - 1, t - 1, -1):
        c, d, e = scalar_integrate(tw.model, c, d, e)
        y = float(window.y(s, context="potential evaluation"))
        obs = lg_obs_quad if isinstance(tw, LinearGaussianLagTwist) else sv_obs_quad
        cg, dg, eg = obs(tw, y)
        c, d, e = c + cg, d + dg, e + eg
    return c, d, e


def scalar_integrate(model, c, d, e):
    a, q = model.a, model.q
    denom = 1.0 + q * c
    return a * a * c / denom, a * d / denom, e + d * d * q / (2.0 * denom) - 0.5 * np.log(denom)


def lg_obs_quad(tw, y):
    r = tw.model.r_obs
    return 1.0 / r, y / r, -y * y / (2.0 * r) - 0.5 * np.log(2.0 * np.pi * r)


def sv_obs_quad(tw, y):
    b2 = tw.model.obs_scale2
    delta = 1e-8 * b2
    xhat = np.log((y * y + delta) / b2)
    c = max(y * y / (2.0 * (y * y + delta)), tw.curvature_floor)
    d = -0.5 + c * (1.0 + xhat)
    log_g_hat = -0.5 * (np.log(2.0 * np.pi * b2) + xhat + y * y * np.exp(-xhat) / b2)
    return c, d, log_g_hat + 0.5 * c * xhat * xhat - d * xhat


def eval_quad(quad, x):
    c, d, e = quad
    return -0.5 * c * x * x + d * x + e


@pytest.mark.parametrize("params", [
    LinearGaussianParams(0.9, 1.0, 1.0),
    LinearGaussianParams(-0.7, 0.3, 2.5, mu0_mean=0.4, mu0_var=2.0),
    SVParams(),
    SVParams(0.5, 0.9, 1.7),
], ids=["lg", "lg-negative-a", "sv", "sv-wide"])
def test_gaussian_lag_tables_match_per_t_recursion_bit_for_bit(params):
    # every t of shifted windows and around them, for lags 0..4 and a window
    # shorter than the lag: log_psi and log_q_psi equal the scalar recursion
    # for their t alone where it has a value, and raise its LookaheadError
    # (same index, origin and length) where it has none
    make = StochasticVolatilityTwist if isinstance(params, SVParams) else LinearGaussianLagTwist
    _, w0 = simulate(params, 40, seed=23)
    xs = np.linspace(-3.0, 3.0, 7)
    # the last window has observations at and near zero, where the SV
    # curvature floor holds
    windows = [w0, w0.shift(9), w0.shift(9).shift(-14), ObservationWindow(5, w0.values[:3]),
               ObservationWindow(-2, np.r_[w0.values[:4], 0.0, 1e-6, w0.values[4:8]])]

    def q_reference(tw, window, t):
        mid = scalar_integrate(params, *per_t_quad(tw, window, t + 1))
        return params.log_g(window, t, xs) + eval_quad(mid, xs)

    for ell in range(5):
        for window in windows:
            tw = make(params, ell)
            for t in range(window.origin - ell - 2, window.end + 2):
                for lookup, reference in (
                        (tw.log_psi, lambda tw, w, t: eval_quad(per_t_quad(tw, w, t), xs)),
                        (tw.log_q_psi, q_reference)):
                    try:
                        want = reference(tw, window, t)
                    except LookaheadError as exc:
                        with pytest.raises(LookaheadError) as got:
                            lookup(window, t, xs)
                        assert str(got.value) == str(exc), (ell, window, t)
                        assert ((got.value.index, got.value.origin, got.value.length)
                                == (exc.index, exc.origin, exc.length))
                        continue
                    assert np.array_equal(lookup(window, t, xs), want), (ell, window, t)


def test_lambda_hat_tracks_likelihood_growth():
    params = finite_params()
    _, w = simulate(params, 400, seed=14)
    tri = eigen_triple(params, w.shift(100), t_lo=0, t_hi=200)
    res = finite_forward(params, w.shift(100), 200)
    assert abs(tri.lambda_hat - res.log_z[200] / 200) < 0.05


def test_eigen_twist_window_shift_consistency():
    # the twist addresses absolute indices: a shifted view of the same buffer
    # must give the same values at the same underlying time points
    params = finite_params()
    _, w = simulate(params, 160, seed=15)
    base = w.shift(60)
    tri = eigen_triple(params, base, t_lo=-10, t_hi=40)
    tw = tri.as_twist()
    grid = np.arange(3)
    shifted = base.shift(5)
    assert np.allclose(
        tw.log_psi(base, 7, grid), tw.log_psi(shifted, 2, grid), atol=0
    )


def test_lag_twist_approaches_eigenfunction():
    # the distance sup log(psi/h) - inf log(psi/h) shrinks as the lag grows
    params = finite_params()
    _, w0 = simulate(params, 400, seed=16)
    w = w0.shift(100)
    tri = eigen_triple(params, w, t_lo=-10, t_hi=80)
    grid = np.arange(3)
    ts = range(0, 40)
    gaps = []
    for ell in range(5):
        tw = FiniteLagTwist(params, ell)
        worst = 0.0
        for t in ts:
            ratio = tw.log_psi(w, t, grid) - np.log(tri.h[tri.row(t)])
            worst = max(worst, float(ratio.max() - ratio.min()))
        gaps.append(worst)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[4] < 0.05 * gaps[0]


def test_sv_twist_is_bounded_and_positive():
    params = SVParams()
    _, w = simulate(params, 30, seed=18)
    tw = StochasticVolatilityTwist(params, 3)
    xs = np.linspace(-6, 6, 101)
    for t in range(10):
        lp = tw.log_psi(w, t, xs)
        assert np.all(np.isfinite(lp))
        c, d, _ = tw._log_table(w, t)
        assert c >= tw.curvature_floor > 0


def test_sv_twisted_mutation_moments():
    params = SVParams()
    _, w = simulate(params, 30, seed=19)
    tw = StochasticVolatilityTwist(params, 2)
    gen = np.random.default_rng(4)
    x0 = -0.4
    draws = sample_twisted_mutation(tw, w, 3, np.full(100_000, x0), gen)
    c, d, _ = tw._log_table(w, 4)
    a, q = params.persistence, params.vol_of_vol**2
    var = 1.0 / (c + 1.0 / q)
    mean = (a * x0 / q + d) * var
    assert abs(draws.mean() - mean) < 5 * math.sqrt(var / draws.size)
    assert abs(draws.var() - var) < 0.03 * var


def test_make_twist_dispatch_and_errors():
    fin = finite_params()
    lgp = LinearGaussianParams(0.9, 1.0, 1.0)
    svp = SVParams()
    assert isinstance(make_twist(fin, {"kind": "constant"}), ConstantTwist)
    assert isinstance(make_twist(fin, {"kind": "lag", "ell": 2}), FiniteLagTwist)
    assert isinstance(make_twist(lgp, {"kind": "lag", "ell": 2}), LinearGaussianLagTwist)
    assert isinstance(
        make_twist(svp, {"kind": "sv_approx", "ell": 2}), StochasticVolatilityTwist
    )
    with pytest.raises(ValueError):
        make_twist(svp, {"kind": "lag", "ell": 1})
    with pytest.raises(ValueError, match="the kinds of LinearGaussianParams"):
        make_twist(lgp, {"kind": "exact_h"})
    # an eigen twist is the eigenfunction of a study's window and horizon:
    # without them it names how to build one
    with pytest.raises(ValueError, match=r"eigen_triple\(params, window, \.\.\.\)\.as_twist\(\)"):
        make_twist(fin, {"kind": "exact_h"})
    _, w = simulate(fin, 160, seed=21)
    w = w.shift(60)
    tw = make_twist(fin, {"kind": "exact_h", "tol": 1e-8}, w, 20)
    want = eigen_triple(fin, w, tol=1e-8, t_lo=0, t_hi=21)
    assert isinstance(tw, EigenTwist) and (tw.triple.t_lo, tw.triple.t_hi) == (0, 21)
    assert np.array_equal(tw.triple.h, want.h) and tw.triple.residuals == want.residuals
    with pytest.raises(LookaheadError, match="observation index 101 "):
        make_twist(fin, {"kind": "exact_h"}, w, 99)
    with pytest.raises(ValueError):
        make_twist(fin, {"kind": "nope"})
    with pytest.raises(ValueError):
        make_twist(fin, {"kind": "lag", "ell": -1})


def test_eigen_twist_out_of_range_raises():
    params = finite_params()
    _, w = simulate(params, 160, seed=21)
    tri = eigen_triple(params, w.shift(60), t_lo=0, t_hi=30)
    tw = tri.as_twist()
    with pytest.raises(ValueError):
        tw.log_psi(w.shift(60), 31, np.arange(3))


def _memo_families():
    """``(params, make, window)`` per twist family: a fresh twist is
    ``make()``, and ``window`` (or a roll of its values) fits it."""
    fin = finite_params()
    _, long = simulate(fin, 160, seed=21)
    long = long.shift(60)
    tri = eigen_triple(fin, long, t_lo=-10, t_hi=40)
    out = [(fin, tri.as_twist, long)]
    for params, cls in ((fin, FiniteLagTwist), (LinearGaussianParams(0.9, 1.0, 1.0),
                        LinearGaussianLagTwist), (SVParams(), StochasticVolatilityTwist)):
        out.append((params, lambda params=params, cls=cls: cls(params, 2),
                    simulate(params, 16, seed=0)[1]))
    return out


def _use(twist, window, finite):
    """The lookups of three steps, and for a finite table twist its moves
    and an initial draw: what a run asks of a twist in one window."""
    grid = np.arange(3)
    for t in range(3):
        twist.log_psi(window, t, grid)
        twist.log_q_psi(window, t, grid)
        if finite:
            twist.twisted_mutate(window, t, grid, np.full(3, 0.5))
    if finite:
        twist.sample_twisted_initial(window, 5, np.random.default_rng(0))


def test_twist_memos_hold_one_window_at_a_time():
    # one twist of each family reused over 10^3 windows: its one memo then
    # holds the keys of the last window alone, each bit for bit what a
    # fresh twist builds for that window (the lag tables, the move and
    # initial CDFs, the eigen q rows), and a twist that has seen other
    # windows gives every trace bit for bit what a fresh twist gives
    for params, make, w in _memo_families():
        twist, finite = make(), isinstance(params, FiniteHMMParams)
        windows = [ObservationWindow(w.origin, np.roll(w.values, i % 7)) for i in range(1000)]
        for window in windows:
            _use(twist, window, finite)
        fresh = make()
        _use(fresh, windows[-1], finite)
        name = type(twist).__name__
        assert twist._memo_window is windows[-1], name
        assert set(twist._memo_rows) == set(fresh._memo_rows), name
        for key, row in twist._memo_rows.items():
            want = fresh._memo_rows[key]
            assert all(map(np.array_equal, row, want)) if key == "tables" else (
                np.array_equal(row, want)), (name, key)
        for window in windows[1:4] + windows[3:0:-1]:  # every window met again later
            got = run_filter("twisted", params, twist, window, 12, 32, seed=5)
            want = run_filter("twisted", params, make(), window, 12, 32, seed=5)
            assert np.array_equal(got.log_z, want.log_z)
            assert np.array_equal(got.log_phi, want.log_phi)
            assert all(np.array_equal(got.eta[n], want.eta[n]) for n in want.eta)


def _fresh_row(twist, window, key):
    """Row ``key`` of what a finite table twist keeps per window, built by
    the expressions the twist builds it with, afresh."""
    model = twist.model
    if key == "tables":
        return FiniteLagTwist(model, twist.ell)._tables(window)
    if key == "initial":
        cdf = np.cumsum(twist._mu0_psi(window))
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        return cdf
    what, t = key
    if what == "q":
        h = twist.triple.h[twist._row(window, t + 1)]
        return model.log_g_grid(window, t) + np.log(model.trans @ h)
    logits = model.log_trans + twist.log_psi(window, t + 1, np.arange(model.k))
    cdf = np.cumsum(np.exp(logits - logits.max(axis=-1, keepdims=True)), axis=-1)
    cdf /= cdf[..., -1:]
    cdf[..., -1] = 1.0
    return cdf


def test_finite_table_twist_rows_equal_fresh_ones_for_one_window():
    # what a finite table twist keeps per window (its twisted kernel's row
    # CDFs at each t, its twisted initial law's CDF and, for the eigen
    # twist, the rows of log Q_t(h_{t+1})) equals the rows built afresh, bit
    # for bit, and the moves drawn from them; a twist keeps the rows of the
    # last window it met, and only those
    params = finite_params()
    _, w = simulate(params, 160, seed=21)
    base = w.shift(60)
    windows = [base, base.shift(3), ObservationWindow(base.origin, np.roll(base.values, 1))]
    tri = eigen_triple(params, base, t_lo=-10, t_hi=40)
    x = np.tile(np.arange(3), 5)
    u = np.random.default_rng(3).random(x.size)
    for twist in (tri.as_twist(), FiniteLagTwist(params, 2)):
        for window in windows + windows[:1]:
            for t in range(20):
                moved = twist.twisted_mutate(window, t, x, u)
                want = categorical_counts(_fresh_row(twist, window, ("move", t)), x, u)
                assert np.array_equal(moved, want), (type(twist).__name__, t)
                twist.log_q_psi(window, t, x)
            twist.sample_twisted_initial(window, 5, np.random.default_rng(0))
            keys = {("move", t) for t in range(20)} | {"initial"}
            keys |= ({("q", t) for t in range(20)} if isinstance(twist, EigenTwist)
                     else {"tables"})
            assert twist._memo_window is window and set(twist._memo_rows) == keys
            for key, row in twist._memo_rows.items():
                want = _fresh_row(twist, window, key)
                assert all(map(np.array_equal, row, want)) if key == "tables" else (
                    np.array_equal(row, want)), key


@pytest.mark.parametrize("params", [
    LinearGaussianParams(0.9, 1.0, 1.0),
    LinearGaussianParams(-0.7, 0.3, 2.5, mu0_mean=0.4, mu0_var=2.0),
    SVParams(),
], ids=["lg", "lg-negative-a", "sv"])
def test_gaussian_step_formulas_keep_their_bits_and_allocate_no_particle_array(params):
    # the Gaussian potentials, moves and twist evaluations write through out
    # and step buffers: each equals its formula as one expression, bit for
    # bit, with and without out, and a warmed call into out allocates far
    # less than one particle array (8 * 8192 bytes)
    make = StochasticVolatilityTwist if isinstance(params, SVParams) else LinearGaussianLagTwist
    model, twist = params, make(params, 2)
    _, w = simulate(params, 20, seed=4)
    rng = np.random.default_rng(5)
    x = rng.normal(scale=3.0, size=(2, 4096))
    noise = rng.standard_normal(x.shape)
    t, a, q = 3, model.a, model.q
    y = float(w.y(t))
    if isinstance(params, SVParams):
        b2 = model.obs_scale2
        log_g = np.multiply(-0.5, np.log(2.0 * np.pi * b2) + x + y * y * np.exp(-x) / b2)
    else:
        r = params.r_obs
        log_g = np.multiply(-0.5, np.log(2.0 * np.pi * r) + (y - x) ** 2 / r)
    c0, d0, e0 = twist._log_table(w, t)
    cm, dm, em = twist._log_table(w, t, q=True)
    c, d, _ = twist._log_table(w, t + 1)
    var = 1.0 / (c + 1.0 / q)
    cases = [
        (lambda out: model.log_g(w, t, x, out), log_g),
        (lambda out: model.mutate(w, t, x, noise, out), np.add(a * x, np.sqrt(q) * noise)),
        (lambda out: twist.log_psi(w, t, x, out), np.add(-0.5 * c0 * x * x + d0 * x, e0)),
        (lambda out: twist.log_q_psi(w, t, x, out),
         np.add(log_g, np.add(-0.5 * cm * x * x + dm * x, em))),
        (lambda out: twist.twisted_mutate(w, t, x, noise, out),
         np.add((a * x / q + d) * var, np.sqrt(var) * noise)),
    ]
    for i, (call, want) in enumerate(cases):
        assert np.array_equal(call(None), want), i
        out = np.empty_like(x)
        assert call(out) is out and np.array_equal(out, want), i
        tracemalloc.start()
        try:
            current = tracemalloc.get_traced_memory()[0]
            call(out)
            assert tracemalloc.get_traced_memory()[1] - current < 8 * 8192 // 8, i
        finally:
            tracemalloc.stop()
