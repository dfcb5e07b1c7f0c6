import itertools
import math

import numpy as np
import pytest

from twistpf.models import (
    FiniteHMMParams,
    LinearGaussianParams,
    SVParams,
    finite_forward,
    kalman_run,
    simulate,
)
from twistpf.harness import run_simulate
from twistpf.rng import SIMULATE, RngStream
from twistpf.windows import ObservationWindow


def small_finite():
    return FiniteHMMParams(
        mu0=np.array([0.6, 0.4]),
        trans=np.array([[0.8, 0.2], [0.3, 0.7]]),
        emit=np.array([[0.9, 0.1], [0.2, 0.8]]),
    )


def enumerate_joint(params, ys, t):
    """P(x_t = j, y_0..y_{t-1} = ys[:t]) by summing over all state paths."""
    k = params.mu0.size
    out = np.zeros(k)
    for path in itertools.product(range(k), repeat=t + 1):
        p = params.mu0[path[0]]
        for s in range(t):
            p *= params.emit[path[s], ys[s]]
            p *= params.trans[path[s], path[s + 1]]
        out[path[t]] += p
    return out


def test_finite_forward_matches_path_enumeration():
    params = small_finite()
    ys = [0, 1, 1, 0]
    w = ObservationWindow(0, np.array(ys))
    res = finite_forward(params, w, 4)
    assert res.log_z[0] == 0.0
    for t in range(5):
        joint = enumerate_joint(params, ys, t)
        z = joint.sum()
        assert math.isclose(res.log_z[t], math.log(z), rel_tol=1e-12)
        assert np.allclose(res.pred[t], joint / z, atol=1e-13)


def test_finite_forward_uniform_emissions():
    # uniform emission rows carry no information: the prediction filter is the
    # pure transition flow and each observation contributes a factor 1/k
    params = FiniteHMMParams(
        mu0=np.array([0.3, 0.7]),
        trans=np.array([[0.6, 0.4], [0.2, 0.8]]),
        emit=np.array([[0.5, 0.5], [0.5, 0.5]]),
    )
    w = ObservationWindow(0, np.array([0, 1, 0, 0, 1]))
    res = finite_forward(params, w, 5)
    law = params.mu0.copy()
    for t in range(6):
        assert np.allclose(res.pred[t], law, atol=1e-14)
        assert math.isclose(res.log_z[t], t * math.log(0.5), rel_tol=1e-13)
        law = law @ params.trans


def per_step_forward(params, window, n):
    # the forward recursion reading one observation and taking one log per
    # step: the reference the hoisted reads and logs must equal bit for bit
    pred, log_z = np.empty((n + 1, params.k)), np.zeros(n + 1)
    alpha = params.mu0.copy()
    for t in range(n):
        pred[t] = alpha
        weighted = alpha * params.emit[:, int(window.y(t))]
        norm = weighted.sum()
        log_z[t + 1] = log_z[t] + np.log(norm)
        alpha = (weighted / norm) @ params.trans
        alpha = alpha / alpha.sum()
    pred[n] = alpha
    return pred, log_z


def test_finite_forward_matches_per_step_recursion_bit_for_bit():
    rng = np.random.default_rng(4)
    for k in (2, 3, 5):
        params = FiniteHMMParams(mu0=rng.dirichlet(np.ones(k)),
                                 trans=rng.dirichlet(np.ones(k), size=k),
                                 emit=rng.uniform(0.01, 1.0, size=(k, 4)))
        _, w0 = simulate(params, 300, seed=k)
        for w in (w0, w0.shift(40), w0.shift(-3).shift(3)):
            for n in (0, 1, 7, 250):
                res = finite_forward(params, w, n)
                pred, log_z = per_step_forward(params, w, n)
                assert np.array_equal(res.pred, pred) and np.array_equal(res.log_z, log_z)


def test_kalman_one_step_closed_form():
    params = LinearGaussianParams(a=0.9, q=1.0, r_obs=1.0)
    v0 = 1.0 / (1.0 - 0.81)
    y0 = 0.7
    w = ObservationWindow(0, np.array([y0, -0.2]))
    res = kalman_run(params, w, 2)
    # first observation is predicted as N(0, v0 + r_obs)
    s = v0 + 1.0
    expected = -0.5 * (math.log(2 * math.pi * s) + y0 * y0 / s)
    assert math.isclose(res.log_z[1], expected, rel_tol=1e-13)
    # conjugate update then AR propagation
    post_mean = v0 * y0 / s
    post_var = v0 * 1.0 / s
    assert math.isclose(res.mean[1], 0.9 * post_mean, rel_tol=1e-13)
    assert math.isclose(res.var[1], 0.81 * post_var + 1.0, rel_tol=1e-13)


def test_kalman_stationary_initial_variance():
    params = LinearGaussianParams(a=0.9, q=1.0, r_obs=1.0)
    w = ObservationWindow(0, np.array([0.0]))
    res = kalman_run(params, w, 0)
    assert math.isclose(res.var[0], 1.0 / (1.0 - 0.81), rel_tol=1e-13)
    assert res.mean[0] == 0.0
    assert res.log_z[0] == 0.0


def test_kalman_log_z_additive_over_steps():
    params = LinearGaussianParams(a=0.7, q=0.5, r_obs=2.0, mu0_mean=0.3, mu0_var=1.5)
    x, w = simulate(params, 8, seed=5)
    res = kalman_run(params, w, 8)
    # each increment equals the one-step predictive density of y_t
    for t in range(8):
        s = res.var[t] + params.r_obs
        inc = -0.5 * (math.log(2 * math.pi * s) + (w.y(t) - res.mean[t]) ** 2 / s)
        assert math.isclose(res.log_z[t + 1] - res.log_z[t], inc, rel_tol=1e-12)


def test_simulate_is_deterministic():
    params = small_finite()
    x1, w1 = simulate(params, 20, seed=9)
    x2, w2 = simulate(params, 20, seed=9)
    assert np.array_equal(x1, x2)
    assert np.array_equal(w1.values, w2.values)
    x3, w3 = simulate(params, 20, seed=9, replicate=1)
    assert not np.array_equal(w1.values, w3.values)


def scalar_simulate_finite(params, n, seed, replicate=0):
    # one scalar draw at a time, in stream order: the reference for the
    # batched lookups of simulate
    gen = RngStream(seed, replicate).generator(0, SIMULATE)
    x = np.empty(n, dtype=np.int64)
    y = np.empty(n, dtype=np.int64)
    cdf_mu = np.cumsum(params.mu0)
    cdf_trans = np.cumsum(params.trans, axis=1)
    cdf_emit = np.cumsum(params.emit, axis=1)
    for c in (cdf_mu, cdf_trans.T, cdf_emit.T):
        c[-1] = 1.0
    state = int(np.searchsorted(cdf_mu, gen.random(), side="right"))
    for t in range(n):
        x[t] = state
        y[t] = np.searchsorted(cdf_emit[state], gen.random(), side="right")
        state = int(np.searchsorted(cdf_trans[state], gen.random(), side="right"))
    return x, y


def test_finite_simulate_equals_scalar_draws():
    sparse = FiniteHMMParams(
        mu0=np.array([0.0, 0.5, 0.5]),
        trans=np.array([[0.0, 1.0, 0.0], [0.3, 0.0, 0.7], [0.5, 0.5, 0.0]]),
        emit=np.array([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8], [0.3, 0.6, 0.1]]),
    )
    for params in (small_finite(), sparse):
        for seed in range(30):
            for n in (0, 1, 2, 5, 134, 500):
                want_x, want_y = scalar_simulate_finite(params, n, seed, replicate=seed % 3)
                x, w = simulate(params, n, seed, replicate=seed % 3)
                assert x.dtype == want_x.dtype and w.values.dtype == want_y.dtype
                assert np.array_equal(x, want_x) and np.array_equal(w.values, want_y)
                assert w.origin == 0 and len(w) == n


def test_simulate_finite_marginals():
    # long path: state occupation frequencies approach the stationary law
    params = FiniteHMMParams(
        mu0=np.array([0.5, 0.5]),
        trans=np.array([[0.7, 0.3], [0.4, 0.6]]),
        emit=np.array([[0.9, 0.1], [0.2, 0.8]]),
    )
    n = 200_000
    x, w = simulate(params, n, seed=1)
    stat = np.array([4.0 / 7.0, 3.0 / 7.0])
    freq = np.bincount(x, minlength=2) / n
    assert np.allclose(freq, stat, atol=0.01)
    # emissions follow the conditional table
    y = np.array([w.y(t) for t in range(n)], dtype=int)
    sel = x == 0
    assert abs((y[sel] == 0).mean() - 0.9) < 0.01
    assert abs((y[~sel] == 1).mean() - 0.8) < 0.01


def test_simulate_lg_moments():
    params = LinearGaussianParams(a=0.9, q=1.0, r_obs=1.0)
    n = 400_000
    x, w = simulate(params, n, seed=3)
    v = 1.0 / (1.0 - 0.81)
    assert abs(x.var() - v) < 0.15
    # lag-1 autocovariance of the state is a * var
    assert abs(np.mean(x[:-1] * x[1:]) - 0.9 * v) < 0.15
    y = np.array([w.y(t) for t in range(n)])
    assert abs(y.var() - (v + 1.0)) < 0.2
    assert abs(np.mean((y - x) * x)) < 0.05


def test_simulate_sv_observation_scale():
    params = SVParams(persistence=0.95, vol_of_vol=0.3, scale=0.6)
    n = 200_000
    x, w = simulate(params, n, seed=7)
    y = np.array([w.y(t) for t in range(n)])
    # y_t = scale * exp(x_t / 2) * eps_t with unit normal eps
    z = y / (0.6 * np.exp(x / 2.0))
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    assert abs(x.var() - 0.09 / (1 - 0.95**2)) < 0.05


def test_write_path_csv_round_trip(tmp_path):
    # the path CSV is written by the harness's simulate experiment
    params = small_finite()
    cfg = {"model": {"kind": "finite", "mu0": params.mu0.tolist(),
                     "trans": params.trans.tolist(), "emit": params.emit.tolist()},
           "steps": 6, "seed": 4}
    res = run_simulate(cfg, str(tmp_path))
    x, w = simulate(params, 6, seed=4)
    lines = open(res.csv_path).read().strip().split("\n")
    assert lines[0] == "t,x,y"
    assert len(lines) == 7
    for t, line in enumerate(lines[1:]):
        ts, xs, ys = line.split(",")
        assert int(ts) == t
        assert float(xs) == float(x[t])
        assert float(ys) == float(w.y(t))


def test_params_validation():
    with pytest.raises(ValueError):
        LinearGaussianParams(a=1.0, q=1.0, r_obs=1.0)
    with pytest.raises(ValueError):
        LinearGaussianParams(a=0.5, q=0.0, r_obs=1.0)
    LinearGaussianParams(a=1.2, q=1.0, r_obs=1.0, mu0_var=2.0)
    with pytest.raises(ValueError):
        FiniteHMMParams(
            mu0=np.array([0.6, 0.5]),
            trans=np.array([[0.8, 0.2], [0.3, 0.7]]),
            emit=np.array([[0.9, 0.1], [0.2, 0.8]]),
        )


def test_models_expose_dimensions_and_potentials():
    assert small_finite().k == 2
    sv = SVParams()
    w = ObservationWindow(0, np.array([0.4, -0.1]))
    pts = np.array([-0.5, 0.0, 0.5])
    lg_dens = sv.log_g(w, 0, pts)
    # bootstrap potential is the observation density at the current index
    expect = -0.5 * (
        np.log(2 * np.pi * 0.63**2) + pts + (0.4 / 0.63) ** 2 * np.exp(-pts)
    )
    assert np.allclose(lg_dens, expect, atol=1e-12)


def test_finite_model_tables_are_read_only_copies():
    # a finite model's tables and the ones derived from them cannot be
    # written, so no caller can change what another reads; they are copies,
    # so the caller's own arrays stay writable, and fk() is the model itself
    tables = {name: getattr(small_finite(), name).copy() for name in ("mu0", "trans", "emit")}
    params = FiniteHMMParams(**tables)
    assert params.fk() is params
    for name in ("mu0", "trans", "emit", "log_trans", "trans_cdf", "log_emit"):
        table = getattr(params, name)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.5
    for name, table in tables.items():
        assert getattr(params, name) is not table
        table[0] = 0.4
    assert params.mu0[0] == 0.6 and params.trans[0, 0] == 0.8 and params.emit[0, 0] == 0.9
