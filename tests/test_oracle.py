import math
import tracemalloc

import numpy as np
import pytest

from twistpf import oracle
from twistpf.filters import replicate_blocks, run_filter
from twistpf.models import FiniteHMMParams, finite_forward, simulate
from twistpf.oracle import (
    exact_clt_variances,
    exact_moments,
    fit_slope,
    occupation_states,
    upsilon_bound,
)
from twistpf.twists import ConstantTwist, FiniteLagTwist, eigen_triple

from product_space import product_kernels, product_states


def two_state_params():
    return FiniteHMMParams(
        mu0=np.array([0.6, 0.4]),
        trans=np.array([[0.8, 0.2], [0.3, 0.7]]),
        emit=np.array([[0.9, 0.1], [0.2, 0.8]]),
    )


def three_state_params():
    return FiniteHMMParams(
        mu0=np.array([0.5, 0.3, 0.2]),
        trans=np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]),
        emit=np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]]),
    )


def flat_emission_params():
    return FiniteHMMParams(
        mu0=np.array([0.4, 0.6]),
        trans=np.array([[0.7, 0.3], [0.2, 0.8]]),
        emit=np.array([[0.3, 0.7], [0.3, 0.7]]),
    )


def gentle_params():
    # weakly informative emissions keep the per-step fluctuations of the
    # relative second moment small, so finite-range slope fits are clean
    return FiniteHMMParams(
        mu0=np.array([0.5, 0.3, 0.2]),
        trans=np.array([[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]]),
        emit=np.array([[0.40, 0.32, 0.28], [0.29, 0.42, 0.29], [0.30, 0.28, 0.42]]),
    )


def test_single_particle_bold_kernels_reduce_to_base():
    params = two_state_params()
    _, w = simulate(params, 8, seed=0)
    kern = product_kernels(params, ConstantTwist(params), 1, w, 2)
    g = np.exp(params.log_g_grid(w, 2))
    assert np.allclose(kern.g_bold, g, atol=1e-14)
    assert np.allclose(kern.m_bold, params.trans, atol=1e-14)
    assert np.allclose(kern.m_tilde, params.trans, atol=1e-14)
    assert np.allclose(kern.phi, 1.0, atol=1e-14)


def test_constant_twist_leaves_bold_kernel_untwisted():
    params = two_state_params()
    _, w = simulate(params, 8, seed=1)
    kern = product_kernels(params, ConstantTwist(params), 3, w, 1)
    assert np.allclose(kern.m_tilde, kern.m_bold, atol=1e-14)
    assert np.allclose(kern.phi, 1.0, atol=1e-14)
    assert np.allclose(kern.m_bold.sum(axis=1), 1.0, atol=1e-12)


def test_pair_system_kernel_by_scalar_enumeration():
    # recompute the two-particle resample-mutate kernel with nested loops:
    # given the pair, each successor coordinate independently picks an
    # ancestor proportionally to its potential and then moves by the
    # transition row
    params = two_state_params()
    _, w = simulate(params, 8, seed=2)
    t = 1
    g = np.exp(params.log_g_grid(w, t))
    states = product_states(2, 2)
    kern = product_kernels(params, ConstantTwist(params), 2, w, t)
    for i, (a, b) in enumerate(states):
        wa = g[a] / (g[a] + g[b])
        for j, (za, zb) in enumerate(states):
            m = lambda z: wa * params.trans[a, z] + (1 - wa) * params.trans[b, z]
            assert math.isclose(kern.m_bold[i, j], m(za) * m(zb), rel_tol=1e-13)
        assert math.isclose(kern.g_bold[i], 0.5 * (g[a] + g[b]), rel_tol=1e-15)


def test_twisted_pair_kernel_by_scalar_enumeration():
    params = two_state_params()
    _, w = simulate(params, 8, seed=3)
    tw = FiniteLagTwist(params, 1)
    t = 1
    states = product_states(2, 2)
    kern = product_kernels(params, tw, 2, w, t)
    psi = np.exp(tw.log_psi(w, t + 1, np.arange(2)))
    psi = psi / psi.max()
    for i in range(4):
        row = kern.m_bold[i] * np.array(
            [0.5 * (psi[za] + psi[zb]) for za, zb in states]
        )
        row /= row.sum()
        assert np.allclose(kern.m_tilde[i], row, atol=1e-13)


def test_r_tilde_is_second_moment_kernel():
    params = two_state_params()
    _, w = simulate(params, 8, seed=4)
    tw = FiniteLagTwist(params, 1)
    kern = product_kernels(params, tw, 2, w, 0)
    want = (kern.g_bold**2)[:, None] * kern.phi**2 * kern.m_tilde
    assert np.allclose(kern.r_tilde, want, atol=1e-14)
    # dividing one power of the correction back out recovers the plain
    # whole-system one-step operator
    back = kern.r_tilde / (kern.g_bold[:, None] * kern.phi)
    assert np.allclose(back, kern.q_bold, atol=1e-13)


def test_exact_first_moment_equals_marginal_likelihood():
    # unbiasedness of the twisted estimator: the cloud chain's first moment
    # against the independent forward recursion, for every twist (the twist
    # cancels from the first moment; it enters only the second)
    params = three_state_params()
    _, w0 = simulate(params, 140, seed=5)
    w = w0.shift(60)
    exact = finite_forward(params, w, 6).log_z
    tri = eigen_triple(params, w, t_lo=-20, t_hi=40)
    twists = [
        ConstantTwist(params),
        FiniteLagTwist(params, 1),
        FiniteLagTwist(params, 2),
        tri.as_twist(),
    ]
    for twist in twists:
        for n_particles in (2, 3):
            rep = exact_moments(params, twist, n_particles, w, 6)
            assert np.allclose(rep.log_first, exact, atol=1e-12), type(twist).__name__


def test_exact_second_moment_matches_monte_carlo():
    params = two_state_params()
    _, w = simulate(params, 8, seed=6)
    n, reps = 4, 20_000
    exact = finite_forward(params, w, n).log_z[n]

    def ratios(kind, twist):
        # the replicate engine: row r of each block is the run of replicate r
        blocks = replicate_blocks(kind, params, twist, w, n, 2, seed=5,
                                  replicates=range(reps), test_functions={})
        lz = np.concatenate([block.log_z[:, n] for block in blocks])
        return np.array([math.exp(2.0 * (v - exact)) for v in lz.tolist()])

    rep_const = exact_moments(params, ConstantTwist(params), 2, w, n)
    r2 = ratios("bootstrap", None)
    se = r2.std(ddof=1) / math.sqrt(reps)
    assert abs(r2.mean() - rep_const.v_tilde[n]) < 4 * se

    tw = FiniteLagTwist(params, 1)
    rep_tw = exact_moments(params, tw, 2, w, n)
    r2 = ratios("twisted", tw)
    se = r2.std(ddof=1) / math.sqrt(reps)
    assert abs(r2.mean() - rep_tw.v_tilde[n]) < 4 * se


def test_constant_potential_has_unit_relative_second_moment():
    params = flat_emission_params()
    _, w = simulate(params, 10, seed=7)
    for twist in (ConstantTwist(params), FiniteLagTwist(params, 1)):
        rep = exact_moments(params, twist, 2, w, 8)
        assert np.allclose(rep.log_v, 0.0, atol=1e-12)
        assert np.allclose(rep.v_tilde, 1.0, atol=1e-12)


def test_upsilon_slope_ignores_initial_law():
    params = three_state_params()
    _, w0 = simulate(params, 220, seed=8)
    w = w0.shift(60)
    tw = FiniteLagTwist(params, 1)
    rep_a = exact_moments(params, tw, 2, w, 60)
    rep_b = exact_moments(params, tw, 2, w, 60, mu0=np.array([0.05, 0.05, 0.9]))
    fit_a = fit_slope(rep_a.n, rep_a.log_v, n_lo=20, n_hi=60)
    fit_b = fit_slope(rep_b.n, rep_b.log_v, n_lo=20, n_hi=60)
    assert abs(fit_a.slope - fit_b.slope) < 1e-4


def test_eigen_twist_zeroes_growth_and_bound():
    params = gentle_params()
    _, w0 = simulate(params, 360, seed=9)
    w = w0.shift(80)
    tri = eigen_triple(params, w, t_lo=-20, t_hi=240)
    tw = tri.as_twist()
    # with the eigenfunction the relative second moment stays bounded: the
    # fitted growth rate over the late range is numerically zero
    rep = exact_moments(params, tw, 2, w, 200)
    fit = fit_slope(rep.n, rep.log_v, n_lo=120, n_hi=200)
    assert abs(fit.slope) < 1e-4
    assert rep.log_v[120:201].max() - rep.log_v[120:201].min() < 0.1
    bound = upsilon_bound(tri, tw, w, range(1, 51), 2)
    assert bound.d_sup == 0.0
    assert bound.bound == 0.0


def per_t_bound_terms(triple, twist, window, ts):
    # the bound's discrepancy one t at a time: the reference its rows must
    # equal bit for bit
    grid = np.arange(triple.params.k)
    per_t = []
    for t in ts:
        lh_c = triple.log_h[triple.row(t)] - triple.log_h[triple.row(t)].max()
        lpsi = twist.log_psi(window, t, grid)
        lpsi_c = lpsi - lpsi.max()
        h_over_psi = np.exp(lh_c - lpsi_c)
        c_t = (2.0 * float(np.exp(-lpsi_c.min())) - 1.0) * float(np.exp((lpsi_c - lh_c).max()))
        per_t.append(c_t * float(h_over_psi.max() - h_over_psi.min()))
    return np.array(per_t)


def test_bound_rows_equal_per_t_terms_bit_for_bit():
    params = gentle_params()
    _, w0 = simulate(params, 300, seed=11)
    w = w0.shift(100)
    tri = eigen_triple(params, w, t_lo=-10, t_hi=90)
    twists = [ConstantTwist(params), tri.as_twist()]
    twists += [FiniteLagTwist(params, ell) for ell in range(1, 7)]
    for twist in twists:
        rep = upsilon_bound(tri, twist, w, range(1, 61), 3)
        assert np.array_equal(rep.per_t, per_t_bound_terms(tri, twist, w, range(1, 61)))
    assert upsilon_bound(tri, tri.as_twist(), w, range(1, 61), 3).d_sup == 0.0


def test_upsilon_slope_below_mixing_bound():
    params = gentle_params()
    _, w0 = simulate(params, 260, seed=10)
    w = w0.shift(80)
    tri = eigen_triple(params, w, t_lo=-20, t_hi=100)
    for ell in (0, 1, 2):
        tw = FiniteLagTwist(params, ell)
        for n_particles in (2, 3):
            rep = exact_moments(params, tw, n_particles, w, 40)
            fit = fit_slope(rep.n, rep.log_v, n_lo=10, n_hi=40)
            bound = upsilon_bound(tri, tw, w, range(1, 41), n_particles)
            assert fit.slope <= bound.bound + 1e-12, (ell, n_particles)
            assert bound.bound == pytest.approx(
                math.log1p(bound.d_sup / (n_particles - 1)), rel=1e-12
            )


def test_twist_distance_to_eigenfunction_shrinks_with_lag():
    params = gentle_params()
    _, w0 = simulate(params, 260, seed=11)
    w = w0.shift(80)
    tri = eigen_triple(params, w, t_lo=-20, t_hi=100)
    ds = []
    for ell in range(5):
        tw = FiniteLagTwist(params, ell)
        bound = upsilon_bound(tri, tw, w, range(1, 41), 2)
        ds.append(bound.d_sup)
    assert all(a > b for a, b in zip(ds, ds[1:]))


def test_fit_slope_recovers_exact_line():
    n = np.arange(5, 25)
    y = 0.37 * n - 1.4
    fit = fit_slope(n, y)
    assert math.isclose(fit.slope, 0.37, rel_tol=1e-12)
    assert math.isclose(fit.intercept, -1.4, rel_tol=1e-10)
    assert fit.r2 > 1.0 - 1e-12
    fit2 = fit_slope(n, y + (n < 10) * 5.0, n_lo=10, n_hi=24)
    assert math.isclose(fit2.slope, 0.37, rel_tol=1e-12)


def test_clt_variances_match_simulation():
    params = two_state_params()
    _, w = simulate(params, 8, seed=12)
    n, n_particles, reps = 3, 1024, 1500
    phi = np.array([0.0, 1.0])
    fwd = finite_forward(params, w, n)
    exact_eta = float(fwd.pred[n] @ phi)
    cv = exact_clt_variances(params, ConstantTwist(params), phi, w, n)
    assert math.isclose(cv.eta_phi, exact_eta, rel_tol=1e-12)
    assert math.isclose(cv.log_z, fwd.log_z[n], rel_tol=1e-12)
    eta_err = np.empty(reps)
    gam_err = np.empty(reps)
    tf = {"phi": lambda v: (np.asarray(v) == 1).astype(float)}
    for r in range(reps):
        trace = run_filter(
            "bootstrap", params, None, w, n, n_particles, seed=6, replicate=r, test_functions=tf
        )
        scale = math.sqrt(n_particles)
        eta_err[r] = scale * (trace.eta["phi"][n] - exact_eta)
        gam_err[r] = scale * (
            trace.eta["phi"][n] * math.exp(trace.log_z[n] - fwd.log_z[n]) - exact_eta
        )
    s2, g2 = eta_err.var(ddof=1), gam_err.var(ddof=1)
    assert abs(s2 - cv.sigma2) < 4 * s2 * math.sqrt(2.0 / (reps - 1)) + 0.05 * cv.sigma2
    assert (
        abs(g2 - cv.varsigma2_rel)
        < 4 * g2 * math.sqrt(2.0 / (reps - 1)) + 0.05 * cv.varsigma2_rel
    )


def test_clt_sigma_is_twist_free_but_gamma_variance_is_not():
    params = three_state_params()
    _, w0 = simulate(params, 160, seed=13)
    w = w0.shift(60)
    phi = np.arange(3, dtype=float)
    n = 6
    tri = eigen_triple(params, w, t_lo=-15, t_hi=n + 40)
    cv_const = exact_clt_variances(params, ConstantTwist(params), phi, w, n)
    cv_h = exact_clt_variances(params, tri.as_twist(), phi, w, n)
    assert math.isclose(cv_const.sigma2, cv_h.sigma2, rel_tol=1e-10)
    assert cv_const.varsigma2_rel != pytest.approx(cv_h.varsigma2_rel, rel=1e-3)


def test_exact_moments_rejects_bad_particle_count():
    params = two_state_params()
    _, w = simulate(params, 8, seed=14)
    with pytest.raises(ValueError):
        exact_moments(params, ConstantTwist(params), 0, w, 4)


def acceptance_params():
    return FiniteHMMParams(
        mu0=np.array([0.5, 0.3, 0.2]),
        trans=np.array([[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]]),
        emit=np.array([[0.40, 0.32, 0.28], [0.29, 0.42, 0.29], [0.30, 0.28, 0.42]]),
    )


def product_chain_moments(params, twist, n_particles, w, n_steps, mu0=None):
    # the same normalised forward recursions run on the ordered k^N clouds
    states = product_states(params.k, n_particles)
    init = params.mu0 if mu0 is None else mu0
    alpha1 = init[states].prod(axis=1)
    alpha2 = alpha1.copy()
    log_m1 = np.zeros(n_steps + 1)
    log_m2 = np.zeros(n_steps + 1)
    for p in range(1, n_steps + 1):
        kern = product_kernels(params, twist, n_particles, w, p - 1)
        v1 = alpha1 @ (kern.g_bold[:, None] * kern.phi * kern.m_tilde)
        log_m1[p] = log_m1[p - 1] + np.log(v1.sum())
        alpha1 = v1 / v1.sum()
        v2 = alpha2 @ kern.r_tilde
        log_m2[p] = log_m2[p - 1] + np.log(v2.sum())
        alpha2 = v2 / v2.sum()
    return log_m1, log_m2


def test_occupation_states_are_the_compositions_of_n():
    for k, n_particles in ((1, 4), (2, 1), (2, 5), (3, 4), (4, 3)):
        counts = occupation_states(k, n_particles)
        assert counts.shape == (math.comb(n_particles + k - 1, k - 1), k)
        assert (counts >= 0).all()
        assert (counts.sum(axis=1) == n_particles).all()
        # exactly the distinct count vectors of the ordered clouds
        lumped = {tuple(np.bincount(s, minlength=k)) for s in product_states(k, n_particles)}
        assert {tuple(c) for c in counts} == lumped
        assert len(lumped) == counts.shape[0]


def test_log_multinomial_coefficient_matches_exact_integers():
    # log(N! / prod c_j!) is a difference of log-factorial table entries, each
    # at most log N!, so its rounding error scales with log N!, not with the
    # (possibly small) result: the tolerance is 4 ulp of log N!
    k = 3
    rng = np.random.default_rng(5)
    for n_particles in (1, 2, 7, 40, 100, 179):
        states = occupation_states(k, n_particles)
        if n_particles >= 100:
            # the corners, where the result is 0 or log N, and a random sample
            pick = rng.choice(len(states), size=300, replace=False)
            states = np.concatenate([states[:2], states[-2:], states[pick]])
        got = oracle._log_multinomial(states, n_particles)
        want = np.array([
            math.log(math.factorial(n_particles)
                     // math.prod(math.factorial(int(c)) for c in row))
            for row in states
        ])
        tol = 4 * np.finfo(float).eps * math.lgamma(n_particles + 1.0)
        assert np.abs(got - want).max() <= tol, n_particles
        assert (got[want == 0.0] == 0.0).all()


def test_count_space_moments_match_product_chain():
    for params in (two_state_params(), three_state_params()):
        _, w0 = simulate(params, 140, seed=15)
        w = w0.shift(60)
        n = 6
        tri = eigen_triple(params, w, t_lo=-20, t_hi=40)
        twists = [
            ConstantTwist(params),
            FiniteLagTwist(params, 1),
            FiniteLagTwist(params, 2),
            tri.as_twist(),
        ]
        mu0 = np.linspace(1.0, 2.0, params.k)
        for twist in twists:
            for n_particles in range(1, 6):
                for init in (None, mu0 / mu0.sum()):
                    want1, want2 = product_chain_moments(params, twist, n_particles, w, n, init)
                    rep = exact_moments(params, twist, n_particles, w, n, mu0=init)
                    label = (params.k, type(twist).__name__, n_particles, init is None)
                    assert np.allclose(rep.log_first, want1, rtol=0, atol=1e-12), label
                    assert np.allclose(rep.log_second, want2, rtol=0, atol=1e-12), label


def per_horizon_moments(params, twist, n_particles, window, n_steps, mu0=None):
    # the count-space recursions one horizon at a time, m_bold built in row
    # chunks of oracle._CHUNK_BYTES: the oracle's loop before it batched its
    # horizons, kept as the reference the batches must equal bit for bit
    states = occupation_states(params.k, n_particles)
    log_coef = oracle._log_multinomial(states, n_particles)
    counts = states.astype(float)
    counts_t = np.ascontiguousarray(counts.T)
    grid = np.arange(params.k)
    alpha = np.exp(log_coef + counts @ oracle._log0(params.mu0 if mu0 is None else mu0))
    alpha = np.stack([alpha, alpha])
    n_states = len(states)
    rows = min(n_states, max(1, oracle._CHUNK_BYTES // (8 * n_states)))
    log_m = np.zeros((2, n_steps + 1))
    for p in range(1, n_steps + 1):
        cg = counts * np.exp(params.log_g_grid(window, p - 1))
        cg_sum = cg.sum(axis=1)
        g_bold = cg_sum / n_particles
        mix = cg @ params.trans / cg_sum[:, None]
        lp = twist.log_psi(window, p, grid)
        psi = np.exp(lp - lp.max())
        alpha[0] *= g_bold
        alpha[1] *= g_bold**2 * (mix @ psi)
        log_mix = oracle._log0(mix)
        v = np.zeros((2, n_states))
        for lo in range(0, n_states, rows):
            v += alpha[:, lo:lo + rows] @ np.exp(log_mix[lo:lo + rows] @ counts_t + log_coef)
        v[1] /= counts @ psi / n_particles
        s = v.sum(axis=1)
        log_m[:, p] = log_m[:, p - 1] + np.log(s)
        alpha = v / s[:, None]
    return log_m


def random_params(k, seed):
    rng = np.random.default_rng(seed)
    return FiniteHMMParams(mu0=rng.dirichlet(np.ones(k)), trans=rng.dirichlet(np.ones(k), size=k),
                           emit=rng.uniform(0.1, 1.0, size=(k, k)))


@pytest.mark.parametrize("budget", [None, 2**12, 2**9],
                         ids=["default", "row-chunks", "small-batches"])
def test_horizon_batches_equal_per_horizon_recursion_bit_for_bit(budget, monkeypatch):
    # N = 1..7 on k = 2..4 states under the constant, a lag and the eigen
    # twist; the small budgets make several horizon batches, one-horizon
    # batches and row chunks of m_bold (k = 4, N = 7: 120 states, 4 rows a
    # chunk at 2**12 bytes)
    if budget is not None:
        monkeypatch.setattr(oracle, "_CHUNK_BYTES", budget)
    n = 13
    for k in (2, 3, 4):
        params = random_params(k, seed=30 + k)
        _, w0 = simulate(params, 160, seed=k)
        w = w0.shift(60)
        tri = eigen_triple(params, w, t_lo=-10, t_hi=n + 30)
        mu0 = np.linspace(1.0, 2.0, k)
        for twist in (ConstantTwist(params), FiniteLagTwist(params, 2), tri.as_twist()):
            for n_particles in range(1, 8):
                init = mu0 / mu0.sum() if n_particles == 3 else None
                want = per_horizon_moments(params, twist, n_particles, w, n, init)
                rep = exact_moments(params, twist, n_particles, w, n, mu0=init)
                label = (k, type(twist).__name__, n_particles)
                assert np.array_equal(rep.log_first, want[0]), label
                assert np.array_equal(rep.log_second, want[1]), label


def test_single_particle_moments_reproduce_forward_recursion():
    params = three_state_params()
    _, w0 = simulate(params, 140, seed=16)
    w = w0.shift(60)
    exact = finite_forward(params, w, 10).log_z
    for twist in (ConstantTwist(params), FiniteLagTwist(params, 2)):
        rep = exact_moments(params, twist, 1, w, 10)
        assert np.allclose(rep.log_first, exact, rtol=0, atol=1e-12)


def test_relative_variance_approaches_clt_variance_without_sampling():
    # N (V_tilde_n - 1) -> varsigma^2_rel as N grows, with the 1/N gap
    params = acceptance_params()
    _, w0 = simulate(params, 200, seed=11)
    w = w0.shift(80)
    n = 10
    tw = FiniteLagTwist(params, 2)
    target = exact_clt_variances(params, tw, np.ones(params.k), w, n).varsigma2_rel
    gaps = {}
    for n_particles in (20, 40):
        rep = exact_moments(params, tw, n_particles, w, n)
        scaled = n_particles * math.expm1(rep.log_v[n])
        gaps[n_particles] = abs(scaled - target) / target
    assert gaps[40] < 0.01, gaps
    assert gaps[40] <= 0.6 * gaps[20], gaps


def test_clt_limit_at_a_hundred_particles_without_sampling():
    # N (V_tilde_10 - 1) -> varsigma^2_rel at N = 100 (5151 count states, a
    # dense kernel of 212 MB): the 1/N gap keeps shrinking, and the run holds
    # about one row chunk of the kernel at a time
    params = acceptance_params()
    _, w0 = simulate(params, 200, seed=11)
    w = w0.shift(80)
    n = 10
    tw = FiniteLagTwist(params, 2)
    target = exact_clt_variances(params, tw, np.ones(params.k), w, n).varsigma2_rel
    gaps = {}
    for n_particles in (40, 100):
        tracemalloc.start()
        try:
            rep = exact_moments(params, tw, n_particles, w, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * oracle._CHUNK_BYTES, (n_particles, peak)
        gaps[n_particles] = abs(n_particles * math.expm1(rep.log_v[n]) - target) / target
    assert gaps[100] < 2e-4, gaps
    assert gaps[100] <= 0.45 * gaps[40], gaps


def test_byte_budget_refuses_large_chains_before_allocating():
    params = three_state_params()
    _, w = simulate(params, 8, seed=17)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"N=2000 .* k=3 .* 2003001 states") as err:
            exact_moments(params, ConstantTwist(params), 2000, w, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "bytes" in str(err.value)
    assert peak < 2**20
