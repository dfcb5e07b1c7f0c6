"""End-to-end acceptance checks.

Each test exercises one headline guarantee at full scale and prints a single
verdict line (visible with ``pytest -s``; the test name carries the same
verdict under ``pytest -v``). Tolerances are stated inline. The empirical
checks use frozen seeds; the statistical margins (4 standard errors, or
5% + 4 s.e. for variance targets) keep the false-failure rate negligible.
"""

import math
import time

import numpy as np
from scipy.special import logsumexp

from twistpf.filters import apf_run, bootstrap_run, replicate_blocks, sis_run, twisted_run
from twistpf.harness import run_from_manifest, run_variance_growth
from twistpf.models import (
    FiniteHMMParams,
    LinearGaussianParams,
    finite_forward,
    kalman_run,
    simulate,
)
from twistpf.oracle import (
    build_bold_kernels,
    exact_clt_variances,
    exact_moments,
    fit_slope,
    upsilon_bound,
    upsilon_slope,
)
from twistpf.twists import (
    ConstantTwist,
    FiniteLagTwist,
    LinearGaussianLagTwist,
    eigen_triple,
)


def acceptance_params():
    """Three-state model with mid-speed mixing and weakly informative
    emissions; chosen so finite-range slope fits are fluctuation-free."""
    return FiniteHMMParams(
        mu0=np.array([0.5, 0.3, 0.2]),
        trans=np.array(
            [[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]]
        ),
        emit=np.array(
            [[0.40, 0.32, 0.28], [0.29, 0.42, 0.29], [0.30, 0.28, 0.42]]
        ),
    )


def sharp_params():
    """Same chain with informative emissions: twist choice moves the
    normalizing-constant variance a lot, which criterion 6 needs."""
    return FiniteHMMParams(
        mu0=np.array([0.5, 0.3, 0.2]),
        trans=np.array(
            [[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]]
        ),
        emit=np.array(
            [[0.70, 0.20, 0.10], [0.15, 0.70, 0.15], [0.10, 0.20, 0.70]]
        ),
    )


def pair_params():
    return FiniteHMMParams(
        mu0=np.array([0.6, 0.4]),
        trans=np.array([[0.8, 0.2], [0.3, 0.7]]),
        emit=np.array([[0.9, 0.1], [0.2, 0.8]]),
    )


def flat_params():
    return FiniteHMMParams(
        mu0=np.array([0.4, 0.6]),
        trans=np.array([[0.7, 0.3], [0.2, 0.8]]),
        emit=np.array([[0.3, 0.7], [0.3, 0.7]]),
    )


def verdict(num, ok, detail):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def logmeanexp(v):
    v = np.asarray(v, dtype=float)
    return float(logsumexp(v) - math.log(v.size))


def test_criterion_01_exact_mean_identity():
    # E[estimate] equals the marginal likelihood exactly (rel. error 1e-10)
    # for constant, lag-1, lag-2 and eigenfunction twists, 2 particles,
    # 6 steps, enumerated on the 3-state product chain, in under 5 seconds
    t0 = time.perf_counter()
    params = acceptance_params()
    _, w0 = simulate(params, 200, seed=11)
    w = w0.shift(80)
    n = 6
    exact = finite_forward(params, w, n).log_z
    tri = eigen_triple(params, w, t_lo=-10, t_hi=n + 40)
    twists = {
        "constant": ConstantTwist(params.fk()),
        "lag-1": FiniteLagTwist(params, 1),
        "lag-2": FiniteLagTwist(params, 2),
        "exact-h": tri.as_twist(),
    }
    worst = 0.0
    for name, twist in twists.items():
        rep = exact_moments(params, twist, 2, w, n)
        worst = max(worst, float(np.max(np.abs(rep.log_first - exact))))
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"max |log E[Z_hat] - log Z| = {worst:.2e} (tol 1e-10), "
        f"{elapsed:.2f}s (budget 5s)",
    )


def test_criterion_02_eigen_twist_flat_variance():
    # with the eigenfunction twist the exact relative second moment stays
    # bounded out to n = 200: fitted growth rate over n in [120, 200] below
    # 1e-4; the constant twist on the same data grows faster than 1e-3
    params = acceptance_params()
    _, w0 = simulate(params, 360, seed=11)
    w = w0.shift(80)
    tri = eigen_triple(params, w, t_lo=-10, t_hi=220)
    fit_h, rep_h = upsilon_slope(params, tri.as_twist(), 2, w, 200, n_lo=120, n_hi=200)
    fit_c, _ = upsilon_slope(
        params, ConstantTwist(params.fk()), 2, w, 200, n_lo=120, n_hi=200
    )
    bounded = float(np.max(rep_h.log_v[:201])) < 10.0
    verdict(
        2,
        abs(fit_h.slope) < 1e-4 and fit_c.slope > 1e-3 and bounded,
        f"eigen-twist slope {fit_h.slope:+.2e} (tol 1e-4), "
        f"constant-twist slope {fit_c.slope:+.2e} (must exceed 1e-3)",
    )


def test_criterion_03_per_run_eigenvalue_identity():
    # every single twisted run satisfies log Z_tilde_n = sum of log
    # eigenvalues + log mean h(start) - log mean h(end), to 1e-9, on each of
    # 100 independent data seeds
    params = acceptance_params()
    n, n_particles = 6, 8
    worst = 0.0
    for seed in range(100):
        _, w0 = simulate(params, 160, seed=seed)
        w = w0.shift(60)
        tri = eigen_triple(params, w, t_lo=-10, t_hi=50, tol=1e-12)
        trace = twisted_run(
            params.fk(), tri.as_twist(), w, n, n_particles, seed=seed, replicate=1
        )
        lam_sum = float(np.sum(np.log(tri.lam[tri.row(0) : tri.row(n)])))
        h0 = np.log(tri.h[tri.row(0)][trace.aux["initial_positions"]].mean())
        hn = np.log(tri.h[tri.row(n)][trace.aux["final_positions"]].mean())
        gap = abs(trace.log_z[n] - (lam_sum + h0 - hn))
        worst = max(worst, gap)
    verdict(3, worst < 1e-9, f"max identity gap over 100 seeds = {worst:.2e} (tol 1e-9)")


def test_criterion_04_constant_potential_zero_variance():
    # when the potential is constant the bootstrap estimate equals the exact
    # marginal likelihood bit for bit, on every one of 100 seeds
    params = flat_params()
    model = params.fk()
    n, n_particles = 12, 8
    all_exact = True
    for seed in range(100):
        _, w = simulate(params, n, seed=seed)
        want = finite_forward(params, w, n).log_z
        got = bootstrap_run(model, w, n, n_particles, seed=seed).log_z
        all_exact = all_exact and np.array_equal(got, want)
    verdict(4, all_exact, "bootstrap log Z bitwise equal to exact on 100/100 seeds")


def test_criterion_05_twisted_kernel_total_variation():
    # the sampler's one-step law on the two-particle product space matches
    # the enumerated twisted kernel row within total variation 0.01 at 1e5
    # replicates
    params = pair_params()
    model = params.fk()
    _, w = simulate(params, 6, seed=6)
    twist = FiniteLagTwist(params, 1)
    kern = build_bold_kernels(params, twist, 2, w, 0)
    start = np.array([0, 1], dtype=np.int64)
    row = kern.m_tilde[np.flatnonzero((kern.states == start).all(axis=1))[0]]
    reps = 100_000
    counts = np.zeros(4)
    # the replicate engine: row r of each block is twisted_run(..., replicate=r)
    for block in replicate_blocks(
        "twisted", model, twist, w, 1, 2, seed=7, replicates=range(reps),
        test_functions={}, initial=start,
    ):
        fin = block.aux["final_positions"]
        counts += np.bincount(fin[:, 0] * 2 + fin[:, 1], minlength=4)
    tv = 0.5 * float(np.abs(counts / reps - row).sum())
    verdict(5, tv < 0.01, f"one-step kernel TV distance {tv:.4f} (tol 0.01)")


def test_criterion_06_clt_variances():
    # at N = 10^4 particles and 10^4 replicates: the empirical variance of
    # sqrt(N) * (particle prediction mean - exact) matches the exact filter
    # variance within 5% + 4 s.e., and that exact variance is identical for
    # the constant and eigenfunction twists; the variance of the
    # normalizer-weighted error matches its own exact value, which moves by
    # more than 20% between the two twists
    params = sharp_params()
    model = params.fk()
    _, w0 = simulate(params, 200, seed=11)
    w = w0.shift(80)
    n, n_particles, reps = 5, 10_000, 10_000
    fwd = finite_forward(params, w, n)
    tri = eigen_triple(params, w, t_lo=-5, t_hi=n + 40)
    grid = np.arange(3)
    phis = {"id": grid.astype(float), "is0": (grid == 0).astype(float)}
    tf = {
        "id": lambda v: np.asarray(v, dtype=float),
        "is0": lambda v: (np.asarray(v) == 0).astype(float),
    }
    twists = {"constant": ConstantTwist(model), "exact-h": tri.as_twist()}
    ok = True
    notes = []
    exact_store = {}
    for tw_name, tw in twists.items():
        # the replicate engine: row r of each block is twisted_run(..., replicate=r)
        blocks = replicate_blocks(
            "twisted", model, tw, w, n, n_particles, seed=11, replicates=range(reps),
            test_functions=tf,
        )
        lz, eta_n = [], {k: [] for k in phis}
        for block in blocks:
            lz.append(block.log_z[:, n])
            for k in phis:
                eta_n[k].append(block.eta[k][:, n])
        lz = np.concatenate(lz)
        eta_n = {k: np.concatenate(v) for k, v in eta_n.items()}
        rel = np.exp(lz - fwd.log_z[n])
        for k, phi in phis.items():
            cv = exact_clt_variances(params, tw, phi, w, n)
            exact_store[(tw_name, k)] = cv
            eta_exact = float(fwd.pred[n] @ phi)
            scale = math.sqrt(n_particles)
            e_eta = scale * (eta_n[k] - eta_exact)
            e_gam = scale * (eta_n[k] * rel - eta_exact)
            s2, g2 = e_eta.var(ddof=1), e_gam.var(ddof=1)
            se_s = s2 * math.sqrt(2.0 / (reps - 1))
            se_g = g2 * math.sqrt(2.0 / (reps - 1))
            ok_s = abs(s2 - cv.sigma2) <= 0.05 * cv.sigma2 + 4 * se_s
            ok_g = abs(g2 - cv.varsigma2_rel) <= 0.05 * cv.varsigma2_rel + 4 * se_g
            ok = ok and ok_s and ok_g
            notes.append(f"{tw_name}/{k}: {s2:.3f}~{cv.sigma2:.3f}")
    for k in phis:
        a, b = exact_store[("constant", k)], exact_store[("exact-h", k)]
        same_sigma = math.isclose(a.sigma2, b.sigma2, rel_tol=1e-10)
        spread = abs(a.varsigma2_rel - b.varsigma2_rel) / max(
            a.varsigma2_rel, b.varsigma2_rel
        )
        ok = ok and same_sigma and spread >= 0.20
        notes.append(f"{k}: varsigma spread {100 * spread:.0f}%")
    verdict(6, ok, "; ".join(notes))


def test_criterion_07_growth_rate_bound():
    # the exact growth rate of the relative second moment sits below
    # log(1 + D/(N-1)) for constant, lag-1 and lag-2 twists at N = 2 and 3;
    # the eigenfunction twist has D = 0 and bound 0 exactly; and D shrinks
    # strictly as the lag grows from 0 to 6
    params = acceptance_params()
    _, w0 = simulate(params, 400, seed=11)
    w = w0.shift(100)
    nb = 60
    tri = eigen_triple(params, w, t_lo=-10, t_hi=nb + 30)
    ok = True
    notes = []
    for ell in (0, 1, 2):
        twist = FiniteLagTwist(params, ell) if ell else ConstantTwist(params.fk())
        for n_particles in (2, 3):
            fit, _ = upsilon_slope(params, twist, n_particles, w, nb)
            bnd = upsilon_bound(tri, twist, w, range(1, nb + 1), n_particles)
            ok = ok and fit.slope <= bnd.bound
            notes.append(
                f"ell={ell},N={n_particles}: {fit.slope:.4f}<={bnd.bound:.4f}"
            )
    h_bound = upsilon_bound(tri, tri.as_twist(), w, range(1, nb + 1), 2)
    ok = ok and h_bound.d_sup == 0.0 and h_bound.bound == 0.0
    ds = [
        upsilon_bound(tri, FiniteLagTwist(params, ell), w, range(1, nb + 1), 2).d_sup
        for ell in range(7)
    ]
    decreasing = all(a > b for a, b in zip(ds, ds[1:]))
    ok = ok and decreasing
    notes.append("D strictly decreasing over lags 0..6: " + str(decreasing))
    verdict(7, ok, "; ".join(notes))


def test_criterion_08_lag_cuts_variance_growth():
    # linear-Gaussian model, 100 steps, 100 particles, 1e4 replicates per
    # lag: the fitted per-step growth (1/n) log V_hat of the relative second
    # moment decreases strictly in the lag over {0, 1, 2, 5}, each drop
    # bigger than 2 pooled s.e., inside a 10 minute budget
    t0 = time.perf_counter()
    params = LinearGaussianParams(a=0.9, q=1.0, r_obs=1.0)
    _, w0 = simulate(params, 140, seed=12)
    w = w0.shift(20)
    n, n_particles, reps = 100, 100, 10_000
    model = params.fk()
    exact = kalman_run(params, w, n).log_z[n]
    rates = {}
    ses = {}
    for ell in (0, 1, 2, 5):
        twist = (
            ConstantTwist(model) if ell == 0 else LinearGaussianLagTwist(params, ell)
        )
        # the replicate engine: row r of each block is twisted_run(..., replicate=r)
        blocks = replicate_blocks(
            "twisted", model, twist, w, n, n_particles, seed=12, replicates=range(reps),
            test_functions={},
        )
        lz = np.concatenate([block.log_z[:, n] for block in blocks])
        r2 = np.exp(2.0 * (lz - exact))
        v_hat = float(r2.mean())
        rates[ell] = math.log(v_hat) / n
        ses[ell] = float(r2.std(ddof=1) / (v_hat * math.sqrt(reps))) / n
    lags = [0, 1, 2, 5]
    ok = True
    notes = []
    for a, b in zip(lags, lags[1:]):
        gap = rates[a] - rates[b]
        pooled = math.hypot(ses[a], ses[b])
        ok = ok and gap > 2 * pooled
        notes.append(f"{a}->{b}: gap {gap:.5f} = {gap / pooled:.1f} se")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    notes.append(f"{elapsed:.0f}s (budget 600s)")
    verdict(8, ok, "; ".join(notes))


def test_criterion_09_interaction_beats_independence():
    # over 60 steps the independent-chain estimator's relative second moment
    # grows strictly faster than the interacting filter's at 50 particles:
    # the gap between fitted growth rates exceeds 2 pooled s.e.
    params = acceptance_params()
    model = params.fk()
    _, w0 = simulate(params, 120, seed=11)
    w = w0.shift(20)
    n, n_lo = 60, 10
    exact = finite_forward(params, w, n).log_z
    sis = sis_run(model, w, n, 4000, seed=11, test_functions={})
    ns = np.arange(n_lo, n + 1)
    sis_logv = np.array(
        [
            logmeanexp(2.0 * (sis.aux["chain_log_weights"][t] - exact[t]))
            for t in ns
        ]
    )
    fit_sis = fit_slope(ns, sis_logv)
    reps, n_particles = 600, 50
    lz = np.empty((reps, n + 1))
    for r in range(reps):
        lz[r] = bootstrap_run(
            model, w, n, n_particles, seed=11, replicate=r, test_functions={}
        ).log_z
    boot_logv = np.array(
        [logmeanexp(2.0 * (lz[:, t] - exact[t])) for t in ns]
    )
    fit_boot = fit_slope(ns, boot_logv)
    gap = fit_sis.slope - fit_boot.slope
    pooled = math.hypot(fit_sis.stderr, fit_boot.stderr)
    verdict(
        9,
        gap > 2 * pooled,
        f"independent-chain rate {fit_sis.slope:.4f} vs interacting rate "
        f"{fit_boot.slope:.5f}; gap = {gap / pooled:.0f} pooled se (need > 2)",
    )


def test_criterion_10_lookahead_weighting():
    # (a) the lookahead-weighted resampling filter with the one-step-ahead
    # weight stays unbiased for the marginal likelihood (within 4 s.e.);
    # (b) with the eigenfunction as weight its effective potential is flat:
    # log-oscillation below 1e-8; (c) its 1/r-weighted estimate matches the
    # exact prediction-filter mean within 4 s.e. at N = 1e4
    params = acceptance_params()
    model = params.fk()
    _, w0 = simulate(params, 160, seed=11)
    w = w0.shift(60)
    n = 10
    exact = finite_forward(params, w, n)
    weight = FiniteLagTwist(params, 1)
    reps = 4000
    ratios = np.empty(reps)
    for r in range(reps):
        trace = apf_run(
            model, weight, w, n, 32, seed=11, replicate=r, test_functions={}
        )
        ratios[r] = math.exp(trace.log_z[n] - exact.log_z[n])
    se = ratios.std(ddof=1) / math.sqrt(reps)
    ok_a = abs(ratios.mean() - 1.0) < 4 * se

    tri = eigen_triple(params, w, t_lo=-10, t_hi=50, tol=1e-10)
    tw = tri.as_twist()
    grid = np.arange(3)
    osc = 0.0
    for t in range(n + 1):
        gap = tw.log_q_psi(w, t, grid) - tw.log_psi(w, t, grid)
        osc = max(osc, float(gap.max() - gap.min()))
    ok_b = osc < 1e-8

    grid_f = grid.astype(float)
    target = float(exact.pred[n] @ grid_f)
    reps_c = 200
    vals = np.empty(reps_c)
    for r in range(reps_c):
        trace = apf_run(model, weight, w, n, 10_000, seed=12, replicate=r)
        vals[r] = trace.aux["filter_est_id"][n]
    se_c = vals.std(ddof=1) / math.sqrt(reps_c)
    ok_c = abs(vals.mean() - target) < 4 * se_c
    verdict(
        10,
        ok_a and ok_b and ok_c,
        f"likelihood ratio {ratios.mean():.4f}+-{se:.4f}; "
        f"ideal-weight oscillation {osc:.1e} (tol 1e-8); "
        f"filter mean {vals.mean():.4f} vs exact {target:.4f} (+-{se_c:.4f})",
    )


def test_criterion_11_reproducibility(tmp_path):
    # the same manifest replays to byte-identical artifacts, and the worker
    # count does not change any output byte
    cfg = {
        "model": {
            "kind": "finite",
            "mu0": [0.5, 0.3, 0.2],
            "trans": [[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]],
            "emit": [[0.40, 0.32, 0.28], [0.29, 0.42, 0.29], [0.30, 0.28, 0.42]],
        },
        "filter": "twisted",
        "twist": {"kind": "lag", "ell": 1},
        "steps": 12,
        "particles": 32,
        "replicates": 24,
        "seed": 7,
    }
    first = run_variance_growth(cfg, str(tmp_path / "a"))
    replay = run_from_manifest(first.manifest_path, str(tmp_path / "b"))
    bytes_a = open(first.csv_path, "rb").read()
    ok = bytes_a == open(replay.csv_path, "rb").read()
    pooled = run_variance_growth({**cfg, "workers": 3}, str(tmp_path / "c"))
    ok = ok and bytes_a == open(pooled.csv_path, "rb").read()
    verdict(11, ok, "manifest replay and 3-worker run byte-identical to original")
