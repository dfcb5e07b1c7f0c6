import math

import numpy as np
import pytest

from twistpf.filters import replicate_blocks, run_filter
from twistpf.harness import run_single
from twistpf.models import FiniteHMMParams, finite_forward, simulate
from twistpf.twists import (
    ConstantTwist,
    FiniteLagTwist,
    eigen_triple,
    make_twist,
)

from product_space import product_kernels


def finite_params():
    return FiniteHMMParams(
        mu0=np.array([0.5, 0.3, 0.2]),
        trans=np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]),
        emit=np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]]),
    )


class OffsetLagTwist(FiniteLagTwist):
    """A lag twist with log psi shifted by a constant."""

    def __init__(self, params, ell, offset):
        super().__init__(params, ell)
        self.offset = offset

    def log_psi(self, window, t, x, out=None):
        return np.add(super().log_psi(window, t, x), self.offset, out=out)

    def log_q_psi(self, window, t, x, out=None):
        return np.add(super().log_q_psi(window, t, x), self.offset, out=out)

    def log_mu0_psi(self, window):
        return super().log_mu0_psi(window) + self.offset


def flat_emission_params():
    # every state emits with the same law, so the potential is constant and
    # the particle estimate of the marginal likelihood has zero variance
    return FiniteHMMParams(
        mu0=np.array([0.4, 0.6]),
        trans=np.array([[0.7, 0.3], [0.2, 0.8]]),
        emit=np.array([[0.3, 0.7], [0.3, 0.7]]),
    )


def test_runs_are_deterministic_in_seed_and_replicate():
    params = finite_params()
    _, w = simulate(params, 15, seed=0)
    tw = FiniteLagTwist(params, 1)
    for name, twist in (("bootstrap", None), ("twisted", tw), ("apf", tw), ("sis", None)):
        a, b, c = (run_filter(name, params, twist, w, 10, 16, seed=5, replicate=rep)
                   for rep in (0, 0, 1))
        assert np.array_equal(a.log_z, b.log_z), name
        assert np.array_equal(
            a.aux["final_positions"], b.aux["final_positions"]
        ), name
        assert not np.array_equal(a.log_z, c.log_z), name


def test_constant_potential_gives_exact_likelihood():
    params = flat_emission_params()
    for seed in range(20):
        _, w = simulate(params, 12, seed=seed)
        exact = finite_forward(params, w, 12).log_z
        trace = run_filter("bootstrap", params, None, w, 12, 8, seed=seed)
        assert np.array_equal(trace.log_z, exact), seed


def test_bootstrap_unbiased_for_marginal_likelihood():
    params = finite_params()
    _, w = simulate(params, 12, seed=1)
    exact = finite_forward(params, w, 12).log_z[12]
    reps = 4000
    # the replicate engine: row r of each block is run_filter("bootstrap", ..., replicate=r)
    blocks = replicate_blocks("bootstrap", params, None, w, 12, 32, seed=1,
                              replicates=range(reps), test_functions={})
    ratios = np.array([math.exp(v - exact) for b in blocks for v in b.log_z[:, 12].tolist()])
    se = ratios.std(ddof=1) / math.sqrt(reps)
    assert abs(ratios.mean() - 1.0) < 4 * se


def test_twisted_constant_collapses_to_standard():
    params = finite_params()
    _, w = simulate(params, 12, seed=2)
    tw = ConstantTwist(params)
    trace = run_filter("twisted", params, tw, w, 12, 16, seed=3)
    assert np.array_equal(trace.log_phi, np.zeros(13))
    assert np.array_equal(trace.log_z, trace.aux["log_z_standard"])


def test_twisted_log_z_factorizes():
    params = finite_params()
    _, w = simulate(params, 16, seed=3)
    for spec in ({"kind": "lag", "ell": 1}, {"kind": "lag", "ell": 3}):
        tw = make_twist(params, spec)
        trace = run_filter("twisted", params, tw, w, 12, 16, seed=4)
        rebuilt = trace.aux["log_z_standard"] + np.cumsum(trace.log_phi)
        assert np.allclose(trace.log_z, rebuilt, atol=1e-12)


def test_twisted_unbiased_for_marginal_likelihood():
    params = finite_params()
    _, w = simulate(params, 13, seed=4)
    exact = finite_forward(params, w, 10).log_z[10]
    tw = FiniteLagTwist(params, 2)
    reps = 3000
    # the replicate engine: row r of each block is run_filter("twisted", ..., replicate=r)
    blocks = replicate_blocks("twisted", params, tw, w, 10, 8, seed=2,
                              replicates=range(reps), test_functions={})
    ratios = np.array([math.exp(v - exact) for b in blocks for v in b.log_z[:, 10].tolist()])
    se = ratios.std(ddof=1) / math.sqrt(reps)
    assert abs(ratios.mean() - 1.0) < 4 * se


def test_twist_constant_offset_leaves_estimates_unchanged():
    params = finite_params()
    _, w = simulate(params, 15, seed=5)
    t1 = run_filter("twisted", params, FiniteLagTwist(params, 2), w, 12, 8, seed=6)
    t2 = run_filter("twisted", params, OffsetLagTwist(params, 2, 4.2), w, 12, 8, seed=6)
    assert np.allclose(t1.log_z, t2.log_z, atol=1e-9)
    assert np.allclose(t1.log_phi, t2.log_phi, atol=1e-9)


def test_one_step_twisted_kernel_matches_enumeration():
    # empirical law of the particle pair after one twisted step against the
    # exact whole-system kernel row, total variation at 30k replicates
    params = FiniteHMMParams(
        mu0=np.array([0.6, 0.4]),
        trans=np.array([[0.8, 0.2], [0.3, 0.7]]),
        emit=np.array([[0.9, 0.1], [0.2, 0.8]]),
    )
    _, w = simulate(params, 6, seed=6)
    tw = FiniteLagTwist(params, 1)
    kern = product_kernels(params, tw, 2, w, 0)
    start = np.array([0, 1], dtype=np.int64)
    row = kern.m_tilde[np.flatnonzero((kern.states == start).all(axis=1))[0]]
    reps = 30_000
    counts = np.zeros(4)
    # the replicate engine: row r of each block is run_filter("twisted", ..., replicate=r)
    for block in replicate_blocks("twisted", params, tw, w, 1, 2, seed=7, replicates=range(reps),
                                  test_functions={}, initial=start):
        fin = block.aux["final_positions"]
        counts += np.bincount(fin[:, 0] * 2 + fin[:, 1], minlength=4)
    tv = 0.5 * np.abs(counts / reps - row).sum()
    assert tv < 0.02


def test_sis_weights_are_potential_products():
    params = flat_emission_params()
    _, w = simulate(params, 10, seed=7)
    exact = finite_forward(params, w, 10).log_z
    trace = run_filter("sis", params, None, w, 10, 64, seed=8)
    # constant potential: every chain carries the exact running product
    for p in range(11):
        assert np.allclose(trace.aux["chain_log_weights"][p], exact[p], atol=1e-12)
        assert math.isclose(trace.log_z[p], exact[p], rel_tol=1e-12)


def test_sis_unbiased_with_and_without_proposal():
    params = finite_params()
    _, w = simulate(params, 13, seed=8)
    exact = finite_forward(params, w, 10).log_z[10]
    for proposal in (None, FiniteLagTwist(params, 2)):
        trace = run_filter("sis", params, proposal, w, 10, 40_000, seed=9, test_functions={})
        ratios = np.exp(trace.aux["chain_log_weights"][10] - exact)
        se = ratios.std(ddof=1) / math.sqrt(ratios.size)
        assert abs(ratios.mean() - 1.0) < 4 * se


def test_apf_constant_weight_equals_bootstrap():
    params = finite_params()
    _, w = simulate(params, 12, seed=9)
    boot = run_filter("bootstrap", params, None, w, 12, 32, seed=10)
    apf = run_filter("apf", params, ConstantTwist(params), w, 12, 32, seed=10)
    assert np.array_equal(boot.log_z, apf.log_z)
    assert np.array_equal(boot.aux["final_positions"], apf.aux["final_positions"])


def test_apf_fully_adapted_unbiased():
    params = finite_params()
    _, w = simulate(params, 12, seed=10)
    exact = finite_forward(params, w, 10).log_z[10]
    weight = FiniteLagTwist(params, 1)
    reps = 3000
    # the replicate engine: row r of each block is run_filter("apf", ..., replicate=r)
    blocks = replicate_blocks("apf", params, weight, w, 10, 16, seed=3,
                              replicates=range(reps), test_functions={})
    ratios = np.array([math.exp(v - exact) for b in blocks for v in b.log_z[:, 10].tolist()])
    se = ratios.std(ddof=1) / math.sqrt(reps)
    assert abs(ratios.mean() - 1.0) < 4 * se


def test_apf_ideal_weight_flattens_effective_potential():
    # with the eigenfunction as lookahead weight the effective potential
    # Q(h)/h collapses to the eigenvalue, constant over states
    params = finite_params()
    _, w0 = simulate(params, 200, seed=11)
    w = w0.shift(80)
    tri = eigen_triple(params, w, t_lo=-10, t_hi=40, tol=1e-10)
    tw = tri.as_twist()
    grid = np.arange(3)
    for t in range(20):
        gap = tw.log_q_psi(w, t, grid) - tw.log_psi(w, t, grid)
        assert float(gap.max() - gap.min()) < 1e-8


def test_apf_weighted_estimates_track_prediction_filter():
    params = finite_params()
    _, w = simulate(params, 10, seed=12)
    fwd = finite_forward(params, w, 8)
    weight = FiniteLagTwist(params, 1)
    grid = np.arange(3, dtype=float)
    exact = float(fwd.pred[8] @ grid)
    reps = 400
    vals = np.empty(reps)
    for r in range(reps):
        trace = run_filter("apf", params, weight, w, 8, 256, seed=4, replicate=r)
        vals[r] = trace.aux["filter_est_id"][8]
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - exact) < 4 * se


def test_eta_records_particle_means():
    params = finite_params()
    _, w = simulate(params, 6, seed=13)
    tf = {"id": lambda v: np.asarray(v, dtype=float)}
    trace = run_filter("bootstrap", params, None, w, 6, 64, seed=11, test_functions=tf)
    assert abs(trace.eta["id"][6] - trace.aux["final_positions"].mean()) < 1e-12


def test_gamma_combines_eta_and_normalizer():
    params = finite_params()
    _, w = simulate(params, 6, seed=14)
    trace = run_filter("bootstrap", params, None, w, 6, 64, seed=12)
    gam = trace.gamma("id")
    want = trace.eta["id"] * np.exp(trace.log_z)
    assert np.allclose(gam, want, atol=1e-12)


def test_initial_override_is_used_verbatim():
    params = finite_params()
    _, w = simulate(params, 4, seed=15)
    start = np.array([2, 2, 2, 2], dtype=np.int64)
    trace = run_filter("bootstrap", params, None, w, 0, 4, seed=13, initial=start)
    assert np.array_equal(trace.aux["initial_positions"], start)
    assert np.array_equal(trace.aux["final_positions"], start)


def test_window_too_short_raises_lookahead_error():
    params = finite_params()
    _, w = simulate(params, 5, seed=16)
    tw = FiniteLagTwist(params, 3)
    with pytest.raises(IndexError):
        run_filter("twisted", params, tw, w, 5, 8, seed=14)
    with pytest.raises(IndexError):
        run_filter("bootstrap", params, None, w, 6, 8, seed=14)


def test_runtrace_csv_layout(tmp_path):
    # the run trace CSV is written by the harness's single-run experiment
    params = finite_params()
    cfg = {"model": {"kind": "finite", "mu0": params.mu0.tolist(),
                     "trans": params.trans.tolist(), "emit": params.emit.tolist()},
           "filter": "bootstrap", "steps": 5, "particles": 16, "seed": 15}
    res = run_single(cfg, str(tmp_path))
    trace = res.extra["trace"]
    lines = open(res.csv_path).read().strip().split("\n")
    names = sorted(trace.eta)
    assert lines[0] == ",".join(
        ["n", "log_Z", "log_phi"]
        + [f"eta_phi_{n}" for n in names]
        + [f"gamma_phi_{n}" for n in names]
    )
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    for p, line in enumerate(lines[1:]):
        row = line.split(",")
        want = [trace.log_z[p], trace.log_phi[p], *(trace.eta[n][p] for n in names),
                *(trace.gamma(n)[p] for n in names)]
        assert int(row[0]) == p
        assert [float(v) for v in row[1:]] == [float(v) for v in want]


def test_non_finite_weights_are_named():
    # a potential that is NaN, or -inf everywhere, stops a run with its fault
    # named, as resampling names it
    params = finite_params()
    _, w = simulate(params, 6, seed=1)

    class Poisoned(FiniteHMMParams):
        def __init__(self, value):
            super().__init__(params.mu0, params.trans, params.emit)
            self.value = value

        def log_g(self, window, t, x, out=None):
            out = np.empty(np.shape(x)) if out is None else out
            out.fill(self.value)
            return out

    with pytest.raises(ValueError, match="NaN"):
        run_filter("bootstrap", Poisoned(np.nan), None, w, 4, 8, seed=1)
    with pytest.raises(ValueError, match="at least one finite log weight"):
        run_filter("bootstrap", Poisoned(-np.inf), None, w, 4, 8, seed=1)
