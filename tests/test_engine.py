"""The replicate-batched step loop against one-replicate-at-a-time references.

The reference runs below are the scalar particle loops the block engine
replaced, kept verbatim in spirit: one replicate, 1-d clouds, every draw
through the per-generator samplers. Every comparison is bit for bit.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from twistpf import filters, resampling
from twistpf.filters import (
    apf_run,
    bootstrap_run,
    default_test_functions,
    replicate_blocks,
    twisted_run,
)
from twistpf.fkcore import logsumexp
from twistpf.harness import run_clt_check, run_unbiasedness, run_variance_growth
from twistpf.models import FiniteHMMParams, LinearGaussianParams, SVParams, simulate
from twistpf.resampling import multinomial_resample, resample_rows
from twistpf.rng import INIT, MUTATE, RESAMPLE, TWIST, RngStream
from twistpf.twists import ConstantTwist, EigenTwist, eigen_triple, make_twist


# ---------------------------------------------------------------------------
# scalar references


def _lme(v):
    m = v.max()
    if not np.isfinite(m):
        raise ValueError("all log values are -inf")
    return float(m) + math.log(float(np.add.reduce(np.exp(v - m))) / v.size)


def _record(eta, tf, p, pos):
    for name, fn in tf.items():
        eta[name][p] = float(np.mean(fn(pos)))


def scalar_bootstrap(model, window, n_steps, n, seed, replicate=0, initial=None):
    tf = default_test_functions(model)
    stream = RngStream(seed, replicate).session()
    pos = model.sample_initial(n, stream.generator(0, INIT)) if initial is None else np.array(initial)
    pos0 = pos.copy()
    log_z = np.zeros(n_steps + 1)
    eta = {name: np.zeros(n_steps + 1) for name in tf}
    _record(eta, tf, 0, pos)
    for p in range(1, n_steps + 1):
        lg = model.log_g(window, p - 1, pos)
        log_z[p] = log_z[p - 1] + _lme(lg)
        anc = multinomial_resample(lg, n, stream.generator(p, RESAMPLE))
        pos = model.sample_mutation(window, p - 1, pos[anc], stream.generator(p, MUTATE))
        _record(eta, tf, p, pos)
    aux = {"initial_positions": pos0, "final_positions": pos}
    return log_z, np.zeros(n_steps + 1), eta, aux


def scalar_twisted(model, twist, window, n_steps, n, seed, replicate=0, initial=None):
    tf = default_test_functions(model)
    stream = RngStream(seed, replicate).session()
    pos = model.sample_initial(n, stream.generator(0, INIT)) if initial is None else np.array(initial)
    pos0 = pos.copy()
    log_z, log_z_std, log_phi = np.zeros((3, n_steps + 1))
    eta = {name: np.zeros(n_steps + 1) for name in tf}
    _record(eta, tf, 0, pos)
    for p in range(1, n_steps + 1):
        t = p - 1
        lg = model.log_g(window, t, pos)
        lq = twist.log_q_psi(window, t, pos)
        std_inc = _lme(lg)
        anc = multinomial_resample(lg, n, stream.generator(p, RESAMPLE))
        new = model.sample_mutation(window, t, pos[anc], stream.generator(p, MUTATE))
        gen_tw = stream.generator(p, TWIST)
        slot = int(gen_tw.integers(n))
        a_idx = int(multinomial_resample(lq, 1, gen_tw)[0])
        new[slot] = twist.sample_twisted_mutation(window, t, pos[a_idx : a_idx + 1], gen_tw)[0]
        inc = _lme(lq) - _lme(twist.log_psi(window, p, new))
        log_z[p] = log_z[p - 1] + inc
        log_z_std[p] = log_z_std[p - 1] + std_inc
        log_phi[p] = inc - std_inc
        pos = new
        _record(eta, tf, p, pos)
    aux = {"log_z_standard": log_z_std, "initial_positions": pos0, "final_positions": pos}
    return log_z, log_phi, eta, aux


def scalar_apf(model, weight, window, n_steps, n, seed, replicate=0):
    tf = default_test_functions(model)
    stream = RngStream(seed, replicate).session()
    pos = weight.sample_twisted_initial(window, n, stream.generator(0, INIT))
    log_mu0_w = weight.log_mu0_psi(window)
    log_z = np.zeros(n_steps + 1)
    eta = {name: np.zeros(n_steps + 1) for name in tf}
    est = {name: np.zeros(n_steps + 1) for name in tf}
    _record(eta, tf, 0, pos)

    def weighted_estimates(p, lr_vals):
        w = np.exp(-(lr_vals - lr_vals.min()))
        for name, fn in tf.items():
            est[name][p] = float(np.sum(fn(pos) * w) / w.sum())

    weighted_estimates(0, weight.log_psi(window, 0, pos))
    cum_g = 0.0
    for p in range(1, n_steps + 1):
        t = p - 1
        lg_eff = weight.log_q_psi(window, t, pos) - weight.log_psi(window, t, pos)
        cum_g += _lme(lg_eff)
        anc = multinomial_resample(lg_eff, n, stream.generator(p, RESAMPLE))
        pos = weight.sample_twisted_mutation(window, t, pos[anc], stream.generator(p, MUTATE))
        lr_new = weight.log_psi(window, p, pos)
        log_z[p] = log_mu0_w + _lme(-lr_new) + cum_g
        _record(eta, tf, p, pos)
        weighted_estimates(p, lr_new)
    aux = {"log_mu0_weight": log_mu0_w, "final_positions": pos}
    aux.update({f"filter_est_{name}": est[name] for name in tf})
    return log_z, np.zeros(n_steps + 1), eta, aux


# ---------------------------------------------------------------------------


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return set(a) == set(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == np.asarray(b).dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _row(block, i):
    pick = lambda v: v[i] if isinstance(v, np.ndarray) else v  # noqa: E731
    return (block.log_z[i], block.log_phi[i], {k: v[i] for k, v in block.eta.items()},
            {k: pick(v) for k, v in block.aux.items()})


def _cases():
    fin = FiniteHMMParams(
        mu0=np.array([0.5, 0.3, 0.2]),
        trans=np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]),
        emit=np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]]),
    )
    out = []
    for name, params, spec in (
        ("finite", fin, {"kind": "lag", "ell": 2}),
        ("lg", LinearGaussianParams(a=0.9, q=1.0, r_obs=1.0), {"kind": "lag", "ell": 3}),
        ("sv", SVParams(), {"kind": "sv_approx", "ell": 2}),
    ):
        _, w0 = simulate(params, 90, seed=3)
        out.append((name, params, w0.shift(20), make_twist(params, spec)))
    _, w0 = simulate(fin, 140, seed=4)
    w = w0.shift(60)
    out.append(("finite-eigen", fin, w, eigen_triple(fin, w, tol=1e-8, t_lo=0, t_hi=30).as_twist()))
    return out


CASES = _cases()


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_engine_matches_scalar_runs(case):
    _, params, w, tw = case
    model = params.fk()
    n_steps, seed = 25, 8
    for n in (1, 2, 9, 64):
        reps = [0, 5, 2, 7]
        refs = {
            "bootstrap": [scalar_bootstrap(model, w, n_steps, n, seed, r) for r in reps],
            "twisted": [scalar_twisted(model, tw, w, n_steps, n, seed, r) for r in reps],
            "apf": [scalar_apf(model, tw, w, n_steps, n, seed, r) for r in reps],
        }
        singles = {
            "bootstrap": lambda r: bootstrap_run(model, w, n_steps, n, seed, r),
            "twisted": lambda r: twisted_run(model, tw, w, n_steps, n, seed, r),
            "apf": lambda r: apf_run(model, tw, w, n_steps, n, seed, r),
        }
        for kind, ref in refs.items():
            (block,) = replicate_blocks(kind, model, tw, w, n_steps, n, seed, reps)
            for i, r in enumerate(reps):
                tr = singles[kind](r)
                assert _same((tr.log_z, tr.log_phi, tr.eta, tr.aux), ref[i]), (kind, n, r)
                assert _same(_row(block, i), ref[i]), (kind, n, r)
    # the twisted constant twist and an initial override take the same path
    const = ConstantTwist(model)
    start = np.asarray(scalar_bootstrap(model, w, 0, 6, seed)[3]["initial_positions"])
    for initial in (None, start):
        tr = twisted_run(model, const, w, n_steps, 6, seed, 1, initial=initial)
        ref = scalar_twisted(model, const, w, n_steps, 6, seed, 1, initial=initial)
        assert _same((tr.log_z, tr.log_phi, tr.eta, tr.aux), ref)
        tr = bootstrap_run(model, w, n_steps, 6, seed, 1, initial=initial)
        ref = scalar_bootstrap(model, w, n_steps, 6, seed, 1, initial=initial)
        assert _same((tr.log_z, tr.log_phi, tr.eta, tr.aux), ref)


def test_block_size_never_changes_a_row(monkeypatch):
    _, params, w, tw = CASES[1]
    model = params.fk()
    whole = next(replicate_blocks("twisted", model, tw, w, 20, 16, 3, range(11)))
    for budget in (16, 3 * 16, 5 * 16 + 7):
        monkeypatch.setattr(filters, "BLOCK_ELEMENTS", budget)
        blocks = list(replicate_blocks("twisted", model, tw, w, 20, 16, 3, range(11)))
        assert len(blocks) == math.ceil(11 / max(1, budget // 16))
        assert np.array_equal(np.concatenate([b.log_z for b in blocks]), whole.log_z)
        for name in whole.eta:
            assert np.array_equal(np.concatenate([b.eta[name] for b in blocks]), whole.eta[name])


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_block_boundaries_and_worker_counts_change_no_csv_byte(tmp_path, monkeypatch):
    finite = {
        "kind": "finite", "mu0": [0.5, 0.3, 0.2],
        "trans": [[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]],
        "emit": [[0.70, 0.20, 0.10], [0.15, 0.70, 0.15], [0.10, 0.20, 0.70]],
    }
    configs = [
        (run_variance_growth, {
            "model": {"kind": "lg", "a": 0.9, "q": 1.0, "r_obs": 1.0}, "filter": "twisted",
            "twist": {"kind": "lag", "ell": 0}, "ell_grid": [0, 2], "steps": 12,
            "particles": 20, "replicates": 13, "seed": 4, "name": "vg",
            "window": {"length": 16, "burn_in": 2}}),
        (run_unbiasedness, {
            "model": {"kind": "sv"}, "filter": "apf", "twist": {"kind": "sv_approx", "ell": 1},
            "steps": 10, "particles": 20, "replicates": 13, "seed": 4, "name": "ub"}),
        (run_clt_check, {
            "model": finite, "filter": "twisted", "twist": {"kind": "lag", "ell": 1},
            "steps": 4, "N_grid": [20, 50], "replicates": 13, "seed": 4, "name": "clt"}),
    ]
    digests = {}
    for budget in (filters.BLOCK_ELEMENTS, 20, 3 * 20 + 1):
        monkeypatch.setattr(filters, "BLOCK_ELEMENTS", budget)
        for workers in (1, 2, 3):
            out = tmp_path / f"b{budget}w{workers}"
            for run, cfg in configs:
                res = run(dict(cfg, workers=workers), str(out))
                digests.setdefault(cfg["name"], set()).add(_digest(res.csv_path))
    assert all(len(d) == 1 for d in digests.values()), digests


def test_nan_weight_in_one_replicate_of_a_block_raises():
    _, params, w, tw = CASES[1]
    model = params.fk()
    log_g = model.log_g

    def poisoned(window, t, x):
        lg = np.array(log_g(window, t, x), dtype=float)
        if t == 3:
            lg[..., -1, 5] = np.nan
        return lg

    model.log_g = poisoned
    for kind in ("bootstrap", "twisted"):
        with pytest.raises(ValueError):
            list(replicate_blocks(kind, model, tw, w, 10, 8, 1, range(4)))
    with pytest.raises(ValueError, match="NaN"):
        resample_rows(np.array([[0.0, 1.0], [np.nan, 0.0]]), np.full((2, 3), 0.5))
    with pytest.raises(ValueError, match="finite"):
        resample_rows(np.array([[0.0, 1.0], [-np.inf, -np.inf]]), np.full((2, 1), 0.5))


def test_resample_rows_equals_multinomial_resample_per_row():
    rng = np.random.default_rng(5)
    lw = rng.normal(scale=30.0, size=(6, 40))
    lw[1, ::3] = -np.inf
    lw[2] = 0.0
    lw[3, :-1] = -np.inf
    for count in (1, 40, 97):
        gens = [RngStream(9, r).generator(1, RESAMPLE) for r in range(6)]
        want = np.array([multinomial_resample(lw[r], count, gens[r]) for r in range(6)])
        gens = [RngStream(9, r).generator(1, RESAMPLE) for r in range(6)]
        got = resample_rows(lw, np.array([g.random(count) for g in gens]))
        assert got.dtype == want.dtype and np.array_equal(got, want), count


def test_logsumexp_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(2)
    with np.errstate(divide="ignore"):
        rows = [
            rng.normal(size=(50, 7)),
            np.round(rng.normal(size=(50, 7)), 1),                  # ties, also of the max
            np.log(np.full((3, 5), 1e-300)) + rng.normal(size=(3, 5)) * 1e-3,
            np.log(rng.uniform(1e-300, 1e-290, size=(20, 4))),      # near-zero masses
            np.array([[0.0, -np.inf, -np.inf], [-np.inf] * 3, [5.0, 5.0, 5.0]]),
            np.log(np.where(rng.uniform(size=(20, 3)) < 0.3, 0.0, rng.uniform(size=(20, 3)))),
        ]
    for a in rows:
        assert np.array_equal(logsumexp(a, axis=1), scipy_logsumexp(a, axis=1))
        for row in a:
            assert np.array_equal(logsumexp(row), scipy_logsumexp(row))


# ---------------------------------------------------------------------------
# the column-wise categorical transform against the gather-and-reduce formula


def _gather_and_reduce(logits, u):
    """Reference: the CDF row of each particle's unnormalized log masses,
    compared with its uniform and reduced over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    cdf = np.cumsum(np.exp(z), axis=-1)
    cdf /= cdf[..., -1:]
    cdf[..., -1] = 1.0
    return np.add.reduce(cdf < u[..., None], axis=-1).astype(np.int64)


def _row_logits(tw, window, t, x):
    """Each particle's log masses under the twisted kernel, gathered per particle."""
    if isinstance(tw, EigenTwist):
        log_h = tw.triple.log_h[tw.triple.row(tw._abs_index(window, t) + 1)]
    else:
        log_h = tw._table(window, t + 1)
    return tw.fk.log_trans[x] + log_h


FINITE_CASES = [c for c in CASES if c[0].startswith("finite")]


@pytest.mark.parametrize("case", FINITE_CASES, ids=[c[0] for c in FINITE_CASES])
def test_categorical_transform_matches_gather_and_reduce(case, monkeypatch):
    _, params, w, tw = case
    model = params.fk()
    rng = np.random.default_rng(6)
    x = rng.integers(0, params.k, (7, 300))
    u = rng.random(x.shape)
    # uniforms equal to a CDF entry: the strict comparison decides the state
    u[:, ::3] = model.trans_cdf[x[:, ::3], rng.integers(0, params.k, (7, 100))]
    u[u >= 1.0] = 0.5
    want = np.add.reduce(model.trans_cdf[x] < u[..., None], axis=-1).astype(np.int64)
    assert np.array_equal(model.mutate(w, 0, x, u), want)
    for t in range(6):
        got = tw.twisted_mutate(w, t, x, u)
        assert np.array_equal(got, _gather_and_reduce(_row_logits(tw, w, t, x), u)), t
    # auxiliary runs move the whole cloud by the twisted kernel: the same
    # runs, bit for bit, with the reference transform patched in
    runs = [apf_run(model, tw, w, 20, n, 2, r) for n in (1, 9, 64) for r in (0, 3)]
    monkeypatch.setattr(tw, "twisted_mutate", lambda window, t, x, noise: _gather_and_reduce(
        _row_logits(tw, window, t, np.asarray(x, dtype=np.int64)), noise))
    refs = [apf_run(model, tw, w, 20, n, 2, r) for n in (1, 9, 64) for r in (0, 3)]
    for tr, ref in zip(runs, refs):
        assert _same((tr.log_z, tr.eta, tr.aux), (ref.log_z, ref.eta, ref.aux))


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_guide_table_changes_no_run(case, monkeypatch):
    # the same blocks with every resampling through the guide table and with
    # every row searched on its own by searchsorted
    _, params, w, tw = case
    model = params.fk()

    def per_row_search(cdf, uniforms):
        return np.array([c.searchsorted(u, side="right") for c, u in zip(cdf, uniforms)])

    traces = []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(resampling, "_guide_table_search", per_row_search)
        traces.append([next(replicate_blocks(kind, model, tw, w, 15, 40, 3, range(6)))
                       for kind in ("bootstrap", "twisted", "apf")])
    for a, b in zip(*traces):
        assert _same((a.log_z, a.log_phi, a.eta, a.aux), (b.log_z, b.log_phi, b.eta, b.aux))
