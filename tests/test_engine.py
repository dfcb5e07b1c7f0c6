"""The replicate-batched step loop against one-replicate-at-a-time references.

The reference runs below are the scalar particle loops the block engine
replaced, kept verbatim in spirit: one replicate, 1-d clouds, every draw
through the per-generator samplers. Every comparison is bit for bit.
"""

import dataclasses
import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from twistpf import filters, resampling
from twistpf.filters import default_test_functions, replicate_blocks, run_filter
from twistpf.fkcore import logsumexp
from twistpf.harness import run_clt_check, run_unbiasedness, run_variance_growth
from twistpf.models import FiniteHMMParams, LinearGaussianParams, SVParams, simulate
from twistpf.rng import INIT, MUTATE, RESAMPLE, TWIST, RngStream
from twistpf.twists import ConstantTwist, eigen_triple, make_twist
from twistpf.windows import LookaheadError

from scalar_draws import (multinomial_resample, resample_rows, sample_mutation,
                          sample_twisted_mutation)


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
        pos = sample_mutation(model, window, p - 1, pos[anc], stream.generator(p, MUTATE))
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
        new = sample_mutation(model, window, t, pos[anc], stream.generator(p, MUTATE))
        gen_tw = stream.generator(p, TWIST)
        slot = int(gen_tw.integers(n))
        a_idx = int(multinomial_resample(lq, 1, gen_tw)[0])
        new[slot] = sample_twisted_mutation(twist, window, t, pos[a_idx : a_idx + 1], gen_tw)[0]
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
        pos = sample_twisted_mutation(weight, window, t, pos[anc], stream.generator(p, MUTATE))
        lr_new = weight.log_psi(window, p, pos)
        log_z[p] = log_mu0_w + _lme(-lr_new) + cum_g
        _record(eta, tf, p, pos)
        weighted_estimates(p, lr_new)
    aux = {"log_mu0_weight": log_mu0_w, "final_positions": pos}
    aux.update({f"filter_est_{name}": est[name] for name in tf})
    return log_z, np.zeros(n_steps + 1), eta, aux


def scalar_sis(model, window, n_steps, n_chains, seed, replicate=0, proposal=None):
    proposal = ConstantTwist(model) if proposal is None else proposal
    tf = default_test_functions(model)
    stream = RngStream(seed, replicate).session()
    pos = model.sample_initial(n_chains, stream.generator(0, INIT))
    logw = np.zeros(n_chains)
    chain_lw = np.zeros((n_steps + 1, n_chains))
    log_z = np.zeros(n_steps + 1)
    selfnorm = {name: np.zeros(n_steps + 1) for name in tf}
    for name, fn in tf.items():
        selfnorm[name][0] = float(np.mean(fn(pos)))
    for p in range(1, n_steps + 1):
        t = p - 1
        inc = proposal.log_q_psi(window, t, pos)
        pos = sample_twisted_mutation(proposal, window, t, pos, stream.generator(p, MUTATE))
        logw = logw + inc - proposal.log_psi(window, p, pos)
        chain_lw[p] = logw
        log_z[p] = _lme(logw)
        w = np.exp(logw - logw.max())
        for name, fn in tf.items():
            selfnorm[name][p] = float(np.sum(fn(pos) * w) / w.sum())
    aux = {"chain_log_weights": chain_lw, "final_positions": pos}
    aux.update({f"selfnorm_{name}": selfnorm[name] for name in tf})
    return log_z, np.zeros(n_steps + 1), {}, aux


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


def _rows_by_workers(kind, model, twist, window, n_steps, n, seed, reps, n_grid=1, **kw):
    """Per worker count 1, 2 and 3, every row of every block of a study,
    twist-major: item ``l * len(reps) + i`` is twist ``l`` on ``reps[i]``."""
    out = []
    for workers in (1, 2, 3):
        blocks = list(replicate_blocks(kind, model, twist, window, n_steps, n, seed, reps,
                                       workers=workers, **kw))
        sizes = [len(b.log_z) // n_grid for b in blocks]
        out.append([_row(b, lag * size + i) for lag in range(n_grid)
                    for b, size in zip(blocks, sizes) for i in range(size)])
    return out


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
    n_steps, seed = 25, 8
    for n in (1, 2, 9, 64):
        reps = [0, 5, 2, 7]
        refs = {
            "bootstrap": [scalar_bootstrap(params, w, n_steps, n, seed, r) for r in reps],
            "twisted": [scalar_twisted(params, tw, w, n_steps, n, seed, r) for r in reps],
            "apf": [scalar_apf(params, tw, w, n_steps, n, seed, r) for r in reps],
        }
        for kind, ref in refs.items():
            for i, r in enumerate(reps):
                tr = run_filter(kind, params, tw, w, n_steps, n, seed, r)
                assert _same((tr.log_z, tr.log_phi, tr.eta, tr.aux), ref[i]), (kind, n, r)
            for rows in _rows_by_workers(kind, params, tw, w, n_steps, n, seed, reps):
                assert len(rows) == len(ref) and all(map(_same, rows, ref)), (kind, n)
    # the twisted constant twist and an initial override take the same path
    const = ConstantTwist(params)
    start = np.asarray(scalar_bootstrap(params, w, 0, 6, seed)[3]["initial_positions"])
    for initial in (None, start):
        tr = run_filter("twisted", params, const, w, n_steps, 6, seed, 1, initial=initial)
        ref = scalar_twisted(params, const, w, n_steps, 6, seed, 1, initial=initial)
        assert _same((tr.log_z, tr.log_phi, tr.eta, tr.aux), ref)
        tr = run_filter("bootstrap", params, None, w, n_steps, 6, seed, 1, initial=initial)
        ref = scalar_bootstrap(params, w, n_steps, 6, seed, 1, initial=initial)
        assert _same((tr.log_z, tr.log_phi, tr.eta, tr.aux), ref)


# seven SIS cases: each model with no proposal and with its twist as the
# proposal (lag 2 and the eigenfunction on the finite model, lag 3 on the
# linear-Gaussian one, the Gaussian approximation on stochastic volatility);
# each runs 0, 1 and 20 steps on replicates 0 and 5, at two chain counts
SIS_CASES = [(name, params, w, tw) for name, params, w, twist in CASES
             for tw in ([twist] if name == "finite-eigen" else [None, twist])]


@pytest.mark.parametrize("case", SIS_CASES, ids=[
    f"{c[0]}-{type(c[3]).__name__ if c[3] else 'none'}" for c in SIS_CASES])
def test_sis_matches_scalar_runs(case):
    # SIS runs in the block engine: identity ancestors, no RESAMPLE draw,
    # the weights carried across steps
    _, params, w, tw = case
    reps = [0, 5]
    for n_steps in (0, 1, 20):
        for n in (1, 37):
            refs = [scalar_sis(params, w, n_steps, n, 4, r, proposal=tw) for r in reps]
            for i, r in enumerate(reps):
                tr = run_filter("sis", params, tw, w, n_steps, n, 4, r)
                assert _same((tr.log_z, tr.log_phi, tr.eta, tr.aux), refs[i]), (n_steps, n, r)
            for rows in _rows_by_workers("sis", params, tw, w, n_steps, n, 4, reps):
                assert len(rows) == len(refs) and all(map(_same, rows, refs)), (n_steps, n)


@pytest.mark.parametrize("case", SIS_CASES[:3], ids=[
    f"{c[0]}-{type(c[3]).__name__ if c[3] else 'none'}" for c in SIS_CASES[:3]])
def test_sis_on_step_passes_each_step_of_chain_weights_and_keeps_none(case):
    # a study that reduces the chains' weights as they come sees, at each
    # step, the rows the whole traces keep, in one reused buffer, and its
    # blocks carry no chain weights and the same estimates otherwise
    _, params, w, tw = case
    n_steps, n, reps = 9, 37, [0, 5, 2]
    (full,) = replicate_blocks("sis", params, tw, w, n_steps, n, 4, reps)
    seen, buffers = {}, set()

    def on_step(p, lv):
        assert lv.shape == (len(reps), n)
        buffers.add(lv.__array_interface__["data"][0])
        seen[p] = lv.copy()

    (block,) = replicate_blocks("sis", params, tw, w, n_steps, n, 4, reps, on_step=on_step)
    assert sorted(seen) == list(range(1, n_steps + 1)) and len(buffers) == 1
    for p, lv in seen.items():
        assert np.array_equal(lv, full.aux["chain_log_weights"][:, p]), p
    assert "chain_log_weights" not in block.aux
    assert set(block.aux) == set(full.aux) - {"chain_log_weights"}
    assert np.array_equal(block.log_z, full.log_z)
    for name, arr in block.aux.items():
        assert np.array_equal(arr, full.aux[name]), name


def test_on_step_needs_sis_in_one_process(monkeypatch):
    # a callback cannot run in a worker or see a resampled cloud's weights;
    # either misuse fails before any block runs or any pool starts
    _, params, w, tw = CASES[0]

    def no_run(*args, **kw):
        raise AssertionError("a block ran")

    monkeypatch.setattr(filters, "_run_block", no_run)
    monkeypatch.setattr(filters, "ProcessPoolExecutor", no_run)
    for kind in ("bootstrap", "twisted", "apf"):
        with pytest.raises(ValueError, match="on_step needs filter kind 'sis'"):
            next(replicate_blocks(kind, params, tw, w, 4, 8, 1, range(3), on_step=print))
    with pytest.raises(ValueError, match="workers=1"):
        next(replicate_blocks("sis", params, tw, w, 4, 8, 1, range(3), workers=2,
                              on_step=print))


def test_block_size_never_changes_a_row(monkeypatch):
    _, params, w, tw = CASES[1]
    whole = next(replicate_blocks("twisted", params, tw, w, 20, 16, 3, range(11)))
    for budget in (16, 3 * 16, 5 * 16 + 7):
        monkeypatch.setattr(filters, "BLOCK_ELEMENTS", budget)
        blocks = list(replicate_blocks("twisted", params, tw, w, 20, 16, 3, range(11)))
        assert len(blocks) == math.ceil(11 / max(1, budget // 16))
        assert np.array_equal(np.concatenate([b.log_z for b in blocks]), whole.log_z)
        for name in whole.eta:
            assert np.array_equal(np.concatenate([b.eta[name] for b in blocks]), whole.eta[name])


# ---------------------------------------------------------------------------
# studies that name the step they read


def _by_twist(blocks, n_grid):
    """Per twist, the rows of twist-major blocks in replicate order."""
    return [np.concatenate([np.split(v, n_grid)[lag] for v in blocks]) for lag in range(n_grid)]


@pytest.mark.parametrize("case", CASES[:2], ids=[c[0] for c in CASES[:2]])
def test_rows_at_a_named_step_equal_the_full_traces(case):
    # a study that names its step gets that step's column of the full traces,
    # bit for bit, and no clouds, from every worker count; of aux, SIS keeps
    # its chain log weights at the step
    _, params, w, tw = case
    n_steps, n, reps = 9, 12, [0, 5, 2, 7, 3]
    for kind in filters._KINDS:
        full = list(replicate_blocks(kind, params, tw, w, n_steps, n, 4, reps))
        want = {f: np.concatenate([getattr(b, f) for b in full]) for f in ("log_z", "log_phi")}
        want_eta = {k: np.concatenate([b.eta[k] for b in full]) for k in full[0].eta}
        for step in (0, 4, n_steps):
            for workers in (1, 2, 3) if step == 4 else (1,):
                blocks = list(replicate_blocks(kind, params, tw, w, n_steps, n, 4, reps,
                                               workers=workers, step=step))
                if kind == "sis":
                    chains = np.concatenate([b.aux.pop("chain_log_weights") for b in blocks])
                    want_chains = np.concatenate([b.aux["chain_log_weights"] for b in full])
                    assert np.array_equal(chains, want_chains[:, step]), (step, workers)
                assert all(b.aux == {} for b in blocks)
                for f, arr in want.items():
                    got = np.concatenate([getattr(b, f) for b in blocks])
                    assert got.shape == (len(reps),) and np.array_equal(got, arr[:, step])
                assert set(blocks[0].eta) == set(want_eta)
                for k, arr in want_eta.items():
                    got = np.concatenate([b.eta[k] for b in blocks])
                    assert np.array_equal(got, arr[:, step]), (kind, step, workers, k)
    with pytest.raises(ValueError, match="step"):
        next(replicate_blocks("twisted", params, tw, w, n_steps, n, 4, reps, step=n_steps + 1))


def test_step_rows_of_a_twist_grid_equal_the_full_traces():
    _, params, w, grid = GRID_CASES[1]
    reps, step = range(7), 6
    full = list(replicate_blocks("twisted", params, grid, w, 8, 9, 2, reps))
    want = _by_twist([b.log_z for b in full], len(grid))
    for workers in (1, 2, 3):
        blocks = list(replicate_blocks("twisted", params, grid, w, 8, 9, 2, reps,
                                       workers=workers, step=step))
        got = _by_twist([b.log_z for b in blocks], len(grid))
        assert all(np.array_equal(g, v[:, step]) for g, v in zip(got, want)), workers


def test_a_warmed_step_allocates_no_particle_array():
    # the large-N twisted step (eigenfunction twist, 8192 particles, one
    # replicate a block): once the thread's buffers exist, a step's transient
    # bytes are the guide table's search for its few open keys and small
    # arrays, 16,376 to 42,815 bytes on numpy 2.4, under one particle array
    # (8 * 8192 bytes), the bound; with the finite move's gathered columns
    # and numpy's cast buffers a step took 75,784, allocating every
    # temporary afresh 404,040
    _, params, w, tw = CASES[3]
    # a model of its own: params is shared, and the patch must not
    # reach later tests (a pool cannot pickle it); models are frozen, so the
    # patch bypasses the dataclass's __setattr__
    model = dataclasses.replace(params)
    log_g, marks = model.log_g, []

    def marked(window, t, x, out=None):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return log_g(window, t, x, out)

    object.__setattr__(model, "log_g", marked)
    for _ in range(2):  # the first run makes the buffers
        marks.clear()
        tracemalloc.start()
        try:
            list(replicate_blocks("twisted", model, tw, w, 6, 8192, 3, [0], step=6))
        finally:
            tracemalloc.stop()
    # step p runs from its potential's evaluation to the next one's
    transient = [peak - current for (current, _), (_, peak) in zip(marks, marks[1:])]
    assert len(transient) == 5 and max(transient[1:]) < 8 * 8192, transient


# ---------------------------------------------------------------------------
# twist grids: one block, L twists of one class, each replicate's draws shared


def _grid_cases():
    out = []
    for name, params, w, _ in CASES[:3]:
        out.append((f"{name}-lag-grid", params, w,
                    [make_twist(params, {"kind": "sv_approx" if name == "sv" else "lag", "ell": e})
                     for e in (0, 2, 1, 2)]))
    return out


GRID_CASES = _grid_cases()


@pytest.mark.parametrize("case", GRID_CASES, ids=[c[0] for c in GRID_CASES])
def test_twist_grid_rows_equal_single_twist_runs(case):
    # row l * R + i of a grid block is twist l on the block's i-th replicate
    _, params, w, grid = case
    n_steps, seed, reps = 12, 8, [0, 5, 2, 7]
    start = np.asarray(scalar_bootstrap(params, w, 0, 9, seed)[3]["initial_positions"])
    for n, initial in ((1, None), (9, None), (9, start), (64, None)):
        (block,) = replicate_blocks("twisted", params, grid, w, n_steps, n, seed, reps,
                                    initial=initial)
        assert block.log_z.shape == (len(grid) * len(reps), n_steps + 1)
        runs = [run_filter("twisted", params, tw, w, n_steps, n, seed, r, initial=initial)
                for tw in grid for r in reps]
        want = [(tr.log_z, tr.log_phi, tr.eta, tr.aux) for tr in runs]
        for rows in _rows_by_workers("twisted", params, grid, w, n_steps, n, seed, reps,
                                     n_grid=len(grid), initial=initial):
            assert len(rows) == len(want) and all(map(_same, rows, want)), n


def test_twist_grid_rows_do_not_depend_on_the_block_budget(monkeypatch):
    _, params, w, grid = GRID_CASES[1]

    def by_twist(blocks):
        # per twist, its rows of every block in replicate order
        parts = [np.split(b.log_z, len(grid)) for b in blocks]
        return [np.concatenate([p[lag] for p in parts]) for lag in range(len(grid))]

    whole = list(replicate_blocks("twisted", params, grid, w, 20, 16, 3, range(11)))
    assert len(whole) == 1
    for budget in (16, 3 * 4 * 16, 2 * 4 * 16 + 7):
        monkeypatch.setattr(filters, "BLOCK_ELEMENTS", budget)
        blocks = list(replicate_blocks("twisted", params, grid, w, 20, 16, 3, range(11)))
        assert len(blocks) == math.ceil(11 / max(1, budget // (len(grid) * 16)))
        for got, want in zip(by_twist(blocks), by_twist(whole)):
            assert np.array_equal(got, want)


def test_twist_grid_guards():
    _, params, w, grid = GRID_CASES[1]
    for kind in ("bootstrap", "apf"):
        with pytest.raises(ValueError, match="'twisted'"):
            list(replicate_blocks(kind, params, grid, w, 5, 8, 1, range(3)))
    with pytest.raises(ValueError, match="one class"):
        list(replicate_blocks("twisted", params, [grid[0], ConstantTwist(params)], w, 5, 8, 1,
                              range(3)))
    # a grid of one is a single twist, for every kind
    for kind in ("bootstrap", "twisted", "apf", "sis"):
        (a,) = replicate_blocks(kind, params, grid[1:2], w, 5, 8, 1, range(3))
        (b,) = replicate_blocks(kind, params, grid[1], w, 5, 8, 1, range(3))
        assert _same((a.log_z, a.log_phi, a.eta, a.aux), (b.log_z, b.log_phi, b.eta, b.aux))


# ---------------------------------------------------------------------------
# the process pool: bounded by its work, after the serial checks


def _fake_pool(monkeypatch) -> list:
    """Put an in-process stand-in for the process pool into the engine; the
    returned list records each pool's size. No process is ever started."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, spans, chunksize=1):
            return map(fn, spans)

    monkeypatch.setattr(filters, "ProcessPoolExecutor", FakePool)
    return sizes


def test_pool_size_is_bounded_by_its_work(monkeypatch):
    # min(workers, blocks, cpu count) processes; a study of one block runs
    # in this process
    sizes = _fake_pool(monkeypatch)
    _, params, w, tw = CASES[1]
    serial = [b.log_z for b in replicate_blocks("twisted", params, tw, w, 10, 8, 1, range(40))]
    for cpus, n_reps, workers, size in ((64, 2, 5000, 2), (64, 40, 5000, 40), (3, 40, 5000, 3),
                                        (64, 40, 2, 2), (64, 1, 5000, None)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        blocks = list(replicate_blocks("twisted", params, tw, w, 10, 8, 1, range(n_reps),
                                       workers=workers))
        assert sizes == ([size] if size else [])
        sizes.clear()
        assert np.array_equal(np.concatenate([b.log_z for b in blocks]),
                              np.concatenate(serial)[:n_reps])


def test_pooled_study_checks_before_any_process(monkeypatch):
    # a pooled call fails as a serial one does, before any pool is built
    sizes = _fake_pool(monkeypatch)
    _, params, w, grid = GRID_CASES[1]
    # a window too short, an unknown kind, a grid for another kind, a grid of two classes
    bad = [("twisted", grid[0], 80, LookaheadError), ("kalman", grid[0], 5, ValueError),
           ("apf", grid, 5, ValueError),
           ("twisted", [grid[0], ConstantTwist(params)], 5, ValueError)]
    for kind, twist, n_steps, error in bad:
        messages = []
        for workers in (1, 2):
            with pytest.raises(error) as raised:
                next(replicate_blocks(kind, params, twist, w, n_steps, 8, 1, range(6),
                                      workers=workers))
            messages.append(str(raised.value))
        assert messages[0] == messages[1], kind
    with pytest.raises(ValueError, match="workers"):
        next(replicate_blocks("twisted", params, grid[0], w, 5, 8, 1, range(6), workers=0))
    assert sizes == []


def test_default_test_functions_pickle_for_a_pooled_study():
    # the package's own test functions, passed in, reach a pool's workers:
    # the pooled study equals the serial one row for row
    for _, params, w, _ in CASES[:3]:
        tf = default_test_functions(params)
        serial, pooled = (
            list(replicate_blocks("bootstrap", params, None, w, 5, 50, 1, range(8), tf,
                                  workers=workers))
            for workers in (1, 2))
        assert len(pooled) == 2
        for field in ("log_z", "log_phi"):
            assert np.array_equal(*(np.concatenate([getattr(b, field) for b in blocks])
                                    for blocks in (serial, pooled)))
        for name in tf:
            assert np.array_equal(*(np.concatenate([b.eta[name] for b in blocks])
                                    for blocks in (serial, pooled)))


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
    model = dataclasses.replace(params)  # the patch stays on a copy of the shared model
    log_g = model.log_g

    def poisoned(window, t, x, out=None):
        lg = log_g(window, t, x, out)
        if t == 3:
            lg[..., -1, 5] = np.nan
        return lg

    object.__setattr__(model, "log_g", poisoned)
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
    # rows along the last axis of 2-d arrays and of the (2, k, k) blocks the
    # eigen sweep reduces, and single rows; the rows with an inf, a NaN, all
    # -inf or a max near the float range take the guarded formula, alone or
    # beside other rows, and no row raises a floating-point error
    rng = np.random.default_rng(2)
    big = np.finfo(float).max
    with np.errstate(divide="ignore"):
        rows = [
            rng.normal(size=(50, 7)),
            np.round(rng.normal(size=(50, 7)), 1),                  # ties, also of the max
            np.log(np.full((3, 5), 1e-300)) + rng.normal(size=(3, 5)) * 1e-3,
            np.log(rng.uniform(1e-300, 1e-290, size=(20, 4))),      # near-zero masses
            np.array([[0.0, -np.inf, -np.inf], [-np.inf] * 3, [5.0, 5.0, 5.0]]),
            np.log(np.where(rng.uniform(size=(20, 3)) < 0.3, 0.0, rng.uniform(size=(20, 3)))),
            np.array([[big, big, 0.0], [big, -big, 700.0], [709.0, 709.5, 710.0]]),  # overflow
            np.array([[np.inf, 1.0, 2.0], [np.inf, np.inf, -np.inf], [np.nan, 0.0, 1.0],
                      [-np.inf] * 3, [1.0, 2.0, 3.0]]),
        ]
    blocks = [rng.normal(size=(2, k, k)) for k in (2, 3, 5)]
    blocks += [np.round(rng.normal(size=(2, 3, 3)), 0), rows[6].reshape(1, 3, 3)]
    blocks += [np.stack([rows[7][:3], rows[7][2:]])]
    for a in rows + blocks:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = [logsumexp(a, axis=-1)] + [logsumexp(row) for row in a.reshape(-1, a.shape[-1])]
        with np.errstate(all="ignore"):  # scipy warns of the overflow it ignores
            want = [scipy_logsumexp(a, axis=-1)] + [scipy_logsumexp(row)
                                                    for row in a.reshape(-1, a.shape[-1])]
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True), a
    assert np.array_equal(logsumexp(rows[0], axis=1), scipy_logsumexp(rows[0], axis=1))


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
    log_psi = tw.log_psi(window, t + 1, np.arange(tw.model.k))
    return tw.model.log_trans[x] + log_psi


FINITE_CASES = [c for c in CASES if c[0].startswith("finite")]


@pytest.mark.parametrize("case", FINITE_CASES, ids=[c[0] for c in FINITE_CASES])
def test_categorical_transform_matches_gather_and_reduce(case, monkeypatch):
    _, params, w, tw = case
    rng = np.random.default_rng(6)
    x = rng.integers(0, params.k, (7, 300))
    u = rng.random(x.shape)
    # uniforms equal to a CDF entry: the strict comparison decides the state
    u[:, ::3] = params.trans_cdf[x[:, ::3], rng.integers(0, params.k, (7, 100))]
    u[u >= 1.0] = 0.5
    want = np.add.reduce(params.trans_cdf[x] < u[..., None], axis=-1).astype(np.int64)
    assert np.array_equal(params.mutate(w, 0, x, u), want)
    for t in range(6):
        got = tw.twisted_mutate(w, t, x, u)
        assert np.array_equal(got, _gather_and_reduce(_row_logits(tw, w, t, x), u)), t
    # auxiliary runs move the whole cloud by the twisted kernel: the same
    # runs, bit for bit, with the reference transform patched in
    runs = [run_filter("apf", params, tw, w, 20, n, 2, r) for n in (1, 9, 64) for r in (0, 3)]
    def reference(window, t, x, noise, out=None):
        moved = _gather_and_reduce(_row_logits(tw, window, t, np.asarray(x, dtype=np.int64)), noise)
        return moved if out is None else np.copyto(out, moved) or out

    monkeypatch.setattr(tw, "twisted_mutate", reference)
    refs = [run_filter("apf", params, tw, w, 20, n, 2, r) for n in (1, 9, 64) for r in (0, 3)]
    for tr, ref in zip(runs, refs):
        assert _same((tr.log_z, tr.eta, tr.aux), (ref.log_z, ref.eta, ref.aux))


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_guide_table_changes_no_run(case, monkeypatch):
    # the same blocks with every resampling through the guide table and with
    # every row searched on its own by searchsorted
    _, params, w, tw = case

    def per_row_search(cdf, uniforms, ws):
        return np.array([c.searchsorted(u, side="right") for c, u in zip(cdf, uniforms)])

    traces = []
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(resampling, "_guide_table_search", per_row_search)
        traces.append([next(replicate_blocks(kind, params, tw, w, 15, 40, 3, range(6)))
                       for kind in ("bootstrap", "twisted", "apf")])
    for a, b in zip(*traces):
        assert _same((a.log_z, a.log_phi, a.eta, a.aux), (b.log_z, b.log_phi, b.eta, b.aux))
