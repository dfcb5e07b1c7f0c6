"""Particle algorithms: bootstrap, twisted, auxiliary and sequential importance
sampling (SIS), four kinds of one step loop (:func:`run_filter`).

All runs share conventions:

* Multinomial resampling at every step, fixed particle count; SIS chains
  never resample.
* Log-domain estimators. The normalizing-constant increment at step ``p``
  uses the potential at observation index ``p - 1``; ``log_z[0] = 0``.
* Random draws come from counter-based streams (see :mod:`twistpf.rng`);
  within a step the consumption order is resample indices, mutation draws in
  particle order, then twist-specific draws; SIS draws only the initial
  positions and the mutations. Identical ``(seed, replicate)`` reproduces a
  bitwise-identical :class:`RunTrace`.

Every kind runs on one step loop over a block of replicates, an ``(R, N)``
cloud (:func:`replicate_blocks`): all array work runs once per step for the
block, and only the draws are made per replicate, the same calls in the same
order as a run on its own, so no trace depends on its block. A twisted block
may run a grid of twists of one class, ``(L * R, N)`` clouds: each
replicate's draws are made once and shared by its ``L`` rows. Test functions
must act elementwise. The blocks of a study may run on a ``fork`` process
pool, the package's only one; a worker gets the pickled engine objects and
a span of replicates, so no trace depends on the worker either.

The kinds differ in a few lines per step: the weights (the potential, or
``Q_t(psi_{t+1}) / psi_t`` in an auxiliary run), the kernel that moves the
cloud (``M_t`` or its psi-reweighted form), identity ancestors for SIS, and
the twisted run's extra slot. That slot follows the product-space
construction: at each step one uniformly chosen slot is replaced by a draw
whose ancestor is selected proportionally to Q_t(psi_{t+1}) and mutated from
the psi-reweighted kernel; the reported estimator multiplies the standard one
by the per-step ratio ``phi_p`` (recorded in ``log_phi``), keeping it
unbiased for the marginal likelihood for any strictly positive bounded psi.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .fkcore import FKModel
from .models import FiniteHMMParams, SVParams
from .resampling import BLOCK_ELEMENTS, Workspace, ancestors, step_buffers, weights_pass
from .rng import INIT, MUTATE, RESAMPLE, TWIST, RngStream
from .twists import ConstantTwist, TwistFunction

__all__ = [
    "RunTrace",
    "run_filter",
    "replicate_blocks",
    "default_test_functions",
]


@dataclass
class RunTrace:
    """Per-step record of one particle run.

    ``log_z[p]`` is the log normalizing-constant estimate after ``p`` steps,
    ``log_phi[p]`` the log of the twist correction factor at step ``p`` (zero
    for untwisted runs), ``eta[name][p]`` the unweighted empirical mean of a
    registered test function. ``gamma(name)`` returns the unnormalized-measure
    estimate ``eta * exp(log_z)``; for long horizons read it in log domain
    instead (it underflows deliberately rather than silently rescaling).
    The traces of :func:`replicate_blocks` carry a leading row axis, one row
    per replicate (per twist and replicate for a grid of twists).
    """

    n_steps: int
    n_particles: int
    log_z: np.ndarray
    log_phi: np.ndarray
    eta: dict = field(default_factory=dict)
    aux: dict = field(default_factory=dict)

    def gamma(self, name: str) -> np.ndarray:
        return self.eta[name] * np.exp(self.log_z)


def _identity(x):
    return np.asarray(x, dtype=float)


def _is_zero(s):
    return (np.asarray(s) == 0).astype(float)


def _clipped(x):
    return np.clip(np.asarray(x, dtype=float), -8.0, 8.0)


def _is_nonpositive(x):
    return (np.asarray(x) <= 0.0).astype(float)


def default_test_functions(model: FKModel) -> dict:
    """Bounded test functions registered by default; module-level functions,
    so a pooled study can pickle them."""
    if isinstance(model, FiniteHMMParams):
        return {"id": _identity, "is0": _is_zero}
    if isinstance(model, SVParams):
        return {"id": _clipped, "neg": _is_nonpositive}
    return {"id": _identity, "neg": _is_nonpositive}


# blocks per task of the process pool, at most: enough to hide a task's round
# trip (one block per task ran a criterion-6 slice 1.4x slower), few enough
# that the whole traces a task sends back stay small (2.5 MB at N = 10^4);
# smaller studies get eight tasks per process, which load them evenly
_TASK_BLOCKS = 16
_KINDS = ("bootstrap", "twisted", "apf", "sis")
ProcessPoolExecutor = None  # concurrent.futures' class, once a pooled study has run


def _logmeanexp(v: np.ndarray, ws: Workspace):
    """Log mean exp of each row of a 2-d array, with the weights pass it
    reduces: the shifted exponentials (in ``ws``'s ``"exp"`` buffer) and
    their row sums."""
    m, e = weights_pass(v, ws)
    s = np.add.reduce(e, axis=1)
    return m + np.array(list(map(math.log, (s / v.shape[1]).tolist()))), e, s


def _step_draws(streams, p: int, n: int, kind: str, move, twist, n_grid: int, ws: Workspace):
    """The draws of step ``p``, made per replicate stream into ``ws``'s
    buffers: the resampling uniforms (None for SIS, which makes no RESAMPLE
    draw), the mutation noise, and in a twisted run the slot, its ancestor's
    uniform and its move, one of each per row. The ``L = n_grid`` rows of a
    replicate repeat its draws."""
    n_rep = len(streams)
    u = None if kind == "sis" else ws.take("uniforms", (n_grid * n_rep, n))
    noise = ws.take("noise", (n_grid * n_rep, n))
    draws = [u, noise]
    if kind == "twisted":
        slots = ws.take("slots", (n_grid * n_rep, 1), np.intp)
        u_anc = ws.take("u_anc", (n_grid * n_rep, 1))
        z_move = ws.take("z_move", (n_grid * n_rep, 1))
        draws += [slots, u_anc, z_move]
    for i, stream in enumerate(streams):
        if u is not None:
            stream.generator(p, RESAMPLE).random(out=u[i])
        move.noise(stream.generator(p, MUTATE), n, out=noise[i])
        if kind == "twisted":
            gen = stream.generator(p, TWIST)
            slots[i] = gen.integers(n)
            gen.random(out=u_anc[i])
            twist.noise(gen, 1, out=z_move[i])
    if n_grid > 1:  # a grid is twisted, so it makes every draw
        for a in draws:
            a.reshape(n_grid, n_rep, -1)[1:] = a[:n_rep]
    return draws


def _gather(pos: np.ndarray, anc: np.ndarray, ws: Workspace) -> np.ndarray:
    """``pos[r, anc[r]]`` for every row ``r``, into ``ws``'s ``"moved"``
    buffer; ``anc`` (in-range indices) is turned into flat ones in place."""
    if len(pos) > 1:
        anc += np.arange(0, pos.size, pos.shape[1])[:, None]
    return pos.take(anc, out=ws.take("moved", anc.shape, pos.dtype), mode="clip")


def _grid(kind, model, twist, window, n_steps) -> list:
    """The twists of a block: a list as given, else ``[twist]``, and the
    constant twist for a bootstrap run or none. Every run checks first its
    kind, the window's coverage and the grid rules: more than one twist only
    for a twisted run and of one class, since the rows of a replicate share
    its TWIST draws, the class's ``noise`` among them."""
    if kind not in _KINDS:
        raise ValueError(f"filter kind must be one of {_KINDS}, got {kind!r}")
    grid = list(twist) if isinstance(twist, (list, tuple)) else [twist]
    if len(grid) > 1:
        if kind != "twisted":
            raise ValueError(f"a grid of twists needs filter kind 'twisted', got {kind!r}")
        if len({type(tw) for tw in grid}) > 1:
            raise ValueError("the twists of a grid must be of one class, got "
                             + ", ".join(sorted({type(tw).__name__ for tw in grid})))
    if kind == "bootstrap" or grid == [None]:
        grid = [ConstantTwist(model)]
    if n_steps > 0 or kind == "apf":
        window.require(0, n_steps - 1 + max(tw.lookahead for tw in grid), context=f"{kind} run")
    return grid


def _run_block(kind, model, twist, window, n_steps, n_particles, seed, replicates,
               test_functions, initial, step=None, on_step=None) -> RunTrace:
    """The step loop for one block of replicates; every array of the returned
    trace has a leading row axis. ``twist`` may be a grid (see :func:`_grid`)
    of ``L`` twists: row ``l * R + r`` is twist ``l`` on replicate ``r``.
    With ``step`` the test functions are evaluated at that step alone and the
    trace keeps only that step's column of ``log_z``, ``log_phi`` and
    ``eta``, and of ``aux`` only SIS's chain log weights at that step. With
    ``on_step`` an SIS block calls ``on_step(p, lv)`` at each step ``p >= 1``
    with its chains' log weights, and keeps none of them. The step's
    particle-sized temporaries live in the buffers of
    :func:`~twistpf.resampling.step_buffers`."""
    twisted, auxiliary, sis = kind == "twisted", kind == "apf", kind == "sis"
    grid = _grid(kind, model, twist, window, n_steps)
    twist = grid[0]
    tf = default_test_functions(model) if test_functions is None else test_functions
    streams = [RngStream(seed, r).session() for r in replicates]
    n_grid, n = len(grid), n_particles
    n_rows = n_grid * len(streams)
    shape = (n_rows, n)
    ws = step_buffers(n_rows * n)
    spans = [slice(i * len(streams), (i + 1) * len(streams)) for i in range(n_grid)]

    def each(method, t, *arrays, out):
        # a twist method of every twist of the grid on its own rows of out;
        # a grid of one calls it once, on every row
        if n_grid == 1:
            return getattr(twist, method)(window, t, *arrays, out=out)
        for tw, span in zip(grid, spans):
            getattr(tw, method)(window, t, *(a[span] for a in arrays), out=out[span])
        return out

    # the cloud starts from mu0 and moves by M_t; an auxiliary run reweights
    # both by psi and SIS chains only the moves (psi = 1 is the model's own
    # law, draw for draw)
    start = twist if auxiliary else ConstantTwist(model)
    move = twist if auxiliary or sis else start
    if initial is not None:
        pos = np.tile(np.array(initial), (n_rows, 1))
    else:
        pos = np.array([start.sample_twisted_initial(window, n, s.generator(0, INIT))
                        for s in streams] * n_grid)
    aux = {} if auxiliary or sis else {"initial_positions": pos}
    # per-step log increments of the weights and of the estimator proper
    inc_w, inc = np.zeros((2, n_rows, n_steps + 1))
    # plain particle means, and in auxiliary and SIS runs the estimates
    # weighted by exp(lv): lv is log(1/psi) or the chains' log weights
    eta = {} if sis else {name: np.zeros((n_rows, n_steps + 1)) for name in tf}
    est = {name: np.zeros((n_rows, n_steps + 1)) for name in tf} if auxiliary or sis else {}

    def record(p, pos, w, w_sum):
        # w: the step's exponentials of lv, w_sum their row sums
        if step is not None and p != step:
            return
        for name, fn in tf.items():
            f = fn(pos)
            if eta:
                # np.mean's sum and divide, its float accumulator for integers
                eta[name][:, p] = np.add.reduce(f, 1, float if f.dtype.kind in "biu" else None) / n
            if est:
                est[name][:, p] = np.add.reduce(f * w, 1) / w_sum

    # SIS chains carry their log weights across steps; a study that names
    # its step keeps that step's alone, and one that reduces them as they
    # come (on_step) keeps none
    chains = (np.zeros((n_rows, n_steps + 1 if step is None else 1, n))
              if sis and on_step is None else None)
    lv = -twist.log_psi(window, 0, pos) if auxiliary else np.zeros(shape) if sis else None
    _, w, w_sum = _logmeanexp(lv, ws) if est else (None,) * 3
    record(0, pos, w, w_sum)
    rows = np.arange(n_rows)[:, None]
    for p in range(1, n_steps + 1):
        t = p - 1
        # the step's log weights: the potential, or log Q_t(psi_{t+1}) plus
        # lv, the 1/psi_t of an auxiliary run or the chain weights of SIS
        if lv is None:
            lw = model.log_g(window, t, pos, out=ws.take("log_w", shape))
        else:
            lw = twist.log_q_psi(window, t, pos, out=ws.take("log_w", shape))
            lw += lv
        if not sis:
            inc_w[:, p], w, _ = _logmeanexp(lw, ws)
        u, noise, *slot_draws = _step_draws(streams, p, n, kind, move, twist, n_grid, ws)
        # SIS chains are their own ancestors; other clouds draw theirs by
        # weight, from the exponentials of the weights pass. The clouds take
        # two buffers in turn once the first move has set their dtype.
        cloud = None if p == 1 else ws.take(f"cloud{p % 2}", shape, pos.dtype)
        new = move.twisted_mutate(window, t, pos if sis else _gather(pos, ancestors(w, u, ws), ws),
                                  noise, out=cloud)
        if twisted:
            # per cloud: a slot, its ancestor drawn by Q_t(psi_{t+1}), a
            # twisted move; lw is spent, and holds the log weights that follow
            slots, u_anc, z_move = slot_draws
            inc_q, w, _ = _logmeanexp(each("log_q_psi", t, pos, out=lw), ws)
            parent = pos[rows, ancestors(w, u_anc, ws)]
            new[rows, slots] = each("twisted_mutate", t, parent, z_move,
                                    out=ws.take("slot_moved", parent.shape, new.dtype))
            inc[:, p] = inc_q - _logmeanexp(each("log_psi", p, new, out=lw), ws)[0]
        elif auxiliary or sis:
            lpsi = twist.log_psi(window, p, new, out=ws.take("log_psi", shape))
            lv = np.negative(lpsi, out=lpsi) if auxiliary else np.subtract(lw, lpsi, out=lpsi)
            if on_step is not None:
                on_step(p, lv)
            elif chains is not None and (step is None or p == step):
                chains[:, p if step is None else 0] = lv
            # the terminal correction of an auxiliary run (at every p), the
            # mean chain weight of SIS
            inc[:, p], w, w_sum = _logmeanexp(lv, ws)
        pos = new
        record(p, pos, w, w_sum)
    log_z = log_w = np.cumsum(inc_w, axis=1)
    log_phi = inc - inc_w if twisted else np.zeros((n_rows, n_steps + 1))
    if twisted:
        log_z = np.cumsum(inc, axis=1)
    elif auxiliary:
        log_mu0_w = twist.log_mu0_psi(window)
        log_z = log_mu0_w + inc + log_w
        log_z[:, 0] = 0.0
    elif sis:
        log_z = inc
    if step is not None:
        # copies, so no cut trace holds its block's whole arrays
        return RunTrace(n_steps, n_particles, log_z[:, step].copy(), log_phi[:, step].copy(),
                        {name: v[:, step].copy() for name, v in eta.items()},
                        {} if chains is None else {"chain_log_weights": chains[:, 0]})
    aux["final_positions"] = pos.copy()  # the clouds' buffers serve the next block
    if twisted:
        aux["log_z_standard"] = log_w
    elif auxiliary:
        aux["log_mu0_weight"] = log_mu0_w
        aux.update({f"filter_est_{name}": est[name] for name in tf})
    elif sis:
        if chains is not None:
            aux["chain_log_weights"] = chains
        aux.update({f"selfnorm_{name}": est[name] for name in tf})
    return RunTrace(n_steps, n_particles, log_z, log_phi, eta, aux)


def replicate_blocks(kind: str, model: FKModel, twist: TwistFunction | None, window,
                     n_steps: int, n_particles: int, seed: int, replicates,
                     test_functions: dict | None = None, initial=None, workers: int = 1,
                     step: int | None = None, on_step=None):
    """Yield one :class:`RunTrace` per block of the given replicate indices,
    in replicate order, with a leading replicate axis on every array; row
    ``i`` equals :func:`run_filter` on ``replicates[i]`` bit for bit.

    A study that reads one step names it: with ``step`` the test functions
    run at that step alone, and each block's trace carries only that step's
    column of ``log_z``, ``log_phi`` and ``eta``, one value per row, and no
    ``aux`` (no clouds) but, for SIS, ``chain_log_weights`` at that step,
    ``(rows, n_particles)``; its rows equal column ``step`` of the full
    traces bit for bit. A worker cuts the traces before it sends them back.

    A study that reduces SIS chain weights as the chains reach each step
    passes ``on_step``: an SIS block then calls ``on_step(p, lv)`` at each
    step ``p >= 1``, ``lv`` its chains' log weights, ``(rows,
    n_particles)``, a view of the step buffers that the callback reads and
    must not keep or write; the block allocates no chain weights and its
    ``aux`` carries none. A callback runs in this process, so it needs
    ``kind="sis"`` and ``workers=1`` (``ValueError`` otherwise).

    A block holds ``BLOCK_ELEMENTS // (L * n_particles)`` replicates (at
    least one), ``L = 1`` unless ``twist`` is a grid: for ``twisted``, a list
    of ``L`` twists of one class. A grid block of ``R`` replicates is
    twist-major, its row ``l * R + i`` equals the run of twist ``l`` on the
    block's ``i``-th replicate bit for bit, and each replicate's draws are
    made once and shared by its ``L`` rows.

    Every step of every block writes its particle-sized arrays (the log
    weights, their exponentials and CDF, the guide table, the ancestors, the
    gathered and the moved clouds, the draws, and the temporaries of the
    models' and twists' formulas) into one set of buffers, the running
    thread's (:func:`~twistpf.resampling.step_buffers`), so a step allocates
    none.

    With ``workers > 1`` a block holds at most ``ceil(len(replicates) /
    workers)`` replicates, so small studies still use every worker, and the
    blocks run on a ``fork`` pool of ``min(workers, blocks, os.cpu_count())``
    processes; a task gets the engine objects pickled and sends the traces
    of up to ``_TASK_BLOCKS`` blocks back. The checks of a serial run come
    first, in this process; closing the generator early cancels the pending
    blocks and joins every worker. No block boundary or worker count changes
    a row."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if step is not None and not 0 <= step <= n_steps:
        raise ValueError(f"step must lie in [0, {n_steps}], got {step}")
    if on_step is not None and (kind != "sis" or workers > 1):
        raise ValueError("on_step needs filter kind 'sis' and workers=1, "
                         f"got {kind!r} and workers={workers}")
    n_grid = len(_grid(kind, model, twist, window, n_steps))
    reps = list(replicates)
    size = max(1, min(BLOCK_ELEMENTS // (n_grid * n_particles), -(-len(reps) // workers)))
    spans = [reps[lo : lo + size] for lo in range(0, len(reps), size)]
    run = partial(_run_block, kind, model, twist, window, n_steps, n_particles, seed,
                  test_functions=test_functions, initial=initial, step=step, on_step=on_step)
    processes = min(workers, len(spans), os.cpu_count() or 1)
    if processes <= 1:
        yield from map(run, spans)
        return
    # the pool's modules (and the logging concurrent.futures loads) are
    # imported by the first pooled study, so serial runs never load them
    global ProcessPoolExecutor
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    import multiprocessing

    chunk = max(1, min(len(spans) // (8 * processes), _TASK_BLOCKS))
    with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork")) as pool:
        # closing this generator closes the map's iterator, which cancels the
        # blocks not yet started; leaving the with block joins every worker
        yield from pool.map(run, spans, chunksize=chunk)


def run_filter(kind: str, model: FKModel, twist: TwistFunction | None, window,
               n_steps: int, n_particles: int, seed: int, replicate: int = 0,
               test_functions: dict | None = None, initial=None) -> RunTrace:
    """One particle run of replicate ``replicate``; ``initial`` starts it from
    a given cloud instead of a draw. The kinds:

    * ``bootstrap``: resample by the potential, move by the model's kernel;
      ``twist`` is ignored.
    * ``twisted``: the same system, but at each step one uniformly chosen
      slot is redrawn from the ``twist``-reweighted kernel. ``log_z``
      estimates the same marginal likelihood as the bootstrap run;
      ``aux['log_z_standard']`` keeps the uncorrected functional, so
      ``log_z == log_z_standard + cumsum(log_phi)`` holds within rounding.
    * ``apf``: auxiliary run. The model is transformed by a strictly positive
      lookahead weight ``r``, the ``twist``, which supplies its integrals in
      closed form; the estimator is corrected by the initial integral
      ``mu0(r)`` (``aux['log_mu0_weight']``) and the terminal mean of ``1/r``,
      so it stays unbiased for the marginal likelihood. ``eta`` records plain
      means of the transformed cloud; ``aux['filter_est_<name>']`` the
      1/r-weighted estimates of the original model's prediction filter.
    * ``sis``: sequential importance sampling, ``n_particles`` independent
      chains that never resample. With no ``twist`` the chains follow the
      model's dynamics and carry running potential products; with a twist
      proposal they follow its reweighted kernel and carry the corrected
      weights. ``log_z[p]`` is the log of the mean chain weight;
      ``aux['chain_log_weights']`` has shape ``(n_steps + 1, n_particles)``;
      ``aux['selfnorm_<name>']`` records self-normalized estimates; ``eta``
      stays empty.
    """
    block = _run_block(kind, model, twist, window, n_steps, n_particles, seed,
                       [replicate], test_functions, initial)
    return RunTrace(
        n_steps, n_particles, block.log_z[0], block.log_phi[0],
        {name: v[0] for name, v in block.eta.items()},
        {name: v[0] if isinstance(v, np.ndarray) else v for name, v in block.aux.items()},
    )
