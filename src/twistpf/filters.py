"""Particle algorithms: bootstrap, twisted, auxiliary, sequential importance sampling.

All runs share conventions:

* Multinomial resampling at every step, fixed particle count.
* Log-domain estimators. The normalizing-constant increment at step ``p``
  uses the potential at observation index ``p - 1``; ``log_z[0] = 0``.
* Random draws come from counter-based streams (see :mod:`twistpf.rng`);
  within a step the consumption order is resample indices, mutation draws in
  particle order, then twist-specific draws. Identical ``(seed, replicate)``
  reproduces a bitwise-identical :class:`RunTrace`.

Bootstrap, twisted and auxiliary runs share one step loop over a block of
replicates, an ``(R, N)`` cloud (:func:`replicate_blocks`): all array work runs
once per step for the block, and only the draws are made per replicate, the
same calls in the same order as a run on its own, so no trace depends on its
block. A twisted block may run a grid of twists of one class, ``(L * R, N)``
clouds: each replicate's draws are made once and shared by its ``L`` rows.
Test functions must act elementwise.

The twisted run follows the product-space construction: at each step one
uniformly chosen slot is replaced by a draw whose ancestor is selected
proportionally to Q_t(psi_{t+1}) and mutated from the psi-reweighted kernel;
the reported estimator multiplies the standard one by the per-step ratio
``phi_p`` (recorded in ``log_phi``), keeping it unbiased for the marginal
likelihood for any strictly positive bounded psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fkcore import FiniteFK, FKModel
from .models import StochasticVolatilityFK
from .resampling import resample_rows
from .rng import INIT, MUTATE, RESAMPLE, TWIST, RngStream
from .twists import ConstantTwist, TwistFunction

__all__ = [
    "RunTrace",
    "bootstrap_run",
    "twisted_run",
    "apf_run",
    "sis_run",
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


def default_test_functions(model: FKModel) -> dict:
    """Bounded test functions registered by default."""
    if isinstance(model, FiniteFK):
        return {
            "id": lambda s: np.asarray(s, dtype=float),
            "is0": lambda s: (np.asarray(s) == 0).astype(float),
        }
    if isinstance(model, StochasticVolatilityFK):
        return {
            "id": lambda x: np.clip(np.asarray(x, dtype=float), -8.0, 8.0),
            "neg": lambda x: (np.asarray(x) <= 0.0).astype(float),
        }
    return {
        "id": lambda x: np.asarray(x, dtype=float),
        "neg": lambda x: (np.asarray(x) <= 0.0).astype(float),
    }


# particles x replicates per block: small clouds share each step's array calls
# among many replicates, a cloud of over 2**13 particles runs alone
BLOCK_ELEMENTS = 1 << 14
_KINDS = ("bootstrap", "twisted", "apf")


def _logmeanexp(v: np.ndarray) -> np.ndarray:
    """Log mean exp of each row of a 2-d array."""
    m = np.maximum.reduce(v, axis=1)
    if not np.logical_and.reduce(np.isfinite(m)):
        raise ValueError("all log values are -inf")
    s = np.add.reduce(np.exp(v - m[:, None]), axis=1)
    n = v.shape[1]
    return np.array([mi + math.log(si / n) for mi, si in zip(m.tolist(), s.tolist())])


def _step_draws(stream, p: int, n: int, proposal, twist):
    """One replicate's draws at step ``p``: resampling uniforms, mutation noise
    and, with a ``twist``, the slot, its ancestor's uniform and its move."""
    draws = [stream.generator(p, RESAMPLE).random(n),
             proposal.noise(stream.generator(p, MUTATE), n)]
    if twist is not None:
        gen = stream.generator(p, TWIST)
        draws += [gen.integers(n), gen.random(1), twist.noise(gen, 1)]
    return draws


def _grid(kind, twist) -> list:
    """The twists of a block: a list as given, else ``[twist]``. More than one
    only for a twisted run and of one class, since the rows of a replicate
    share its TWIST draws, the class's ``noise`` among them."""
    grid = list(twist) if isinstance(twist, (list, tuple)) else [twist]
    if len(grid) > 1:
        if kind != "twisted":
            raise ValueError(f"a grid of twists needs filter kind 'twisted', got {kind!r}")
        if len({type(tw) for tw in grid}) > 1:
            raise ValueError("the twists of a grid must be of one class, got "
                             + ", ".join(sorted({type(tw).__name__ for tw in grid})))
    return grid


def _run_block(kind, model, twist, window, n_steps, n_particles, seed, replicates,
               test_functions, initial) -> RunTrace:
    """The step loop for one block of replicates; every array of the returned
    trace has a leading row axis. ``twist`` may be a grid (see :func:`_grid`)
    of ``L`` twists: row ``l * R + r`` is twist ``l`` on replicate ``r``."""
    if kind not in _KINDS:
        raise ValueError(f"filter kind must be one of {_KINDS}, got {kind!r}")
    twisted, auxiliary = kind == "twisted", kind == "apf"
    grid = _grid(kind, twist)
    if kind == "bootstrap":
        grid = [ConstantTwist(model)]
    twist = grid[0]
    if n_steps > 0 or not twisted:
        window.require(0, n_steps - 1 + max(tw.lookahead for tw in grid), context=f"{kind}_run")
    tf = default_test_functions(model) if test_functions is None else test_functions
    streams = [RngStream(seed, r).session() for r in replicates]
    n_grid, n = len(grid), n_particles
    n_rows = n_grid * len(streams)
    spans = [slice(i * len(streams), (i + 1) * len(streams)) for i in range(n_grid)]

    def each(method, t, *arrays):
        # a twist method of every twist of the grid on its own rows
        parts = [getattr(tw, method)(window, t, *(a[span] for a in arrays))
                 for tw, span in zip(grid, spans)]
        return parts[0] if n_grid == 1 else np.concatenate(parts)

    # the cloud starts from mu0 and moves by M_t, both reweighted by psi in an
    # auxiliary run (psi = 1 is the model's own law, draw for draw)
    proposal = twist if auxiliary else ConstantTwist(model)
    if initial is not None:
        pos = np.tile(np.array(initial), (n_rows, 1))
    else:
        pos = np.array([proposal.sample_twisted_initial(window, n, s.generator(0, INIT))
                        for s in streams] * n_grid)
    aux = {} if auxiliary else {"initial_positions": pos}
    # per-step log increments of the weights and of the estimator proper
    inc_w, inc = np.zeros((2, n_rows, n_steps + 1))
    eta = {name: np.zeros((n_rows, n_steps + 1)) for name in tf}
    est = {name: np.zeros((n_rows, n_steps + 1)) for name in tf}

    def record(p, pos, lr):
        # eta, and in an auxiliary run the 1/psi-weighted estimates
        w = np.exp(-(lr - lr.min(axis=1, keepdims=True))) if auxiliary and tf else None
        for name, fn in tf.items():
            f = fn(pos)
            eta[name][:, p] = np.mean(f, axis=1)
            if w is not None:
                est[name][:, p] = np.sum(f * w, axis=1) / w.sum(axis=1)

    lr = twist.log_psi(window, 0, pos) if auxiliary else None
    record(0, pos, lr)
    rows = np.arange(n_rows)[:, None]
    for p in range(1, n_steps + 1):
        t = p - 1
        lw = twist.log_q_psi(window, t, pos) - lr if auxiliary else model.log_g(window, t, pos)
        inc_w[:, p] = _logmeanexp(lw)
        draws = [_step_draws(s, p, n, proposal, twist if twisted else None) for s in streams]
        u, noise, *slot_draws = (np.array(c * n_grid) for c in zip(*draws))
        new = proposal.twisted_mutate(window, t, pos[rows, resample_rows(lw, u)], noise)
        if twisted:
            # per cloud: a slot, its ancestor drawn by Q_t(psi_{t+1}), a twisted move
            slots, u_anc, z_move = slot_draws
            lq = each("log_q_psi", t, pos)
            parent = pos[rows, resample_rows(lq, u_anc)]
            new[rows, slots[:, None]] = each("twisted_mutate", t, parent, z_move)
            inc[:, p] = _logmeanexp(lq) - _logmeanexp(each("log_psi", p, new))
        elif auxiliary:
            lr = twist.log_psi(window, p, new)
            inc[:, p] = _logmeanexp(-lr)  # the terminal correction, at every p
        pos = new
        record(p, pos, lr)
    aux["final_positions"] = pos
    log_z = log_w = np.cumsum(inc_w, axis=1)
    log_phi = inc - inc_w if twisted else np.zeros((n_rows, n_steps + 1))
    if twisted:
        log_z = np.cumsum(inc, axis=1)
        aux["log_z_standard"] = log_w
    elif auxiliary:
        aux["log_mu0_weight"] = log_mu0_w = twist.log_mu0_psi(window)
        log_z = log_mu0_w + inc + log_w
        log_z[:, 0] = 0.0
        aux.update({f"filter_est_{name}": est[name] for name in tf})
    return RunTrace(n_steps, n_particles, log_z, log_phi, eta, aux)


def replicate_blocks(kind: str, model: FKModel, twist: TwistFunction | None, window,
                     n_steps: int, n_particles: int, seed: int, replicates,
                     test_functions: dict | None = None, initial=None):
    """Yield one :class:`RunTrace` per block of ``BLOCK_ELEMENTS // n_particles``
    (at least one) of the given replicate indices, with a leading replicate
    axis on every array; row ``i`` equals the run of ``replicates[i]`` bit for
    bit. ``kind`` is ``bootstrap``, ``twisted`` or ``apf``; ``twist`` (the
    twist or the auxiliary weight) is ignored by ``bootstrap``; ``initial``
    (bootstrap and twisted runs) starts every replicate from the same cloud.

    For ``twisted``, ``twist`` may be a list of ``L`` twists of one class, a
    grid: a block then holds ``BLOCK_ELEMENTS // (L * n_particles)`` (at
    least one) replicates, twist-major, and its row ``l * R + i`` equals the
    run of twist ``l`` on the block's ``i``-th replicate bit for bit. Each
    replicate's draws are made once and shared by its ``L`` rows."""
    reps = list(replicates)
    n_grid = len(_grid(kind, twist))
    size = max(1, BLOCK_ELEMENTS // (n_grid * n_particles))
    for lo in range(0, len(reps), size):
        yield _run_block(kind, model, twist, window, n_steps, n_particles, seed,
                         reps[lo : lo + size], test_functions, initial)


def run_filter(kind: str, model: FKModel, twist: TwistFunction | None, window,
               n_steps: int, n_particles: int, seed: int, replicate: int = 0,
               test_functions: dict | None = None, initial=None) -> RunTrace:
    """One bootstrap, twisted or auxiliary run (see :func:`replicate_blocks`)."""
    block = _run_block(kind, model, twist, window, n_steps, n_particles, seed,
                       [replicate], test_functions, initial)
    return RunTrace(
        n_steps, n_particles, block.log_z[0], block.log_phi[0],
        {name: v[0] for name, v in block.eta.items()},
        {name: v[0] if isinstance(v, np.ndarray) else v for name, v in block.aux.items()},
    )


def bootstrap_run(model: FKModel, window, n_steps: int, n_particles: int, seed: int,
                  replicate: int = 0, test_functions: dict | None = None,
                  initial=None) -> RunTrace:
    """Standard resample-mutate particle run under the model's own dynamics."""
    return run_filter("bootstrap", model, None, window, n_steps, n_particles, seed,
                      replicate, test_functions, initial)


def twisted_run(model: FKModel, twist: TwistFunction, window, n_steps: int,
                n_particles: int, seed: int, replicate: int = 0,
                test_functions: dict | None = None, initial=None) -> RunTrace:
    """Particle run under the psi-twisted sampling law.

    ``log_z`` estimates the same marginal likelihood as the bootstrap run;
    ``aux['log_z_standard']`` keeps the uncorrected functional so that
    ``log_z == log_z_standard + cumsum(log_phi)`` holds within rounding.
    """
    return run_filter("twisted", model, twist, window, n_steps, n_particles, seed,
                      replicate, test_functions, initial)


def apf_run(model: FKModel, weight: TwistFunction, window, n_steps: int,
            n_particles: int, seed: int, replicate: int = 0,
            test_functions: dict | None = None) -> RunTrace:
    """Auxiliary particle run: the model is transformed by a strictly positive
    lookahead weight ``r`` (a twist object supplying its integrals in closed
    form), and the estimator is corrected by the initial integral ``mu0(r)``
    and the terminal mean of ``1/r`` so it stays unbiased for the marginal
    likelihood.

    ``eta`` records plain empirical means of the transformed cloud;
    ``aux['filter_est_<name>']`` records the 1/r-weighted estimates that
    target the prediction filter of the original model.
    """
    return run_filter("apf", model, weight, window, n_steps, n_particles, seed,
                      replicate, test_functions)


def sis_run(
    model: FKModel,
    window,
    n_steps: int,
    n_chains: int,
    seed: int,
    replicate: int = 0,
    proposal: TwistFunction | None = None,
    test_functions: dict | None = None,
) -> RunTrace:
    """Sequential importance sampling: independent single-particle chains, no
    interaction. With no proposal the chains follow the model dynamics and the
    weights are running potential products; with a twist proposal the chains
    follow the reweighted kernel and carry the corrected weights.

    ``log_z[p]`` is the log of the arithmetic weight mean;
    ``aux['chain_log_weights']`` has shape ``(n_steps + 1, n_chains)``;
    ``aux['selfnorm_<name>']`` records self-normalized estimates.
    """
    # psi = 1 makes the proposal the model's own kernel, draw for draw
    proposal = ConstantTwist(model) if proposal is None else proposal
    if n_steps > 0:
        window.require(0, n_steps - 1 + proposal.lookahead, context="sis_run")
    tf = default_test_functions(model) if test_functions is None else test_functions
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
        pos = proposal.sample_twisted_mutation(window, t, pos, stream.generator(p, MUTATE))
        logw = logw + inc - proposal.log_psi(window, p, pos)
        chain_lw[p] = logw
        log_z[p] = _logmeanexp(logw[None, :])[0]
        w = np.exp(logw - logw.max())
        for name, fn in tf.items():
            selfnorm[name][p] = float(np.sum(fn(pos) * w) / w.sum())
    aux = {"chain_log_weights": chain_lw, "final_positions": pos}
    for name in tf:
        aux[f"selfnorm_{name}"] = selfnorm[name]
    return RunTrace(n_steps, n_chains, log_z, np.zeros(n_steps + 1), eta={}, aux=aux)

