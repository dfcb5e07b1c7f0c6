"""One-cloud samplers that draw from a generator, for the scalar reference loops.

The package draws each step's noise per replicate stream and transforms whole
blocks of clouds at once. These are the per-generator forms the reference
loops in the tests are written in: a 1-d cloud, its draws taken from ``gen``;
and ``resample_rows``, a block's resampling as the particle step makes it.
"""

import numpy as np

from twistpf.resampling import Workspace, ancestors, weights_pass


def resample_rows(log_weights, uniforms):
    """Ancestor indices for a block of clouds: :func:`weights_pass` then
    :func:`ancestors`, the particle step's own two calls, in a workspace of
    their own. The weights are normalized after subtracting the row max, so
    a common additive constant in a row cancels."""
    ws = Workspace()
    _, exps = weights_pass(log_weights, ws)
    return ancestors(exps, np.asarray(uniforms, dtype=np.float64), ws)


def multinomial_resample(log_weights, count, gen):
    """``count`` i.i.d. ancestor indices with P(i) proportional to
    exp(log_weights[i]), from ``count`` uniforms of ``gen``."""
    lw = np.asarray(log_weights, dtype=float)
    if lw.ndim != 1 or lw.size == 0:
        raise ValueError("log_weights must be a non-empty 1-d array")
    return resample_rows(lw[None, :], gen.random(count)[None, :])[0]


def sample_mutation(model, window, t, x, gen):
    """One draw from M_t(x_i, .) for each position of the 1-d ``x``."""
    return model.mutate(window, t, x, model.noise(gen, len(x)))


def sample_twisted_mutation(twist, window, t, x, gen):
    """One draw from the psi-reweighted kernel for each position of ``x``."""
    return twist.twisted_mutate(window, t, x, twist.noise(gen, len(x)))
