"""One-cloud samplers that draw from a generator, for the scalar reference loops.

The package draws each step's noise per replicate stream and transforms whole
blocks of clouds at once. These are the per-generator forms the reference
loops in the tests are written in: a 1-d cloud, its draws taken from ``gen``.
"""

import numpy as np

from twistpf.resampling import resample_rows


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
