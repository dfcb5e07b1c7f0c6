"""Dense kernels of the N-particle cloud chain on the ordered product grid.

The package runs the cloud chain matrix-free on occupation counts. This
module keeps the ordered view, one row per particle tuple (k^N of them), as
the reference that tests index by tuple and check count space against.
"""

import itertools
from types import SimpleNamespace

import numpy as np


def product_states(k, n_particles):
    """All clouds of ``n_particles`` points on a ``k``-state grid, shape (k^N, N)."""
    digits = itertools.product(range(k), repeat=n_particles)
    return np.array(list(digits), dtype=np.int64).reshape(-1, n_particles)


def product_kernels(params, twist, n_particles, window, t):
    """The one-step kernels at time ``t``; row and column ``i`` belong to the
    tuple ``states[i]``.

    ``m_bold`` is the resample-mutate kernel (each successor particle picks
    an ancestor in proportion to its potential, then moves), ``g_bold`` the
    cloud potential (mean of per-particle potentials), ``q_bold = diag(g_bold)
    m_bold``; ``m_tilde`` is the psi-twisted kernel, ``phi = d m_bold / d
    m_tilde`` and ``r_tilde = g_bold^2 phi^2 m_tilde`` the second-moment
    kernel of the twisted run.
    """
    states = product_states(params.k, n_particles)
    g = np.exp(params.log_g_grid(window, t))[states]              # (S, N)
    g_bold = g.mean(axis=1)
    mix = (g[:, :, None] * params.trans[states]).sum(axis=1) / g.sum(axis=1)[:, None]
    m_bold = mix[:, states].prod(axis=2)                          # (S, S)
    lp = twist.log_psi(window, t + 1, np.arange(params.k))
    psi_bold = np.exp(lp - lp.max())[states].mean(axis=1)
    mb_psi = m_bold @ psi_bold
    m_tilde = m_bold * psi_bold[None, :] / mb_psi[:, None]
    phi = mb_psi[:, None] / psi_bold[None, :]
    return SimpleNamespace(
        states=states, g_bold=g_bold, psi_bold=psi_bold, m_bold=m_bold, m_tilde=m_tilde,
        q_bold=g_bold[:, None] * m_bold, phi=phi, r_tilde=(g_bold**2)[:, None] * phi**2 * m_tilde,
    )
