"""
Why resampling earns its keep
=============================

Sequential importance sampling and the bootstrap filter both estimate the
marginal likelihood without bias. The difference is hidden in the second
moment: for independent chains the relative variance of the estimate grows
exponentially in the time horizon at a much steeper rate than for the
interacting system. This script measures both rates on the same finite
model and the same observation record.
"""

import numpy as np

from twistpf import FiniteHMMParams, finite_forward, fit_slope, run_filter, simulate

params = FiniteHMMParams(
    mu0=np.array([0.5, 0.3, 0.2]),
    trans=np.array([[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]]),
    emit=np.array([[0.40, 0.32, 0.28], [0.29, 0.42, 0.29], [0.30, 0.28, 0.42]]),
)
_, w0 = simulate(params, 120, seed=11)
window = w0.shift(20)
n_max = 60
log_z = finite_forward(params, window, n_max).log_z

# SIS: one big run; every chain supplies a per-step running weight, so a
# single call yields the relative second moment at every horizon at once.
trace = run_filter("sis", params, None, window, n_max, 4000, seed=11)
chain_lw = trace.aux["chain_log_weights"]          # (n_max + 1, n_chains)
rel2_sis = np.array(
    [np.exp(2.0 * (chain_lw[n] - log_z[n])).mean() for n in range(n_max + 1)]
)

# bootstrap: replicate whole runs and average the squared relative estimate
reps, n_particles = 400, 50
lz = np.empty((reps, n_max + 1))
for r in range(reps):
    lz[r] = run_filter(
        "bootstrap", params, None, window, n_max, n_particles, seed=11, replicate=r
    ).log_z
rel2_boot = np.exp(2.0 * (lz - log_z)).mean(axis=0)

ns = np.arange(10, n_max + 1)
fit_sis = fit_slope(ns, np.log(rel2_sis[10:]))
fit_boot = fit_slope(ns, np.log(rel2_boot[10:]))

print("growth rate of the relative second moment, log scale per step:")
print(f"    independent chains: {fit_sis.slope:+.4f}")
print(f"    bootstrap, N={n_particles}:   {fit_boot.slope:+.4f}")
print()
print(f"at n={n_max} the second-moment ratio is "
      f"{rel2_sis[n_max] / rel2_boot[n_max]:.1f}x in favour of resampling")
