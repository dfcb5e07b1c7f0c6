"""
Bootstrap filter against the exact Kalman reference
===================================================

A linear-Gaussian state space model is one of the few cases where the
marginal likelihood has a closed form, so it makes a good first check of the
particle machinery: run the bootstrap filter a few hundred times and compare
the spread of its estimates against the exact value from the Kalman
recursion.
"""

import numpy as np

from twistpf import LinearGaussianParams, kalman_run, run_filter, simulate

params = LinearGaussianParams(a=0.9, q=1.0, r_obs=1.0)
n_steps = 50
x, window = simulate(params, n_steps, seed=1)

exact = kalman_run(params, window, n_steps)
print(f"exact log Z_{n_steps} = {exact.log_z[n_steps]:.6f}")

# each replicate is an independent filter run; the seed fixes the data,
# the replicate index moves the filter randomness
n_particles, reps = 200, 400
estimates = np.empty(reps)
for r in range(reps):
    trace = run_filter("bootstrap", params, None, window, n_steps, n_particles, seed=1,
                       replicate=r)
    estimates[r] = trace.log_z[n_steps]

err = estimates - exact.log_z[n_steps]
print(f"particle log Z: mean error {err.mean():+.4f}, sd {err.std(ddof=1):.4f}")

# the estimator is unbiased on the natural scale, not the log scale, so the
# mean of exp(error) should sit within a couple of standard errors of one
ratio = np.exp(err)
se = ratio.std(ddof=1) / np.sqrt(reps)
print(f"mean Z_hat / Z = {ratio.mean():.4f} +- {se:.4f}  (should cover 1)")

# the per-step state estimates track the Kalman prediction means
trace = run_filter(
    "bootstrap", params, None, window, n_steps, 5000, seed=1,
    test_functions={"x": lambda v: np.asarray(v, dtype=float)},
)
worst = np.max(np.abs(trace.eta["x"] - exact.mean))
print(f"max |particle prediction mean - Kalman mean| at N=5000: {worst:.3f}")
