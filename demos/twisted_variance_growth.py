"""
How lookahead twisting slows variance growth
============================================

The relative variance of the plain particle estimate of the marginal
likelihood grows exponentially with the time horizon. Twisting the model
with a function that anticipates the next few observations cuts the growth
rate; the further the twist looks ahead, the flatter the curve. This script
measures the effect on a linear-Gaussian model where the exact reference is
available.
"""

import numpy as np

from twistpf import (
    LinearGaussianLagTwist,
    LinearGaussianParams,
    fit_slope,
    kalman_run,
    run_filter,
    simulate,
)

params = LinearGaussianParams(a=0.9, q=1.0, r_obs=1.0)
n_steps, n_particles, reps = 60, 50, 400
_, window = simulate(params, n_steps + 10, seed=12)

exact = kalman_run(params, window, n_steps).log_z

for ell in (0, 1, 2, 5):
    twist = LinearGaussianLagTwist(params, ell)
    log_z = np.empty((reps, n_steps + 1))
    for r in range(reps):
        trace = run_filter(
            "twisted", params, twist, window, n_steps, n_particles,
            seed=12, replicate=r, test_functions={},
        )
        log_z[r] = trace.log_z

    # V_hat(n) = empirical mean of (Z_hat / Z)^2; its log grows linearly in
    # n and the slope is the per-step variance growth rate
    ns = np.arange(10, n_steps + 1)
    log_v = np.array(
        [
            np.log(np.mean(np.exp(2.0 * (log_z[:, t] - exact[t]))))
            for t in ns
        ]
    )
    fit = fit_slope(ns, log_v)
    print(f"lag {ell}: growth rate {fit.slope:+.4f} per step  (r^2 {fit.r2:.3f})")

print()
print("a clearly positive rate for the untwisted filter, dropping to the")
print("noise floor within a few steps of lookahead")
