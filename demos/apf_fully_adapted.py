"""
Fully adapted auxiliary resampling
==================================

The auxiliary particle filter resamples with a lookahead weight before
mutating, so particles that are about to explain the next observation well
get copied more often. With the one-step conditional likelihood as the
weight the filter is "fully adapted". The estimator stays unbiased for the
marginal likelihood; what changes is its variance.
"""

import numpy as np

from twistpf import (
    ConstantTwist,
    FiniteHMMParams,
    FiniteLagTwist,
    finite_forward,
    run_filter,
    simulate,
)

params = FiniteHMMParams(
    mu0=np.array([0.5, 0.3, 0.2]),
    trans=np.array([[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]]),
    emit=np.array([[0.70, 0.20, 0.10], [0.15, 0.70, 0.15], [0.10, 0.20, 0.70]]),
)
n_steps, n_particles, reps = 40, 64, 500
_, window = simulate(params, n_steps + 2, seed=3)
exact = finite_forward(params, window, n_steps)

weights = {
    "plain (bootstrap)": ConstantTwist(params),
    "fully adapted": FiniteLagTwist(params, 1),
    "two-step lookahead": FiniteLagTwist(params, 2),
}
for name, weight in weights.items():
    ratios = np.empty(reps)
    for r in range(reps):
        trace = run_filter(
            "apf", params, weight, window, n_steps, n_particles,
            seed=3, replicate=r, test_functions={},
        )
        ratios[r] = np.exp(trace.log_z[n_steps] - exact.log_z[n_steps])
    se = ratios.std(ddof=1) / np.sqrt(reps)
    print(
        f"{name:>20}: Z_hat/Z = {ratios.mean():.4f} +- {se:.4f}, "
        f"relative sd {ratios.std(ddof=1):.3f}"
    )

print()
print("all three cover 1 (unbiasedness); the lookahead weights cut the spread")

# the 1/r-weighted cloud averages estimate the prediction filter
trace = run_filter("apf", params, FiniteLagTwist(params, 1), window, n_steps, 20_000,
                   seed=3)
est = trace.aux["filter_est_id"][n_steps]
want = float(exact.pred[n_steps] @ np.arange(3))
print(f"weighted state mean {est:.4f} vs exact prediction mean {want:.4f}")
