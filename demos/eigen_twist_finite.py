"""
The eigenfunction twist on a finite-state chain
===============================================

On a finite state space everything is computable: the generalized
eigen-elements (h, eta, lambda) of the one-step operator, the exact moments
of the twisted estimator on the product chain, and the per-run collapse of
the estimator onto the eigenvalue product. This script walks through all
three.
"""

import numpy as np

from twistpf import (
    ConstantTwist,
    FiniteHMMParams,
    eigen_triple,
    exact_moments,
    finite_forward,
    fit_slope,
    run_filter,
    simulate,
)

params = FiniteHMMParams(
    mu0=np.array([0.5, 0.3, 0.2]),
    trans=np.array([[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]]),
    emit=np.array([[0.40, 0.32, 0.28], [0.29, 0.42, 0.29], [0.30, 0.28, 0.42]]),
)

# simulate past the horizon on both sides: the eigen recursions need margins
# to converge, and the twist looks at observations beyond the run
_, w0 = simulate(params, 360, seed=11)
window = w0.shift(80)
n_steps = 30

triple = eigen_triple(params, window, t_lo=-10, t_hi=220)
print(f"average log eigenvalue: {triple.lambda_hat:.4f}")
print(f"exact (1/n) log Z_200:  {finite_forward(params, window, 200).log_z[200] / 200:.4f}")

# 1. unbiasedness is exact, twisted or not: the first moment of the
#    estimator on the 2-particle product chain equals Z to machine precision
exact = finite_forward(params, window, n_steps).log_z
for name, twist in [("constant", ConstantTwist(params)), ("eigen", triple.as_twist())]:
    rep = exact_moments(params, twist, 2, window, n_steps)
    gap = np.max(np.abs(rep.log_first - exact))
    print(f"{name:>8} twist: max |log E[Z_hat] - log Z| = {gap:.2e}")

# 2. the second moment is what the twist changes: the growth rate of the
#    relative second moment drops from ~1.6e-2 per step to ~0
for name, twist in [("constant", ConstantTwist(params)), ("eigen", triple.as_twist())]:
    rep = exact_moments(params, twist, 2, window, 200)
    fit = fit_slope(rep.n, rep.log_v, n_lo=120, n_hi=200)
    print(f"{name:>8} twist: variance growth rate {fit.slope:+.2e} per step")

# 3. with the eigenfunction the estimator is a deterministic function of the
#    first and last particle cloud: log Z_tilde = sum log lambda
#    + log mean h(start) - log mean h(end), run by run
trace = run_filter("twisted", params, triple.as_twist(), window, n_steps, 8, seed=11)
lam = float(np.sum(np.log(triple.lam[triple.row(0): triple.row(n_steps)])))
h0 = np.log(triple.h[triple.row(0)][trace.aux["initial_positions"]].mean())
hn = np.log(triple.h[triple.row(n_steps)][trace.aux["final_positions"]].mean())
print(f"per-run identity gap: {abs(trace.log_z[n_steps] - (lam + h0 - hn)):.2e}")
