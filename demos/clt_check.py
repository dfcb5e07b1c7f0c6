"""
Central limit variances, empirical vs exact
===========================================

For finite-state models the library computes the asymptotic variances of
the particle filter's errors exactly. Two facts are worth seeing with your
own eyes: the variance of the prediction-filter estimate does not depend on
the twist at all, while the variance of the normalizer-weighted estimate
does, and that is the entire point of twisting.
"""

import numpy as np

from twistpf import (
    ConstantTwist,
    FiniteHMMParams,
    eigen_triple,
    exact_clt_variances,
    finite_forward,
    run_filter,
    simulate,
)

params = FiniteHMMParams(
    mu0=np.array([0.5, 0.3, 0.2]),
    trans=np.array([[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]]),
    emit=np.array([[0.70, 0.20, 0.10], [0.15, 0.70, 0.15], [0.10, 0.20, 0.70]]),
)
_, w0 = simulate(params, 200, seed=11)
window = w0.shift(80)
n_steps, n_particles, reps = 5, 1000, 1000

fwd = finite_forward(params, window, n_steps)
triple = eigen_triple(params, window, t_lo=-5, t_hi=n_steps + 40)
phi = np.arange(3, dtype=float)
exact_eta = float(fwd.pred[n_steps] @ phi)
tf = {"id": lambda v: np.asarray(v, dtype=float)}

for name, twist in [("constant", ConstantTwist(params)), ("eigen", triple.as_twist())]:
    cv = exact_clt_variances(params, twist, phi, window, n_steps)
    eta = np.empty(reps)
    gam = np.empty(reps)
    for r in range(reps):
        trace = run_filter(
            "twisted", params, twist, window, n_steps, n_particles,
            seed=11, replicate=r, test_functions=tf,
        )
        scale = np.sqrt(n_particles)
        eta[r] = scale * (trace.eta["id"][n_steps] - exact_eta)
        gam[r] = scale * (
            trace.eta["id"][n_steps] * np.exp(trace.log_z[n_steps] - fwd.log_z[n_steps])
            - exact_eta
        )
    print(f"{name:>8} twist:")
    print(f"    prediction error variance: {eta.var(ddof=1):.3f}  exact {cv.sigma2:.3f}")
    print(
        f"    weighted error variance:   {gam.var(ddof=1):.3f}  exact {cv.varsigma2_rel:.3f}"
    )

print()
print("same first line for both twists; different second line, smaller for eigen")
