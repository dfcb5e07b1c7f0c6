"""Particle filters for hidden Markov models, with twisted proposals and
exact small-model oracles.

The library is organized in layers:

- :mod:`twistpf.windows`, :mod:`twistpf.rng` -- observation indexing and
  counter-based random streams.
- :mod:`twistpf.fkcore` -- the model interface and the numeric kernels
  (lookups, categorical draws, log-sum-exp) the models and twists share.
- :mod:`twistpf.models` -- the models (finite HMM, linear-Gaussian,
  stochastic volatility), each parameter class its own Feynman-Kac model,
  checked once when built, and exact references (the finite operator,
  forward recursion, Kalman).
- :mod:`twistpf.twists` -- twist functions: constant, finite-lookahead,
  Gaussian and volatility approximations, and the time-varying
  eigenfunction with its convergence certificate; the one table of each
  model's twist kinds.
- :mod:`twistpf.filters` -- bootstrap, twisted, auxiliary and
  importance-sampling runs, four kinds of one step loop, all returning a
  :class:`RunTrace`.
- :mod:`twistpf.oracle` -- exact cloud-chain moments, asymptotic variances
  and the growth-rate bound, for validating the samplers.
- :mod:`twistpf.config` -- experiment configs: schema, checks, defaults.
- :mod:`twistpf.harness` -- the experiment registry and its one runner:
  replicate studies, CSV artifacts, manifests.
"""

__version__ = "0.1.0"

from .fkcore import FKModel
from .filters import RunTrace, default_test_functions, replicate_blocks, run_filter
from .config import ConfigError, ExperimentConfig, load_config
from .harness import (
    draw_window,
    run_bound,
    run_clt_check,
    run_from_manifest,
    run_oracle_check,
    run_simulate,
    run_single,
    run_unbiasedness,
    run_variance_growth,
)
from .models import (
    FiniteHMMParams,
    LinearGaussianParams,
    SVParams,
    finite_forward,
    kalman_run,
    q_apply_log,
    simulate,
)
from .oracle import (
    BoundReport,
    CltVariances,
    OracleReport,
    SlopeFit,
    exact_clt_variances,
    exact_moments,
    fit_slope,
    upsilon_bound,
)
from .rng import RngStream
from .twists import (
    ConstantTwist,
    ConvergenceError,
    EigenTriple,
    EigenTwist,
    FiniteLagTwist,
    LinearGaussianLagTwist,
    StochasticVolatilityTwist,
    TwistFunction,
    eigen_triple,
    make_twist,
)
from .windows import LookaheadError, ObservationWindow

__all__ = [
    "__version__",
    "ObservationWindow",
    "LookaheadError",
    "RngStream",
    "FKModel",
    "q_apply_log",
    "LinearGaussianParams",
    "FiniteHMMParams",
    "SVParams",
    "simulate",
    "kalman_run",
    "finite_forward",
    "TwistFunction",
    "ConstantTwist",
    "FiniteLagTwist",
    "LinearGaussianLagTwist",
    "StochasticVolatilityTwist",
    "EigenTriple",
    "EigenTwist",
    "eigen_triple",
    "make_twist",
    "ConvergenceError",
    "RunTrace",
    "replicate_blocks",
    "run_filter",
    "default_test_functions",
    "exact_moments",
    "OracleReport",
    "exact_clt_variances",
    "CltVariances",
    "upsilon_bound",
    "BoundReport",
    "SlopeFit",
    "fit_slope",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "draw_window",
    "run_variance_growth",
    "run_clt_check",
    "run_unbiasedness",
    "run_oracle_check",
    "run_single",
    "run_simulate",
    "run_bound",
    "run_from_manifest",
]
