"""Benchmark workloads: inputs built from a seed, experiment calls, output checks.

Each workload is a slice of one of twistpf's replicate studies or exact
oracle runs, driven only through the public harness entry points. A
workload provides:

* ``build(seed)`` -- the set-up the ``setup_s`` metric times: configs, the
  observation windows the harness will draw, and the exact references the
  checks compare against;
* ``calls`` -- the experiment calls of one study pass, ``(entry, config)``;
* ``particle_steps`` -- sum of replicates x steps x particles of one pass;
* ``check(inputs, results, out_dir, report)`` -- output checks on the first
  pass, fed to ``report(name, ok, detail)``;
* optionally ``final(inputs, results, out_dir, report)`` -- checks that need
  one more untimed call after the study (lag-study's replay on the process
  pool).

The checks use exact references (Kalman, forward recursion, exact asymptotic
variances, product-space moments), never golden bytes, and their statistical
margins are one-sided or computed under the exact value wherever the
estimator's heavy right tail would otherwise fail a correct program; see
README.md for the evidence.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from twistpf import (
    ConstantTwist,
    draw_window,
    eigen_triple,
    exact_clt_variances,
    finite_forward,
    load_config,
    run_from_manifest,
)

_TRANS = [[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]]
# acceptance-criteria models: weakly informative emissions for the oracle,
# informative ones (where the twist moves the variance a lot) for the CLT
ACCEPTANCE = {
    "kind": "finite", "mu0": [0.5, 0.3, 0.2], "trans": _TRANS,
    "emit": [[0.40, 0.32, 0.28], [0.29, 0.42, 0.29], [0.30, 0.28, 0.42]],
}
SHARP = {
    "kind": "finite", "mu0": [0.5, 0.3, 0.2], "trans": _TRANS,
    "emit": [[0.70, 0.20, 0.10], [0.15, 0.70, 0.15], [0.10, 0.20, 0.70]],
}
LG = {"kind": "lg", "a": 0.9, "q": 1.0, "r_obs": 1.0}

LAG_STEPS, LAG_PARTICLES, LAG_REPLICATES = 100, 100, 32
LAG_GRID = [0, 1, 2, 5]
SIS_CHAINS = 10_000
CLT_STEPS, CLT_PARTICLES, CLT_REPLICATES = 5, 10_000, 64
ORACLE_RUNS = ((5, 60), (6, 30), (7, 8))   # (particles, horizon)
POOL_WORKERS = 2
EIGEN_MARGIN = 64


@dataclass
class Workload:
    build: Callable[[int], "Inputs"]
    particle_steps: int
    check: Callable
    final: Callable | None = None
    # (info label, indices of the calls that make up the criterion, scale to
    # its 10^4 replicates): acceptance-criterion wall time, extrapolated
    extrapolate: tuple | None = None


@dataclass
class Inputs:
    calls: list                      # [(entry name, config dict)]
    refs: dict = field(default_factory=dict)


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(rows, *cols) -> bool:
    return all(math.isfinite(float(r[c])) for r in rows for c in cols)


def _window(cfg: dict):
    """The window the harness draws for ``cfg`` (explicit in every config here)."""
    conf = load_config(cfg)
    return conf.params, draw_window(conf.params, conf.window_length, conf.burn_in, conf.seed)


# ---------------------------------------------------------------------------
# lag-study: a slice of criterion 8 on the linear-Gaussian model


def _lag_base(seed: int, **over) -> dict:
    cfg = {
        "model": LG, "steps": LAG_STEPS, "particles": LAG_PARTICLES,
        "replicates": LAG_REPLICATES, "seed": seed,
        "window": {"length": LAG_STEPS + max(LAG_GRID) + 5, "burn_in": 20},
    }
    cfg.update(over)
    return cfg


def build_lag(seed: int) -> Inputs:
    lag2 = {"kind": "lag", "ell": 2}
    calls = [
        ("run_variance_growth", _lag_base(seed, name="lag_twisted", filter="twisted",
                                          twist={"kind": "lag", "ell": 0}, ell_grid=LAG_GRID)),
        ("run_variance_growth", _lag_base(seed, name="lag_bootstrap", filter="bootstrap")),
        ("run_variance_growth", _lag_base(seed, name="lag_apf", filter="apf", twist=lag2)),
        ("run_variance_growth", _lag_base(seed, name="lag_sis", filter="sis",
                                          replicates=SIS_CHAINS)),
        ("run_unbiasedness", _lag_base(seed, name="unbiased_bootstrap", filter="bootstrap")),
        ("run_unbiasedness", _lag_base(seed, name="unbiased_apf", filter="apf", twist=lag2)),
    ]
    _window(calls[0][1])
    return Inputs(calls)


def check_lag(inputs: Inputs, results, out_dir: str, report) -> dict:
    for name in ("lag_twisted", "lag_bootstrap", "lag_apf", "lag_sis"):
        rows = read_csv(os.path.join(out_dir, f"{name}.csv"))
        ok = len(rows) > 0 and _finite(rows, "v_hat_minus_1", "log_v_over_n", "se")
        report(f"{name}.finite", ok, f"{len(rows)} rows, all v_hat_minus_1 finite")
    for name in ("unbiased_bootstrap", "unbiased_apf"):
        (row,) = read_csv(os.path.join(out_dir, f"{name}.csv"))
        mean, se = float(row["mean_ratio"]), float(row["se"])
        # one-sided: Z_hat / Z has a heavy right tail at n = 100, so a small
        # replicate mean sits below 1 with an underestimated s.e. far more
        # often than a normal tail predicts; an excess above 1 is not masked
        report(f"{name}.mean_le_1_plus_4se", mean - 1.0 <= 4.0 * se,
               f"mean ratio to Kalman {mean:.4f}, se {se:.4f}")
    rows = read_csv(os.path.join(out_dir, "lag_twisted.csv"))
    rate = {int(r["ell"]): float(r["log_v_over_n"]) for r in rows if int(r["n"]) == LAG_STEPS}
    return {"rate_n100_by_lag": rate, "lag0_rate_above_lag5": rate[0] > rate[max(LAG_GRID)]}


def final_lag(inputs: Inputs, results, out_dir: str, report) -> dict:
    """Replay the twisted variance-growth manifest on the process pool; the
    CSV must not change (worker count never changes a byte)."""
    first = results[0]
    with open(first.manifest_path) as fh:
        manifest = json.load(fh)
    manifest["config"]["workers"] = POOL_WORKERS
    pooled_dir = os.path.join(out_dir, "pooled")
    os.makedirs(pooled_dir, exist_ok=True)
    path = os.path.join(pooled_dir, "lag_twisted_pooled_manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    replay = run_from_manifest(path, pooled_dir)
    with open(first.csv_path, "rb") as a, open(replay.csv_path, "rb") as b:
        same = a.read() == b.read()
    report("lag_twisted.pooled_replay_identical", same,
           f"serial CSV vs {POOL_WORKERS}-worker replay of its manifest")
    return {}


# ---------------------------------------------------------------------------
# clt-largeN: a slice of criterion 6 on the sharp finite model


def build_clt(seed: int) -> Inputs:
    base = {
        "model": SHARP, "filter": "twisted", "steps": CLT_STEPS,
        "particles": CLT_PARTICLES, "N_grid": [CLT_PARTICLES],
        "replicates": CLT_REPLICATES, "seed": seed,
        "window": {"length": CLT_STEPS + 1 + EIGEN_MARGIN, "burn_in": EIGEN_MARGIN},
    }
    calls = [
        ("run_clt_check", dict(base, name="clt_exact_h", twist={"kind": "exact_h", "tol": 1e-9})),
        ("run_clt_check", dict(base, name="clt_constant", twist={"kind": "constant"})),
    ]
    params, window = _window(base)
    triple = eigen_triple(params, window, tol=1e-9, t_lo=0, t_hi=CLT_STEPS + 1)
    twists = {"clt_exact_h": triple.as_twist(), "clt_constant": ConstantTwist(params.fk())}
    grid = np.arange(params.k)
    phis = {"id": grid.astype(float), "is0": (grid == 0).astype(float)}
    exact = {
        (tw, phi): exact_clt_variances(params, twist, vec, window, CLT_STEPS)
        for tw, twist in twists.items() for phi, vec in phis.items()
    }
    return Inputs(calls, {"exact": exact})


def check_clt(inputs: Inputs, results, out_dir: str, report) -> dict:
    r = CLT_REPLICATES
    sigma2 = {}
    for tw in ("clt_exact_h", "clt_constant"):
        for row in read_csv(os.path.join(out_dir, f"{tw}.csv")):
            phi = row["phi"]
            ref = inputs.refs["exact"][(tw, phi)]
            emp, got = float(row["emp_var_eta"]), float(row["exact_sigma2"])
            sigma2[(tw, phi)] = got
            # s.e. of a sample variance when the true variance is the exact one
            se = ref.sigma2 * math.sqrt(2.0 / (r - 1))
            report(f"{tw}.{phi}.emp_var_eta", abs(emp - ref.sigma2) <= 0.05 * ref.sigma2 + 4 * se,
                   f"empirical {emp:.4f} vs exact {ref.sigma2:.4f} (5% + 4 se = "
                   f"{0.05 * ref.sigma2 + 4 * se:.4f})")
            report(f"{tw}.{phi}.exact_matches_reference",
                   math.isclose(got, ref.sigma2, rel_tol=1e-10)
                   and math.isclose(float(row["exact_varsigma2"]), ref.varsigma2_rel, rel_tol=1e-10),
                   "exact_sigma2 and exact_varsigma2 equal the benchmark's own to 1e-10")
    for phi in ("id", "is0"):
        a, b = sigma2[("clt_exact_h", phi)], sigma2[("clt_constant", phi)]
        report(f"sigma2_twist_independent.{phi}", math.isclose(a, b, rel_tol=1e-10),
               f"exact_sigma2 {a!r} (exact_h) vs {b!r} (constant)")
    return {}


# ---------------------------------------------------------------------------
# exact-oracle: product-space moments on the acceptance model, lag-2 twist


def build_oracle(seed: int) -> Inputs:
    calls = []
    refs = {}
    for n_particles, steps in ORACLE_RUNS:
        name = f"oracle_N{n_particles}"
        cfg = {
            "model": ACCEPTANCE, "filter": "twisted", "twist": {"kind": "lag", "ell": 2},
            "steps": steps, "particles": n_particles, "seed": seed, "name": name,
            "window": {"length": steps + 1 + EIGEN_MARGIN, "burn_in": EIGEN_MARGIN},
        }
        calls.append(("run_oracle_check", cfg))
        params, window = _window(cfg)
        refs[name] = finite_forward(params, window, steps).log_z
    return Inputs(calls, refs)


def check_oracle(inputs: Inputs, results, out_dir: str, report) -> dict:
    for (_, cfg), res in zip(inputs.calls, results):
        name = cfg["name"]
        gap = float(np.max(np.abs(res.extra["report"].log_first - inputs.refs[name])))
        report(f"{name}.first_moment", gap <= 1e-10,
               f"max |log E[Z_hat] - log Z| = {gap:.2e} over {cfg['steps']} horizons")
        rows = read_csv(os.path.join(out_dir, f"{name}.csv"))
        v_min = min(float(r["V_tilde"]) for r in rows)
        report(f"{name}.second_moment_ge_1", v_min >= 1.0 - 1e-9,
               f"min V_tilde {v_min!r} (Jensen: E[Z_hat^2] >= Z^2)")
        (summary,) = read_csv(os.path.join(out_dir, f"{name}_summary.csv"))
        ok = summary["bound"] != "" and float(summary["slope"]) <= float(summary["bound"])
        report(f"{name}.slope_le_bound", ok,
               f"slope {summary['slope']} vs bound {summary['bound'] or 'missing'}")
    return {}


WORKLOADS = {
    "lag-study": Workload(
        build_lag,
        particle_steps=LAG_STEPS * (
            LAG_PARTICLES * LAG_REPLICATES * (len(LAG_GRID) + 4) + SIS_CHAINS),
        check=check_lag,
        final=final_lag,
        extrapolate=("criterion_08_extrapolated_s", [0], 10_000 / LAG_REPLICATES),
    ),
    "clt-largeN": Workload(
        build_clt,
        particle_steps=2 * CLT_REPLICATES * CLT_STEPS * CLT_PARTICLES,
        check=check_clt,
        extrapolate=("criterion_06_extrapolated_s", [0, 1], 10_000 / CLT_REPLICATES),
    ),
    "exact-oracle": Workload(
        build_oracle,
        # one exact pass resolves each N-particle system over its horizon once
        particle_steps=sum(n * steps for n, steps in ORACLE_RUNS),
        check=check_oracle,
    ),
}
