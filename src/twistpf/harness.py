"""Experiment harness: configs, replicate studies, CSV artifacts.

Every experiment is a pure function of a resolved config mapping (JSON
document) and writes, next to its CSV output, a manifest holding that
resolved config, the seed and the package version; re-running from the
manifest reproduces the CSV byte for byte, for any worker count.

Replicate ``r`` of any filter uses the counter-based stream
``(seed, replicate=r)``, so paired comparisons across filters and twists
reuse the same replicate indices, and fan-out across processes cannot change
the draws.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .filters import (
    default_test_functions,
    replicate_blocks,
    run_filter,
    sis_run,
    write_runtrace_csv,
)
from .models import (
    FiniteHMMParams,
    LinearGaussianParams,
    SVParams,
    finite_forward,
    kalman_run,
    simulate,
    write_path_csv,
)
from .oracle import (
    exact_clt_variances,
    exact_moments,
    fit_slope,
    upsilon_bound,
    write_oracle_csv,
    write_oracle_summary_csv,
)
from .twists import ConvergenceError, eigen_triple, make_twist

__all__ = [
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

_FILTERS = ("bootstrap", "twisted", "apf", "sis")
_MODEL_KINDS = ("lg", "finite", "sv")
_FIELDS = ("model", "filter", "twist", "steps", "particles", "replicates", "seed",
           "window", "workers", "name", "experiment", "ell_grid", "N_grid")
_NESTED_FIELDS = {"twist": ("kind", "ell", "tol"), "window": ("length", "burn_in")}

# margin, in steps, left and right of the study horizon when a run needs the
# time-varying eigenfunction: wide enough that the sweeps converge well below
# the default certificate tolerance for any reasonably mixing model
EIGEN_MARGIN = 64


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Resolved experiment description; ``raw`` serializes into the manifest."""

    raw: dict
    params: object
    model_kind: str
    filter_kind: str
    twist_spec: dict
    particles: int
    steps: int
    replicates: int
    seed: int
    window_length: int
    burn_in: int
    workers: int
    name: str
    window_explicit: bool = True

    def to_dict(self) -> dict:
        return self.raw


def _need(cfg: dict, field: str, kind=None):
    cur = cfg
    for part in field.split("."):
        if not isinstance(cur, dict) or part not in cur:
            raise ConfigError(f"config field '{field}' is required")
        cur = cur[part]
    if kind is not None and not isinstance(cur, kind):
        raise ConfigError(f"config field '{field}' has the wrong type")
    return cur


def _build_params(model_cfg: dict):
    kind = _need({"model": model_cfg}, "model.kind")
    try:
        if kind == "lg":
            return LinearGaussianParams(
                a=float(_need({"model": model_cfg}, "model.a")),
                q=float(_need({"model": model_cfg}, "model.q")),
                r_obs=float(_need({"model": model_cfg}, "model.r_obs")),
                mu0_mean=float(model_cfg.get("mu0_mean", 0.0)),
                mu0_var=model_cfg.get("mu0_var"),
            )
        if kind == "finite":
            return FiniteHMMParams(
                mu0=np.asarray(_need({"model": model_cfg}, "model.mu0")),
                trans=np.asarray(_need({"model": model_cfg}, "model.trans")),
                emit=np.asarray(_need({"model": model_cfg}, "model.emit")),
            )
        if kind == "sv":
            return SVParams(
                persistence=float(model_cfg.get("persistence", 0.975)),
                vol_of_vol=float(model_cfg.get("vol_of_vol", 0.16)),
                scale=float(model_cfg.get("scale", 0.63)),
            )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field 'model': {exc}") from exc
    raise ConfigError(f"config field 'model.kind' must be one of {_MODEL_KINDS}")


def _reject_unknown_fields(cfg: dict) -> None:
    unknown = sorted(set(cfg) - set(_FIELDS))
    for field, allowed in _NESTED_FIELDS.items():
        if field in cfg:
            sub = _need(cfg, field, dict)
            unknown += [f"{field}.{key}" for key in sorted(set(sub) - set(allowed))]
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(map(repr, unknown))}")


def _need_replicates(config: ExperimentConfig, experiment: str) -> None:
    if config.replicates < 2:
        raise ConfigError(
            f"config field 'replicates' must be >= 2 for {experiment}: "
            "its spread needs at least two replicates"
        )


def load_config(source) -> ExperimentConfig:
    """Build a config from a dict or a path to a JSON document."""
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    else:
        cfg = dict(source)
    _reject_unknown_fields(cfg)
    params = _build_params(_need(cfg, "model", dict))
    filter_kind = cfg.get("filter", "bootstrap")
    if filter_kind not in _FILTERS:
        raise ConfigError(f"config field 'filter' must be one of {_FILTERS}")
    twist_spec = dict(cfg.get("twist", {"kind": "constant"}))
    twist_spec.setdefault("kind", "constant")
    twist_spec.setdefault("ell", 0)
    twist_spec.setdefault("tol", 1e-9)
    window_explicit = "window" in cfg
    window_cfg = cfg.get("window", {})
    steps = int(_need(cfg, "steps"))
    if steps < 0:
        raise ConfigError("config field 'steps' must be >= 0")
    particles = int(cfg.get("particles", 100))
    if particles < 1:
        raise ConfigError("config field 'particles' must be >= 1")
    replicates = int(cfg.get("replicates", 1))
    if replicates < 1:
        raise ConfigError("config field 'replicates' must be >= 1")
    seed = int(cfg.get("seed", 0))
    lookahead_slack = int(twist_spec.get("ell", 0)) + 1
    if not window_explicit and twist_spec.get("kind") == "exact_h":
        window_length = steps + 1 + EIGEN_MARGIN
        burn_in = EIGEN_MARGIN
    else:
        window_length = int(window_cfg.get("length", steps + lookahead_slack))
        burn_in = int(window_cfg.get("burn_in", 0))
    if burn_in < 0:
        raise ConfigError("config field 'window.burn_in' must be >= 0")
    workers = int(cfg.get("workers", 1))
    if workers < 1:
        raise ConfigError("config field 'workers' must be >= 1")
    name = str(cfg.get("name", cfg.get("experiment", "run")))
    resolved = dict(cfg)
    resolved["twist"] = twist_spec
    resolved.setdefault("filter", filter_kind)
    resolved.setdefault("particles", particles)
    resolved.setdefault("replicates", replicates)
    resolved.setdefault("seed", seed)
    resolved["window"] = {"length": window_length, "burn_in": burn_in}
    resolved.setdefault("workers", workers)
    return ExperimentConfig(
        raw=resolved,
        params=params,
        model_kind=cfg["model"]["kind"],
        filter_kind=filter_kind,
        twist_spec=twist_spec,
        particles=particles,
        steps=steps,
        replicates=replicates,
        seed=seed,
        window_length=window_length,
        burn_in=burn_in,
        workers=workers,
        name=name,
        window_explicit=window_explicit,
    )


def _with_eigen_margins(config: ExperimentConfig) -> ExperimentConfig:
    """Widen an implicit window so eigenfunction sweeps can converge."""
    if config.window_explicit:
        return config
    raw = dict(config.to_dict())
    raw["window"] = {
        "length": config.steps + 1 + EIGEN_MARGIN,
        "burn_in": EIGEN_MARGIN,
    }
    return load_config(raw)


def draw_window(params, length: int, burn_in: int, seed: int):
    """Observation window covering absolute indices [-burn_in, length).

    A single path of ``burn_in + length`` steps is simulated and re-centered
    so the experiment's time origin sits mid-stream; the pre-origin stretch is
    available to recursions that need history.
    """
    _, window = simulate(params, burn_in + length, seed)
    return window.shift(burn_in)


def _required_window_length(config: ExperimentConfig) -> int:
    look = int(config.twist_spec.get("ell", 0))
    if config.twist_spec.get("kind") == "exact_h":
        look = 0
    need = config.steps + look + 1
    if config.window_length < need:
        raise ConfigError(
            f"config field 'window.length' = {config.window_length} is too short: "
            f"steps + lookahead needs at least {need} observations"
        )
    return config.window_length


def _eigen_range(config: ExperimentConfig, window):
    # exact_h tables must cover [0, steps + 1]; the certificate uses the margins
    t_lo = 0
    t_hi = config.steps + 1
    if window.end - 1 <= t_hi:
        raise ConfigError(
            "config field 'window.length' is too short for an exact_h twist: "
            f"need observations beyond index {t_hi}"
        )
    return t_lo, t_hi


def _build_twist(config: ExperimentConfig, window, spec=None):
    spec = config.twist_spec if spec is None else spec
    if spec.get("kind") == "exact_h":
        t_lo, t_hi = _eigen_range(config, window)
        triple = eigen_triple(
            config.params, window, tol=float(spec.get("tol", 1e-9)),
            t_lo=t_lo, t_hi=t_hi,
        )
        return triple.as_twist()
    return make_twist(config.params, spec, window=window)


# ---------------------------------------------------------------------------
# replicate execution, serial or process-parallel

_CTX = None


def _context_from_payload(payload: dict):
    config = load_config(payload["config"])
    window = draw_window(
        config.params, config.window_length, config.burn_in, config.seed
    )
    spec = payload.get("twist_override") or config.twist_spec
    model = config.params.fk()
    filter_kind = payload.get("filter_override") or config.filter_kind
    twist = None
    if filter_kind in ("twisted", "apf") or (
        filter_kind == "sis" and spec.get("kind") != "constant"
    ):
        twist = _build_twist(config, window, spec=spec)
    return {
        "config": config,
        "window": window,
        "model": model,
        "twist": twist,
        "filter": filter_kind,
        "steps": payload.get("steps", config.steps),
        "particles": payload.get("particles", config.particles),
        "test_functions": {} if payload.get("skip_eta") else None,
    }


def _run_replicates(ctx, lo: int, hi: int):
    """log_z rows and eta-at-n columns of replicates ``lo .. hi - 1``; each
    block's clouds are dropped as soon as its rows are taken."""
    log_z, eta_n = [], {}
    for block in replicate_blocks(
        ctx["filter"], ctx["model"], ctx["twist"], ctx["window"], ctx["steps"],
        ctx["particles"], ctx["config"].seed, range(lo, hi), ctx["test_functions"],
    ):
        log_z.append(block.log_z)
        for name, arr in block.eta.items():
            eta_n.setdefault(name, []).append(arr[:, ctx["steps"]])
    return np.concatenate(log_z), {name: np.concatenate(v) for name, v in eta_n.items()}


def _worker_init(payload_json: str):
    global _CTX
    _CTX = _context_from_payload(json.loads(payload_json))


def _worker_run(span):
    return _run_replicates(_CTX, *span)


def _collect_replicates(payload: dict, replicates: int, workers: int):
    """log_z matrix (R, steps+1) and eta-at-n dict of (R,) arrays, in replicate order.

    Each worker runs contiguous spans of replicates as blocks; neither the
    spans nor the worker count change a byte of the result.
    """
    if workers <= 1:
        results = [_run_replicates(_context_from_payload(payload), 0, replicates)]
    else:
        payload_json = json.dumps(payload)
        mp_ctx = multiprocessing.get_context("fork")
        size = -(-replicates // workers)
        spans = [(lo, min(lo + size, replicates)) for lo in range(0, replicates, size)]
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp_ctx,
            initializer=_worker_init,
            initargs=(payload_json,),
        ) as pool:
            results = list(pool.map(_worker_run, spans))
    log_z = np.concatenate([res[0] for res in results])
    eta_n = {name: np.concatenate([res[1][name] for res in results])
             for name in sorted(results[0][1])}
    return log_z, eta_n


def _logmeanexp_rows(mat: np.ndarray) -> np.ndarray:
    m = mat.max(axis=0)
    return m + np.log(np.mean(np.exp(mat - m[None, :]), axis=0))


def _second_moment_stats(log_z_col: np.ndarray, log_ref: float):
    """Relative second moment around a reference and its standard error."""
    x = 2.0 * (log_z_col - log_ref)
    m = x.max()
    u = np.exp(x - m)
    mean_u = float(u.mean())
    if log_z_col.size > 1:
        se_rel = float(u.std(ddof=1) / np.sqrt(u.size) / mean_u)
    else:
        se_rel = float("nan")
    v = float(np.exp(m) * mean_u)
    return v, v * se_rel


def _write_manifest(out_dir, stem: str, experiment: str, config: ExperimentConfig, artifacts,
                    extra=None):
    manifest = {
        "experiment": experiment,
        "config": config.to_dict(),
        "seed": config.seed,
        "version": __version__,
        "artifacts": list(artifacts),
        **(extra or {}),
    }
    path = os.path.join(out_dir, f"{stem}_manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _csv_write(path, header, rows):
    import csv as _csv

    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _exact_log_z(config: ExperimentConfig, window):
    if config.model_kind == "finite":
        return finite_forward(config.params, window, config.steps).log_z
    if config.model_kind == "lg":
        return kalman_run(config.params, window, config.steps).log_z
    return None


# ---------------------------------------------------------------------------
# experiments


@dataclass
class ExperimentResult:
    rows: list
    csv_path: str
    manifest_path: str
    extra: dict


def run_variance_growth(source, out_dir: str) -> ExperimentResult:
    """Relative second moment of the normalizing-constant estimator per horizon.

    With an exact reference (finite, linear-Gaussian) V_hat_n is
    mean(Z_hat_n^2) / Z_n^2; without one (stochastic volatility) the reference
    is the mean estimate pooled across every variant in the experiment.
    CSV columns: ``n, v_hat_minus_1, log_v_over_n, se, N, ell, filter``.
    """
    config = load_config(source)
    _required_window_length(config)
    os.makedirs(out_dir, exist_ok=True)
    window = draw_window(config.params, config.window_length, config.burn_in, config.seed)

    kind = config.twist_spec.get("kind")
    if config.filter_kind == "twisted" and kind in ("lag", "sv_approx"):
        ells = [int(e) for e in config.raw.get("ell_grid", [config.twist_spec["ell"]])]
        variants = [
            (config.filter_kind, dict(config.twist_spec, ell=e), e) for e in ells
        ]
    else:
        variants = [(config.filter_kind, config.twist_spec, int(config.twist_spec.get("ell", 0)))]

    per_variant_logz = []
    for filter_kind, spec, _ in variants:
        if filter_kind == "sis":
            ctx = _context_from_payload({"config": config.to_dict()})
            trace = sis_run(
                ctx["model"], window, config.steps, config.replicates,
                config.seed, proposal=ctx["twist"],
            )
            per_variant_logz.append(trace.aux["chain_log_weights"].T.copy())
        else:
            payload = {"config": config.to_dict(), "twist_override": spec,
                       "filter_override": filter_kind, "skip_eta": True}
            log_z, _ = _collect_replicates(payload, config.replicates, config.workers)
            per_variant_logz.append(log_z)

    log_ref = _exact_log_z(config, window)
    if log_ref is None:
        pooled = np.concatenate(per_variant_logz, axis=0)
        log_ref = _logmeanexp_rows(pooled)

    rows = []
    for (filter_kind, spec, ell), log_z in zip(variants, per_variant_logz):
        for n in range(1, config.steps + 1):
            v, se = _second_moment_stats(log_z[:, n], float(log_ref[n]))
            rows.append(
                [
                    n,
                    repr(float(v) - 1.0),
                    repr(float(np.log(v) / n)),
                    repr(float(se)),
                    config.particles if filter_kind != "sis" else 1,
                    ell,
                    filter_kind,
                ]
            )
    stem = config.name if config.name != "run" else "variance_growth"
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    _csv_write(csv_path, ["n", "v_hat_minus_1", "log_v_over_n", "se", "N", "ell", "filter"], rows)
    manifest_path = _write_manifest(out_dir, stem, "variance-growth", config, [os.path.basename(csv_path)])
    return ExperimentResult(rows, csv_path, manifest_path, {})


def run_clt_check(source, out_dir: str) -> ExperimentResult:
    """Empirical vs exact asymptotic variances at the configured horizon.

    Finite models only. For each N in ``N_grid`` and each registered test
    function: the variance of the normalized-estimator error against the
    twist-independent exact value, and the variance of the relative
    unnormalized error against the twist-dependent exact value.
    CSV columns: ``N, phi, emp_var_eta, exact_sigma2, emp_var_gamma,
    exact_varsigma2, se_eta, se_gamma``.
    """
    config = load_config(source)
    if config.model_kind != "finite":
        raise ConfigError("config field 'model.kind' must be 'finite' for clt-check")
    if config.filter_kind == "sis":
        raise ConfigError("config field 'filter' cannot be 'sis' for clt-check")
    _need_replicates(config, "clt-check")
    _required_window_length(config)
    os.makedirs(out_dir, exist_ok=True)
    window = draw_window(config.params, config.window_length, config.burn_in, config.seed)
    n_grid = [int(v) for v in config.raw.get("N_grid", [config.particles])]
    n = config.steps
    fwd = finite_forward(config.params, window, n)
    grid = np.arange(config.params.k)
    tf = default_test_functions(config.params.fk())
    names = sorted(tf)
    phi_vecs = {name: np.asarray(tf[name](grid), dtype=float) for name in names}
    twist = _build_twist(config, window)
    exact = {
        name: exact_clt_variances(config.params, twist, phi_vecs[name], window, n)
        for name in names
    }
    log_z = float(fwd.log_z[n])
    rows = []
    for n_particles in n_grid:
        payload = {"config": config.to_dict(), "particles": n_particles}
        log_z_mat, eta_n = _collect_replicates(payload, config.replicates, config.workers)
        rel_z = np.exp(log_z_mat[:, n] - log_z)
        for name in names:
            eta_exact = float(fwd.pred[n] @ phi_vecs[name])
            err_eta = np.sqrt(n_particles) * (eta_n[name] - eta_exact)
            emp_eta = float(err_eta.var(ddof=1))
            err_gam = np.sqrt(n_particles) * (eta_n[name] * rel_z - eta_exact)
            emp_gam = float(err_gam.var(ddof=1))
            r = config.replicates
            rows.append(
                [
                    n_particles,
                    name,
                    repr(float(emp_eta)),
                    repr(float(exact[name].sigma2)),
                    repr(float(emp_gam)),
                    repr(float(exact[name].varsigma2_rel)),
                    repr(float(emp_eta * np.sqrt(2.0 / (r - 1)))),
                    repr(float(emp_gam * np.sqrt(2.0 / (r - 1)))),
                ]
            )
    stem = config.name if config.name != "run" else "clt_check"
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    _csv_write(
        csv_path,
        ["N", "phi", "emp_var_eta", "exact_sigma2", "emp_var_gamma", "exact_varsigma2", "se_eta", "se_gamma"],
        rows,
    )
    manifest_path = _write_manifest(out_dir, stem, "clt-check", config, [os.path.basename(csv_path)])
    return ExperimentResult(rows, csv_path, manifest_path, {"exact": exact})


def run_unbiasedness(source, out_dir: str) -> ExperimentResult:
    """Replicate-mean of the normalizing-constant estimate against the exact
    value (finite, linear-Gaussian) or a bootstrap companion (stochastic
    volatility), with a 4-standard-error verdict per row."""
    config = load_config(source)
    _need_replicates(config, "unbiasedness")
    _required_window_length(config)
    os.makedirs(out_dir, exist_ok=True)
    window = draw_window(config.params, config.window_length, config.burn_in, config.seed)
    n = config.steps

    def mean_ratio_stats(log_z_col, log_ref):
        w = np.exp(log_z_col - log_ref)
        mean = float(w.mean())
        se = float(w.std(ddof=1) / np.sqrt(w.size))
        return mean, se

    if config.filter_kind == "sis":
        ctx = _context_from_payload({"config": config.to_dict()})
        trace = sis_run(ctx["model"], window, n, config.replicates, config.seed,
                        proposal=ctx["twist"])
        log_z_col = trace.aux["chain_log_weights"][n]
    else:
        payload = {"config": config.to_dict(), "skip_eta": True}
        log_z_mat, _ = _collect_replicates(payload, config.replicates, config.workers)
        log_z_col = log_z_mat[:, n]

    exact = _exact_log_z(config, window)
    if exact is not None:
        mean, se = mean_ratio_stats(log_z_col, float(exact[n]))
        z_score = abs(mean - 1.0) / se
    else:
        payload = {"config": config.to_dict(), "filter_override": "bootstrap",
                   "twist_override": {"kind": "constant", "ell": 0, "tol": 1e-9},
                   "skip_eta": True}
        ref_mat, _ = _collect_replicates(payload, config.replicates, config.workers)
        anchor = float(_logmeanexp_rows(ref_mat[:, n : n + 1])[0])
        mean_a, se_a = mean_ratio_stats(log_z_col, anchor)
        mean_b, se_b = mean_ratio_stats(ref_mat[:, n], anchor)
        mean = mean_a / mean_b
        se = float(np.sqrt((se_a / mean_b) ** 2 + (mean_a * se_b / mean_b**2) ** 2))
        z_score = abs(mean - 1.0) / se
    ok = bool(z_score <= 4.0)
    rows = [
        [
            config.filter_kind,
            config.twist_spec.get("kind"),
            config.twist_spec.get("ell", 0),
            n,
            config.particles,
            config.replicates,
            repr(float(mean)),
            repr(float(se)),
            repr(float(z_score)),
            ok,
        ]
    ]
    stem = config.name if config.name != "run" else "unbiasedness"
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    _csv_write(
        csv_path,
        ["filter", "twist", "ell", "n", "N", "replicates", "mean_ratio", "se", "z_score", "pass"],
        rows,
    )
    manifest_path = _write_manifest(out_dir, stem, "unbiasedness", config, [os.path.basename(csv_path)])
    return ExperimentResult(rows, csv_path, manifest_path, {"pass": ok, "z_score": z_score})


def run_oracle_check(source, out_dir: str) -> ExperimentResult:
    """Exact variance-growth study on the occupation-count chain (finite models).

    Writes ``n, V_tilde, log_V_over_n`` plus a summary with the fitted slope
    and, when the twist has a computable discrepancy to the eigenfunction,
    the growth-rate bound. When the eigen elements cannot be certified on the
    window, the bound cell is empty and the manifest's ``bound_error`` says why.
    """
    config = load_config(source)
    if config.model_kind != "finite":
        raise ConfigError("config field 'model.kind' must be 'finite' for oracle-check")
    config = _with_eigen_margins(config)
    _required_window_length(config)
    os.makedirs(out_dir, exist_ok=True)
    window = draw_window(config.params, config.window_length, config.burn_in, config.seed)
    twist = _build_twist(config, window)
    report = exact_moments(
        config.params, twist, config.particles, window, config.steps
    )
    fit = fit_slope(report.n, report.log_v)
    bound_val = bound_error = None
    if config.particles >= 2:
        try:
            t_lo, t_hi = _eigen_range(config, window)
            triple = eigen_triple(
                config.params, window, tol=float(config.twist_spec.get("tol", 1e-9)),
                t_lo=t_lo, t_hi=t_hi,
            )
            ts = range(1, min(config.steps, t_hi) + 1)
            bound_val = upsilon_bound(triple, twist, window, ts, config.particles).bound
        except (ConvergenceError, ConfigError) as exc:
            bound_error = str(exc)
    stem = config.name if config.name != "run" else "oracle_check"
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    summary_path = os.path.join(out_dir, f"{stem}_summary.csv")
    write_oracle_csv(report, csv_path)
    write_oracle_summary_csv(summary_path, fit, bound_val)
    manifest_path = _write_manifest(
        out_dir, stem, "oracle-check", config,
        [os.path.basename(csv_path), os.path.basename(summary_path)],
        extra={"bound_error": bound_error},
    )
    return ExperimentResult([], csv_path, manifest_path,
                            {"report": report, "fit": fit, "bound": bound_val,
                             "summary_path": summary_path})


def run_single(source, out_dir: str) -> ExperimentResult:
    """One filter run; writes the per-step trace CSV."""
    config = load_config(source)
    _required_window_length(config)
    os.makedirs(out_dir, exist_ok=True)
    ctx = _context_from_payload({"config": config.to_dict()})
    if config.filter_kind == "sis":
        trace = sis_run(ctx["model"], ctx["window"], config.steps,
                        config.replicates, config.seed, proposal=ctx["twist"])
    else:
        trace = run_filter(config.filter_kind, ctx["model"], ctx["twist"], ctx["window"],
                           config.steps, config.particles, config.seed)
    stem = config.name if config.name != "run" else "runtrace"
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    write_runtrace_csv(trace, csv_path)
    manifest_path = _write_manifest(out_dir, stem, "run", config, [os.path.basename(csv_path)])
    return ExperimentResult([], csv_path, manifest_path, {"trace": trace})


def run_simulate(source, out_dir: str) -> ExperimentResult:
    """Simulate a path; writes ``t, x, y``."""
    config = load_config(source)
    os.makedirs(out_dir, exist_ok=True)
    x, window = simulate(config.params, config.steps, config.seed)
    stem = config.name if config.name != "run" else "path"
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    write_path_csv(csv_path, x, window)
    manifest_path = _write_manifest(out_dir, stem, "simulate", config, [os.path.basename(csv_path)])
    return ExperimentResult([], csv_path, manifest_path, {})


def run_bound(source, out_dir: str) -> ExperimentResult:
    """Discrepancy and growth-rate bound for the configured twist (finite models)."""
    config = load_config(source)
    if config.model_kind != "finite":
        raise ConfigError("config field 'model.kind' must be 'finite' for bound")
    config = _with_eigen_margins(config)
    _required_window_length(config)
    os.makedirs(out_dir, exist_ok=True)
    window = draw_window(config.params, config.window_length, config.burn_in, config.seed)
    t_lo, t_hi = _eigen_range(config, window)
    triple = eigen_triple(config.params, window,
                          tol=float(config.twist_spec.get("tol", 1e-9)),
                          t_lo=t_lo, t_hi=t_hi)
    twist = _build_twist(config, window)
    ts = list(range(1, min(config.steps, t_hi) + 1))
    rep = upsilon_bound(triple, twist, window, ts, config.particles)
    stem = config.name if config.name != "run" else "bound"
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    _csv_write(csv_path, ["d_sup", "bound", "N", "twist", "ell"],
               [[repr(float(rep.d_sup)), repr(float(rep.bound)), config.particles,
                 config.twist_spec.get("kind"), config.twist_spec.get("ell", 0)]])
    manifest_path = _write_manifest(out_dir, stem, "bound", config, [os.path.basename(csv_path)])
    return ExperimentResult([], csv_path, manifest_path, {"bound": rep})


_EXPERIMENTS = {
    "variance-growth": run_variance_growth,
    "clt-check": run_clt_check,
    "unbiasedness": run_unbiasedness,
    "oracle-check": run_oracle_check,
    "run": run_single,
    "simulate": run_simulate,
    "bound": run_bound,
}


def run_from_manifest(manifest_path, out_dir: str) -> ExperimentResult:
    """Re-run the experiment recorded in a manifest; reproduces its artifacts."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    experiment = manifest.get("experiment")
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"manifest field 'experiment' unknown: {experiment!r}")
    return _EXPERIMENTS[experiment](manifest["config"], out_dir)
