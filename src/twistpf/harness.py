"""Experiment harness: the experiment registry, replicate studies, CSV artifacts.

Every experiment is a registry entry: a body that turns a resolved config
(JSON document) and its observation window into CSV tables, plus the
preconditions it needs. One runner resolves the config, draws the window,
runs the body and writes each table as CSV next to a manifest holding the
resolved config, the seed and the package version; re-running from the
manifest reproduces every CSV byte for byte, for any worker count.

Replicate ``r`` of any filter uses the counter-based stream
``(seed, replicate=r)``, so paired comparisons across filters and twists
reuse the same replicate indices, and fan-out across processes cannot change
the draws. A replicate study is one loop over the engine's blocks
(:func:`twistpf.filters.replicate_blocks`), which run on ``workers``
processes of the engine's pool; the harness holds no pool of its own.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, eigen_window, load_config, read_config
from .filters import default_test_functions, replicate_blocks, run_filter
from .models import finite_forward, kalman_run, simulate
from .oracle import _MAX_STATES, exact_clt_variances, exact_moments, fit_slope, upsilon_bound
from .twists import ConvergenceError, EigenTwist, eigen_triple, make_twist

__all__ = [
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


def draw_window(params, length: int, burn_in: int, seed: int):
    """Observation window covering absolute indices [-burn_in, length).

    A single path of ``burn_in + length`` steps is simulated and re-centered
    so the experiment's time origin sits mid-stream; the pre-origin stretch is
    available to recursions that need history.
    """
    _, window = simulate(params, burn_in + length, seed)
    return window.shift(burn_in)


def _eigen(config: ExperimentConfig, window, tol):
    """The eigen triple on [0, steps + 1]; the certificate uses the margins."""
    t_hi = config.steps + 1
    if window.end - 1 <= t_hi:
        raise ConfigError("config field 'window.length' is too short for an exact_h twist: "
                          f"need observations beyond index {t_hi}")
    return eigen_triple(config.params, window, tol=float(tol), t_lo=0, t_hi=t_hi)


def _build_twist(config: ExperimentConfig, window, spec: dict, filter_kind="twisted"):
    """The twist (auxiliary weight, SIS proposal) of ``spec`` for a filter;
    None for the bootstrap filter, which runs without one."""
    if filter_kind == "bootstrap":
        return None
    if spec["kind"] != "exact_h":
        return make_twist(config.params, spec)
    try:
        return _eigen(config, window, spec["tol"]).as_twist()
    except ConvergenceError as exc:
        raise _short_margin(exc) from exc


def _short_margin(exc: ConvergenceError) -> ConfigError:
    """An eigen certificate's failure as the window field to widen."""
    field = "window.burn_in" if exc.edge == "left" else "window.length"
    return ConfigError(f"config field '{field}' leaves too short a margin for the eigen "
                       f"elements: {exc}")


def _lag_grid(config: ExperimentConfig):
    """The ``ell_grid`` of a twisted run with a lag twist, else None: the lags
    variance-growth runs in place of the twist's own."""
    if config.filter_kind == "twisted" and config.twist_spec["kind"] in ("lag", "sv_approx"):
        return config.raw.get("ell_grid")
    return None


def _growth_bound(config: ExperimentConfig, window, twist):
    """Twist discrepancy and growth-rate bound over ``t = 1 .. steps``."""
    triple = (twist.triple if isinstance(twist, EigenTwist)
              else _eigen(config, window, config.twist_spec["tol"]))
    return upsilon_bound(triple, twist, window, range(1, config.steps + 1), config.particles)


def _replicates(config: ExperimentConfig, window, filter_kind: str, twists=None,
                particles=None, step=None, eta=False):
    """Per twist of ``twists`` (default: the config's twist), the log_z of
    ``config.replicates`` replicates of one filter, in replicate order: the
    (R, steps+1) matrix, or with ``step`` its (R,) column at that step and,
    with ``eta``, the dict of (R,) eta columns there.

    The twists run as one grid: one engine pass, whose rows share each
    replicate's draws, on ``config.workers`` processes. A study that names
    its step gets only that column from the engine; no block boundary or
    worker count changes a byte of the result. SIS serves only a named step
    (``unbiasedness``): its replicates are the chains of one run, which
    share its stream, and the run keeps their weights at that step alone.
    """
    if twists is None:
        twists = [_build_twist(config, window, config.twist_spec, filter_kind)]
    particles = config.particles if particles is None else particles
    if filter_kind == "sis":
        (block,) = replicate_blocks("sis", config.params, twists[0], window, config.steps,
                                    config.replicates, config.seed, [0], {}, step=step)
        return [(block.aux["chain_log_weights"][0], {})]
    log_z, eta_at = [[] for _ in twists], [{} for _ in twists]
    for block in replicate_blocks(
        filter_kind, config.params, twists, window, config.steps, particles, config.seed,
        range(config.replicates), None if eta else {}, workers=config.workers, step=step,
    ):
        size = len(block.log_z) // len(twists)  # the rows are twist-major
        for i in range(len(twists)):
            rows = slice(i * size, (i + 1) * size)
            log_z[i].append(block.log_z[rows])
            for name, arr in block.eta.items():
                eta_at[i].setdefault(name, []).append(arr[rows])
    return [(np.concatenate(z), {name: np.concatenate(v) for name, v in e.items()})
            for z, e in zip(log_z, eta_at)]


def _logmeanexp_rows(mat: np.ndarray) -> np.ndarray:
    m = mat.max(axis=0)
    return m + np.log(np.mean(np.exp(mat - m[None, :]), axis=0))


def _moment_rows(log_z: np.ndarray, log_ref: np.ndarray):
    """For each row of an (h, R) contiguous matrix of log normalizers, the
    relative second moment ``V`` around ``log_ref`` (h,), its standard error,
    and ``log V`` in the log domain, which stays finite where ``V``
    underflows to 0. Each row gives the bits it gives alone."""
    r = log_z.shape[1]
    x = 2.0 * (log_z - log_ref[:, None])
    m = x.max(axis=1)
    u = np.exp(x - m[:, None])
    mean_u = u.mean(axis=1)
    se_rel = u.std(axis=1, ddof=1) / np.sqrt(r) / mean_u if r > 1 else np.full(len(u), np.nan)
    v = np.exp(m) * mean_u
    return v, v * se_rel, m + np.log(mean_u)


# bytes of one chunk of horizons the second-moment statistics reduce at once;
# their temporaries are a few chunks, so a study's peak memory stays its own
_STATS_BYTES = 1 << 18


def _second_moment_stats(log_z: np.ndarray, log_ref: np.ndarray):
    """:func:`_moment_rows` for each horizon ``n >= 1`` of an (R, steps + 1)
    matrix of log normalizers, around ``log_ref[n]``. Horizons are reduced as
    the rows of contiguous (horizons, R) chunks."""
    span = max(1, _STATS_BYTES // (8 * len(log_z)))
    chunks = [_moment_rows(np.ascontiguousarray(log_z[:, lo:lo + span].T), log_ref[lo:lo + span])
              for lo in range(1, log_z.shape[1], span)]
    return tuple(np.concatenate(stat) for stat in zip(*chunks))


def _sis_moment_stats(config: ExperimentConfig, window, twist, log_ref):
    """:func:`_moment_rows` for each horizon ``n >= 1`` of an SIS run whose
    chains are the replicates, reduced as the chains reach it: no step keeps
    the chains' weights. Without an exact ``log_ref`` (stochastic volatility)
    a horizon's reference is the log mean of its own chain weights."""
    stats = np.empty((3, config.steps))

    def reduce(p, lv):
        ref = _logmeanexp_rows(lv[0][:, None]) if log_ref is None else log_ref[p:p + 1]
        stats[:, p - 1:p] = _moment_rows(lv, ref)

    for _ in replicate_blocks("sis", config.params, twist, window, config.steps,
                              config.replicates, config.seed, [0], {}, on_step=reduce):
        pass
    return stats


def _mean_ratio_stats(log_z_col: np.ndarray, log_ref: float):
    w = np.exp(log_z_col - log_ref)
    return float(w.mean()), float(w.std(ddof=1) / np.sqrt(w.size))


def _exact_log_z(config: ExperimentConfig, window):
    """Exact log Z_0 .. log Z_steps (finite, linear-Gaussian), else None."""
    exact = {"finite": finite_forward, "lg": kalman_run}.get(config.model_kind)
    return None if exact is None else exact(config.params, window, config.steps).log_z


# ---------------------------------------------------------------------------
# the runner: one path for every registered experiment


@dataclass
class ExperimentResult:
    csv_path: str
    manifest_path: str
    extra: dict


class _Output(NamedTuple):
    tables: dict                # file-stem suffix -> (header, rows); "" is the main CSV
    extra: dict | None = None   # returned in ExperimentResult.extra
    manifest: dict | None = None  # top-level manifest fields beside the config


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_manifest(out_dir, stem: str, experiment: str, config: ExperimentConfig, artifacts,
                    extra=None):
    manifest = {"experiment": experiment, "config": config.raw, "seed": config.seed,
                "version": __version__, "artifacts": list(artifacts), **(extra or {})}
    path = os.path.join(out_dir, f"{stem}_manifest.json")
    # one write: json.dump would write the encoder's chunks one by one
    with open(path, "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _setup(source, experiment: Experiment):
    """Resolve a config, check an experiment's preconditions and draw the
    window: the one place any of these happens, for every run."""
    cfg = read_config(source)
    config = load_config(cfg)
    if experiment.finite_only and config.model_kind != "finite":
        raise ConfigError(f"config field 'model.kind' must be 'finite' for {experiment.name}")
    for field, holds, rule, why in experiment.requires:
        if not holds(config):
            raise ConfigError(f"config field '{field}' must be {rule} for "
                              f"{experiment.name}: {why}")
    if experiment.eigen_margins and "window" not in cfg:
        # widen an implicit window so the eigenfunction sweeps can converge
        window = eigen_window(config.steps)
        config = replace(config, raw=dict(config.raw, window=window),
                         window_length=window["length"], burn_in=window["burn_in"])
    if not experiment.windowed:
        return config, None
    lookahead = 0 if config.twist_spec["kind"] == "exact_h" else config.twist_spec["ell"]
    need = config.steps + 1 + lookahead
    if config.window_length < need:
        raise ConfigError(f"config field 'window.length' = {config.window_length} is too short "
                          f"for 'steps' = {config.steps} and 'twist.ell' = {lookahead}: "
                          f"need at least {need} observations")
    grid = _lag_grid(config)
    if grid and config.window_length < config.steps + 1 + max(grid):
        raise ConfigError(f"config field 'ell_grid' = {grid} outruns the window: lag {max(grid)} "
                          f"needs window.length >= {config.steps + 1 + max(grid)}, "
                          f"got {config.window_length}")
    window = draw_window(config.params, config.window_length, config.burn_in, config.seed)
    if not np.isfinite(window.values).all():
        raise ConfigError(f"config field 'model': the observations drawn from {config.params!r} "
                          "are not all finite; the parameters overflow float64")
    return config, window


@dataclass(frozen=True)
class Experiment:
    """A registered experiment; calling it with ``(source, out_dir)`` runs it.

    ``body(config, window)`` returns the CSV tables; the other fields are its
    preconditions: finite models only, rules on config fields (``requires``,
    ``(field, holds, rule, reason)`` with ``holds(config)`` a test, checked
    before any window is drawn), the eigen margins around an implicit window,
    and whether it needs a window.
    """

    name: str
    stem: str
    help: str
    body: Callable
    finite_only: bool = False
    requires: tuple = ()
    eigen_margins: bool = False
    windowed: bool = True

    def __call__(self, source, out_dir: str) -> ExperimentResult:
        config, window = _setup(source, self)
        out = self.body(config, window)
        stem = config.name if config.name != "run" else self.stem
        os.makedirs(out_dir, exist_ok=True)
        names = []
        for suffix, (header, rows) in out.tables.items():
            names.append(f"{stem}{suffix}.csv")
            _write_csv(os.path.join(out_dir, names[-1]), header, rows)
        manifest_path = _write_manifest(out_dir, stem, self.name, config, names, out.manifest)
        return ExperimentResult(os.path.join(out_dir, names[0]), manifest_path, out.extra or {})


# ---------------------------------------------------------------------------
# experiment bodies


def _simulate(config: ExperimentConfig, _window) -> _Output:
    """A simulated state path and its observations."""
    x, window = simulate(config.params, config.steps, config.seed)
    rows = [[window.origin + i, x[i], window.values[i]] for i in range(x.shape[0])]
    return _Output({"": (["t", "x", "y"], rows)})


def _single(config: ExperimentConfig, window) -> _Output:
    """The per-step trace of one filter run."""
    twist = _build_twist(config, window, config.twist_spec, config.filter_kind)
    # the chains of an SIS run are its replicates
    n = config.replicates if config.filter_kind == "sis" else config.particles
    trace = run_filter(config.filter_kind, config.params, twist, window, config.steps, n,
                       config.seed)
    names = sorted(trace.eta)
    header = ["n", "log_Z", "log_phi", *(f"eta_phi_{n}" for n in names),
              *(f"gamma_phi_{n}" for n in names)]
    cols = [trace.log_z, trace.log_phi, *(trace.eta[n] for n in names),
            *(trace.gamma(n) for n in names)]
    rows = [[p, *(repr(float(col[p])) for col in cols)] for p in range(trace.n_steps + 1)]
    return _Output({"": (header, rows)}, {"trace": trace})


def _variance_growth(config: ExperimentConfig, window) -> _Output:
    """V_hat_n = mean(Z_hat_n^2) / Z_n^2 per horizon n and lag; without an exact
    Z_n (stochastic volatility) the mean estimate pooled over the lags stands in."""
    spec = config.twist_spec
    ells = _lag_grid(config) or [spec["ell"]]
    twists = [_build_twist(config, window, dict(spec, ell=e), config.filter_kind) for e in ells]
    log_ref = _exact_log_z(config, window)
    if config.filter_kind == "sis":
        stats = [_sis_moment_stats(config, window, twists[0], log_ref)]
    else:
        log_zs = [log_z for log_z, _ in _replicates(config, window, config.filter_kind, twists)]
        if log_ref is None:
            log_ref = _logmeanexp_rows(np.concatenate(log_zs, axis=0))
        stats = [_second_moment_stats(log_z, log_ref) for log_z in log_zs]
    n_col = config.particles if config.filter_kind != "sis" else 1
    rows = []
    for ell, (v_hat, se_hat, log_v) in zip(ells, stats):
        for n, v, se, lv in zip(range(1, config.steps + 1), v_hat.tolist(), se_hat.tolist(),
                                log_v.tolist()):
            # log V from V itself, but from the log domain where V underflows
            log_v_n = float(np.log(v)) if v > 0.0 else lv
            rows.append([n, repr(v - 1.0), repr(log_v_n / n), repr(se), n_col, ell,
                         config.filter_kind])
    return _Output({"": (["n", "v_hat_minus_1", "log_v_over_n", "se", "N", "ell", "filter"],
                         rows)})


def _clt_check(config: ExperimentConfig, window) -> _Output:
    """Per N in ``N_grid`` and test function, the empirical variances of the
    normalized and the relative unnormalized errors at the horizon against the
    exact asymptotic ones (sigma2 twist-free, varsigma2 twist-dependent)."""
    if config.filter_kind == "sis":
        raise ConfigError("config field 'filter' cannot be 'sis' for clt-check")
    n, r = config.steps, config.replicates
    fwd = finite_forward(config.params, window, n)
    grid = np.arange(config.params.k)
    tf = default_test_functions(config.params)
    phi_vecs = {name: np.asarray(tf[name](grid), dtype=float) for name in sorted(tf)}
    twist = _build_twist(config, window, config.twist_spec)
    exact = {name: exact_clt_variances(config.params, twist, vec, window, n)
             for name, vec in phi_vecs.items()}
    log_z = float(fwd.log_z[n])
    rows = []
    for n_particles in config.raw.get("N_grid", [config.particles]):
        ((log_z_n, eta_n),) = _replicates(config, window, config.filter_kind, [twist],
                                           particles=n_particles, step=n, eta=True)
        rel_z = np.exp(log_z_n - log_z)
        for name, vec in phi_vecs.items():
            eta_exact = float(fwd.pred[n] @ vec)
            emp_eta = float((np.sqrt(n_particles) * (eta_n[name] - eta_exact)).var(ddof=1))
            emp_gam = float((np.sqrt(n_particles) * (eta_n[name] * rel_z - eta_exact)).var(ddof=1))
            rows.append([n_particles, name, repr(emp_eta), repr(float(exact[name].sigma2)),
                         repr(emp_gam), repr(float(exact[name].varsigma2_rel)),
                         repr(float(emp_eta * np.sqrt(2.0 / (r - 1)))),
                         repr(float(emp_gam * np.sqrt(2.0 / (r - 1))))])
    header = ["N", "phi", "emp_var_eta", "exact_sigma2", "emp_var_gamma", "exact_varsigma2",
              "se_eta", "se_gamma"]
    return _Output({"": (header, rows)}, {"exact": exact})


def _unbiasedness(config: ExperimentConfig, window) -> _Output:
    """Replicate-mean of Z_hat_n against the exact Z_n, or against a bootstrap
    companion (stochastic volatility), with a 4-standard-error verdict."""
    n = config.steps
    ((log_z_col, _),) = _replicates(config, window, config.filter_kind, step=n)
    exact = _exact_log_z(config, window)
    if exact is not None:
        mean, se = _mean_ratio_stats(log_z_col, float(exact[n]))
    else:
        ((ref, _),) = _replicates(config, window, "bootstrap", step=n)
        anchor = float(_logmeanexp_rows(ref[:, None])[0])
        mean_a, se_a = _mean_ratio_stats(log_z_col, anchor)
        mean_b, se_b = _mean_ratio_stats(ref, anchor)
        mean = mean_a / mean_b
        se = float(np.sqrt((se_a / mean_b) ** 2 + (mean_a * se_b / mean_b**2) ** 2))
    if se == 0.0:  # every ratio the same: no spread to judge the mean by
        z_score = 0.0 if mean == 1.0 else math.inf
    else:
        z_score = abs(mean - 1.0) / se
    ok = bool(se > 0.0 and z_score <= 4.0)
    spec = config.twist_spec
    row = [config.filter_kind, spec["kind"], spec["ell"], n, config.particles,
           config.replicates, repr(float(mean)), repr(float(se)), repr(float(z_score)), ok]
    header = ["filter", "twist", "ell", "n", "N", "replicates", "mean_ratio", "se", "z_score",
              "pass"]
    return _Output({"": (header, [row])}, {"pass": ok, "z_score": z_score})


def _oracle_check(config: ExperimentConfig, window) -> _Output:
    """Exact V_tilde_n on the occupation-count chain, and a ``_summary`` of its
    fitted slope and the growth-rate bound; when the eigen elements cannot be
    certified on the window the bound cell is empty and ``bound_error`` says why."""
    twist = _build_twist(config, window, config.twist_spec)
    report = exact_moments(config.params, twist, config.particles, window, config.steps)
    fit = fit_slope(report.n, report.log_v)
    bound = bound_error = None
    if config.particles >= 2:
        try:
            bound = _growth_bound(config, window, twist).bound
        except (ConvergenceError, ConfigError) as exc:
            bound_error = str(exc)
    rows = [[int(p), repr(float(np.exp(lv))), repr(float(lv / p if p > 0 else 0.0))]
            for p, lv in zip(report.n, report.log_v)]
    summary = [repr(float(fit.slope)), repr(float(fit.stderr)),
               "" if bound is None else repr(float(bound))]
    return _Output(
        {"": (["n", "V_tilde", "log_V_over_n"], rows),
         "_summary": (["slope", "slope_stderr", "bound"], [summary])},
        {"report": report, "fit": fit, "bound": bound},
        {"bound_error": bound_error},
    )


def _bound(config: ExperimentConfig, window) -> _Output:
    """Discrepancy to the eigenfunction and growth-rate bound of the twist."""
    twist = _build_twist(config, window, config.twist_spec)
    try:
        rep = _growth_bound(config, window, twist)
    except ConvergenceError as exc:
        raise _short_margin(exc) from exc
    spec = config.twist_spec
    row = [repr(float(rep.d_sup)), repr(float(rep.bound)), config.particles, spec["kind"],
           spec["ell"]]
    return _Output({"": (["d_sup", "bound", "N", "twist", "ell"], [row])}, {"bound": rep})


def _at_least(field: str, low: int, why: str) -> tuple:
    return field, lambda config: getattr(config, field) >= low, f">= {low}", why


_SPREAD = _at_least("replicates", 2, "its spread needs at least two replicates")
_CHAIN_STATES = (
    "particles",
    lambda config: math.comb(config.particles + config.params.k - 1,
                             config.params.k - 1) <= _MAX_STATES,
    f"small enough that C(particles + k - 1, k - 1) <= {_MAX_STATES}",
    "the exact cloud chain has one state per occupation count of the k states")

run_simulate = Experiment("simulate", "path", "simulate a path and write t,x,y", _simulate,
                          windowed=False)
run_single = Experiment("run", "runtrace", "one filter run; per-step trace CSV", _single)
run_variance_growth = Experiment(
    "variance-growth", "variance_growth",
    "relative second moment of the normalizer vs horizon", _variance_growth,
    requires=(_at_least("steps", 1, "its first horizon is n = 1"),))
run_clt_check = Experiment(
    "clt-check", "clt_check", "empirical vs exact asymptotic variances (finite models)",
    _clt_check, finite_only=True, requires=(_SPREAD,))
run_unbiasedness = Experiment(
    "unbiasedness", "unbiasedness", "replicate-mean of the normalizer vs the exact value",
    _unbiasedness,
    requires=(_SPREAD, _at_least("steps", 1, "at n = 0 every estimate is Z_0 = 1 exactly")))
run_oracle_check = Experiment(
    "oracle-check", "oracle_check", "exact cloud-chain variance growth (finite models)",
    _oracle_check, finite_only=True, eigen_margins=True,
    requires=(_at_least("steps", 3, "its slope fit needs at least three horizons"),
              _CHAIN_STATES))
run_bound = Experiment(
    "bound", "bound", "twist discrepancy and growth-rate bound (finite models)", _bound,
    finite_only=True, eigen_margins=True,
    requires=(_at_least("particles", 2,
                        "the bound log(1 + d_sup / (N - 1)) is undefined at N = 1"),
              _at_least("steps", 1, "its bound is taken over t = 1 .. steps")))

_EXPERIMENTS = {e.name: e for e in (run_simulate, run_single, run_variance_growth,
                                    run_clt_check, run_unbiasedness, run_oracle_check,
                                    run_bound)}


def run_from_manifest(manifest_path, out_dir: str) -> ExperimentResult:
    """Re-run the experiment recorded in a manifest; reproduces its artifacts."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    experiment = manifest.get("experiment")
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"manifest field 'experiment' unknown: {experiment!r}")
    return _EXPERIMENTS[experiment](manifest["config"], out_dir)
