"""Experiment configs: the JSON schema, its checks and its resolution.

A config is one JSON object. :func:`load_config` rejects unknown fields and
values of the wrong type or range with a :class:`ConfigError` that names the
field, and resolves the defaults into the mapping a manifest records, so a
manifest's config loads back to the same experiment.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields

from .filters import _KINDS
from .models import FiniteHMMParams, LinearGaussianParams, SVParams
from .twists import TWIST_KINDS

__all__ = ["ConfigError", "ExperimentConfig", "EIGEN_MARGIN", "load_config", "read_config"]

_PARAMS = {"lg": LinearGaussianParams, "finite": FiniteHMMParams, "sv": SVParams}
_FIELDS = ("model", "filter", "twist", "steps", "particles", "replicates", "seed",
           "window", "workers", "name", "experiment", "ell_grid", "N_grid")
_NESTED_FIELDS = {"twist": ("kind", "ell", "tol"), "window": ("length", "burn_in")}
# integer fields and their lower bounds (None: any integer, the seed, which
# the streams reduce modulo 2**64); a bounded field is a size, count or index
# and must fit a signed 64-bit integer, as numpy's do. The grids are lists of
# such integers
_INTS = {"steps": 0, "particles": 1, "replicates": 1, "seed": None, "workers": 1,
         "twist.ell": 0, "window.length": 0, "window.burn_in": 0}
_INT_LISTS = {"ell_grid": 0, "N_grid": 1}
# sizes of one float64 row: at 2**60 entries a row spans 2**63 bytes, which
# numpy cannot index
_ROW_LIMIT = 2**60

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


def _need(cfg: dict, field: str, kind=None):
    cur = cfg
    for part in field.split("."):
        if not isinstance(cur, dict) or part not in cur:
            raise ConfigError(f"config field '{field}' is required")
        cur = cur[part]
    if kind is not None and not isinstance(cur, kind):
        raise ConfigError(f"config field '{field}' has the wrong type")
    return cur


def _check_int(value, field: str, low) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field '{field}' must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"config field '{field}' must be >= {low}")
    if low is not None and value >= 2**63:
        raise ConfigError(f"config field '{field}' must be < 2**63, a signed 64-bit integer")


def _check_number(value, field: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field '{field}' must be a number, got {value!r}")


def _check_fields(cfg: dict) -> None:
    """Reject unknown fields, and known ones of the wrong type or range."""
    model = _need(cfg, "model", dict)
    kind = model.get("kind")
    if not isinstance(kind, str) or kind not in _PARAMS:
        raise ConfigError(f"config field 'model.kind' must be one of {tuple(_PARAMS)}")
    nested = dict(_NESTED_FIELDS, model=("kind", *(f.name for f in fields(_PARAMS[kind]))))
    unknown = sorted(set(cfg) - set(_FIELDS))
    for field, allowed in nested.items():
        if field in cfg:
            unknown += [f"{field}.{key}"
                        for key in sorted(set(_need(cfg, field, dict)) - set(allowed))]
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(map(repr, unknown))}")
    for field, low in _INTS.items():
        head, _, key = field.rpartition(".")
        sub = cfg.get(head, {}) if head else cfg
        if key in sub:
            _check_int(sub[key], field, low)
    if kind != "finite":  # finite models take arrays, checked by FiniteHMMParams
        for key, value in model.items():
            if key != "kind" and not (key == "mu0_var" and value is None):
                _check_number(value, f"model.{key}")
    for field, low in _INT_LISTS.items():
        values = cfg.get(field, [low])
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"config field '{field}' must be a non-empty list of integers")
        for value in values:
            _check_int(value, field, low)
    if cfg.get("filter", "bootstrap") not in _KINDS:
        raise ConfigError(f"config field 'filter' must be one of {_KINDS}")
    rows = {"particles": [cfg.get("particles", 1)], "N_grid": cfg.get("N_grid", [1])}
    if cfg.get("filter") == "sis":  # the chains of one run are its replicates
        rows["replicates"] = [cfg.get("replicates", 1)]
    for field, sizes in rows.items():
        if max(sizes) >= _ROW_LIMIT:
            raise ConfigError(f"config field '{field}' must be < 2**60: a row of "
                              f"{max(sizes)} float64 entries cannot be indexed")
    twist, twist_kinds = cfg.get("twist", {}), tuple(TWIST_KINDS[_PARAMS[kind]])
    if twist.get("kind", "constant") not in twist_kinds:
        raise ConfigError(f"config field 'twist.kind' must be one of {twist_kinds} for "
                          f"model kind {kind!r}")
    tol = twist.get("tol", 1.0)
    _check_number(tol, "twist.tol")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"config field 'twist.tol' must be a finite number > 0, got {tol!r}")
    name = cfg.get("name", cfg.get("experiment", "run"))
    if not isinstance(name, str) or name in ("", ".", "..") or os.path.basename(name) != name:
        raise ConfigError(f"config field 'name' must be a file stem, got {name!r}")


def _build_params(cfg: dict):
    model = cfg["model"]
    cls = _PARAMS[model["kind"]]
    for f in fields(cls):
        if f.default is MISSING:
            _need(cfg, f"model.{f.name}")
    try:
        return cls(**{key: value for key, value in model.items() if key != "kind"})
    except (TypeError, ValueError) as exc:
        # the model checks name the parameter they reject as their first word
        key = str(exc).split(" ", 1)[0]
        field = f"model.{key}" if key in model and key != "kind" else "model"
        raise ConfigError(f"config field '{field}': {exc}") from exc


def read_config(source) -> dict:
    """A config mapping from a dict or from a path to a JSON document."""
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            try:
                source = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(source, dict):
        raise ConfigError("config must be a JSON object")
    return dict(source)


def lag_kind(model) -> str | None:
    """The twist kind with a lag of a config's ``model`` mapping, if any."""
    kind = model.get("kind") if isinstance(model, dict) else None
    kinds = TWIST_KINDS.get(_PARAMS.get(str(kind)), {})
    return next((name for name, cls in kinds.items() if cls.lagged), None)


def eigen_window(steps: int) -> dict:
    """The window an eigenfunction needs around ``steps``: margins both sides."""
    return {"length": steps + 1 + EIGEN_MARGIN, "burn_in": EIGEN_MARGIN}


def load_config(source) -> ExperimentConfig:
    """Build a config from a dict or a path to a JSON document."""
    cfg = read_config(source)
    _check_fields(cfg)
    params = _build_params(cfg)
    steps = _need(cfg, "steps")
    twist = {"kind": "constant", "ell": 0, "tol": 1e-9, **cfg.get("twist", {})}
    margins = TWIST_KINDS[type(params)][twist["kind"]].margins
    window = cfg.get("window", eigen_window(steps) if margins else {})
    window = {"length": window.get("length", steps + twist["ell"] + 1),
              "burn_in": window.get("burn_in", 0)}
    raw = {"filter": "bootstrap", "particles": 100, "replicates": 1, "seed": 0, "workers": 1,
           **cfg, "twist": twist, "window": window}
    return ExperimentConfig(
        raw=raw,
        params=params,
        model_kind=cfg["model"]["kind"],
        filter_kind=raw["filter"],
        twist_spec=twist,
        particles=raw["particles"],
        steps=steps,
        replicates=raw["replicates"],
        seed=raw["seed"],
        window_length=window["length"],
        burn_in=window["burn_in"],
        workers=raw["workers"],
        name=cfg.get("name", cfg.get("experiment", "run")),
    )
