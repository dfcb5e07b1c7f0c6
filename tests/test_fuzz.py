"""Seeded config fuzzer.

Every config under ``demos/configs`` and every CLI model preset (under each
experiment that takes it) is shrunk to steps <= 4, particles <= 8 and
replicates <= 4, and resolved, and then mutated one field at a time: type
swaps, 0, -1, 2**63, NaN, +-inf, lags past the window, and for the finite
tables ragged, wrong-shape, non-stochastic, negative and non-finite ones.
Every mutation of every base runs through its registry entry (some
thirteen thousand, a few seconds in all), and so does every base as it is;
a plain numpy generator picks the entries the table variants corrupt. Each
outcome must be one of two things:

* success, with a ``run_from_manifest`` replay that writes the same bytes;
* a ``ConfigError`` naming the mutated field. A joint fault of the model
  parameters may be named by ``model``, or by the table the mutated one
  disagrees with, if the message mentions the mutated parameter too.

Any other exception fails the test, which lists every such outcome.
"""

import copy
import dataclasses
import itertools
import json
import os
import re
import warnings

import numpy as np

from twistpf import harness
from twistpf.cli import _MODEL_PRESETS
from twistpf.config import _PARAMS, ConfigError, eigen_window, load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 20121
_MAX = {"steps": 4, "particles": 8, "replicates": 4}
_NAN, _INF = float("nan"), float("inf")
# top-level fields mutated in every base; the nested ones are listed in place
_TOP_FIELDS = ("filter", "steps", "particles", "replicates", "seed", "workers", "name",
               "ell_grid", "N_grid")
# what any field may be swapped for
_ANY = {"str": "x", "bool": True, "null": None, "list": [], "dict": {}, "zero": 0,
        "minus-one": -1, "int64-overflow": 2**63, "nan": _NAN, "inf": _INF, "-inf": -_INF,
        "fraction": 1.5}


def _shrink(cfg: dict) -> dict:
    cfg = dict(cfg)
    for field, cap in _MAX.items():
        if field in cfg:
            cfg[field] = min(cfg[field], cap)
    if "N_grid" in cfg:
        cfg["N_grid"] = [min(n, _MAX["particles"]) for n in cfg["N_grid"]]
    return cfg


def _bases() -> list:
    """``(label, experiment, config)`` for each starting point. The presets
    run a lag twist (``sv_approx`` on sv) and, on the finite model, the
    eigen twist too, in a window given in full: the eigen margins where the
    experiment or the twist needs them, else the default. They run at seed
    1, and sv at seed 0 too, whose path under ``vol_of_vol: 2**63``
    underflows an observation to exactly 0."""
    bases = []
    for path in sorted(os.listdir(os.path.join(ROOT, "demos", "configs"))):
        with open(os.path.join(ROOT, "demos", "configs", path)) as fh:
            cfg = json.load(fh)
        bases.append((path, cfg["experiment"], _shrink(cfg)))
    for model, preset in _MODEL_PRESETS.items():
        lag = {"kind": "sv_approx" if model == "sv" else "lag", "ell": 1}
        for name, experiment in harness._EXPERIMENTS.items():
            if experiment.finite_only and model != "finite":
                continue
            kinds = ("bootstrap", "twisted", "apf", "sis") if name in (
                "run", "variance-growth") else ("twisted",)
            twists = [lag, {"kind": "exact_h"}] if model == "finite" else [lag]
            for kind, twist, seed in itertools.product(kinds, twists,
                                                       (1, 0) if model == "sv" else (1,)):
                cfg = {"model": dict(preset), "filter": kind, "twist": twist, "seed": seed,
                       **_MAX}
                eigen = experiment.eigen_margins or twist["kind"] == "exact_h"
                cfg["window"] = (eigen_window(cfg["steps"]) if eigen else
                                 {"length": cfg["steps"] + 2, "burn_in": 0})
                bases.append((f"{model}-{name}-{kind}-{twist['kind']}-seed{seed}", name, cfg))
    return bases


def _table_values(table: list, gen) -> dict:
    """Malformed variants of a finite table (a list, or a list of rows)."""
    a = np.array(table, dtype=float)
    row = int(gen.integers(len(a)))
    negative, scaled = a.copy(), 2.0 * a
    if a.ndim == 1:
        negative[row] -= 1.0
        negative[(row + 1) % len(a)] += 1.0
        ragged = [table, table]
    else:
        negative[row, 0] -= 1.0
        negative[row, -1] += 1.0
        ragged = [list(r) for r in table]
        ragged[row] = ragged[row][:-1]
    nan, inf, word = (a.tolist() for _ in range(3))
    flat = [nan, inf, word] if a.ndim == 1 else [nan[row], inf[row], word[row]]
    col = int(gen.integers(len(flat[0])))
    flat[0][col], flat[1][col], flat[2][col] = _NAN, _INF, "x"
    return {"scalar": 0.5, "empty": [], "ragged": ragged, "short": a[:-1].tolist(),
            "long": np.concatenate([a, a[:1]]).tolist(), "transposed": a.T.tolist(),
            "non-stochastic": scaled.tolist(), "negative": negative.tolist(),
            "nan-entry": nan, "inf-entry": inf, "str-entry": word}


def _mutations(gen) -> list:
    """Every ``(label, experiment, field, value label, config)`` mutation; a
    field the base config leaves out is added, but for the window's, which
    are mutated where the base gives a window (one half given alone takes
    the default of the other, and the refusal names that half)."""
    out = []
    for label, name, base in _bases():
        fields = sorted(set(base) - {"model", "twist", "window"} | set(_TOP_FIELDS))
        fields += [f"twist.{f}" for f in ("kind", "ell", "tol")]
        if "window" in base:
            fields += [f"window.{f}" for f in ("length", "burn_in")]
        fields += ["model.kind"] + [f"model.{f.name}"
                                    for f in dataclasses.fields(_PARAMS[base["model"]["kind"]])]
        window = load_config(base).window_length
        for field in fields:
            head, _, key = field.rpartition(".")
            values = dict(_ANY)
            if field in ("model.mu0", "model.trans", "model.emit"):
                values.update(_table_values(base["model"][key], gen))
            if field in ("twist.ell", "ell_grid"):
                values["past-window"] = [window] if field == "ell_grid" else window
            if field in ("ell_grid", "N_grid"):
                values.update({f"[{k}]": [v] for k, v in _ANY.items()})
            for value_label, value in values.items():
                cfg = copy.deepcopy(base)
                (cfg.setdefault(head, {}) if head else cfg)[key] = value
                out.append((label, name, field, value_label, cfg))
    return out


def _names(message: str, field) -> bool:
    if field is not None and f"'{field}'" in message:
        return True
    key = field.rpartition(".")[2] if field else ""
    return (key and field.startswith("model.") and "'model" in message
            and re.search(rf"\b{re.escape(key)}\b", message) is not None)


def _files(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_config_fuzzer_meets_only_named_refusals_and_exact_replays(tmp_path):
    cases = _mutations(np.random.default_rng(SEED))
    assert len(cases) >= 1000
    # every base runs as it is too, so that no base is refused whole
    cases += [(label, name, None, "as-is", cfg) for label, name, cfg in _bases()]
    faults = []
    for i, (label, name, field, value_label, cfg) in enumerate(cases):
        where = f"{label} {name} {field}={value_label}"
        first, replay = str(tmp_path / f"{i}a"), str(tmp_path / f"{i}b")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    result = harness._EXPERIMENTS[name](cfg, first)
                except ConfigError as exc:
                    if not _names(str(exc), field):
                        faults.append(f"{where}: ConfigError not naming {field!r}: {exc}")
                    continue
                harness.run_from_manifest(result.manifest_path, replay)
        except Exception as exc:  # every other outcome is a fault to list
            faults.append(f"{where}: {type(exc).__name__}: {exc}")
            continue
        if _files(first) != _files(replay):
            faults.append(f"{where}: the replay wrote other bytes")
    assert not faults, f"{len(faults)} of {len(cases)} configs:\n" + "\n".join(faults)
