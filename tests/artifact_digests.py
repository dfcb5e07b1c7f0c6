"""Byte-identity check: write a fixed set of CLI artifacts and digest them.

    python tests/artifact_digests.py [--out DIR] [OTHER_TREE]

runs every case of ``CASES`` through the ``twistpf`` command line of this
checkout, each in its own output stem, and every script of ``DEMOS``, and
prints the sha256 of every file written (CSVs and manifests) and of every
demo's stdout, one digest of the set of files and one of the demos' stdout.
With ``OTHER_TREE``, the root of a second checkout, the same cases and that
tree's demos run on its ``src/`` as well, and the script lists the files
whose bytes differ; it exits 1 if any does. Each tree runs in its own
processes.

The set: the configs under ``demos/configs`` (and ``bound`` on the oracle
config); ``run`` and ``variance-growth`` for every filter kind on the finite
model (constant, lags 0-3 and ``exact_h``), the linear-Gaussian model and
the stochastic volatility model; twisted lag grids; ``clt-check``,
``unbiasedness``, ``oracle-check`` and ``bound`` at lags 0-3 and ``exact_h``;
``simulate`` per model; and replicate studies on pools of two and three
workers.
Sizes are small: a tree's files take a few seconds on two cores, its demos
about forty.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FINITE = {
    "kind": "finite", "mu0": [0.5, 0.3, 0.2],
    "trans": [[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]],
    "emit": [[0.70, 0.20, 0.10], [0.15, 0.70, 0.15], [0.10, 0.20, 0.70]],
}
LG = {"kind": "lg", "a": 0.9, "q": 1.0, "r_obs": 1.0}
SV = {"kind": "sv"}
# written out, not read from the package, so the coverage test notices a new kind
FILTERS = ("bootstrap", "twisted", "apf", "sis")
LAGS = (0, 1, 2, 3)
# the twists each model runs under: label -> twist spec
TWISTS = {
    "finite": {"constant": {"kind": "constant"},
               **{f"lag{e}": {"kind": "lag", "ell": e} for e in LAGS},
               "exact_h": {"kind": "exact_h"}},
    "lg": {"constant": {"kind": "constant"},
           **{f"lag{e}": {"kind": "lag", "ell": e} for e in LAGS}},
    "sv": {"constant": {"kind": "constant"},
           **{f"sv{e}": {"kind": "sv_approx", "ell": e} for e in LAGS}},
}
MODELS = {"finite": FINITE, "lg": LG, "sv": SV}
SIZES = {"steps": 8, "particles": 16, "replicates": 12, "seed": 5}
# the scripts under demos/ whose stdout the set digests; written out, so the
# coverage test notices a new one
DEMOS = ("apf_fully_adapted.py", "bootstrap_vs_kalman.py", "clt_check.py",
         "eigen_twist_finite.py", "sis_vs_bootstrap.py", "twisted_variance_growth.py")


def _cases() -> list:
    """``(command, config)`` pairs; every config names its own output stem."""
    cases = []
    for path in sorted(os.listdir(os.path.join(ROOT, "demos", "configs"))):
        with open(os.path.join(ROOT, "demos", "configs", path)) as fh:
            cfg = json.load(fh)
        cases.append((cfg["experiment"], cfg))
        if cfg["experiment"] == "oracle-check":
            cases.append(("bound", dict(cfg, name=cfg["name"] + "_bound")))
    for model, twists in TWISTS.items():
        cases.append(("simulate", {"model": MODELS[model], "steps": 20, "seed": 5,
                                   "name": f"simulate_{model}"}))
        for command in ("run", "variance-growth"):
            for kind in FILTERS:
                for label, twist in twists.items():
                    cases.append((command, {**SIZES, "model": MODELS[model], "filter": kind,
                                            "twist": twist,
                                            "name": f"{command}_{model}_{kind}_{label}"}))
        grid_twist = twists["lag1" if "lag1" in twists else "sv1"]
        for workers in (1, 2, 3):
            cases.append(("variance-growth", {
                **SIZES, "model": MODELS[model], "filter": "twisted", "twist": grid_twist,
                "ell_grid": list(LAGS), "window": {"length": SIZES["steps"] + 1 + max(LAGS)},
                "replicates": 40, "workers": workers,
                "name": f"lag_grid_{model}_workers{workers}"}))
        for kind in FILTERS:
            cases.append(("unbiasedness", {**SIZES, "model": MODELS[model], "filter": kind,
                                           "twist": grid_twist,
                                           "name": f"unbiasedness_{model}_{kind}"}))
    for label, twist in TWISTS["finite"].items():
        if label == "constant":
            continue
        finite = {**SIZES, "model": FINITE, "filter": "twisted", "twist": twist}
        cases += [
            ("clt-check", dict(finite, N_grid=[8, 32], name=f"clt-check_{label}")),
            ("unbiasedness", dict(finite, name=f"unbiasedness_finite_{label}")),
            ("oracle-check", dict(finite, particles=3, name=f"oracle-check_{label}")),
            ("bound", dict(finite, particles=3, name=f"bound_{label}")),
        ]
    for kind in ("twisted", "apf"):
        cases.append(("clt-check", {**SIZES, "model": FINITE, "filter": kind,
                                    "twist": {"kind": "lag", "ell": 2}, "N_grid": [8, 32],
                                    "replicates": 40, "workers": 2,
                                    "name": f"clt-check_{kind}_workers2"}))
    return cases


CASES = _cases()


def write_set(out_dir: str) -> None:
    """Run every case through the command line of the twistpf on the path."""
    from twistpf.cli import main

    cfg_dir, art_dir = os.path.join(out_dir, "configs"), os.path.join(out_dir, "artifacts")
    if os.path.exists(art_dir):
        sys.exit(f"{art_dir} exists: give an --out that holds no earlier set")
    os.makedirs(cfg_dir, exist_ok=True)
    for i, (command, cfg) in enumerate(CASES):
        path = os.path.join(cfg_dir, f"{i}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", path, "--out", art_dir])
        if code != 0:
            sys.exit(f"{command} {cfg['name']}: exit {code}")


def digests(tree: str, out_dir: str) -> tuple:
    """sha256 of every artifact the set writes on ``tree``, by file name, and
    of the stdout of each of ``tree``'s demos, by script name."""
    src = os.path.join(tree, "src")
    env = dict(os.environ, PYTHONPATH=src)
    check = "import twistpf, sys; print(twistpf.__file__)"
    found = subprocess.run([sys.executable, "-c", check], env=env, check=True,
                           capture_output=True, text=True).stdout.strip()
    if not os.path.realpath(found).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"twistpf imports from {found}, not from {src}")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--write", out_dir], env=env,
                   check=True)
    art_dir = os.path.join(out_dir, "artifacts")
    out = {}
    for name in sorted(os.listdir(art_dir)):
        with open(os.path.join(art_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    demos = {}
    for name in DEMOS:
        stdout = subprocess.run([sys.executable, os.path.join(tree, "demos", name)], env=env,
                                cwd=out_dir, check=True, capture_output=True).stdout
        demos[f"demos/{name}"] = hashlib.sha256(stdout).hexdigest()
    return out, demos


def set_digest(files: dict) -> str:
    return hashlib.sha256("".join(f"{d}  {n}\n" for n, d in files.items()).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", help="root of a second checkout to compare with")
    parser.add_argument("--out", help="directory for the artifacts (default: a temporary one)")
    parser.add_argument("--write", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write:
        write_set(args.write)
        return 0
    out = args.out or tempfile.mkdtemp(prefix="artifact-digests-")
    trees = {"this": ROOT}
    if args.other:
        trees["other"] = os.path.abspath(args.other)
    results = {label: digests(tree, os.path.join(out, label)) for label, tree in trees.items()}
    for files in results["this"]:
        for name, digest in files.items():
            print(f"{digest}  {name}")
    for label, (files, demos) in results.items():
        print(f"set {set_digest(files)}  {len(files)} files  {trees[label]}")
        print(f"demos {set_digest(demos)}  {len(demos)} stdouts  {trees[label]}")
    if args.other:
        this, other = ({**files, **demos} for files, demos in results.values())
        differ = sorted(n for n in set(this) | set(other) if this.get(n) != other.get(n))
        for name in differ:
            print(f"differs: {name}")
        print("identical" if not differ else f"{len(differ)} files differ")
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
