"""Command-line entry point.

Subcommands map one-to-one onto the harness experiments. Every run writes its
CSV artifact plus a manifest JSON; ``--config`` names a JSON file, and the
remaining flags override individual fields of it. Errors exit nonzero with a
single ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    ConfigError,
    run_bound,
    run_clt_check,
    run_from_manifest,
    run_oracle_check,
    run_simulate,
    run_single,
    run_unbiasedness,
    run_variance_growth,
)

_COMMANDS = {
    "simulate": run_simulate,
    "run": run_single,
    "variance-growth": run_variance_growth,
    "clt-check": run_clt_check,
    "unbiasedness": run_unbiasedness,
    "oracle-check": run_oracle_check,
    "bound": run_bound,
}

_MODEL_PRESETS = {
    "lg": {"kind": "lg", "a": 0.9, "q": 1.0, "r_obs": 1.0},
    "sv": {"kind": "sv"},
    "finite": {
        "kind": "finite",
        "mu0": [0.5, 0.3, 0.2],
        "trans": [[0.55, 0.25, 0.20], [0.20, 0.55, 0.25], [0.20, 0.30, 0.50]],
        "emit": [[0.40, 0.32, 0.28], [0.29, 0.42, 0.29], [0.30, 0.28, 0.42]],
    },
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", default="out", help="output directory (default: out)")
    p.add_argument("--seed", type=int, help="root seed override")
    p.add_argument("--particles", type=int, help="particles per run override")
    p.add_argument("--steps", type=int, help="time horizon override")
    p.add_argument("--replicates", type=int, help="replicate count override")
    p.add_argument("--lag", type=int, help="twist lookahead override")
    p.add_argument("--filter", choices=["bootstrap", "twisted", "apf", "sis"],
                   help="filter kind override")
    p.add_argument("--model", choices=sorted(_MODEL_PRESETS),
                   help="model preset override (lg, finite, sv)")
    p.add_argument("--workers", type=int, help="process count override")
    p.add_argument("--name", help="output file stem override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistpf",
        description="Particle-filter experiments with twisted proposals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "simulate": "simulate a path and write t,x,y",
        "run": "one filter run; per-step trace CSV",
        "variance-growth": "relative second moment of the normalizer vs horizon",
        "clt-check": "empirical vs exact asymptotic variances (finite models)",
        "unbiasedness": "replicate-mean of the normalizer vs the exact value",
        "oracle-check": "exact cloud-chain variance growth (finite models)",
        "bound": "twist discrepancy and growth-rate bound (finite models)",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        _add_common(p)
    rp = sub.add_parser("reproduce", help="re-run the experiment in a manifest")
    rp.add_argument("manifest", help="manifest JSON written by a previous run")
    rp.add_argument("--out", default="out")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    if args.config:
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    else:
        cfg = {}
    if args.model:
        cfg["model"] = dict(_MODEL_PRESETS[args.model])
    if "model" not in cfg:
        raise ConfigError("config field 'model' is required (or pass --model)")
    for field in ("seed", "particles", "steps", "replicates", "filter", "workers", "name"):
        value = getattr(args, field)
        if value is not None:
            cfg[field] = value
    if args.lag is not None:
        twist = dict(cfg.get("twist", {}))
        twist.setdefault("kind", "lag")
        twist["ell"] = args.lag
        cfg["twist"] = twist
    if "steps" not in cfg:
        raise ConfigError("config field 'steps' is required (or pass --steps)")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            result = run_from_manifest(args.manifest, args.out)
        else:
            cfg = _merge_config(args)
            result = _COMMANDS[args.command](cfg, args.out)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(result.csv_path)
    print(result.manifest_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
