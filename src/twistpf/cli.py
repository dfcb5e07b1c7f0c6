"""Command-line entry point.

Subcommands are the entries of the harness's experiment registry, plus
``reproduce``. Every run writes its CSV artifacts plus a manifest JSON;
``--config`` names a JSON file, and the remaining flags override individual
fields of it. Config and missing-file errors exit 2 with a single
``error: ...`` line on stderr; any other error propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, lag_kind, read_config
from .filters import _KINDS
from .harness import _EXPERIMENTS, run_from_manifest

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
    p.add_argument("--filter", choices=_KINDS,
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
    for name, experiment in _EXPERIMENTS.items():
        _add_common(sub.add_parser(name, help=experiment.help))
    rp = sub.add_parser("reproduce", help="re-run the experiment in a manifest")
    rp.add_argument("manifest", help="manifest JSON written by a previous run")
    rp.add_argument("--out", default="out")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = read_config(args.config) if args.config else {}
    if args.model:
        cfg["model"] = dict(_MODEL_PRESETS[args.model])
    if "model" not in cfg:
        raise ConfigError("config field 'model' is required (or pass --model)")
    for field in ("seed", "particles", "steps", "replicates", "filter", "workers", "name"):
        value = getattr(args, field)
        if value is not None:
            cfg[field] = value
    twist = cfg.get("twist", {})
    if args.lag is not None and isinstance(twist, dict):  # else load_config names 'twist'
        cfg["twist"] = {"kind": lag_kind(cfg["model"]), **twist, "ell": args.lag}
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
            result = _EXPERIMENTS[args.command](cfg, args.out)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.csv_path)
    print(result.manifest_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
