"""Command-line interface.

Verbs:
  run       execute a preset or an explicit config; writes data + manifest
  verify    re-checksum the output inventory recorded in a manifest
  presets   list the available presets
  analytic  print the closed-form quantities for a config without running it

A run's outputs are bitwise reproducible for identical config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .propagate import DivergenceError
from .runner import (
    PRESETS,
    ConfigError,
    derived_quantities,
    parse_config,
    run_experiment,
    verify_output_dir,
)


def _load_config(args) -> "ExperimentConfig":
    if bool(args.config) == bool(args.preset):
        raise ConfigError(["exactly one of --config PATH or --preset NAME is required"])
    if args.config:
        try:  # utf-8-sig drops the byte-order mark that some editors write
            text = Path(args.config).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError([f"--config {args.config}: cannot read: {exc}"]) from exc
    else:
        text = f"preset = {args.preset}\n"
    cfg = parse_config(text)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError([f"--seed: must be >= 0, got {args.seed}"])
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.out = args.out
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    out_dir = cfg.out or f"runs/{cfg.preset or 'explicit'}"
    manifest = run_experiment(cfg, out_dir)
    for name, result in manifest.checks.items():
        mark = "PASS" if result["passed"] else "FAIL"
        print(f"{mark}  {name}: value={result['value']:.6g} "
              f"{result['comparator']} {result['threshold']:.6g}")
    print(f"wrote {len(manifest.files)} files + manifest.json to {out_dir} "
          f"({manifest.duration_seconds:.1f} s)")
    status = 0 if manifest.ok else 1
    if args.verify:
        ok, report = verify_output_dir(out_dir)
        for line in report:
            print(line)
        status = status or (0 if ok else 1)
    return status


def _cmd_verify(args) -> int:
    ok, report = verify_output_dir(args.out)
    for line in report:
        print(line)
    print("inventory ok" if ok else "inventory MISMATCH")
    return 0 if ok else 1


def _cmd_presets(_args) -> int:
    width = max(len(name) for name in PRESETS)
    for name, preset in sorted(PRESETS.items()):
        print(f"{name:<{width}}  {preset.description}")
    return 0


def _cmd_analytic(args) -> int:
    cfg = _load_config(args)
    derived = derived_quantities(cfg)
    if not derived:
        print("no closed-form quantities for this config")
        return 0
    print(json.dumps(derived, indent=2, sort_keys=True, default=float))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpsim",
        description="two-channel wave-packet dynamics: presets, verification, analytics",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="execute an experiment")
    run.add_argument("--config", help="path to a config file")
    run.add_argument("--preset", help="preset name (see: wpsim presets)")
    run.add_argument("--out", help="output directory (default runs/<preset>)")
    run.add_argument("--seed", type=int, default=None, help="override the base seed")
    run.add_argument("--verify", action="store_true",
                     help="re-checksum the inventory after writing")
    run.set_defaults(fn=_cmd_run)

    verify = sub.add_parser("verify", help="check an existing output directory")
    verify.add_argument("--out", required=True, help="output directory to verify")
    verify.set_defaults(fn=_cmd_verify)

    presets = sub.add_parser("presets", help="list available presets")
    presets.set_defaults(fn=_cmd_presets)

    analytic = sub.add_parser("analytic", help="print closed-form quantities")
    analytic.add_argument("--config", help="path to a config file")
    analytic.add_argument("--preset", help="preset name")
    analytic.add_argument("--seed", type=int, default=None)
    analytic.set_defaults(fn=_cmd_analytic)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except DivergenceError as exc:  # the run wrote nothing
        print(f"run diverged: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
