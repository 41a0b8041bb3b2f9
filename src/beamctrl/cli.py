"""Command line entry point: validate configs, run experiments, read reports,
export binary field snapshots as CSV."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .experiments import emit_plot_data, run
from .io import export_field_csv, read_flat_report


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(f"ok: kind={cfg.kind} hash={cfg.config_hash}")
    return 0


def _cmd_run(args) -> int:
    manifest = run(load_config(args.config), out_root=args.out_root)
    emit_plot_data(manifest)
    print(f"run {manifest.config_hash} ({manifest.kind}) -> {manifest.run_dir}")
    for key, value in manifest.metrics.items():
        print(f"  {key} = {value}")
    for key, passed in manifest.assertions.items():
        print(f"  [{'PASS' if passed else 'FAIL'}] {key}")
    return 0 if manifest.overall_pass else 1


def _cmd_report(args) -> int:
    manifest_path = Path(args.run_dir) / "manifest.txt"
    if not manifest_path.exists():
        print(f"no manifest in {args.run_dir}", file=sys.stderr)
        return 1
    entries = read_flat_report(manifest_path)
    for key, value in entries.items():
        print(f"{key} = {value}")
    return 0 if entries.get("overall_pass") == "true" else 1


def _cmd_export(args) -> int:
    snapshots = sorted(Path(args.run_dir).glob("*.bin"))
    for path in snapshots:
        print(export_field_csv(path))
    if not snapshots:
        print(f"no field snapshots in {args.run_dir}", file=sys.stderr)
    return 0 if snapshots else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="beamctrl",
        description="Numerical laboratory for null control of the "
                    "structurally damped beam",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, arg, text in (
            ("validate", _cmd_validate, "config", "validate a config file"),
            ("run", _cmd_run, "config", "run the configured experiment"),
            ("report", _cmd_report, "run_dir", "print the manifest of a run"),
            ("export", _cmd_export, "run_dir",
             "write each field snapshot (*.bin) of a run directory as CSV")):
        command = sub.add_parser(name, help=text)
        command.add_argument(arg)
        command.set_defaults(func=func)
    sub.choices["run"].add_argument(
        "--out-root", default="runs",
        help="directory collecting run outputs (default: runs)")

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:   # raised by load_config, before any run
        print(f"invalid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
