"""Output equivalence of this checkout of beamctrl and another one.

Run from the root of a checkout (standard library and numpy only):

    python bench/equivalence.py --parent DIR [--out FILE]

Each side runs, in one fresh process with its own `src` first on the
import path, the 88 configs of perfbench's workload pools (8 control, 16
forward and 16 audit entries of four kinds each) and the six
`configs/*.ini`, all read from this checkout.  Of each run it keeps every
manifest row but `wall_time_s` and the `timing.*` laps, the SHA-256 digest
of every other file of its run directory, and the error a run raised.  It
lists each of these values that differs between the two sides, or is on
one side only, as JSON to --out or stdout, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def shipped_and_pool_configs() -> list[tuple[str, str]]:
    """(name, INI text) of the perfbench pool configs and `configs/*.ini`."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = [(f"{workload}[{entry}].{kind}", text)
               for workload, size in workloads.POOL_SIZE.items()
               for entry in range(size)
               for kind, text in workloads.CONFIGS[workload](entry).items()]
    return configs + [(f"configs/{path.name}", path.read_text())
                      for path in sorted((ROOT / "configs").glob("*.ini"))]


def run_configs(configs: list[tuple[str, str]]) -> dict[str, dict[str, str]]:
    """Per config name, the values compared: `manifest.<row>`,
    `sha256.<file>`, or `error`, with the imported `beamctrl`."""
    from beamctrl.config import load_config
    from beamctrl.experiments import run
    from beamctrl.io import read_flat_report

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, text) in enumerate(configs):
            path = Path(tmp) / f"{k}.ini"
            path.write_text(text)
            try:
                run_dir = run(load_config(path),
                              out_root=Path(tmp) / f"runs{k}").run_dir
            except Exception as exc:   # compared like any other value
                results[name] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            values = {f"manifest.{key}": value for key, value
                      in read_flat_report(run_dir / "manifest.txt").items()
                      if key != "wall_time_s"
                      and not key.startswith("timing.")}
            for file in sorted(run_dir.iterdir()):
                if file.name != "manifest.txt":
                    values[f"sha256.{file.name}"] = \
                        hashlib.sha256(file.read_bytes()).hexdigest()
            results[name] = values
    return results


def run_side(root: Path, configs_file: Path) -> dict[str, dict[str, str]]:
    """`run_configs` of the checkout at root, in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         str(root / "src"), "--configs", str(configs_file)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": ""})
    return json.loads(done.stdout.splitlines()[-1])


def differences(change: dict, parent: dict) -> list[dict]:
    """Each value of a config that differs between the sides, with None
    for a side that lacks it."""
    out = []
    for name in change | parent:
        ours, theirs = change.get(name, {}), parent.get(name, {})
        for key in ours | theirs:
            if ours.get(key) != theirs.get(key):
                out.append({"config": name, "value": key,
                            "change": ours.get(key),
                            "parent": theirs.get(key)})
    return out


def compare(parent: Path, configs: list[tuple[str, str]]) -> dict:
    """Run the configs on this checkout and the one at parent."""
    with tempfile.TemporaryDirectory() as tmp:
        configs_file = Path(tmp) / "configs.json"
        configs_file.write_text(json.dumps(configs))
        change = run_side(ROOT, configs_file)
        base = run_side(parent.resolve(), configs_file)
    return {"configs": len(configs),
            "values": sum(len(values) for values in change.values()),
            "differences": differences(change, base)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path,
                    help="root of the checkout to compare against")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--configs", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        sys.path.insert(0, args.child)
        configs = [tuple(c) for c in json.loads(args.configs.read_text())]
        print(json.dumps(run_configs(configs)))
        return 0
    if args.parent is None:
        ap.error("--parent is required")

    result = compare(args.parent, shipped_and_pool_configs())
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 1 if result["differences"] else 0


if __name__ == "__main__":
    sys.exit(main())
