"""Output equivalence of this checkout of beamctrl and another one.

Run from the root of a checkout (standard library and numpy only):

    python bench/equivalence.py --parent DIR [--out FILE]

This checkout and the one at DIR are loaded side by side into this process
(`checkout.load_beamctrl`).  Each side runs the 88 configs of perfbench's
workload pools (8 control, 16 forward and 16 audit entries of four kinds
each) and the six `configs/*.ini`, all read from this checkout.  Of each
run it keeps every manifest row but `wall_time_s` and the `timing.*` laps,
the SHA-256 digest of every other file of its run directory, and the error
a run raised.  Each of these values that differs between the sides, or is
on one side only, is listed as JSON to --out or stdout, with each side's
`wc -l src/beamctrl/*.py` count; the exit code is 1 if any value differs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from checkout import ROOT, WORKLOADS, load_beamctrl, run_config, write_json


def shipped_and_pool_configs() -> list[tuple[str, str]]:
    """(name, INI text) of the perfbench pool configs and `configs/*.ini`."""
    configs = [(f"{workload}[{entry}].{kind}", text)
               for workload, size in WORKLOADS.POOL_SIZE.items()
               for entry in range(size)
               for kind, text in WORKLOADS.CONFIGS[workload](entry).items()]
    return configs + [(f"configs/{path.name}", path.read_text())
                      for path in sorted((ROOT / "configs").glob("*.ini"))]


def run_configs(root: Path, configs: list[tuple[str, str]]
                ) -> dict[str, dict[str, str]]:
    """Per config name, the values compared: `manifest.<row>`,
    `sha256.<file>`, or `error`, with the checkout at root."""
    side = load_beamctrl(root, "config", "experiments", "io")
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, text) in enumerate(configs):
            try:
                run_dir, rows = run_config(side, text, Path(tmp) / str(k))
            except Exception as exc:   # compared like any other value
                results[name] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            results[name] = {
                f"manifest.{key}": value for key, value in rows.items()
                if key != "wall_time_s" and not key.startswith("timing.")
            } | {f"sha256.{file.name}": hashlib.sha256(file.read_bytes())
                 .hexdigest() for file in sorted(run_dir.iterdir())
                 if file.name != "manifest.txt"}
    return results


def src_lines(root: Path) -> int:
    """`wc -l src/beamctrl/*.py` of the checkout at root."""
    return sum(path.read_bytes().count(b"\n")
               for path in (root / "src" / "beamctrl").glob("*.py"))


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
    change = run_configs(ROOT, configs)
    base = run_configs(parent, configs)
    return {"configs": len(configs),
            "values": sum(len(values) for values in change.values()),
            "src_lines": {"change": src_lines(ROOT),
                          "parent": src_lines(parent)},
            "differences": differences(change, base)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="root of the checkout to compare against")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    result = compare(args.parent, shipped_and_pool_configs())
    write_json(result, args.out)
    return 1 if result["differences"] else 0


if __name__ == "__main__":
    sys.exit(main())
