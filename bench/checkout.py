"""Load checkouts of beamctrl side by side into one process.

`load_beamctrl(root)` imports `root/src/beamctrl` under a fresh package
name, `beamctrl_<n>`, so two loads, of one checkout or of two, share no
module, class or cache, and leave the `beamctrl` of `sys.modules` alone.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import sys
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
_ALIASES = itertools.count()


def _load(name: str, path: Path, **spec_kw) -> ModuleType:
    spec = importlib.util.spec_from_file_location(name, path, **spec_kw)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# this checkout's perfbench workloads, whose pools hold the configs run
WORKLOADS = _load("workloads", ROOT / "perfbench" / "workloads.py")


def load_beamctrl(root: Path, *submodules: str) -> ModuleType:
    """The package at `root/src/beamctrl` under a fresh name, with the named
    submodules imported as its attributes."""
    package = Path(root).resolve() / "src" / "beamctrl"
    name = f"beamctrl_{next(_ALIASES)}"
    module = _load(name, package / "__init__.py",
                   submodule_search_locations=[str(package)])
    for sub in submodules:
        importlib.import_module(f"{name}.{sub}")
    return module


def run_config(side: ModuleType, text: str, out: Path
               ) -> tuple[Path, dict[str, str]]:
    """The run directory and manifest rows of the config of INI text, run
    by the loaded package `side` under the directory out."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.ini").write_text(text)
    run_dir = side.experiments.run(side.config.load_config(out / "config.ini"),
                                   out_root=out).run_dir
    return run_dir, side.io.read_flat_report(run_dir / "manifest.txt")


def write_json(result: dict, out: Path | None) -> None:
    """The result as indented JSON to the file out, or to stdout."""
    text = json.dumps(result, indent=1)
    if out:
        out.write_text(text + "\n")
    else:
        print(text)
