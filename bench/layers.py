"""Layer timings of beamctrl's forward march, and the forward workload's laps.

Run from the root of a checkout (standard library and numpy only):

    python bench/layers.py [--rounds 10] [--repeats 5] [--parent DIR]
                           [--out FILE]

Each round starts one fresh process per checkout.  The process times
`dynamics.solve_forward` on a 64-node grid with 1 and 3 members at 206, 1024
and 4096 steps of 1/1024, each the median of --repeats calls after one
warm-up call:

- `free`: forced, without a potential, as in a fixed-point sweep;
- `potential`: unforced, with a potential, as in the direct march.

It then runs the forward workload's config (T = 1, 1024 steps, random
potential, fixed-point windows of 0.2) once into a temporary directory and
copies the `timing.*` laps of its manifest.  All metrics are in ms, lower
is better.

With --parent DIR the checkout at DIR runs in the same rounds, the two
sides alternating which goes first.  The summary gives, per metric, each
side's median and quartiles, the parent's IQR, `change_wins` (rounds in
which this checkout was faster than the parent in the same round) and the
median ratio change / parent.  The JSON summary goes to --out, or stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

FORWARD_CONFIG = """[experiment]
kind = forward
seed = 201

[domain]
d = 1.0
L = 1.0
T = 1.0

[grid]
n_modes = 64

[potential]
kind = random
amplitude = 1.0
seed = 301
max_mode = 2

[data]
kind = random
seed = 401
max_mode = 2

[forward]
n_steps = 1024
fixed_point_kappa = 0.2
"""

STEPS = (206, 1024, 4096)
MEMBERS = (1, 3)


def measure(src: str, steps: tuple[int, ...], repeats: int,
            config: bool) -> dict[str, float]:
    """One side of a round, in this process: the checkout's `src` on the
    import path first."""
    sys.path.insert(0, src)
    from beamctrl.dynamics import solve_forward
    from beamctrl.torus import SpatialGrid

    grid = SpatialGrid(64, 2.0, x0=-1.0)
    rng = np.random.default_rng(0)
    x = grid.nodes
    out = {}
    for n in steps:
        times = np.arange(n + 1) / 1024
        a = np.cos(grid.kappa[1] * x)[None, :] * np.cos(times)[:, None]
        for b in MEMBERS:
            data = rng.standard_normal((2, b, grid.n)) if b > 1 \
                else rng.standard_normal((2, grid.n))
            f = rng.standard_normal(data.shape[1:-1] + (n + 1, grid.n))
            for kind, kw in (("free", {"forcing": f}),
                             ("potential", {"a": a})):
                solve_forward(grid, data[0], data[1], times, **kw)
                laps = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    solve_forward(grid, data[0], data[1], times, **kw)
                    laps.append(time.perf_counter() - start)
                out[f"solve_forward.{kind}.m{b}.s{n}_ms"] = \
                    1e3 * float(np.median(laps))
    if config:
        from beamctrl.config import load_config
        from beamctrl.experiments import run
        from beamctrl.io import read_flat_report
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "forward.ini"
            path.write_text(FORWARD_CONFIG)
            manifest = run(load_config(path), out_root=Path(tmp) / "runs")
            rows = read_flat_report(manifest.run_dir / "manifest.txt")
        for key, value in rows.items():     # timing.<lap>_s, in s
            if key.startswith("timing."):
                out[f"forward_config.{key[:-2]}_ms"] = 1e3 * float(value)
    return out


def run_side(root: Path, args) -> dict[str, float]:
    """One side of a round in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           str(root / "src"), "--repeats", str(args.repeats),
           "--steps", ",".join(map(str, args.steps))]
    if args.no_config:
        cmd.append("--no-config")
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": ""})
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"p25": float(q1), "median": float(med), "p75": float(q3)}


def summarize(change: list[dict], parent: list[dict] | None) -> dict:
    """Per metric: medians and quartiles of each side, and with a parent
    the paired wins, the parent's IQR and the median ratio."""
    summary = {}
    for name in change[0]:
        c = [r[name] for r in change]
        entry = {"change": quartiles(c)}
        if parent is not None:
            p = [r[name] for r in parent]
            q = entry["parent"] = quartiles(p)
            entry["parent_iqr"] = q["p75"] - q["p25"]
            entry["change_wins"] = sum(ci < pi for ci, pi in zip(c, p))
            entry["ratio"] = entry["change"]["median"] / q["median"]
        summary[name] = entry
    return summary


def main(argv: list[str] | None = None) -> dict | None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--steps", default=",".join(map(str, STEPS)),
                    type=lambda s: tuple(int(v) for v in s.split(",")))
    ap.add_argument("--parent", type=Path,
                    help="root of the parent checkout, run alternately")
    ap.add_argument("--no-config", action="store_true",
                    help="skip the forward workload's config run")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child, args.steps, args.repeats,
                                 not args.no_config)))
        return None

    root = Path(__file__).resolve().parents[1]
    change = []
    parent = [] if args.parent else None
    for k in range(args.rounds):
        sides = [("change", root, change)]
        if args.parent:
            sides.append(("parent", args.parent.resolve(), parent))
            if k % 2:
                sides.reverse()
        for _, where, into in sides:
            into.append(run_side(where, args))
    result = {
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "rounds": args.rounds, "repeats": args.repeats,
        "steps": list(args.steps), "members": list(MEMBERS),
        "summary": summarize(change, parent),
        "runs": {"change": change, **({"parent": parent} if parent else {})},
    }
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return result


if __name__ == "__main__":
    main()
