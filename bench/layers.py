"""Layer timings of beamctrl's forward march, and the stage laps of the
forward and audit workloads' runs.

Run from the root of a checkout (standard library and numpy only):

    python bench/layers.py [--slice forward|audit] [--rounds 10]
                           [--repeats 5] [--parent DIR] [--out FILE]

Each round starts one fresh process per checkout.  With `--slice forward`
(the default) the process times `dynamics.solve_forward`, a layer no run
laps on its own, on a 64-node grid with 1 and 3 members at 206, 1024 and
4096 steps of 1/1024, each the median of --repeats calls after one warm-up
call:

- `free`: forced, without a potential, on the block-product core that the
  fixed-point sweeps also march on;
- `potential`: unforced, with a potential, as in the direct march;
- `potential_forced`: forced, with a potential, the shape of the control
  verification's batched march.

Every other number comes from the manifests of --repeats runs of the
workloads' pool entry 0 configs, read from perfbench's workload module:
the median of each `timing.*` lap, wall and CPU (`_cpu`), which tile the
run from its `setup` lap on.  `--slice forward` runs the forward config (T
= 1, 1024 steps, random potential, fixed-point windows of 0.2) and adds
the time per fixed-point sweep (`fixed_point_solve.iteration_ms`, the
`fixed_point` lap over `metrics.fp_iterations`) and the sweep count
(`fixed_point_solve.iterations`), as a cut in the sweeps does not show per
sweep.  `--slice audit` runs the carleman-audit config (64 modes, 256 Gauss
times, 64 + 64 samples of up to 16 modes, s = 4, 8 at lambda 2, separable
potential) and the weights-audit config (lambda 1, 2, 4).

All metrics but the sweep count are in ms, and lower is better.  With
--parent DIR the checkout at DIR runs in the same rounds, the two sides
alternating which goes first.  The summary gives, per metric, each side's
median and quartiles, the parent's IQR, `change_wins` (rounds in which
this checkout was lower than the parent in the same round) and the median
ratio change / parent.  The JSON summary goes to --out, or stdout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# the configs are pool entry 0 of perfbench's forward and audit workloads,
# read from its workload module, which this script leaves as it is
_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "perfbench"
    / "workloads.py")
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)
FORWARD_CONFIG = _workloads.CONFIGS["forward"](0)["forward"]
AUDIT_CONFIGS = {kind.replace("-", "_"): text for kind, text
                 in _workloads.CONFIGS["audit"](0).items()
                 if kind in ("carleman-audit", "weights-audit")}

STEPS = (206, 1024, 4096)
MEMBERS = (1, 3)


def config_runs(text: str, name: str, repeats: int) -> list[dict[str, str]]:
    """The manifest rows of `repeats` runs of the config of the INI text."""
    from beamctrl.config import load_config
    from beamctrl.experiments import run
    from beamctrl.io import read_flat_report
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.ini"
        path.write_text(text)
        cfg = load_config(path)
        return [read_flat_report(run(cfg, out_root=Path(tmp) / f"runs{k}")
                                 .run_dir / "manifest.txt")
                for k in range(repeats)]


def lap_medians(name: str, runs: list[dict[str, str]]) -> dict[str, float]:
    """`<name>_config.timing.<lap>_ms`: the median over the runs of each
    `timing.<lap>_s` manifest row, in ms."""
    return {f"{name}_config.{key[:-2]}_ms":
            1e3 * float(np.median([float(rows[key]) for rows in runs]))
            for key in runs[0] if key.startswith("timing.")}


def time_calls(call, repeats: int) -> float:
    """Median wall seconds of `repeats` calls after a warm-up."""
    call()
    laps = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        laps.append(time.perf_counter() - start)
    return float(np.median(laps))


def measure(src: str, slice_: str, steps: tuple[int, ...], repeats: int
            ) -> dict[str, float]:
    """One side of a round, in this process: the checkout's `src` on the
    import path first."""
    sys.path.insert(0, src)
    if slice_ == "audit":
        out = {}
        for name, text in AUDIT_CONFIGS.items():
            out.update(lap_medians(name, config_runs(text, name, repeats)))
        return out
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
                             ("potential", {"a": a}),
                             ("potential_forced", {"a": a, "forcing": f})):
                out[f"solve_forward.{kind}.m{b}.s{n}_ms"] = 1e3 * time_calls(
                    lambda: solve_forward(grid, data[0], data[1], times,
                                          **kw), repeats)
    runs = config_runs(FORWARD_CONFIG, "forward", repeats)
    out.update(lap_medians("forward", runs))
    sweeps = [int(rows["metrics.fp_iterations"]) for rows in runs]
    out["fixed_point_solve.iteration_ms"] = 1e3 * float(np.median(
        [float(rows["timing.fixed_point_s"]) / n
         for rows, n in zip(runs, sweeps)]))
    out["fixed_point_solve.iterations"] = sweeps[0]
    return out


def run_side(root: Path, args) -> dict[str, float]:
    """One side of a round in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           str(root / "src"), "--slice", args.slice,
           "--repeats", str(args.repeats),
           "--steps", ",".join(map(str, args.steps))]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": ""})
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"p25": float(q1), "median": float(med), "p75": float(q3)}


def summarize(change: list[dict], parent: list[dict] | None) -> dict:
    """Per metric: medians and quartiles of each side that has it (a lap
    one checkout does not take is on one side only), the parent's IQR, and
    with both sides the paired wins and the median ratio."""
    summary = {}
    for name in change[0] | (parent[0] if parent else {}):
        entry = {}
        if name in change[0]:
            c = [r[name] for r in change]
            entry["change"] = quartiles(c)
        if parent is not None and name in parent[0]:
            p = [r[name] for r in parent]
            q = entry["parent"] = quartiles(p)
            entry["parent_iqr"] = q["p75"] - q["p25"]
            if "change" in entry:
                entry["change_wins"] = sum(ci < pi for ci, pi in zip(c, p))
                entry["ratio"] = entry["change"]["median"] / q["median"]
        summary[name] = entry
    return summary


def main(argv: list[str] | None = None) -> dict | None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--slice", choices=("forward", "audit"),
                    default="forward")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--steps", default=",".join(map(str, STEPS)),
                    type=lambda s: tuple(int(v) for v in s.split(",")))
    ap.add_argument("--parent", type=Path,
                    help="root of the parent checkout, run alternately")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child, args.slice, args.steps,
                                 args.repeats)))
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
        "slice": args.slice, "rounds": args.rounds, "repeats": args.repeats,
        **({"steps": list(args.steps), "members": list(MEMBERS)}
           if args.slice == "forward" else {}),
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
