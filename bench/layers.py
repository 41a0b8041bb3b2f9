"""Layer timings of beamctrl's forward march and Carleman audit, and their
workloads' laps.

Run from the root of a checkout (standard library and numpy only):

    python bench/layers.py [--slice forward|audit] [--rounds 10]
                           [--repeats 5] [--parent DIR] [--out FILE]

Each round starts one fresh process per checkout.  With `--slice forward`
(the default) the process times `dynamics.solve_forward` on a 64-node grid
with 1 and 3 members at 206, 1024 and 4096 steps of 1/1024, each the median
of --repeats calls after one warm-up call:

- `free`: forced, without a potential, on the block-product core that the
  fixed-point sweeps also march on;
- `potential`: unforced, with a potential, as in the direct march;
- `potential_forced`: forced, with a potential, the shape of the control
  verification's batched march.

It times `dynamics.fixed_point_solve` on the perfbench forward workload's
first config (T = 1, 1024 steps, random potential, fixed-point windows of
0.2) the same way, in wall and CPU time and per sweep (`.iteration_ms`,
the wall time over the sweeps of one call), and reports its number of
sweeps (`.iterations`), as a cut in the sweeps does not show per sweep.
It then runs that config --repeats times into a temporary directory and
reports the median of each `timing.*` lap of its manifests.

With `--slice audit` the process builds the audit workload's first
carleman-audit config (64 modes, 256 Gauss times, 64 + 64 samples of up to
16 modes, s = 4, 8 at lambda 2, separable potential) and times
`weights.build_eta` and `audit.audit_inequality` on it, each the median of
--repeats calls after one warm-up call, in wall time (`_ms`) and in the
process's CPU time over all threads (`.cpu_ms`), so a threaded or stalled
product shows as the two drifting apart.  It then runs that config and the
workload's weights-audit config (lambda 1, 2, 4) --repeats times each and
reports the median of the `kernels`, `samples`, `sweep` and `weights` laps
of their manifests.

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
# the manifest laps each audit config contributes
AUDIT_LAPS = {"carleman_audit": ("kernels", "samples"),
              "weights_audit": ("sweep", "weights")}

STEPS = (206, 1024, 4096)
MEMBERS = (1, 3)


def load_text(text: str, name: str):
    """The config of the INI text, loaded through a temporary file."""
    from beamctrl.config import load_config
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.ini"
        path.write_text(text)
        return load_config(path)


def run_config(text: str, name: str, repeats: int) -> dict[str, float]:
    """The median over `repeats` runs of the config of each `timing.<lap>_s`
    manifest row, in s by lap."""
    from beamctrl.experiments import run
    from beamctrl.io import read_flat_report
    cfg = load_text(text, name)
    laps = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(repeats):
            manifest = run(cfg, out_root=Path(tmp) / f"runs{k}")
            rows = read_flat_report(manifest.run_dir / "manifest.txt")
            laps.append({key[len("timing."):-2]: float(value)
                         for key, value in rows.items()
                         if key.startswith("timing.")})
    return {lap: float(np.median([run_laps[lap] for run_laps in laps]))
            for lap in laps[0]}


def time_calls(call, repeats: int) -> tuple[float, float]:
    """Median wall and CPU seconds of `repeats` calls after a warm-up."""
    call()
    laps = []
    for _ in range(repeats):
        wall, cpu = time.perf_counter(), time.process_time()
        call()
        laps.append((time.perf_counter() - wall, time.process_time() - cpu))
    return tuple(float(v) for v in np.median(laps, axis=0))


def measure_audit(repeats: int, config: bool) -> dict[str, float]:
    """The audit slice of one side, with its `beamctrl` imported."""
    from beamctrl.audit import TestFunctionFamily, audit_inequality
    from beamctrl.experiments import make_grid, make_potential_sampler
    from beamctrl.weights import build_eta, build_theta

    cfg = load_text(AUDIT_CONFIGS["carleman_audit"], "carleman_audit")
    dom, car, aud = cfg.domain(), cfg["carleman"], cfg["audit"]
    grid = make_grid(cfg)
    params = cfg.carleman_params()
    theta = build_theta(params, dom.T)
    t_grid = theta.gauss_grid(cfg["grid"]["n_time"])
    a = make_potential_sampler(cfg, grid)(t_grid.nodes)
    fam_kw = dict(n_samples=aud["n_samples"], max_mode=aud["max_mode"],
                  T=dom.T, circumference=dom.circumference)
    families = [TestFunctionFamily(role, seed=aud[f"{key}_seed"], **fam_kw)
                for role, key in (("calibration", "calib"),
                                  ("heldout", "heldout"))]

    def eta():
        return build_eta(dom, car["eta_scale"], car["mollify_radius"])

    profile = eta()
    calls = {"build_eta": eta,
             "audit_inequality": lambda: audit_inequality(
                 *families, profile, theta, params, aud["s_grid"],
                 aud["lambda_grid"], grid, t_grid, a=a)}
    out = {}
    for name, call in calls.items():
        wall, cpu = time_calls(call, repeats)
        out[f"{name}_ms"], out[f"{name}.cpu_ms"] = 1e3 * wall, 1e3 * cpu
    if config:
        for name, laps in AUDIT_LAPS.items():
            timing = run_config(AUDIT_CONFIGS[name], name, repeats)
            for lap in laps:
                out[f"{name}_config.timing.{lap}_ms"] = 1e3 * timing[lap]
    return out


def measure_fixed_point(repeats: int) -> dict[str, float]:
    """`fixed_point_solve` on the forward workload's config, as its run
    calls it."""
    from beamctrl.dynamics import fixed_point_solve
    from beamctrl.experiments import (make_data, make_grid,
                                      make_potential_sampler)

    cfg = load_text(FORWARD_CONFIG, "forward")
    grid = make_grid(cfg)
    b0, b1 = make_data(cfg, grid)
    times = np.linspace(0.0, cfg.domain().T, cfg["forward"]["n_steps"] + 1)
    a = make_potential_sampler(cfg, grid)(times)
    kappa = cfg["forward"]["fixed_point_kappa"]
    _, report = fixed_point_solve(grid, b0, b1, times, a, kappa)
    wall, cpu = time_calls(
        lambda: fixed_point_solve(grid, b0, b1, times, a, kappa), repeats)
    return {"fixed_point_solve_ms": 1e3 * wall,
            "fixed_point_solve.cpu_ms": 1e3 * cpu,
            "fixed_point_solve.iteration_ms":
                1e3 * wall / report.iterations_total,
            "fixed_point_solve.iterations": report.iterations_total}


def measure(src: str, slice_: str, steps: tuple[int, ...], repeats: int,
            config: bool) -> dict[str, float]:
    """One side of a round, in this process: the checkout's `src` on the
    import path first."""
    sys.path.insert(0, src)
    if slice_ == "audit":
        return measure_audit(repeats, config)
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
                wall, _ = time_calls(lambda: solve_forward(
                    grid, data[0], data[1], times, **kw), repeats)
                out[f"solve_forward.{kind}.m{b}.s{n}_ms"] = 1e3 * wall
    out.update(measure_fixed_point(repeats))
    if config:
        for lap, seconds in run_config(FORWARD_CONFIG, "forward",
                                       repeats).items():
            out[f"forward_config.timing.{lap}_ms"] = 1e3 * seconds
    return out


def run_side(root: Path, args) -> dict[str, float]:
    """One side of a round in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           str(root / "src"), "--slice", args.slice,
           "--repeats", str(args.repeats),
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
    ap.add_argument("--slice", choices=("forward", "audit"),
                    default="forward")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--steps", default=",".join(map(str, STEPS)),
                    type=lambda s: tuple(int(v) for v in s.split(",")))
    ap.add_argument("--parent", type=Path,
                    help="root of the parent checkout, run alternately")
    ap.add_argument("--no-config", action="store_true",
                    help="skip the workload's config runs")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child, args.slice, args.steps,
                                 args.repeats, not args.no_config)))
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
