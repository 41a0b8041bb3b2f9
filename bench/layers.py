"""Layer timings of beamctrl's forward march, and the stage laps of the
forward and audit workloads' runs.

Run from the root of a checkout (standard library and numpy only):

    python bench/layers.py [--slice forward|audit] [--rounds 10]
                           [--repeats 5] [--parent DIR] [--out FILE]

This checkout, and the one at --parent DIR, are loaded side by side into
this process (`checkout.load_beamctrl`).  After one untimed call of each
measurement per side, each round goes --repeats times through the
measurements, calling each on both sides in turn; the side that goes first
changes by round.  A round's sample of a metric is each side's median.

`--slice forward` (the default) times `dynamics.solve_forward`, a layer no
run laps on its own, on a 64-node grid with 1 and 3 members at 206, 1024
and 4096 steps of 1/1024: `free` (forced, no potential: the block-product
core of the fixed-point sweeps), `potential` (unforced, as in the direct
march) and `potential_forced` (the control verification's batched march).
Every other metric is a `timing.*` lap, wall and CPU (`_cpu`), of a run of
a config of perfbench's workload pool entry 0: the forward config, with
the time per fixed-point sweep (`fixed_point_solve.iteration_ms`) and the
sweep count (`fixed_point_solve.iterations`), or with `--slice audit` the
carleman-audit and weights-audit configs.

All metrics but the sweep count are in ms; lower is better.  The summary
gives, per metric, each side's median and quartiles over the rounds, the
parent's IQR, `change_wins` (rounds in which this checkout was lower) and
the median ratio change / parent.  The JSON, with the load average before
and after the rounds, goes to --out or stdout.
"""

from __future__ import annotations

import argparse
import functools
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from checkout import ROOT, WORKLOADS, load_beamctrl, run_config, write_json

FORWARD_CONFIG = WORKLOADS.CONFIGS["forward"](0)["forward"]
AUDIT_CONFIGS = {kind.replace("-", "_"): text for kind, text
                 in WORKLOADS.CONFIGS["audit"](0).items()
                 if kind in ("carleman-audit", "weights-audit")}

STEPS = (206, 1024, 4096)
MEMBERS = (1, 3)
SUBMODULES = ("config", "dynamics", "experiments", "io", "torus")


def config_laps(side, name: str, text: str) -> dict[str, float]:
    """`<name>_config.timing.<lap>_ms` of one run of the config of the INI
    text, and for the forward config the sweep time and count."""
    with tempfile.TemporaryDirectory() as tmp:
        _, rows = run_config(side, text, Path(tmp))
    out = {f"{name}_config.{key[:-2]}_ms": 1e3 * float(value)
           for key, value in rows.items() if key.startswith("timing.")}
    if name == "forward":
        sweeps = int(rows["metrics.fp_iterations"])
        out["fixed_point_solve.iteration_ms"] = \
            1e3 * float(rows["timing.fixed_point_s"]) / sweeps
        out["fixed_point_solve.iterations"] = sweeps
    return out


def time_call(name: str, call, *args, **kwargs) -> dict[str, float]:
    start = time.perf_counter()
    call(*args, **kwargs)
    return {name: 1e3 * (time.perf_counter() - start)}


def measurements(side, slice_: str, steps: tuple[int, ...]) -> list:
    """The calls of one side of a round, in order; each returns its
    metrics."""
    if slice_ == "audit":
        return [functools.partial(config_laps, side, name, text)
                for name, text in AUDIT_CONFIGS.items()]
    grid = side.torus.SpatialGrid(64, 2.0, x0=-1.0)
    rng = np.random.default_rng(0)
    x = grid.nodes
    calls = []
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
                calls.append(functools.partial(
                    time_call, f"solve_forward.{kind}.m{b}.s{n}_ms",
                    side.dynamics.solve_forward, grid, data[0], data[1],
                    times, **kw))
    return calls + [functools.partial(config_laps, side, "forward",
                                      FORWARD_CONFIG)]


def measure(sides: dict[str, list], rounds: int, repeats: int) -> dict:
    """Per side, one sample per round: each metric's median over the
    side's calls of that round, the sides alternating call by call."""
    names = list(sides)
    for calls in zip(*sides.values()):   # one untimed call each
        for call in calls:
            call()
    runs = {name: [] for name in names}
    for k in range(rounds):
        order = names[k % 2:] + names[:k % 2]
        values = {name: {} for name in names}
        for _ in range(repeats):
            for calls in zip(*(sides[name] for name in order)):
                # a call that follows another measurement runs up to 30%
                # slower, so an untimed call by the side going second leads
                calls[-1]()
                for name, call in zip(order, calls):
                    for metric, value in call().items():
                        values[name].setdefault(metric, []).append(value)
        for name in names:
            runs[name].append({metric: float(np.median(v))
                               for metric, v in values[name].items()})
    return runs


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


def main(argv: list[str] | None = None) -> dict:
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
    args = ap.parse_args(argv)

    roots = {"change": ROOT} | ({"parent": args.parent} if args.parent else {})
    sides = {name: measurements(load_beamctrl(root, *SUBMODULES),
                                args.slice, args.steps)
             for name, root in roots.items()}
    before = os.getloadavg()
    runs = measure(sides, args.rounds, args.repeats)
    result = {
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__},
        "loadavg": {"before": before, "after": os.getloadavg()},
        "slice": args.slice, "rounds": args.rounds, "repeats": args.repeats,
        **({"steps": list(args.steps), "members": list(MEMBERS)}
           if args.slice == "forward" else {}),
        "summary": summarize(runs["change"], runs.get("parent")),
        "runs": runs,
    }
    write_json(result, args.out)
    return result


if __name__ == "__main__":
    main()
