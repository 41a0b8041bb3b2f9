"""beamctrl benchmark: seeded workloads through `beamctrl.experiments.run`.

    python3 perfbench/run.py --workload control --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The workload seed picks each operation's
pool entry; the configs are written as INI files under `.perfbench/` and
loaded by the program's own `load_config`.  Set-up is timed in fresh
processes (two set-up-only processes plus the measuring one; the median is
reported).  With `--trace 0` the last stdout line carries the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run.  Load is a
closed loop: one client in one process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SETUP_SAMPLES = 3
# Every run, set-up included, has to end well inside 180 s.
RUN_DEADLINE_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def write_plan(work: Path, workload: str, entries: list[int],
               tol: str | None = None) -> Path:
    """Write each operation's configs as INI files plus a plan listing them."""
    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True)
    make = workloads.CONFIGS[workload]
    configs = {}
    for entry in sorted(set(entries)):
        texts = make(entry) if tol is None else make(entry, tol)
        configs[entry] = []
        for kind, text in texts.items():
            path = cfg_dir / f"entry{entry:02d}-{kind}.ini"
            path.write_text(text)
            configs[entry].append((kind, str(path)))
    path = work / "plan.json"
    path.write_text(json.dumps({
        "workload": workload,
        "ops": [{"entry": e, "configs": configs[e]} for e in entries]}))
    return path


def start_worker(args: list[str], deadline: float
                 ) -> tuple[float, subprocess.Popen]:
    """Start a worker; return the seconds until it reported ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError("worker failed during set-up")
    return setup, proc


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Read a worker's remaining output, killing it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0,
                                              deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def measure(workload: str, seed: int, seconds: float, trace: int,
            work: Path, tol: str | None = None) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    entries = workloads.plan(workload, seed)
    if tol is not None:
        entries = entries[:1]
    plan = write_plan(work, workload, entries, tol)
    common = ["--plan", str(plan)]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setup, proc = start_worker(common + ["--setup-only"], deadline)
        finish(proc, deadline)
        setups.append(setup)
    setup, proc = start_worker(
        common + ["--out-root", str(work / "runs"), "--seconds", str(seconds),
                  "--trace", str(trace)], deadline)
    setups.append(setup)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    return result


def machine(result: dict) -> str:
    import numpy
    import scipy
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={result['blas']!r} blas_threads={result['blas_threads']}")


def report(workload: str, seed: int, trace: int, result: dict,
           trace_file: Path) -> dict:
    """Print the human-readable lines; return the metrics object."""
    why = {w["name"]: w["why"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]}
    print(f"beamctrl benchmark workload={workload} seed={seed} "
          f"trace={trace} ({why[workload]})")
    print(machine(result))
    for err in result["errors"]:
        print(f"FAILED {err}")
    attempted, failed = result["attempted"], result["failed"]
    if trace:
        print(f"traced run: {attempted} operations, spans in {trace_file}")
        print(f"tracing overhead: traced minus untraced op_s.p50 = "
              f"{result['trace_overhead_s']:.6g} s")
        if result["absent"]:
            print(f"absent trace targets: {', '.join(result['absent'])}")
        metrics = {}
        for name, unit, moves, where in LAYER_METRICS:
            value = result["layers"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:36s} {value:14.6g} {unit:6s} moves {moves} "
                  f"on {where}")
        return metrics
    n = len(result["op_s"])
    values = {
        "setup_s": result["setup_s"],
        "op_s.p50": statistics.median(result["op_s"]),
        "ops_per_s": attempted / result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} fresh processes",
        "op_s.p50": f"median of {n} operations",
        "ops_per_s": f"{attempted} operations in {result['wall_s']:.3f} s",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    metrics = {}
    for name, unit in END_TO_END:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:12s} {values[name]:12.6g} {unit:5s} ({notes[name]})")
    print(f"  {'fail_frac':12s} {failed / attempted:12.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    return metrics


def self_test(work: Path) -> int:
    """A control run at CG tol 1e-6 must be counted as failed."""
    result = measure("control", 0, 0.0, 0, work, tol="1e-6")
    for err in result["errors"]:
        print(f"flagged: {err}")
    if result["failed"] == result["attempted"] == 1:
        print("self-test passed: the tol = 1e-6 control run counts as failed")
        return 0
    print("self-test FAILED: the tol = 1e-6 control run was accepted")
    return 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.CONFIGS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that a CG tol = 1e-6 control run fails")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "beamctrl" / "experiments.py").is_file():
        print(f"no beamctrl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    name = "self-test" if args.self_test else \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
    try:
        if args.self_test:
            return self_test(work)
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         work)
        trace_file = ROOT / ".perfbench" / f"trace-{name}.json"
        if args.trace:
            trace_file.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "op", "counts"],
                 "spans": result.pop("spans")}))
        metrics = report(args.workload, args.seed, args.trace, result,
                         trace_file)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
