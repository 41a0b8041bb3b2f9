"""One benchmark process: set up as a `beamctrl run` user would, then
run operations in a closed loop (one client, each operation starting when
the previous one ends) and print one JSON line with the results.

The parent (`run.py`) times set-up from starting this process to the
"ready" line, so imports are paid in a fresh interpreter every time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (benchmark-local module next to this file)


def blas_info() -> dict[str, object]:
    """OpenBLAS build string and thread count of the loaded library."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
        lib = ctypes.CDLL(libs[0])
    except (OSError, IndexError):
        return {"blas": "unknown", "blas_threads": 0}
    # numpy and scipy wheels rename the symbols of their bundled OpenBLAS.
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
        try:
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            config = getattr(lib, f"{prefix}_get_config{suffix}")
        except AttributeError:
            continue
        threads.restype = ctypes.c_int
        config.restype = ctypes.c_char_p
        return {"blas": config().decode(), "blas_threads": threads()}
    return {"blas": "unknown", "blas_threads": 0}


def load_plan(path: Path, load_config) -> tuple[str, list[dict]]:
    """The workload and operations of a plan written by `run.write_plan`,
    each config loaded by the program's own `load_config`."""
    plan = json.loads(path.read_text())
    return plan["workload"], [
        {"entry": op["entry"],
         "configs": [(kind, load_config(cfg)) for kind, cfg in op["configs"]]}
        for op in plan["ops"]]


class AssertionsFailed(Exception):
    """A manifest reported a false acceptance assertion."""


def run_configs(experiments, configs, out_root: Path
                ) -> dict[str, dict[str, float]]:
    """Run the configs of one operation as `beamctrl run` does.

    Returns the checked headline values of each experiment kind; raises
    AssertionsFailed if a manifest assertion is false.
    """
    values = {}
    for kind, cfg in configs:
        manifest = experiments.run(cfg, out_root=out_root)
        experiments.emit_plot_data(manifest)
        failed = [k for k, ok in manifest.assertions.items() if not ok]
        if failed:
            raise AssertionsFailed(f"{kind}: assertions failed: {failed}")
        if kind in workloads.CHECKS:
            values[kind] = workloads.headline(kind, manifest.metrics)
    return values


def run_operation(experiments, op: dict, refs: dict, out_root: Path
                  ) -> str | None:
    """Run one operation and check it; return why it failed, or None."""
    entry = refs[str(op["entry"])]
    try:
        values = run_configs(experiments, op["configs"], out_root)
    except Exception as exc:  # any raise counts as a failed operation
        return f"{type(exc).__name__}: {exc}"
    for kind, checked in values.items():
        for key, value in checked.items():
            rule, ref = workloads.CHECKS[kind][key], entry[kind][key]
            if not workloads.check_value(kind, rule, value, ref):
                return (f"{kind}: {key} = {value!r} misses reference "
                        f"{ref!r} ({rule[0]} {rule[1]:g})")
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True, type=Path)
    ap.add_argument("--out-root", type=Path)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    bumps_import_s = 0.0
    if args.trace:
        # Keep the other imports _bumps needs out of its span, so the span
        # is the sympy import plus the symbolic derivatives it builds.
        import numpy  # noqa: F401
        import scipy.integrate  # noqa: F401
        t0 = time.perf_counter()
        import beamctrl._bumps  # noqa: F401
        bumps_import_s = time.perf_counter() - t0
    import beamctrl
    from beamctrl import experiments
    from beamctrl.config import load_config
    if not Path(beamctrl.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"beamctrl imported from {beamctrl.__file__}, not this "
              "checkout", file=sys.stderr)
        return 2

    workload, ops = load_plan(args.plan, load_config)
    refs = json.loads((HERE / "reference.json").read_text())["entries"]
    refs = refs[workload]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    recorder = None
    if args.trace:
        from tracing import SpanRecorder
        recorder = SpanRecorder()

    op_s, traced_s, loop_s, errors = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        op = ops[attempted % len(ops)]
        loop_start = time.perf_counter()
        # A traced run measures each operation untraced and traced, in
        # alternating order, so the difference is the tracing overhead.
        modes = [False, True] if recorder else [False]
        if recorder and attempted % 2:
            modes.reverse()
        for traced in modes:
            t0 = time.perf_counter()
            if traced:
                recorder.install()
                try:
                    err = recorder.operation(attempted, run_operation,
                                             experiments, op, refs,
                                             args.out_root)
                finally:
                    recorder.uninstall()
                traced_s.append(time.perf_counter() - t0)
            else:
                err = run_operation(experiments, op, refs, args.out_root)
                op_s.append(time.perf_counter() - t0)
            if err:
                errors.append(f"op {attempted} (pool entry {op['entry']}): "
                              f"{err}")
        attempted += 1
        # Start no operation that would be predicted to end past the time
        # budget, so a run lasts about --seconds however long one op takes.
        now = time.perf_counter()
        loop_s.append(now - loop_start)
        if now - start + statistics.median(loop_s) > args.seconds:
            break
    wall = time.perf_counter() - start

    result = {
        "op_s": op_s,
        "wall_s": wall,
        "attempted": attempted * (2 if recorder else 1),
        "failed": len(errors),
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        **blas_info(),
    }
    if recorder:
        from tracing import layer_metrics
        traced, untraced = statistics.median(traced_s), statistics.median(op_s)
        result["layers"] = layer_metrics(recorder.spans, bumps_import_s,
                                         traced / untraced)
        result["trace_overhead_s"] = traced - untraced
        result["absent"] = recorder.absent
        result["spans"] = recorder.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
