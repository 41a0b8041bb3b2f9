"""In-memory span recorder installed around beamctrl's public functions.

Spans are recorded from the benchmark's side only: each target below is
replaced, in every loaded beamctrl module that binds it, by a wrapper that
records (name, start, end, parent span, operation id) and, for some targets,
a count read from the public return value.  Nothing under src/ is edited.
A target that no longer exists is reported as absent, so code that later
changes delete does not break the traced run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time


def _steps(traj) -> dict[str, int]:
    return {"steps": len(traj.times) - 1}


def _fp_iterations(result) -> dict[str, int]:
    return {"iterations": result[1].iterations_total}


def _cg_iterations(sol) -> dict[str, int]:
    return {"cg_iterations": sol.iterations}


def _rows(report) -> dict[str, int]:
    return {"rows": len(report.rows)}


def _bytes(path) -> dict[str, int]:
    return {"bytes": path.stat().st_size}


# (module, attribute, span name, count extractor).  "Class.method" targets
# are patched on the class; plain names in every module that binds them.
TARGETS = [
    ("experiments", "run", "experiments.run", None),
    ("weights", "build_eta", "weights.build_eta", None),
    ("weights", "build_theta", "weights.build_theta", None),
    ("weights", "eval_weights", "weights.eval_weights", None),
    ("weights", "sweep_lambda_bounds", "weights.sweep_lambda_bounds", None),
    ("weights", "audit_derivative_bounds", "weights.audit_derivative_bounds",
     None),
    ("audit", "audit_inequality", "audit.audit_inequality", _rows),
    ("zeta", "zeta_ledger", "zeta.zeta_ledger", None),
    ("dynamics", "assemble_operator", "dynamics.assemble_operator", None),
    ("dynamics", "solve_forward", "dynamics.solve_forward", _steps),
    ("dynamics", "fixed_point_solve", "dynamics.fixed_point_solve",
     _fp_iterations),
    ("hum", "assemble_source", "hum.assemble_source", None),
    ("hum", "assemble_hum_system", "hum.assemble_hum_system", None),
    ("hum", "FdSurrogatePreconditioner.__init__", "hum.precond_factor", None),
    ("hum", "FdSurrogatePreconditioner.apply", "hum.precond_solve", None),
    ("hum", "QuadraticSystem.apply", "hum.operator_apply", None),
    ("hum", "minimize_J", "hum.minimize_J", _cg_iterations),
    ("hum", "verify_null_control", "hum.verify_null_control", None),
] + [("io", name, "io.write", _bytes) for name in (
    "write_csv", "write_trajectory_csv", "write_field_csv",
    "write_control_csv", "write_snapshot", "write_field_snapshot",
    "write_flat_report")]

OP_SPAN = "op"

# Per-layer metrics: (name, unit, end-to-end metrics it should move,
# workloads on which it should move them).
LAYER_METRICS = [
    ("bumps.import_s", "s", "setup_s", "all"),
    ("experiments.run_self_s", "s", "op_s.p50", "all (small)"),
    ("weights.build_eta_s", "s", "op_s.p50", "audit"),
    ("weights.eval_weights_s", "s", "op_s.p50", "audit (~0 on control)"),
    ("weights.sweep_lambda_bounds_s", "s", "op_s.p50", "audit"),
    ("weights.audit_derivative_bounds_s", "s", "op_s.p50", "audit"),
    ("audit.audit_inequality_s", "s", "op_s.p50", "audit"),
    ("audit.rows_count", "count", "op_s.p50", "audit"),
    ("zeta.zeta_ledger_s", "s", "op_s.p50", "audit (tiny)"),
    ("dynamics.solve_forward_s", "s", "op_s.p50 ops_per_s",
     "forward (most), control (verification)"),
    ("dynamics.solve_forward_calls", "count", "op_s.p50 ops_per_s",
     "forward, control"),
    ("dynamics.steps_count", "count", "op_s.p50 ops_per_s", "forward, control"),
    ("dynamics.step_us", "us", "op_s.p50 ops_per_s", "forward, control"),
    ("dynamics.fixed_point_solve_s", "s", "op_s.p50 ops_per_s", "forward"),
    ("dynamics.fixed_point_solve_self_s", "s", "op_s.p50", "forward"),
    ("dynamics.fixed_point_iterations", "count", "op_s.p50", "forward"),
    ("hum.assemble_hum_system_s", "s", "op_s.p50 peak_rss_mb", "control"),
    ("hum.precond_factor_s", "s", "op_s.p50 peak_rss_mb", "control"),
    ("hum.precond_solve_s", "s", "op_s.p50", "control"),
    ("hum.precond_solve_calls", "count", "op_s.p50", "control"),
    ("hum.operator_apply_s", "s", "op_s.p50", "control"),
    ("hum.operator_apply_calls", "count", "op_s.p50", "control"),
    ("hum.minimize_J_s", "s", "op_s.p50 peak_rss_mb", "control"),
    ("hum.minimize_J_self_s", "s", "op_s.p50", "control"),
    ("hum.cg_iterations", "count", "op_s.p50", "control"),
    ("hum.verify_null_control_s", "s", "op_s.p50", "control"),
    ("hum.verify_null_control_self_s", "s", "op_s.p50", "control"),
    ("io.write_s", "s", "op_s.p50",
     "audit (~50%), forward (~15%), control (~1%)"),
    ("io.bytes_written", "count", "op_s.p50", "audit, forward, control"),
    ("io.write_mb_per_s", "MB/s", "op_s.p50", "audit, forward, control"),
    ("trace.overhead_ratio", "ratio", "none (traced / untraced op_s.p50)",
     "all"),
    ("trace.uncovered_frac", "ratio", "none (op time outside layer spans)",
     "all"),
]


class SpanRecorder:
    """Spans kept as lists [name, start, end, parent, op, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.op: int | None = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op,
                           None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def operation(self, op: int, fn, *args):
        """Run fn(*args) as operation `op`, under a root span."""
        self.op = op
        idx = self._open(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.op = None

    def _wrap(self, name: str, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counts is not None:
                self.spans[idx][5] = counts(out)
            return out
        return wrapper

    def install(self) -> None:
        """Patch every present target; note the absent ones."""
        self.absent = []
        for modname, attr, name, counts in TARGETS:
            owner_name, _, leaf = attr.rpartition(".")
            try:
                module = importlib.import_module(f"beamctrl.{modname}")
                owner = getattr(module, owner_name) if owner_name else module
                orig = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, orig, counts)
            if owner_name:
                self._patch(owner, leaf, orig, wrapper)
                continue
            for mname, mod in list(sys.modules.items()):
                if mname == "beamctrl" or mname.startswith("beamctrl."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper) -> None:
        self._patches.append((owner, key, orig))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)


def _op_summary(spans: list[list], root: int) -> dict[str, float]:
    """Busy time, self time, calls and counts per span name for one op.

    Busy time counts only the outermost span of each name, so a writer
    calling another writer is not counted twice; counts are summed over
    the same outermost spans.
    """
    children: dict[int, list[int]] = {}
    members = []
    for idx in range(root + 1, len(spans)):
        if spans[idx][4] != spans[root][4]:
            break
        children.setdefault(spans[idx][3], []).append(idx)
        members.append(idx)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def nested_in_same(i):
        p = spans[i][3]
        while p != root and p != -1:
            if spans[p][0] == spans[i][0]:
                return True
            p = spans[p][3]
        return False

    out: dict[str, float] = {}
    for i in members:
        name = spans[i][0]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        if nested_in_same(i):
            continue
        kids = sum(dur(c) for c in children.get(i, ()))
        out[f"{name}.busy"] = out.get(f"{name}.busy", 0.0) + dur(i)
        out[f"{name}.self"] = out.get(f"{name}.self", 0.0) + dur(i) - kids
        for key, val in (spans[i][5] or {}).items():
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + val

    covered = sum(dur(c) for r in children.get(root, ())
                  for c in children.get(r, ()))
    out["uncovered_frac"] = (dur(root) - covered) / dur(root)
    return out


def layer_metrics(spans: list[list], bumps_import_s: float,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metric values: the median over the traced operations.

    A layer that does not run on a workload, or a target that is absent,
    reads 0.
    """
    ops = [_op_summary(spans, i) for i, s in enumerate(spans)
           if s[0] == OP_SPAN]

    def med(key):
        return statistics.median(op.get(key, 0.0) for op in ops)

    def per_op(fn):
        return statistics.median(fn(op) for op in ops)

    return {
        "bumps.import_s": bumps_import_s,
        "experiments.run_self_s": med("experiments.run.self"),
        "weights.build_eta_s": med("weights.build_eta.busy"),
        "weights.eval_weights_s": med("weights.eval_weights.busy"),
        "weights.sweep_lambda_bounds_s": med("weights.sweep_lambda_bounds.busy"),
        "weights.audit_derivative_bounds_s":
            med("weights.audit_derivative_bounds.busy"),
        "audit.audit_inequality_s": med("audit.audit_inequality.busy"),
        "audit.rows_count": med("audit.audit_inequality.rows"),
        "zeta.zeta_ledger_s": med("zeta.zeta_ledger.busy"),
        "dynamics.solve_forward_s": med("dynamics.solve_forward.busy"),
        "dynamics.solve_forward_calls": med("dynamics.solve_forward.calls"),
        "dynamics.steps_count": med("dynamics.solve_forward.steps"),
        "dynamics.step_us": per_op(
            lambda op: 1e6 * op.get("dynamics.solve_forward.busy", 0.0)
            / op["dynamics.solve_forward.steps"]
            if op.get("dynamics.solve_forward.steps") else 0.0),
        "dynamics.fixed_point_solve_s": med("dynamics.fixed_point_solve.busy"),
        "dynamics.fixed_point_solve_self_s":
            med("dynamics.fixed_point_solve.self"),
        "dynamics.fixed_point_iterations":
            med("dynamics.fixed_point_solve.iterations"),
        "hum.assemble_hum_system_s": med("hum.assemble_hum_system.busy"),
        "hum.precond_factor_s": med("hum.precond_factor.busy"),
        "hum.precond_solve_s": med("hum.precond_solve.busy"),
        "hum.precond_solve_calls": med("hum.precond_solve.calls"),
        "hum.operator_apply_s": med("hum.operator_apply.busy"),
        "hum.operator_apply_calls": med("hum.operator_apply.calls"),
        "hum.minimize_J_s": med("hum.minimize_J.busy"),
        "hum.minimize_J_self_s": med("hum.minimize_J.self"),
        "hum.cg_iterations": med("hum.minimize_J.cg_iterations"),
        "hum.verify_null_control_s": med("hum.verify_null_control.busy"),
        "hum.verify_null_control_self_s": med("hum.verify_null_control.self"),
        "io.write_s": med("io.write.busy"),
        "io.bytes_written": med("io.write.bytes"),
        "io.write_mb_per_s": per_op(
            lambda op: op.get("io.write.bytes", 0) / 1e6
            / op["io.write.busy"] if op.get("io.write.busy") else 0.0),
        "trace.overhead_ratio": overhead_ratio,
        "trace.uncovered_frac": med("uncovered_frac"),
    }
