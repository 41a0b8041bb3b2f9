"""Regenerate perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py

Runs every pool entry of every workload once, through the same plan writer
and operation runner the benchmark uses, and stores the checked headline
values of its manifests together with the machine they were made on.
Refuses to store anything if an entry's own manifest assertions fail.  The
stored file is the benchmark's answer key: regenerate it only when a change
is meant to move the results.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    import numpy
    import scipy
    from beamctrl import experiments
    from beamctrl.config import load_config
    from run import write_plan
    from worker import AssertionsFailed, blas_info, load_plan, run_configs

    work = ROOT / ".perfbench" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    ref = {"entries": {}}
    try:
        for workload in sorted(workloads.CONFIGS):
            plan = write_plan(work / workload, workload,
                              list(range(workloads.POOL_SIZE[workload])))
            entries = {}
            for op in load_plan(plan, load_config)[1]:
                try:
                    values = run_configs(experiments, op["configs"],
                                         work / workload / "runs")
                except AssertionsFailed as exc:
                    print(f"{workload} entry {op['entry']}: {exc}",
                          file=sys.stderr)
                    return 1
                entries[str(op["entry"])] = values
                print(workload, op["entry"], values, flush=True)
            ref["entries"][workload] = entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref["machine"] = {"nproc": os.cpu_count(),
                      "python": platform.python_version(),
                      "numpy": numpy.__version__, "scipy": scipy.__version__,
                      **blas_info()}
    (HERE / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
