"""Seeded workload generator and per-operation reference checks.

A workload is a list of operations; one operation is one or more beamctrl
experiment configs, written as INI text and loaded by the program's own
`load_config`.  The workload seed picks, for each operation, one entry of a
fixed pool.  A pool entry fixes the data seeds of its configs, and
`reference.json` holds the headline manifest values the seed code produced
for every entry, so every operation can be checked against known answers.
"""

from __future__ import annotations

import random

POOL_SIZE = {"control": 8, "forward": 16, "audit": 16}

# Operations planned per run.  A run cycles through them while its time
# lasts, so this only bounds how many distinct configs one run touches.
PLAN_LENGTH = 16

_DOMAIN_T4 = "[domain]\nd = 1.0\nL = 1.0\nT = 4.0\n"
_CARLEMAN = ("[carleman]\ns = 4.0\nlambda = 2.0\neta_scale = 0.1\n"
             "mollify_radius = 0.1\n")


def _control(entry: int, tol: str = "1e-10") -> dict[str, str]:
    seed = 101 + entry
    return {"control": f"""[experiment]
kind = control
seed = {seed}

{_DOMAIN_T4}
[grid]
n_modes = 64
n_time = 256

{_CARLEMAN}
[potential]
kind = separable
amplitude = 1.0
space_mode = 1
time_mode = 1

[data]
kind = random
seed = {seed}
max_mode = 4
amplitude = 1.0

[hum]
tol = {tol}
max_iter = 3000
eps_scale = 1e-14
r0 = 0.3
r1 = 0.7
verify_steps = 4096
suppression_target = 1e-3
"""}


def _forward(entry: int) -> dict[str, str]:
    return {"forward": f"""[experiment]
kind = forward
seed = {201 + entry}

[domain]
d = 1.0
L = 1.0
T = 1.0

[grid]
n_modes = 64

[potential]
kind = random
amplitude = 1.0
seed = {301 + entry}
max_mode = 2

[data]
kind = random
seed = {401 + entry}
max_mode = 2

[forward]
n_steps = 1024
fixed_point_kappa = 0.2
"""}


def _audit(entry: int) -> dict[str, str]:
    return {
        "weights-audit": f"""[experiment]
kind = weights-audit

{_DOMAIN_T4}
[grid]
n_modes = 64
n_time = 256

{_CARLEMAN}
[audit]
lambda_grid = 1,2,4
""",
        "carleman-audit": f"""[experiment]
kind = carleman-audit

{_DOMAIN_T4}
[grid]
n_modes = 64
n_time = 256

{_CARLEMAN}
[potential]
kind = separable
amplitude = 1.0

[audit]
n_samples = 64
calib_seed = {501 + entry}
heldout_seed = {601 + entry}
max_mode = 16
s_grid = 4,8
lambda_grid = 2
""",
        "zeta-ledger": f"""[experiment]
kind = zeta-ledger

{_DOMAIN_T4}
[carleman]
zeta = 1
""",
        "spectrum": f"""[experiment]
kind = spectrum

{_DOMAIN_T4}
[grid]
n_modes = 64
""",
    }


CONFIGS = {"control": _control, "forward": _forward, "audit": _audit}


def plan(workload: str, seed: int) -> list[int]:
    """Pool entries of the run's operations, drawn from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(POOL_SIZE[workload]) for _ in range(PLAN_LENGTH)]


# Headline manifest values checked per experiment kind, with the tolerance
# each must meet against its reference.  `rel` bounds |x - ref| / |ref|;
# `max` is an absolute upper limit (the acceptance gate itself) for values
# that are pure roundoff; `at_most_ref_plus` lets an iteration count drop
# (a better solver is not wrong) but not grow by more than the slack.
# The relative tolerances sit far below the change a CG tolerance of 1e-6
# causes (see `python3 perfbench/run.py --self-test`) and far above the
# 1e-13 level at which a different but exact solver would move them.
CHECKS = {
    "control": {
        "suppression_ratio": ("rel", 1e-6),
        "controlled_terminal_norm": ("rel", 1e-6),
        "superposition_defect": ("max", 1e-8),
        "cg_iterations": ("at_most_ref_plus", 2),
    },
    "forward": {
        "terminal_pair_norm": ("rel", 1e-9),
        "fp_vs_direct_rel": ("rel", 1e-4),
    },
    "weights-audit": {
        "max_growth_factor": ("rel", 1e-9),
    },
    "carleman-audit": {
        "calibration_max_ratio": ("rel", 1e-9),
        "heldout_max_ratio": ("rel", 1e-9),
        "max_s_growth_factor": ("rel", 1e-9),
    },
}


def check_value(kind: str, rule: tuple[str, float], value, ref) -> bool:
    """Whether one manifest value meets its rule against the reference."""
    how, tol = rule
    value = float(value)
    if how == "rel":
        return abs(value - ref) <= tol * abs(ref)
    if how == "max":
        return value <= tol
    if how == "at_most_ref_plus":
        return value <= ref + tol
    raise ValueError(f"unknown rule {how!r} for {kind}")


def headline(kind: str, metrics: dict) -> dict[str, float]:
    """The checked values of one manifest, as floats."""
    return {key: float(metrics[key]) for key in CHECKS.get(kind, {})}
