"""Configuration-driven experiment runner.

Each experiment kind wires the library modules into one reproducible run:
outputs land in a directory named by the configuration hash.  Space-time
fields (trajectories, the control, the weights) are written once, as binary
field snapshots that `beamctrl export` turns into CSV; small tables are CSV
and reports flat text.  A manifest next to them records the headline
metrics, the pass/fail state of the attached assertion suite and the
`StageClock` laps of the run (`timing.<stage>_s` and `timing.<stage>_cpu_s`
rows, outside the metrics), which tile its `wall_time_s` from the `setup`
lap (config to grid, profiles, data and sampler) on.  Identical
configurations reproduce identical metrics bit for bit: all randomness is
seeded from the configuration and reductions run in fixed order.

Every kind runs on numpy alone.  `hum` (the control solve) is imported by
the first control run of a process, not with this module, so the other
kinds do not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .audit import TestFunctionFamily, audit_inequality
from .config import ExperimentConfig, parse_modes
from .dynamics import (analytic_eigenpairs, assemble_operator,
                       fixed_point_solve, solve_forward)
from .io import (StageClock, write_csv, write_field_csv,
                 write_field_snapshot, write_flat_report)
from .torus import SpatialGrid, uniform_interior
from .weights import LEDGER, build_eta, build_theta, sweep_lambda_bounds
from .zeta import zeta_ledger


@dataclass(frozen=True)
class RunManifest:
    """Reproducible summary of one experiment run."""

    config_hash: str
    kind: str
    version: str
    seed: int
    wall_time_s: float
    run_dir: Path
    outputs: list[str]
    metrics: dict[str, object]
    assertions: dict[str, bool]
    timing: dict[str, float]   # StageClock laps, kept out of metrics

    @property
    def overall_pass(self) -> bool:
        return all(self.assertions.values())

    def rows(self):
        yield ("config_hash", self.config_hash)
        yield ("kind", self.kind)
        yield ("version", self.version)
        yield ("seed", self.seed)
        yield ("wall_time_s", f"{self.wall_time_s:.3f}")
        for stage, seconds in self.timing.items():
            yield (f"timing.{stage}_s", f"{seconds:.6f}")
        yield ("outputs", ";".join(self.outputs))
        for key in self.metrics:
            yield (f"metrics.{key}", self.metrics[key])
        for key in self.assertions:
            yield (f"assert.{key}", str(self.assertions[key]).lower())
        yield ("overall_pass", str(self.overall_pass).lower())


# shared builders -------------------------------------------------------------

def make_grid(cfg: ExperimentConfig) -> SpatialGrid:
    dom = cfg.domain()
    return SpatialGrid(cfg["grid"]["n_modes"], dom.circumference, x0=-dom.L)


def make_data(cfg: ExperimentConfig, grid: SpatialGrid
              ) -> tuple[np.ndarray, np.ndarray]:
    """Initial data from modal coefficients or a seeded random profile."""
    spec = cfg["data"]
    x = grid.nodes
    if spec["kind"] == "modal":
        def from_modes(raw: str) -> np.ndarray:
            out = np.zeros(grid.n)
            for k, c_cos, c_sin in parse_modes(raw):
                kap = grid.kappa[k]
                out += c_cos * np.cos(kap * x) + c_sin * np.sin(kap * x)
            return out
        return from_modes(spec["beta0_modes"]), from_modes(spec["beta1_modes"])

    rng = np.random.default_rng(spec["seed"])
    b0, b1 = np.zeros((2, grid.n))
    for k in range(spec["max_mode"] + 1):
        kap = grid.kappa[k]
        decay = 1.0 / (1.0 + k**2) ** 2
        b0 += decay * (rng.standard_normal() * np.cos(kap * x)
                       + (rng.standard_normal() * np.sin(kap * x) if k else 0.0))
        b1 += 0.5 * decay * (rng.standard_normal() * np.cos(kap * x)
                             + (rng.standard_normal() * np.sin(kap * x) if k else 0.0))
    scale = spec["amplitude"] / grid.data_norm(b0, b1)
    return scale * b0, scale * b1


def _carleman_setup(cfg: ExperimentConfig):
    """(domain, grid, eta, params, theta) of a weights, audit or control run."""
    dom, car = cfg.domain(), cfg["carleman"]
    # a radius of 0 means build_eta's L/8 default
    eta = build_eta(dom, car["eta_scale"], car["mollify_radius"] or None)
    params = cfg.carleman_params()
    return dom, make_grid(cfg), eta, params, build_theta(params, dom.T)


def make_potential_sampler(cfg: ExperimentConfig, grid: SpatialGrid):
    """Callable times -> (n_times, n_x) samples, or None for a zero potential.

    The random variant is normalized against a fixed dense reference grid so
    different trajectory grids sample the same function of (x, t).
    """
    spec = cfg["potential"]
    dom = cfg.domain()
    x = grid.nodes
    if spec["kind"] == "zero" or spec["amplitude"] == 0.0:
        return None

    if spec["kind"] == "separable":
        kap = grid.kappa[spec["space_mode"]]
        n = spec["time_mode"]

        def sampler(times):
            tt = np.atleast_1d(np.asarray(times, dtype=float))[:, None]
            return spec["amplitude"] * np.cos(kap * x)[None, :] \
                * np.cos(2.0 * np.pi * n * tt / dom.T)
        return sampler

    rng = np.random.default_rng(spec["seed"])
    kmax = spec["max_mode"]
    c = rng.standard_normal((kmax + 1, kmax + 1, 4))
    # the sum over (k, m) of (c0 cos wt + c1 sin wt) cos kx + (c2 cos wt +
    # c3 sin wt) sin kx as [cos wt, sin wt] @ C @ [cos kx, sin kx]^T
    C = np.block([[c[..., 0].T, c[..., 2].T], [c[..., 1].T, c[..., 3].T]])
    modes = np.arange(kmax + 1)

    def basis(angles):
        return np.hstack([np.cos(angles), np.sin(angles)])

    def raw(xv, times):
        tt = np.atleast_1d(np.asarray(times, dtype=float))[:, None]
        kap = 2.0 * np.pi * modes / dom.circumference
        return basis(2.0 * np.pi * modes * tt / dom.T) @ C \
            @ basis(kap * xv[:, None]).T

    x_ref = -dom.L + dom.circumference * np.arange(256) / 256
    t_ref = dom.T * (np.arange(257)) / 256
    ref_max = float(np.max(np.abs(raw(x_ref, t_ref))))

    def sampler(times):
        return spec["amplitude"] / ref_max * raw(x, times)
    return sampler


# experiment kinds -------------------------------------------------------------

def _run_spectrum(cfg: ExperimentConfig, run_dir: Path, clock: StageClock):
    grid = make_grid(cfg)
    clock.lap("setup")
    blocks = assemble_operator(grid)
    rows = []
    worst = 0.0
    for k, kap in enumerate(grid.kappa):
        numeric = np.sort_complex(np.linalg.eigvals(blocks[k]))
        exact = np.sort_complex(np.array(analytic_eigenpairs(
            k, circumference=grid.circumference)))
        denom = np.maximum(np.abs(exact), 1.0)
        err = float(np.max(np.abs(numeric - exact) / denom))
        worst = max(worst, err)
        rows.append((k, kap, numeric[0].real, numeric[0].imag,
                     exact[0].real, exact[0].imag, err))
    clock.lap("spectrum")
    files = [write_csv(run_dir / "spectrum.csv",
                       ["k", "kappa", "re_numeric", "im_numeric",
                        "re_exact", "im_exact", "rel_error"], rows)]
    metrics = {"max_rel_eigenvalue_error": worst, "n_modes": grid.n}
    assertions = {"spectrum_matches_1e-10": worst < 1e-10}
    return metrics, assertions, files


def _run_zeta(cfg: ExperimentConfig, run_dir: Path, clock: StageClock):
    clock.lap("setup")
    witness = zeta_ledger(cfg["carleman"]["zeta"])
    clock.lap("ledger")
    files = [
        write_csv(run_dir / "zeta_witness.csv", ["field", "value"],
                  witness.rows()),
        write_flat_report(run_dir / "zeta_witness.txt", witness.rows()),
    ]
    metrics = {
        "zeta": str(witness.zeta),
        "admissible": str(witness.admissible).lower(),
        "coefficients": ";".join(str(c) for c in witness.coefficients),
    }
    if witness.violation:
        metrics["violation"] = witness.violation
    consistent = (witness.admissible == (witness.quotients is not None
                                         and all(q < 1 for q in witness.quotients)))
    assertions = {"witness_internally_consistent": consistent}
    return metrics, assertions, files


def _run_forward(cfg: ExperimentConfig, run_dir: Path, clock: StageClock):
    dom = cfg.domain()
    grid = make_grid(cfg)
    b0, b1 = make_data(cfg, grid)
    sampler = make_potential_sampler(cfg, grid)
    n_steps = cfg["forward"]["n_steps"]
    times = np.linspace(0.0, dom.T, n_steps + 1)
    a = sampler(times) if sampler else None
    clock.lap("setup")

    traj = solve_forward(grid, b0, b1, times, a=a)
    dt = times[1] - times[0]
    dE = np.diff(traj.energy) / dt
    davg = 0.5 * (traj.dissipation[:-1] + traj.dissipation[1:])
    defect = float(np.max(np.abs(dE + davg)))
    metrics = {
        "terminal_pair_norm": traj.terminal_norm(),
        "initial_energy": float(traj.energy[0]),
        "max_energy_defect": defect,
        "potential_sup": float(np.max(np.abs(a))) if a is not None else 0.0,
        "guard_margin": float(traj.guard_margin),
    }
    assertions = {}
    if a is None:
        monotone = bool(np.all(np.diff(traj.energy)
                               <= 1e-12 * max(traj.energy[0], 1.0)))
        metrics["energy_monotone"] = str(monotone).lower()
        assertions["energy_nonincreasing"] = monotone
        assertions["energy_defect_small"] = \
            defect <= 1e-3 * max(traj.energy[0], 1e-300)
    clock.lap("march")

    kappa = cfg["forward"]["fixed_point_kappa"]
    if kappa > 0 and a is not None:
        fp, report = fixed_point_solve(grid, b0, b1, times, a, kappa)
        metrics["fp_observed_factor"] = report.observed_factor
        metrics["fp_converged"] = str(report.converged).lower()
        metrics["fp_windows"] = report.windows
        metrics["fp_iterations"] = report.iterations_total
        assertions["fixed_point_contracts"] = report.converged
        if fp is not None:
            diff = np.max(np.abs(fp.beta - traj.beta)) \
                / max(np.max(np.abs(traj.beta)), 1e-300)
            metrics["fp_vs_direct_rel"] = float(diff)
        clock.lap("fixed_point")
    files = [
        write_field_csv(run_dir / "energy.csv", {
            "t": traj.times, "energy": traj.energy,
            "dissipation": traj.dissipation}),
        write_field_snapshot(run_dir / "trajectory.bin", grid, traj.times,
                             {"beta": traj.beta, "beta_t": traj.beta_t}),
    ]
    return metrics, assertions, files


def _run_weights_audit(cfg: ExperimentConfig, run_dir: Path,
                       clock: StageClock):
    dom, grid, eta, params, theta = _carleman_setup(cfg)
    t_grid = theta.gauss_grid(cfg["grid"]["n_time"])
    clock.lap("setup")

    lams = cfg["audit"]["lambda_grid"]
    sweep = sweep_lambda_bounds(eta, theta, params, lams, grid, t_grid)
    w, base = sweep.base, sweep.base_report
    clock.lap("sweep")

    files = []
    for lam, report in zip(sweep.lams, sweep.reports):
        files.append(write_csv(
            run_dir / f"bounds_lambda_{lam:g}.csv",
            ["inequality", "constant", "passed", "x_at", "t_at"],
            report.rows()))
    ts = np.linspace(dom.T / 512, dom.T * (1 - 1 / 512), 512)
    files.append(write_field_csv(run_dir / "theta_profile.csv",
                                 {"t": ts, "theta": theta.eval(ts)}))
    # column order: the x-only entries of phi, then of xi, then the timed
    # entries; the stable sort keeps table order within each group
    columns = sorted(LEDGER, key=lambda e: (e[3] > 0, e[1] == "xi"))
    files.append(write_field_snapshot(
        run_dir / "weights_field.bin", grid, t_grid.nodes,
        {"phi": w.phi, "xi": w.xi,
         **{name: w.ledger[name] for name, *_ in columns}}))

    metrics = {
        "max_growth_factor": max(sweep.growth.values()),
        "positivity_threshold_lambda": sweep.positivity_threshold,
        "identity_defect": base.identity_defect,
        "eta_slope_floor": eta.slope_floor,
    }
    assertions = {
        "constants_stable_under_lambda": sweep.stable(2.0),
        "positivity_floor_found": sweep.positivity_threshold is not None,
        "phi_xi_identity": base.identity_defect
        <= 1e-10 * float(np.max(np.abs(w.ledger["xi_x4"]))),
    }
    return metrics, assertions, files


def _run_carleman_audit(cfg: ExperimentConfig, run_dir: Path,
                        clock: StageClock):
    dom, grid, eta, params, theta = _carleman_setup(cfg)
    aud = cfg["audit"]
    t_grid = theta.gauss_grid(cfg["grid"]["n_time"])

    fam_kw = dict(n_samples=aud["n_samples"], max_mode=aud["max_mode"],
                  T=dom.T, circumference=dom.circumference)
    calibration = TestFunctionFamily("calibration", seed=aud["calib_seed"],
                                     **fam_kw)
    heldout = TestFunctionFamily("heldout", seed=aud["heldout_seed"], **fam_kw)

    sampler = make_potential_sampler(cfg, grid)
    a_vals = sampler(t_grid.nodes) if sampler else None
    clock.lap("setup")
    report = audit_inequality(calibration, heldout, eta, theta, params,
                              aud["s_grid"], aud["lambda_grid"], grid, t_grid,
                              a=a_vals)
    clock.merge(report.timing)

    files = [
        write_csv(run_dir / "ratio_rows.csv",
                  ["family", "sample", "s", "lambda", "lhs", "residual",
                   "observation", "ratio"], report.rows),
        write_csv(run_dir / "ratio_vs_s.csv",
                  ["s", "lambda", "calibration_max", "heldout_max"],
                  ((s, lam, report.calibration_max[(s, lam)],
                    report.heldout_max[(s, lam)])
                   for s in report.s_grid for lam in report.lam_grid)),
    ]
    base_key = (report.s_grid[0], report.lam_grid[0])
    growth = max(
        (f for lam in report.lam_grid for f in report.s_growth_factors(lam)),
        default=1.0)
    metrics = {
        "calibration_max_ratio": report.calibration_max[base_key],
        "heldout_max_ratio": report.heldout_max[base_key],
        "max_s_growth_factor": growth,
        "kernel_underflow_frac": report.kernel_underflow_frac,
    }
    assertions = {
        f"heldout_within_{aud['heldout_factor']:g}x":
            report.heldout_within(aud["heldout_factor"]),
        "ratio_growth_under_s_doubling": growth <= 2.0,
    }
    return metrics, assertions, files


def _run_control(cfg: ExperimentConfig, run_dir: Path, clock: StageClock):
    from .hum import build_theta1, synthesize_control   # control runs only

    dom, grid, eta, params, theta = _carleman_setup(cfg)
    hum = cfg["hum"]
    theta1 = build_theta1(dom.T, hum["r0"], hum["r1"])
    t_grid = uniform_interior(dom.T, cfg["grid"]["n_time"])
    b0, b1 = make_data(cfg, grid)
    sampler = make_potential_sampler(cfg, grid)
    clock.lap("setup")
    system, sol, report, runs, timing = synthesize_control(
        grid, t_grid, eta, theta, params, theta1, b0, b1, a_sampler=sampler,
        eps_scale=hum["eps_scale"], tol=hum["tol"], max_iter=hum["max_iter"],
        verify_steps=hum["verify_steps"])
    clock.merge(timing)

    controlled = runs["controlled"]
    norms = {name: grid.pair_norm(runs[name].beta, runs[name].beta_t)
             for name in ("controlled", "uncontrolled")}
    files = [
        write_field_snapshot(run_dir / "control.bin", grid, t_grid.nodes,
                             {"v": sol.v}),
        write_csv(run_dir / "cg_residuals.csv", ["iteration", "relative_residual"],
                  enumerate(sol.residual_history)),
        write_field_csv(run_dir / "state_norms.csv",
                        {"t": controlled.times, **norms}),
        write_flat_report(run_dir / "terminal_report.txt", report.rows()),
        write_field_snapshot(run_dir / "controlled.bin", grid,
                             controlled.times, {"beta": controlled.beta,
                                                "beta_t": controlled.beta_t}),
    ]
    metrics = dict(report.rows())
    metrics.update({
        "cg_iterations": sol.iterations,
        "cg_relative_residual": sol.relative_residual,
        "cg_true_relative_residual": sol.true_relative_residual,
        "J_value": sol.J_value,
        "eps": system.eps,
        "norm_estimate": system.norm_estimate,
        "precond_half_bandwidth": system.band_shape[0] - 1,
        "precond_band_mb": 8e-6 * system.band_shape[0] * system.band_shape[1],
        # shares of the weight kernels that underflow to exactly 0
        "w1_underflow_frac": float(np.mean(system.W1 == 0.0)),
        "w2_underflow_frac": float(np.mean(system.W2[:, system.chi] == 0.0)),
        "verification_guard_margin": max(float(r.guard_margin)
                                         for r in runs.values()),
    })
    assertions = {
        "control_supported_in_omega": report.support_ok,
        "superposition_identity": report.superposition_defect <= 1e-8,
        "suppression_target": report.suppression_ratio
        <= hum["suppression_target"],
        "J_nonpositive": sol.J_value <= 0.0,
    }
    return metrics, assertions, files


_RUNNERS = {
    "spectrum": _run_spectrum,
    "zeta-ledger": _run_zeta,
    "forward": _run_forward,
    "weights-audit": _run_weights_audit,
    "carleman-audit": _run_carleman_audit,
    "control": _run_control,
}

EXPECTED_FILES = {
    "spectrum": ("spectrum.csv",),
    "zeta-ledger": ("zeta_witness.csv", "zeta_witness.txt"),
    "forward": ("energy.csv", "trajectory.bin"),
    "weights-audit": ("theta_profile.csv", "weights_field.bin"),
    "carleman-audit": ("ratio_rows.csv", "ratio_vs_s.csv"),
    "control": ("control.bin", "cg_residuals.csv", "state_norms.csv",
                "terminal_report.txt", "controlled.bin"),
}


def run(cfg: ExperimentConfig, out_root: str | Path = "runs") -> RunManifest:
    """Execute the configured experiment and write its run directory."""
    run_dir = Path(out_root) / cfg.config_hash
    run_dir.mkdir(parents=True, exist_ok=True)
    clock = StageClock()
    metrics, assertions, files = _RUNNERS[cfg.kind](cfg, run_dir, clock)
    # each kind's last stage, its files and metrics, ends once its runner
    # has returned and freed its fields
    wall = clock.lap("output")

    manifest = RunManifest(
        config_hash=cfg.config_hash, kind=cfg.kind, version=__version__,
        seed=cfg.seed, wall_time_s=wall, run_dir=run_dir,
        outputs=sorted(Path(f).name for f in files),
        metrics=metrics, assertions=assertions, timing=clock.timing,
    )
    write_flat_report(run_dir / "manifest.txt", manifest.rows())
    return manifest


def emit_plot_data(manifest: RunManifest) -> list[Path]:
    """Return the plot-ready files of a completed run, checking the schema."""
    missing = [name for name in EXPECTED_FILES[manifest.kind]
               if not (manifest.run_dir / name).exists()]
    if missing:
        raise FileNotFoundError(
            f"run {manifest.config_hash} is missing outputs: {missing}")
    return [manifest.run_dir / name for name in EXPECTED_FILES[manifest.kind]]
