"""Configuration-driven experiment runner.

Each experiment kind wires the library modules into one reproducible run:
outputs (CSV tables, binary snapshots, flat reports) land in a directory
named by the configuration hash, together with a manifest recording the
headline metrics and the pass/fail state of the attached assertion suite.
Identical configurations reproduce identical metrics bit for bit: all
randomness is seeded from the configuration and reductions run in fixed
order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .audit import TestFunctionFamily, audit_inequality
from .config import ExperimentConfig
from .dynamics import (Potential, analytic_eigenpairs, assemble_operator,
                       fixed_point_solve, solve_forward)
from .hum import build_theta1, synthesize_control
from .io import (write_csv, write_field_csv, write_field_snapshot,
                 write_flat_report, write_snapshot)
from .torus import SpatialGrid, gauss_panels, uniform_interior
from .weights import (audit_derivative_bounds, build_eta, build_theta,
                      eval_weights, sweep_lambda_bounds)
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

    @property
    def overall_pass(self) -> bool:
        return all(self.assertions.values())

    def rows(self):
        yield ("config_hash", self.config_hash)
        yield ("kind", self.kind)
        yield ("version", self.version)
        yield ("seed", self.seed)
        yield ("wall_time_s", f"{self.wall_time_s:.3f}")
        yield ("outputs", ";".join(self.outputs))
        for key in self.metrics:
            yield (f"metrics.{key}", _render(self.metrics[key]))
        for key in self.assertions:
            yield (f"assert.{key}", str(self.assertions[key]).lower())
        yield ("overall_pass", str(self.overall_pass).lower())


def _render(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
            if not raw:
                return out
            for item in raw.split(";"):
                k_str, c_cos, c_sin = item.split(":")
                kap = grid.kappa[int(k_str)]
                out += float(c_cos) * np.cos(kap * x) \
                    + float(c_sin) * np.sin(kap * x)
            return out
        return from_modes(spec["beta0_modes"]), from_modes(spec["beta1_modes"])

    rng = np.random.default_rng(spec["seed"])
    b0 = np.zeros(grid.n)
    b1 = np.zeros(grid.n)
    for k in range(spec["max_mode"] + 1):
        kap = grid.kappa[k]
        decay = 1.0 / (1.0 + k**2) ** 2
        b0 += decay * (rng.standard_normal() * np.cos(kap * x)
                       + (rng.standard_normal() * np.sin(kap * x) if k else 0.0))
        b1 += 0.5 * decay * (rng.standard_normal() * np.cos(kap * x)
                             + (rng.standard_normal() * np.sin(kap * x) if k else 0.0))
    scale = spec["amplitude"] / np.sqrt(grid.sobolev_sq(b0, 3)
                                        + grid.sobolev_sq(b1, 1))
    return scale * b0, scale * b1


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

    def raw(xv, times):
        tt = np.atleast_1d(np.asarray(times, dtype=float))[:, None]
        out = np.zeros((tt.size, xv.size))
        for k in range(kmax + 1):
            kap = 2.0 * np.pi * k / dom.circumference
            cx, sx = np.cos(kap * xv), np.sin(kap * xv)
            for m in range(kmax + 1):
                ang = 2.0 * np.pi * m * tt / dom.T
                ct, st = np.cos(ang), np.sin(ang)
                out += (c[k, m, 0] * ct + c[k, m, 1] * st) * cx[None, :] \
                    + (c[k, m, 2] * ct + c[k, m, 3] * st) * sx[None, :]
        return out

    x_ref = -dom.L + dom.circumference * np.arange(256) / 256
    t_ref = dom.T * (np.arange(257)) / 256
    ref_max = float(np.max(np.abs(raw(x_ref, t_ref))))

    def sampler(times):
        return spec["amplitude"] / ref_max * raw(x, times)
    return sampler


# experiment kinds -------------------------------------------------------------

def _run_spectrum(cfg: ExperimentConfig, run_dir: Path):
    grid = make_grid(cfg)
    blocks = assemble_operator(grid)
    rows = []
    worst = 0.0
    for k, kap in enumerate(grid.kappa):
        numeric = np.sort_complex(np.linalg.eigvals(blocks[k]))
        pair = analytic_eigenpairs(k, circumference=grid.circumference)
        exact = np.sort_complex(np.array([pair.lam_plus, pair.lam_minus]))
        denom = np.maximum(np.abs(exact), 1.0)
        err = float(np.max(np.abs(numeric - exact) / denom))
        worst = max(worst, err)
        rows.append((k, repr(kap), repr(numeric[0].real), repr(numeric[0].imag),
                     repr(exact[0].real), repr(exact[0].imag), repr(err)))
    files = [write_csv(run_dir / "spectrum.csv",
                       ["k", "kappa", "re_numeric", "im_numeric",
                        "re_exact", "im_exact", "rel_error"], rows)]
    metrics = {"max_rel_eigenvalue_error": worst, "n_modes": grid.n}
    assertions = {"spectrum_matches_1e-10": worst < 1e-10}
    return metrics, assertions, files


def _run_zeta(cfg: ExperimentConfig, run_dir: Path):
    witness = zeta_ledger(cfg["carleman"]["zeta"])
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


def _run_forward(cfg: ExperimentConfig, run_dir: Path):
    dom = cfg.domain()
    grid = make_grid(cfg)
    b0, b1 = make_data(cfg, grid)
    sampler = make_potential_sampler(cfg, grid)
    n_steps = cfg["forward"]["n_steps"]
    times = np.linspace(0.0, dom.T, n_steps + 1)
    a = Potential.from_values(sampler(times)) if sampler else None

    traj = solve_forward(grid, b0, b1, times, a=a)
    files = [
        write_field_csv(run_dir / "energy.csv", {
            "t": traj.times, "energy": traj.energy,
            "dissipation": traj.dissipation}),
        write_field_csv(run_dir / "trajectory.csv", {
            "t": traj.times[:, None], "x": grid.nodes[None, :],
            "beta": traj.beta, "beta_t": traj.beta_t}),
        write_snapshot(run_dir / "trajectory.bin", traj),
    ]
    dt = times[1] - times[0]
    dE = np.diff(traj.energy) / dt
    davg = 0.5 * (traj.dissipation[:-1] + traj.dissipation[1:])
    defect = float(np.max(np.abs(dE + davg)))
    metrics = {
        "terminal_pair_norm": traj.terminal_norm(),
        "initial_energy": float(traj.energy[0]),
        "max_energy_defect": defect,
        "potential_sup": float(a.sup_norm) if a else 0.0,
    }
    assertions = {}
    if a is None:
        monotone = bool(np.all(np.diff(traj.energy)
                               <= 1e-12 * max(traj.energy[0], 1.0)))
        metrics["energy_monotone"] = str(monotone).lower()
        assertions["energy_nonincreasing"] = monotone
        assertions["energy_defect_small"] = \
            defect <= 1e-3 * max(traj.energy[0], 1e-300)

    kappa = cfg["forward"]["fixed_point_kappa"]
    if kappa > 0 and a is not None:
        fp, report = fixed_point_solve(grid, b0, b1, times, a, None, kappa)
        metrics["fp_observed_factor"] = report.observed_factor
        metrics["fp_converged"] = str(report.converged).lower()
        metrics["fp_windows"] = report.windows
        assertions["fixed_point_contracts"] = report.converged
        if fp is not None:
            diff = np.max(np.abs(fp.beta - traj.beta)) \
                / max(np.max(np.abs(traj.beta)), 1e-300)
            metrics["fp_vs_direct_rel"] = float(diff)
    return metrics, assertions, files


def _run_weights_audit(cfg: ExperimentConfig, run_dir: Path):
    dom = cfg.domain()
    grid = make_grid(cfg)
    car = cfg["carleman"]
    eta = build_eta(dom, car["eta_scale"], cfg.mollify_radius())
    params = cfg.carleman_params()
    theta = build_theta(params, dom.T)
    t_grid = gauss_panels(dom.T, np.array(theta.junctions),
                          cfg["grid"]["n_time"])

    lams = cfg["audit"]["lambda_grid"]
    sweep = sweep_lambda_bounds(eta, theta, params.s, lams, params.T0,
                                params.T1, grid.nodes, t_grid)
    files = []
    for lam, report in zip(sweep.lams, sweep.reports):
        files.append(write_csv(
            run_dir / f"bounds_lambda_{lam:g}.csv",
            ["inequality", "constant", "passed", "x_at", "t_at"],
            ((name, repr(c), p, repr(xa), repr(ta))
             for name, c, p, xa, ta in report.rows())))
    ts = np.linspace(dom.T / 512, dom.T * (1 - 1 / 512), 512)
    files.append(write_field_csv(run_dir / "theta_profile.csv",
                                 {"t": ts, "theta": theta.eval(ts)}))
    w = eval_weights(eta, theta, params, grid.nodes, t_grid)
    field_map = {"x": grid.nodes[None, :], "t": t_grid.nodes[:, None],
                 "phi": w.phi, "xi": w.xi}
    field_map.update({f"phi_x{i}": w.phi_x[i] for i in (1, 2, 3, 4)})
    field_map.update({f"xi_x{i}": w.xi_x[i] for i in (1, 2, 3, 4)})
    field_map.update({name: getattr(w, name) for name in (
        f"{fam}_{d}" for fam in ("phi", "xi")
        for d in ("t", "tt", "tx", "txx", "txxx", "ttx", "ttxx"))})
    files.append(write_field_csv(run_dir / "weights_field.csv", field_map))

    base = audit_derivative_bounds(w)
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
        <= 1e-10 * float(np.max(np.abs(w.xi_x[4]))),
    }
    return metrics, assertions, files


def _run_carleman_audit(cfg: ExperimentConfig, run_dir: Path):
    dom = cfg.domain()
    grid = make_grid(cfg)
    car = cfg["carleman"]
    aud = cfg["audit"]
    eta = build_eta(dom, car["eta_scale"], cfg.mollify_radius())
    params = cfg.carleman_params()
    theta = build_theta(params, dom.T)
    t_grid = gauss_panels(dom.T, np.array(theta.junctions),
                          cfg["grid"]["n_time"])

    fam_kw = dict(n_samples=aud["n_samples"], max_mode=aud["max_mode"],
                  T=dom.T, circumference=dom.circumference)
    calibration = TestFunctionFamily("calibration", seed=aud["calib_seed"],
                                     **fam_kw)
    heldout = TestFunctionFamily("heldout", seed=aud["heldout_seed"], **fam_kw)

    sampler = make_potential_sampler(cfg, grid)
    a_vals = sampler(t_grid.nodes) if sampler else None
    report = audit_inequality(calibration, heldout, eta, theta,
                              aud["s_grid"], aud["lambda_grid"],
                              params.T0, params.T1, grid.nodes, t_grid,
                              a=a_vals)

    files = [
        write_csv(run_dir / "ratio_rows.csv",
                  ["family", "sample", "s", "lambda", "lhs", "residual",
                   "observation", "ratio"],
                  ((r.family, r.sample, repr(r.s), repr(r.lam), repr(r.lhs),
                    repr(r.residual), repr(r.observation), repr(r.ratio))
                   for r in report.rows)),
        write_csv(run_dir / "ratio_vs_s.csv",
                  ["s", "lambda", "calibration_max", "heldout_max"],
                  ((repr(s), repr(lam), repr(report.calibration_max[(s, lam)]),
                    repr(report.heldout_max[(s, lam)]))
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
    }
    assertions = {
        "heldout_within_10x": report.heldout_within(aud["heldout_factor"]),
        "ratio_growth_under_s_doubling": growth <= 2.0,
    }
    return metrics, assertions, files


def _run_control(cfg: ExperimentConfig, run_dir: Path):
    dom = cfg.domain()
    grid = make_grid(cfg)
    car = cfg["carleman"]
    hum = cfg["hum"]
    eta = build_eta(dom, car["eta_scale"], cfg.mollify_radius())
    params = cfg.carleman_params()
    theta = build_theta(params, dom.T)
    theta1 = build_theta1(dom.T, hum["r0"], hum["r1"])
    t_grid = uniform_interior(dom.T, cfg["grid"]["n_time"])
    b0, b1 = make_data(cfg, grid)
    system, sol, report, runs = synthesize_control(
        grid, t_grid, eta, theta, params, theta1, b0, b1,
        a_sampler=make_potential_sampler(cfg, grid),
        eps_scale=hum["eps_scale"], tol=hum["tol"], max_iter=hum["max_iter"],
        verify_steps=hum["verify_steps"])

    norms = {name: np.sqrt(grid.l2_sq(runs[name].beta)
                           + grid.l2_sq(runs[name].beta_t))
             for name in ("controlled", "uncontrolled")}
    files = [
        write_field_csv(run_dir / "control.csv", {
            "t": t_grid.nodes[:, None], "x": grid.nodes[None, :],
            "v": sol.v}),
        write_field_snapshot(run_dir / "control.bin", grid, t_grid.nodes,
                             sol.v),
        write_csv(run_dir / "cg_residuals.csv", ["iteration", "relative_residual"],
                  ((i, repr(r)) for i, r in enumerate(sol.residual_history))),
        write_field_csv(run_dir / "state_norms.csv",
                        {"t": runs["controlled"].times, **norms}),
        write_flat_report(run_dir / "terminal_report.txt", report.rows()),
        write_snapshot(run_dir / "controlled.bin", runs["controlled"]),
    ]
    w = system.weights
    in_omega = w.domain.in_omega(w.x_nodes)
    metrics = dict(report.rows())
    metrics.update({
        "cg_iterations": sol.iterations,
        "cg_relative_residual": sol.relative_residual,
        "J_value": sol.J_value,
        "eps": sol.eps,
        "norm_estimate": system.norm_estimate,
        "precond_half_bandwidth": system.band_shape[0] - 1,
        "precond_band_mb": 8e-6 * system.band_shape[0] * system.band_shape[1],
        # shares of the weight kernels that underflow to exactly 0
        "w1_underflow_frac": float(np.mean(system.W1 == 0.0)),
        "w2_underflow_frac": float(np.mean(system.W2[:, in_omega] == 0.0)),
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
    "forward": ("energy.csv", "trajectory.csv", "trajectory.bin"),
    "weights-audit": ("theta_profile.csv", "weights_field.csv"),
    "carleman-audit": ("ratio_rows.csv", "ratio_vs_s.csv"),
    "control": ("control.csv", "control.bin", "cg_residuals.csv",
                "state_norms.csv", "terminal_report.txt", "controlled.bin"),
}


def run(cfg: ExperimentConfig, out_root: str | Path = "runs") -> RunManifest:
    """Execute the configured experiment and write its run directory."""
    run_dir = Path(out_root) / cfg.config_hash
    run_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    metrics, assertions, files = _RUNNERS[cfg.kind](cfg, run_dir)
    wall = time.perf_counter() - start

    manifest = RunManifest(
        config_hash=cfg.config_hash, kind=cfg.kind, version=__version__,
        seed=cfg.seed, wall_time_s=wall, run_dir=run_dir,
        outputs=sorted(Path(f).name for f in files),
        metrics=metrics, assertions=assertions,
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
