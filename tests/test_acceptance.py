"""Acceptance gate: every shipped capability exercised at its target scale.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output) and enforces the stated tolerance and runtime budget.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from beamctrl.audit import TestFunctionFamily, audit_inequality
from beamctrl.dynamics import (analytic_eigenpairs,
                               assemble_operator, fixed_point_solve,
                               solve_forward)
from beamctrl.hum import (assemble_hum_system, banded_preconditioner,
                          build_theta1, free_source, minimize_J,
                          synthesize_control)
from beamctrl.torus import SpatialGrid, gauss_panels, uniform_interior
from beamctrl.weights import eval_weights, sweep_lambda_bounds
from beamctrl.zeta import zeta_ledger


def report(idx, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {idx:2d} [{status}] {detail}")
    assert passed, detail


def pair_sup_diff(grid, b1, bt1, b2, bt2):
    return float(np.max(np.sqrt(grid.l2_sq(b1 - b2) + grid.l2_sq(bt1 - bt2))))


def smooth_random_data(grid, seed, max_mode=4, sobolev_scale=None):
    rng = np.random.default_rng(seed)
    x = grid.nodes
    b0 = np.zeros(grid.n)
    b1 = np.zeros(grid.n)
    for k in range(max_mode + 1):
        kap = grid.kappa[k]
        decay = 1.0 / (1.0 + k**2) ** 2
        b0 += decay * (rng.standard_normal() * np.cos(kap * x)
                       + (rng.standard_normal() * np.sin(kap * x) if k else 0.0))
        b1 += 0.5 * decay * (rng.standard_normal() * np.cos(kap * x)
                             + (rng.standard_normal() * np.sin(kap * x) if k else 0.0))
    if sobolev_scale is not None:
        norm = np.sqrt(grid.sobolev_sq(b0, 3) + grid.sobolev_sq(b1, 1))
        b0 *= sobolev_scale / norm
        b1 *= sobolev_scale / norm
    return b0, b1


def test_01_spectrum(domain, grid64):
    start = time.perf_counter()
    blocks = assemble_operator(grid64)
    worst = 0.0
    for k in range(grid64.kappa.size):
        numeric = np.sort_complex(np.linalg.eigvals(blocks[k]))
        exact = np.sort_complex(np.array(analytic_eigenpairs(
            k, circumference=grid64.circumference)))
        denom = np.maximum(np.abs(exact), 1.0)
        worst = max(worst, float(np.max(np.abs(numeric - exact) / denom)))
    wall = time.perf_counter() - start
    report(1, worst < 1e-10 and wall < 1.0,
           f"spectrum: 64-mode eigenvalues match analytic pairs, "
           f"max rel err {worst:.2e} ({wall:.2f}s)")


def test_02_semigroup_exactness(grid64):
    start = time.perf_counter()
    worst = 0.0
    for k in (1, 2):
        kap = grid64.kappa[k]
        lam, _ = analytic_eigenpairs(k, circumference=grid64.circumference)
        mode = np.exp(1j * kap * grid64.nodes)
        times = np.linspace(0.0, 1.0, 129)
        traj = solve_forward(grid64, np.real(mode), np.real(lam * mode), times)
        expect = np.real(np.exp(lam * 1.0) * mode)
        worst = max(worst, float(np.max(np.abs(traj.beta[-1] - expect))
                                 / np.max(np.abs(expect))))
    wall = time.perf_counter() - start
    report(2, worst < 1e-8 and wall < 1.0,
           f"semigroup: single-mode T=1 evolution vs exp(lam t), "
           f"max rel err {worst:.2e} ({wall:.2f}s)")


def test_03_energy_identity(grid64):
    start = time.perf_counter()
    b0, b1 = smooth_random_data(grid64, seed=4, max_mode=2)

    def defect(dt, n_steps):
        times = dt * np.arange(n_steps + 1)
        traj = solve_forward(grid64, b0, b1, times)
        monotone = bool(np.all(np.diff(traj.energy)
                               <= 1e-12 * traj.energy[0]))
        dE = np.diff(traj.energy) / dt
        davg = 0.5 * (traj.dissipation[:-1] + traj.dissipation[1:])
        return monotone, float(np.max(np.abs(dE + davg))), traj.energy[0]

    mono, d1, e0 = defect(5e-4, 2000)
    mono2, d2, _ = defect(2.5e-4, 4000)
    ratio = d1 / d2
    wall = time.perf_counter() - start
    ok = mono and mono2 and d1 <= 1e-3 * e0 and ratio >= 3.5 and wall < 10.0
    report(3, ok,
           f"energy identity: monotone={mono}, defect {d1 / e0:.2e} x E0, "
           f"halving gain {ratio:.2f} ({wall:.1f}s)")


def test_04_fixed_point(grid64):
    start = time.perf_counter()
    # modal amplitudes ~ sqrt(k) spread the contraction channels so the
    # observed factor follows the sqrt(kappa) envelope across the sweep
    rng = np.random.default_rng(1)
    x = grid64.nodes
    b0 = np.zeros(grid64.n)
    for k in range(1, 29):
        b0 += np.sqrt(k) * np.cos(grid64.kappa[k] * x + rng.uniform(0, 2 * np.pi))
    b0 /= np.max(np.abs(b0))
    b1 = np.zeros(grid64.n)

    kappas = [0.16, 0.08, 0.04, 0.02]
    factors = []
    for kap_len in kappas:
        times = np.linspace(0.0, kap_len, 257)
        a = np.ones((257, grid64.n))
        _, rep = fixed_point_solve(grid64, b0, b1, times, a, kap_len,
                                   tol=1e-13, max_iter=8)
        factors.append(rep.observed_factor)
    slope = float(np.polyfit(np.log(kappas), np.log(factors), 1)[0])

    # converged trajectory against the direct treatment of the potential
    T = 1.0
    sb0, sb1 = smooth_random_data(grid64, seed=5, max_mode=3)
    times = np.linspace(0.0, T, 1025)
    tt = times[:, None]
    a_field = np.cos(grid64.kappa[1] * x)[None, :] * np.cos(2 * np.pi * tt / T)
    a = a_field
    direct = solve_forward(grid64, sb0, sb1, times, a=a)
    times_h = np.linspace(0.0, T, 2049)
    a_h = (
        np.cos(grid64.kappa[1] * x)[None, :]
        * np.cos(2 * np.pi * times_h[:, None] / T))
    direct_h = solve_forward(grid64, sb0, sb1, times_h, a=a_h)
    scheme_tol = pair_sup_diff(grid64, direct.beta, direct.beta_t,
                               direct_h.beta[::2], direct_h.beta_t[::2])
    fp, rep = fixed_point_solve(grid64, sb0, sb1, times, a, 0.2,
                                tol=1e-13)
    fp_diff = pair_sup_diff(grid64, fp.beta, fp.beta_t,
                            direct.beta, direct.beta_t)
    wall = time.perf_counter() - start
    ok = (abs(slope - 0.5) <= 0.15 and rep.converged
          and fp_diff <= 10.0 * scheme_tol and wall < 30.0)
    report(4, ok,
           f"fixed point: factor slope {slope:.3f} (target 0.5 +/- 0.15), "
           f"fp-vs-direct {fp_diff:.2e} <= 10 x scheme tol {scheme_tol:.2e} "
           f"({wall:.1f}s)")


def test_05_zeta_ledger():
    start = time.perf_counter()
    w1 = zeta_ledger(1)
    ok = (w1.admissible
          and w1.coefficients == (Fraction(-2), Fraction(-102), Fraction(-6),
                                  Fraction(-9))
          and all(q < 1 for q in w1.quotients)
          and w1 == zeta_ledger(1))
    w0 = zeta_ledger(0)
    w43 = zeta_ledger(Fraction(4, 3))
    ok = ok and not w0.admissible and "alpha1" in w0.violation
    ok = ok and not w43.admissible and "E1" in w43.violation
    wall = time.perf_counter() - start
    report(5, ok and wall < 1.0,
           f"zeta ledger: zeta=1 admissible with coefficients "
           f"{tuple(int(c) for c in w1.coefficients)}, zeta=0 and 4/3 "
           f"rejected exactly ({wall:.2f}s)")


def test_06_weight_bound_audit(domain, eta, theta, params, grid64):
    start = time.perf_counter()
    t_grid = gauss_panels(domain.T, np.array(theta.junctions), 128)
    sweep = sweep_lambda_bounds(eta, theta, params, [1.0, 2.0, 4.0], grid64,
                                t_grid)
    growth = max(sweep.growth.values())
    floors_ok = all(
        all(p.floor > 0 for p in rep.positivity)
        for lam, rep in zip(sweep.lams, sweep.reports)
        if lam >= sweep.positivity_threshold)
    wall = time.perf_counter() - start
    ok = (sweep.stable(2.0) and sweep.positivity_threshold is not None
          and floors_ok and wall < 30.0)
    report(6, ok,
           f"weight audit: constants stable under lam in {{1,2,4}} "
           f"(max growth {growth:.3f} < 2), positivity floor from "
           f"lam={sweep.positivity_threshold:g} ({wall:.1f}s)")


def test_07_carleman_ratio_audit(domain, eta, theta, params, grid64):
    start = time.perf_counter()
    t_grid = gauss_panels(domain.T, np.array(theta.junctions), 128)
    kw = dict(n_samples=32, max_mode=16, T=domain.T,
              circumference=domain.circumference)
    calibration = TestFunctionFamily("calibration", seed=11, **kw)
    heldout = TestFunctionFamily("heldout", seed=202, **kw)
    rep = audit_inequality(calibration, heldout, eta, theta, params,
                           [4.0, 8.0], [2.0], grid64, t_grid)
    within = rep.heldout_within(10.0)
    growth = max(rep.s_growth_factors(2.0))
    wall = time.perf_counter() - start
    ok = within and growth <= 2.0 and wall < 300.0
    report(7, ok,
           f"ratio audit: held-out max {rep.heldout_max[(4.0, 2.0)]:.3f} <= "
           f"10 x calibration {rep.calibration_max[(4.0, 2.0)]:.3f}, "
           f"s-doubling growth {growth:.3f} <= 2 ({wall:.1f}s)")


def test_08_small_instance_oracle(domain, eta, theta, params):
    start = time.perf_counter()
    grid = SpatialGrid(8, domain.circumference, x0=-domain.L)
    t_grid = uniform_interior(domain.T, 16)
    w = eval_weights(eta, theta, params, grid, t_grid)
    theta1 = build_theta1(domain.T)
    x = grid.nodes
    b0 = np.cos(grid.kappa[1] * x) + 0.2
    b1 = 0.5 * np.sin(grid.kappa[1] * x)
    source = free_source(w, theta1, b0, b1)
    system = assemble_hum_system(w)
    precond = banded_preconditioner(system, system.normal_band())
    sol = minimize_J(system, source, precond, tol=1e-12, max_iter=2000)
    N = 16 * 8
    A = np.zeros((N, N))
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        A[:, j] = system.apply(e.reshape(16, 8)).ravel()
    dense = np.linalg.solve(A, (system.M * source).ravel())
    rel = float(np.linalg.norm(sol.psi_min.ravel() - dense)
                / np.linalg.norm(dense))
    wall = time.perf_counter() - start
    report(8, rel < 1e-8 and wall < 10.0,
           f"small-instance oracle: CG minimizer vs dense solve rel "
           f"{rel:.2e} ({wall:.1f}s)")


def test_09_null_control(domain, eta, theta, params, grid64):
    start = time.perf_counter()
    theta1 = build_theta1(domain.T)
    x = grid64.nodes

    def a_sampler(times):
        tt = np.atleast_1d(np.asarray(times, dtype=float))[:, None]
        return np.cos(grid64.kappa[1] * x)[None, :] \
            * np.cos(2 * np.pi * tt / domain.T)

    def synthesize(b0, b1, n_time, tol, eps_scale, verify_steps=4096):
        return synthesize_control(
            grid64, uniform_interior(domain.T, n_time), eta, theta, params,
            theta1, b0, b1, a_sampler=a_sampler, eps_scale=eps_scale, tol=tol,
            max_iter=3000, verify_steps=verify_steps)

    b0, b1 = smooth_random_data(grid64, seed=11, sobolev_scale=1.0)
    ladder = [(128, 1e-6, 1e-10), (192, 1e-8, 1e-12), (256, 1e-10, 1e-14)]
    suppressions = []
    final = None
    for n_time, tol, eps in ladder:
        _, _, rep, _, _ = synthesize(b0, b1, n_time, tol, eps)
        suppressions.append(rep.suppression_ratio)
        final = rep
    monotone = all(b < a for a, b in zip(suppressions[:-1], suppressions[1:]))

    # scale invariance of the control-to-data ratio
    _, _, rep_scaled, _, _ = synthesize(2.0 * b0, 2.0 * b1, 256, 1e-10,
                                        1e-14)
    scale_dev = abs(rep_scaled.bound_ratio - final.bound_ratio) \
        / final.bound_ratio

    # bounded across a random data family
    ratios = []
    for member in range(10):
        fb0, fb1 = smooth_random_data(grid64, seed=100 + member,
                                      sobolev_scale=1.0)
        _, _, fam_rep, _, _ = synthesize(fb0, fb1, 256, 1e-8, 1e-14,
                                         verify_steps=2048)
        ratios.append(fam_rep.bound_ratio)
    wall = time.perf_counter() - start

    ok = (final.suppression_ratio <= 1e-3 and monotone
          and final.superposition_defect <= 1e-8
          and final.support_ok
          and scale_dev < 1e-10
          and all(np.isfinite(r) for r in ratios)
          and max(ratios) < 100.0
          and wall < 600.0)
    report(9, ok,
           f"null control: suppression ladder "
           f"{' -> '.join(f'{s:.2e}' for s in suppressions)} (final <= 1e-3), "
           f"superposition {final.superposition_defect:.1e}, scale dev "
           f"{scale_dev:.1e}, family ratio max {max(ratios):.2f} "
           f"({wall:.0f}s)")


def test_10_pipeline_linearity(domain, eta, theta, params, grid64):
    start = time.perf_counter()
    theta1 = build_theta1(domain.T)
    b0, b1 = smooth_random_data(grid64, seed=21)

    t_grid = uniform_interior(domain.T, 128)
    _, sol1, rep1, runs1, _ = synthesize_control(
        grid64, t_grid, eta, theta, params, theta1, b0, b1,
        eps_scale=1e-14, tol=1e-10, max_iter=3000, verify_steps=1024)
    _, sol3, rep3, runs3, _ = synthesize_control(
        grid64, t_grid, eta, theta, params, theta1, 3.0 * b0, 3.0 * b1,
        eps_scale=1e-14, tol=1e-10, max_iter=3000, verify_steps=1024)

    def rel_dev(a, b):
        return float(np.max(np.abs(a - 3.0 * b)) /
                     max(np.max(np.abs(3.0 * b)), 1e-300))

    devs = {
        "psi": rel_dev(sol3.psi_min, sol1.psi_min),
        "g_tilde": rel_dev(sol3.g_tilde, sol1.g_tilde),
        "v": rel_dev(sol3.v, sol1.v),
        "trajectory": rel_dev(runs3["controlled"].beta,
                              runs1["controlled"].beta),
    }
    worst = max(devs.values())
    wall = time.perf_counter() - start
    report(10, worst < 1e-10 and wall < 120.0,
           f"pipeline linearity: alpha=3 scaling, worst field deviation "
           f"{worst:.2e} ({wall:.0f}s)")
