import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beamctrl.dynamics import BeamTrajectory, Potential, solve_forward
from beamctrl.hum import (CGConvergenceError, CurvatureError,
                          FactorizationError, HumSource, assemble_hum_system,
                          assemble_source, banded_preconditioner,
                          build_theta1, control_on_times,
                          control_weight_factor, free_source,
                          minimize_J, synthesize_control, time_stencil,
                          verify_null_control)
from beamctrl.torus import SpatialGrid, gauss_panels, uniform_interior
from beamctrl.weights import eval_weights


@pytest.fixture(scope="module")
def grid8(domain):
    return SpatialGrid(8, domain.circumference, x0=-domain.L)


@pytest.fixture(scope="module")
def tgrid16(domain):
    return uniform_interior(domain.T, 16)


@pytest.fixture(scope="module")
def weights8(eta, theta, params, grid8, tgrid16):
    return eval_weights(eta, theta, params, grid8.nodes, tgrid16)


@pytest.fixture(scope="module")
def small_system(domain, grid8, tgrid16, weights8):
    theta1 = build_theta1(domain.T)
    x = grid8.nodes
    b0 = np.cos(grid8.kappa[1] * x) + 0.2
    b1 = 0.5 * np.sin(grid8.kappa[1] * x)
    source = free_source(grid8, tgrid16, theta1, b0, b1)
    system = assemble_hum_system(grid8, tgrid16, weights8, source)
    return theta1, b0, b1, system


class TestTheta1:
    def test_plateaus(self, domain):
        theta1 = build_theta1(domain.T, 0.3, 0.7)
        early = np.linspace(0.0, 0.3 * domain.T, 20)
        late = np.linspace(0.7 * domain.T, domain.T, 20)
        assert np.all(theta1.eval(early) == 1.0)
        assert np.all(theta1.eval(early, 1) == 0.0)
        assert np.all(theta1.eval(early, 2) == 0.0)
        assert np.all(theta1.eval(late) == 0.0)
        assert np.all(theta1.eval(late, 1) == 0.0)

    def test_midpoint_half(self, domain):
        theta1 = build_theta1(domain.T, 0.3, 0.7)
        mid = 0.5 * (0.3 + 0.7) * domain.T
        assert theta1.eval(np.array([mid]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_range_and_monotonicity(self, domain):
        theta1 = build_theta1(domain.T, 0.2, 0.8)
        ts = np.linspace(0, domain.T, 801)
        vals = theta1.eval(ts)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) <= 1e-14)

    def test_derivatives_match_finite_differences(self, domain):
        theta1 = build_theta1(domain.T, 0.3, 0.7)
        ts = np.linspace(0.35 * domain.T, 0.65 * domain.T, 41)
        h = 1e-6
        fd1 = (theta1.eval(ts + h) - theta1.eval(ts - h)) / (2 * h)
        assert np.max(np.abs(fd1 - theta1.eval(ts, 1))) < 1e-7
        fd2 = (theta1.eval(ts + h) - 2 * theta1.eval(ts)
               + theta1.eval(ts - h)) / h**2
        assert np.max(np.abs(fd2 - theta1.eval(ts, 2))) < 1e-3

    def test_rejects_bad_plateaus(self, domain):
        with pytest.raises(ValueError):
            build_theta1(domain.T, 0.7, 0.3)


class TestSource:
    def test_zero_on_plateaus(self, domain, grid8, tgrid16):
        theta1 = build_theta1(domain.T, 0.3, 0.7)
        b0 = np.cos(grid8.kappa[1] * grid8.nodes)
        src = free_source(grid8, tgrid16, theta1, b0, np.zeros(grid8.n))
        t = tgrid16.nodes
        outside = (t < 0.3 * domain.T) | (t > 0.7 * domain.T)
        assert np.all(src.values[outside] == 0.0)

    def test_zero_trajectory_gives_zero(self, domain, grid8, tgrid16):
        theta1 = build_theta1(domain.T)
        zero = np.zeros(grid8.n)
        assert np.all(free_source(grid8, tgrid16, theta1, zero, zero).values
                      == 0.0)

    def test_free_source_samples_the_half_step_march(self, domain, grid8,
                                                     tgrid16):
        theta1 = build_theta1(domain.T)
        x = grid8.nodes
        b0, b1 = np.cos(grid8.kappa[1] * x), np.sin(grid8.kappa[2] * x)

        def a_sampler(times):
            return np.cos(x)[None, :] * np.asarray(times)[:, None]

        times = np.linspace(0.0, domain.T, 33)
        q = solve_forward(grid8, b0, b1, times,
                          a=Potential.from_values(a_sampler(times)))
        odd = BeamTrajectory(grid8, times[1::2], q.beta[1::2],
                             q.beta_t[1::2], q.energy[1::2],
                             q.dissipation[1::2])
        src = free_source(grid8, tgrid16, theta1, b0, b1, a_sampler)
        assert np.array_equal(src.values,
                              assemble_source(theta1, odd).values)

    def test_rejects_non_midpoint_grid(self, domain, grid8, theta):
        tg = gauss_panels(domain.T, np.array(theta.junctions), 16)
        zero = np.zeros(grid8.n)
        with pytest.raises(ValueError, match="midpoint"):
            free_source(grid8, tg, build_theta1(domain.T), zero, zero)

    def test_manufactured_formula(self, domain, grid8):
        # q = sin(kappa x) * t: f = -th1'' q - 2 th1' sin + th1' q_xx
        theta1 = build_theta1(domain.T, 0.3, 0.7)
        kap = grid8.kappa[2]
        x = grid8.nodes
        probe_times = np.array([1.4, 2.0, 2.6])
        beta = np.sin(kap * x)[None, :] * probe_times[:, None]
        beta_t = np.tile(np.sin(kap * x), (3, 1))
        q = BeamTrajectory(grid=grid8, times=probe_times, beta=beta,
                           beta_t=beta_t, energy=np.zeros(3),
                           dissipation=np.zeros(3))
        src = assemble_source(theta1, q)
        th1 = theta1.eval(probe_times, 1)[:, None]
        th2 = theta1.eval(probe_times, 2)[:, None]
        expect = (-th2 * probe_times[:, None] * np.sin(kap * x)[None, :]
                  - 2 * th1 * np.sin(kap * x)[None, :]
                  - th1 * kap**2 * probe_times[:, None] * np.sin(kap * x)[None, :])
        assert np.allclose(src.values, expect, rtol=1e-10, atol=1e-12)


class TestStencils:
    def test_fourth_order_interior(self):
        n, dt = 48, 0.05
        tt = dt * np.arange(n)
        D1 = time_stencil(n, dt, 1)
        D2 = time_stencil(n, dt, 2)
        f = np.exp(0.3 * tt)
        inner = slice(2, n - 2)
        assert np.max(np.abs((D1 @ f - 0.3 * f)[inner])) < 3e-7
        assert np.max(np.abs((D2 @ f - 0.09 * f)[inner])) < 3e-6

    def test_exact_on_quartics(self):
        n, dt = 16, 0.2
        tt = dt * np.arange(n)
        D1 = time_stencil(n, dt, 1)
        D2 = time_stencil(n, dt, 2)
        f = tt**4 - 2 * tt**3 + tt
        assert np.allclose(D1 @ f, 4 * tt**3 - 6 * tt**2 + 1, atol=1e-8)
        assert np.allclose(D2 @ f, 12 * tt**2 - 12 * tt, atol=1e-7)


class TestQuadraticSystem:
    def test_positive_semidefinite(self, small_system):
        _, _, _, system = small_system
        rng = np.random.default_rng(0)
        for _ in range(5):
            psi = rng.standard_normal((16, 8))
            quad = np.sum(psi * system.apply(psi))
            assert quad >= system.eps * np.sum(psi * psi) * (1 - 1e-10)

    def test_discrete_self_adjointness(self, small_system):
        _, _, _, system = small_system
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.standard_normal((16, 8))
            b = rng.standard_normal((16, 8))
            lhs = np.sum(system.apply(a) * b)
            rhs = np.sum(a * system.apply(b))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)

    def test_potential_enters_by_expansion(self, domain, grid8, tgrid16,
                                           weights8, small_system):
        theta1, b0, b1, base = small_system
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, size=(16, 8))
        with_a = assemble_hum_system(grid8, tgrid16, weights8, base.source,
                                     a_vals=a, eps_scale=0.0)
        without = assemble_hum_system(grid8, tgrid16, weights8, base.source,
                                      eps_scale=0.0)
        psi = rng.standard_normal((16, 8))
        # (L + a)^T W (L + a) - L^T W L = L^T W (a psi) + a W L psi + a W a psi
        w = without.M * without.W1
        lp = without.apply_L(psi)
        expect = without.apply_Lt(w * (a * psi)) + a * (w * lp) \
            + a * (w * a * psi)
        diff = with_a.apply(psi) - without.apply(psi)
        # the subtraction cancels terms at the full operator scale, so the
        # comparison floor sits at roundoff relative to that scale
        scale = np.max(np.abs(without.apply(psi)))
        assert np.max(np.abs(diff - expect)) <= 1e-12 * scale

    def test_rejects_nonfinite_source(self, grid8, tgrid16, weights8,
                                      small_system):
        _, _, _, base = small_system
        values = base.source.values.copy()
        values[3, 2] = np.nan
        with pytest.raises(ValueError, match="source"):
            assemble_hum_system(grid8, tgrid16, weights8,
                                HumSource(values=values))

    def test_rejects_nonfinite_potential(self, grid8, tgrid16, weights8,
                                         small_system):
        _, _, _, base = small_system
        a = np.zeros((16, 8))
        a[5, 1] = np.nan
        with pytest.raises(ValueError, match="a_vals"):
            assemble_hum_system(grid8, tgrid16, weights8, base.source,
                                a_vals=a)

    @pytest.mark.parametrize("field", ["log_xi", "neg2s_phi"])
    def test_rejects_nonfinite_kernels(self, grid8, tgrid16, weights8,
                                       small_system, field):
        # an overflowing exponent in -2 s phi makes W1 (and W2) infinite; one
        # in log(xi) alone reaches only W2 = exp(7 log xi - 2 s phi)
        _, _, _, base = small_system
        values = getattr(weights8, field).copy()
        values[4, 2] = 1e6
        name = "W1" if field == "neg2s_phi" else "W2"
        w = dataclasses.replace(weights8, **{field: values})
        assert w.domain.in_omega(w.x_nodes)[2]
        with pytest.raises(ValueError, match=name):
            assemble_hum_system(grid8, tgrid16, w, base.source)

    def test_rejects_nonfinite_rhs(self, grid8, tgrid16, weights8,
                                   small_system):
        # a finite source whose quadrature pairing overflows
        _, _, _, base = small_system
        values = base.source.values.copy()
        values[6, 2] = 1e308
        w = dataclasses.replace(weights8, t_weights=1e10 * weights8.t_weights)
        with pytest.raises(ValueError, match="rhs"):
            assemble_hum_system(grid8, tgrid16, w, HumSource(values=values))


def dense_from_band(ab):
    """Symmetric dense matrix from LAPACK lower band storage."""
    n = ab.shape[1]
    A = np.zeros((n, n))
    for d in range(ab.shape[0]):
        i = np.arange(n - d)
        A[i + d, i] = A[i, i + d] = ab[d, :n - d]
    return A


class TestNormalBand:
    @settings(max_examples=25, deadline=None)
    @given(half_nx=st.integers(2, 8), n_time=st.integers(8, 24),
           potential=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(half_nx=4, n_time=8, potential=True, seed=0)
    @example(half_nx=2, n_time=8, potential=False, seed=1)
    def test_band_is_the_operator(self, domain, eta, theta, params, half_nx,
                                  n_time, potential, seed):
        # n_time = 8 is the stencil minimum, where the one-sided end
        # stencils of the two time edges overlap
        nx = 2 * half_nx
        grid = SpatialGrid(nx, domain.circumference, x0=-domain.L)
        tg = uniform_interior(domain.T, n_time)
        w = eval_weights(eta, theta, params, grid.nodes, tg)
        rng = np.random.default_rng(seed)
        source = HumSource(values=rng.standard_normal((n_time, nx)))
        a = rng.uniform(-1, 1, size=(n_time, nx)) if potential else None
        system = assemble_hum_system(grid, tg, w, source, a_vals=a)

        ab = system.normal_band()
        assert ab.shape == system.band_shape == (6 * nx, n_time * nx)
        A = dense_from_band(ab)
        psi = rng.standard_normal((n_time, nx))
        ref = system.apply(psi).ravel()
        assert np.max(np.abs(A @ psi.ravel() - ref)) \
            <= 1e-13 * np.max(np.abs(ref))
        # every column of apply, upper triangle included, matches the
        # symmetric expansion of the stored lower band, and nothing of the
        # operator lies outside the band
        cols = np.stack([system.apply(e.reshape(n_time, nx)).ravel()
                         for e in np.eye(n_time * nx)], axis=1)
        assert np.max(np.abs(cols - A)) <= 1e-13 * np.max(np.abs(cols))

        assert system.eps > 0
        assert np.all(np.isfinite(banded_preconditioner(system)(ref)))


class TestMinimize:
    def test_zero_source_gives_zero(self, domain, grid8, tgrid16, weights8):
        theta1 = build_theta1(domain.T)
        zero = np.zeros(grid8.n)
        system = assemble_hum_system(
            grid8, tgrid16, weights8,
            free_source(grid8, tgrid16, theta1, zero, zero))
        sol = minimize_J(system)
        assert np.all(sol.psi_min == 0.0) and np.all(sol.v == 0.0)
        assert sol.J_value == 0.0

    def test_rhs_scaling_scales_solution(self, small_system):
        _, _, _, system = small_system
        sol1 = minimize_J(system, tol=1e-12, max_iter=2000)
        scaled = copy.copy(system)
        scaled.rhs = 5.0 * system.rhs
        sol5 = minimize_J(scaled, tol=1e-12, max_iter=2000)
        rel = np.max(np.abs(sol5.psi_min - 5.0 * sol1.psi_min)) \
            / np.max(np.abs(sol1.psi_min)) / 5.0
        assert rel < 1e-9

    def test_matches_dense_solve(self, small_system):
        _, _, _, system = small_system
        sol = minimize_J(system, tol=1e-12, max_iter=2000)
        N = 16 * 8
        A = np.zeros((N, N))
        for j in range(N):
            e = np.zeros(N)
            e[j] = 1.0
            A[:, j] = system.apply(e.reshape(16, 8)).ravel()
        dense = np.linalg.solve(A, system.rhs.ravel())
        rel = np.linalg.norm(sol.psi_min.ravel() - dense) / np.linalg.norm(dense)
        assert rel < 1e-8
        # the banded Cholesky preconditioner is exact; PCG only refines
        assert sol.iterations <= 2

    def test_minimum_properties(self, small_system):
        _, _, _, system = small_system
        sol = minimize_J(system, tol=1e-12, max_iter=2000)
        assert sol.J_value < 0.0  # J(psi_min) < J(0) = 0 for nonzero source
        rng = np.random.default_rng(3)
        direction = rng.standard_normal(sol.psi_min.shape)
        for delta in (1e-3, 1e-2):
            for sign in (+1, -1):
                probe = sol.psi_min + sign * delta * direction
                assert system.quadratic_value(probe) > sol.J_value

    def test_nonconvergence_raises_with_history(self, small_system):
        _, _, _, system = small_system
        with pytest.raises(CGConvergenceError) as err:
            minimize_J(system, tol=1e-14, max_iter=2, precondition=False)
        assert len(err.value.history) == 3

    def test_factor_breakdown_raises_named_error(self, small_system):
        _, _, _, system = small_system
        broken = copy.copy(system)
        broken.eps = -1e3 * system.norm_estimate
        with pytest.raises(FactorizationError, match="eps"):
            minimize_J(broken)

    def test_nonpositive_curvature_raises(self, small_system):
        _, _, _, system = small_system
        indefinite = copy.copy(system)
        indefinite.eps = -10.0 * system.norm_estimate
        with pytest.raises(CurvatureError, match="curvature"):
            minimize_J(indefinite, precondition=False)


class TestVerification:
    def test_small_instance_report(self, domain, grid8, eta, theta,
                                   small_system):
        theta1, b0, b1, system = small_system
        sol = minimize_J(system, tol=1e-12, max_iter=2000)
        report, runs = verify_null_control(b0, b1, theta1, sol, system, eta,
                                           theta, n_steps=512)
        assert report.support_ok
        assert report.superposition_defect < 1e-10
        assert report.uncontrolled_terminal > 0
        assert set(runs) == {"controlled", "uncontrolled", "cutoff", "g"}

    def test_control_vanishes_off_omega(self, domain, grid8, eta, theta,
                                        small_system):
        theta1, b0, b1, system = small_system
        sol = minimize_J(system, tol=1e-10, max_iter=2000)
        chi = domain.in_omega(grid8.nodes)
        assert np.all(sol.v[:, ~chi] == 0.0)
        times = np.linspace(0.0, domain.T, 65)
        v = control_on_times(sol, system, eta, theta, times)
        assert np.all(v[:, ~chi] == 0.0)
        assert np.all(v[0] == 0.0) and np.all(v[-1] == 0.0)

    def test_control_on_system_nodes_is_the_solution(self, eta, theta,
                                                     params, small_system):
        # control_weight_factor and the system's W2 share one weight formula
        _, _, _, system = small_system
        nodes = system.t_grid.nodes
        chi = system.weights.domain.in_omega(system.grid.nodes)
        factor = control_weight_factor(eta, theta, params, system.grid.nodes,
                                       nodes)
        assert np.array_equal(factor * chi, system.W2)
        sol = minimize_J(system, tol=1e-10, max_iter=2000)
        v = control_on_times(sol, system, eta, theta, nodes)
        # the spline reproduces its knots exactly except the last one, which
        # it reaches from the left end of the final piece
        assert np.array_equal(v[:-1], sol.v[:-1])
        assert np.max(np.abs(v[-1] - sol.v[-1])) \
            <= 1e-14 * np.max(np.abs(sol.v[-1]))

    def test_synthesize_control_chains_the_stages(self, grid8, eta, theta,
                                                  params, tgrid16,
                                                  small_system):
        theta1, b0, b1, system = small_system
        sol = minimize_J(system)
        report, _ = verify_null_control(b0, b1, theta1, sol, system, eta,
                                        theta, n_steps=256)
        sys2, sol2, report2, runs2 = synthesize_control(
            grid8, tgrid16, eta, theta, params, theta1, b0, b1,
            verify_steps=256)
        assert np.array_equal(sys2.rhs, system.rhs)
        assert np.array_equal(sol2.v, sol.v)
        assert report2 == report
        assert runs2["controlled"].times.size == 257

    def test_weight_forced_decay_of_g_tilde(self, domain, grid64, eta, theta,
                                            params):
        # log |g_tilde(t)| tracks -2 s theta(t) times the phi-profile range
        theta1 = build_theta1(domain.T)
        tg = uniform_interior(domain.T, 128)
        w = eval_weights(eta, theta, params, grid64.nodes, tg)
        x = grid64.nodes
        b0 = np.cos(grid64.kappa[1] * x) + 0.3
        b1 = 0.2 * np.sin(grid64.kappa[2] * x)
        system = assemble_hum_system(grid64, tg, w,
                                     free_source(grid64, tg, theta1, b0, b1))
        sol = minimize_J(system, tol=1e-10, max_iter=2000)
        norms = np.sqrt(grid64.l2_sq(sol.g_tilde))
        late = (tg.nodes > domain.T - theta.T1) & (norms > 1e-280)
        th = theta.eval(tg.nodes[late])
        slope = np.polyfit(th, np.log(norms[late]), 1)[0]
        m = eta.eta_max
        prof = np.exp(6 * params.lam * m) \
            - np.exp(params.lam * (eta.derivs(x, 0)[:, 0] + 4 * m))
        lo = -2 * params.s * prof.max()
        hi = -2 * params.s * prof.min()
        assert lo * 1.2 <= slope <= hi * 0.8

    def test_data_scaling_scales_control(self, domain, grid8, eta, theta,
                                         tgrid16, weights8):
        theta1 = build_theta1(domain.T)
        x = grid8.nodes
        b0 = np.cos(grid8.kappa[1] * x) + 0.2
        b1 = 0.5 * np.sin(grid8.kappa[1] * x)

        def solve(scale):
            system = assemble_hum_system(
                grid8, tgrid16, weights8,
                free_source(grid8, tgrid16, theta1, scale * b0, scale * b1))
            return minimize_J(system, tol=1e-12, max_iter=2000)

        s1, s3 = solve(1.0), solve(3.0)
        rel = np.max(np.abs(s3.v - 3.0 * s1.v)) / np.max(np.abs(s1.v)) / 3.0
        assert rel < 1e-10
