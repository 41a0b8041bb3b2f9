import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import Polynomial
from scipy.interpolate import CubicSpline

from beamctrl import dynamics
from beamctrl.audit import LADDER, N_ROWS, kernel_stack
from beamctrl.dynamics import BeamTrajectory, solve_forward
from beamctrl.hum import (CGConvergenceError, CurvatureError,
                          FactorizationError, HumSolution, apply_stencil,
                          assemble_hum_system, assemble_source,
                          banded_preconditioner, build_theta1,
                          control_on_times, control_weight_factor,
                          fd_weights, free_source, minimize_J,
                          sample_pieces, spline_pieces, synthesize_control,
                          time_stencil, verify_null_control)
from beamctrl.torus import SpatialGrid, TimeGrid, gauss_panels, \
    uniform_interior
from beamctrl.weights import OBSERVATION, EtaProfile, eval_weights, \
    weighted_kernel


@pytest.fixture(scope="module")
def grid8(domain):
    return SpatialGrid(8, domain.circumference, x0=-domain.L)


@pytest.fixture(scope="module")
def tgrid16(domain):
    return uniform_interior(domain.T, 16)


@pytest.fixture(scope="module")
def weights8(eta, theta, params, grid8, tgrid16):
    return eval_weights(eta, theta, params, grid8, tgrid16)


@pytest.fixture(scope="module")
def small_system(domain, grid8, weights8):
    theta1 = build_theta1(domain.T)
    x = grid8.nodes
    b0 = np.cos(grid8.kappa[1] * x) + 0.2
    b1 = 0.5 * np.sin(grid8.kappa[1] * x)
    source = free_source(weights8, theta1, b0, b1)
    system = assemble_hum_system(weights8)
    return theta1, b0, b1, source, system


def factor(system):
    """The exact block Cholesky solve of the system's operator."""
    return banded_preconditioner(system, system.normal_band())


@pytest.fixture(scope="module")
def small_precond(small_system):
    return factor(small_system[-1])


@pytest.fixture(scope="module")
def control_size_system(domain, eta, theta, params, grid64):
    # the configs/control.ini size, where the centered stencils fill the
    # interior offsets and W1 is exactly 0 on the four edge time rows
    tg = uniform_interior(domain.T, 256)
    w = eval_weights(eta, theta, params, grid64, tg)
    a = np.outer(np.sin(np.pi * tg.nodes / domain.T),
                 np.cos(grid64.kappa[1] * grid64.nodes))
    return assemble_hum_system(w, a_vals=a)


def plain_cg(r):
    return r


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
    def test_zero_on_plateaus(self, domain, grid8, tgrid16, weights8):
        theta1 = build_theta1(domain.T, 0.3, 0.7)
        b0 = np.cos(grid8.kappa[1] * grid8.nodes)
        src = free_source(weights8, theta1, b0, np.zeros(grid8.n))
        t = tgrid16.nodes
        outside = (t < 0.3 * domain.T) | (t > 0.7 * domain.T)
        assert np.all(src[outside] == 0.0)

    def test_zero_trajectory_gives_zero(self, domain, grid8, weights8):
        theta1 = build_theta1(domain.T)
        zero = np.zeros(grid8.n)
        assert np.all(free_source(weights8, theta1, zero, zero) == 0.0)

    def test_free_source_samples_the_half_step_march(self, domain, grid8,
                                                     weights8):
        theta1 = build_theta1(domain.T)
        x = grid8.nodes
        b0, b1 = np.cos(grid8.kappa[1] * x), np.sin(grid8.kappa[2] * x)

        def a_sampler(times):
            return np.cos(x)[None, :] * np.asarray(times)[:, None]

        times = np.linspace(0.0, domain.T, 33)
        q = solve_forward(grid8, b0, b1, times,
                          a=a_sampler(times))
        odd = BeamTrajectory(grid8, times[1::2], q.beta[1::2],
                             q.beta_t[1::2])
        src = free_source(weights8, theta1, b0, b1, a_sampler)
        assert np.array_equal(src, assemble_source(theta1, odd))

    def test_rejects_non_midpoint_grid(self, domain, grid8, eta, theta,
                                       params):
        tg = gauss_panels(domain.T, np.array(theta.junctions), 16)
        w = eval_weights(eta, theta, params, grid8, tg)
        zero = np.zeros(grid8.n)
        with pytest.raises(ValueError, match="midpoint"):
            free_source(w, build_theta1(domain.T), zero, zero)

    def test_manufactured_formula(self, domain, grid8):
        # q = sin(kappa x) * t: f = -th1'' q - 2 th1' sin + th1' q_xx
        theta1 = build_theta1(domain.T, 0.3, 0.7)
        kap = grid8.kappa[2]
        x = grid8.nodes
        probe_times = np.array([1.4, 2.0, 2.6])
        beta = np.sin(kap * x)[None, :] * probe_times[:, None]
        beta_t = np.tile(np.sin(kap * x), (3, 1))
        q = BeamTrajectory(grid=grid8, times=probe_times, beta=beta,
                           beta_t=beta_t)
        src = assemble_source(theta1, q)
        th1 = theta1.eval(probe_times, 1)[:, None]
        th2 = theta1.eval(probe_times, 2)[:, None]
        expect = (-th2 * probe_times[:, None] * np.sin(kap * x)[None, :]
                  - 2 * th1 * np.sin(kap * x)[None, :]
                  - th1 * kap**2 * probe_times[:, None] * np.sin(kap * x)[None, :])
        assert np.allclose(src, expect, rtol=1e-10, atol=1e-12)


def _window(i, n, width):
    """First node and size of the window of stencil row i."""
    if i < 2:
        return 0, width
    if i >= n - 2:
        return n - width, width
    return i - 2, 5


class TestStencils:
    def test_fourth_order_interior(self):
        n, dt = 48, 0.05
        tt = dt * np.arange(n)
        D1 = time_stencil(n, dt, 1)
        D2 = time_stencil(n, dt, 2)
        f = np.exp(0.3 * tt)
        inner = slice(2, n - 2)
        assert np.max(np.abs((apply_stencil(D1, f) - 0.3 * f)[inner])) < 3e-7
        assert np.max(np.abs((apply_stencil(D2, f) - 0.09 * f)[inner])) \
            < 3e-6

    def test_exact_on_quartics(self):
        n, dt = 16, 0.2
        tt = dt * np.arange(n)
        D1 = time_stencil(n, dt, 1)
        D2 = time_stencil(n, dt, 2)
        f = tt**4 - 2 * tt**3 + tt
        assert np.allclose(apply_stencil(D1, f), 4 * tt**3 - 6 * tt**2 + 1,
                           atol=1e-8)
        assert np.allclose(apply_stencil(D2, f), 12 * tt**2 - 12 * tt,
                           atol=1e-7)

    # n = 8 is the stencil minimum, where the two edge windows overlap
    @pytest.mark.parametrize("n", [8, 256])
    @pytest.mark.parametrize("order, width", [(1, 5), (2, 6)])
    def test_rows_are_fd_weights_on_their_windows(self, n, order, width):
        dt = 4.0 / n
        S = time_stencil(n, dt, order)
        R = S.shape[0] // 2
        assert S.shape == (11, n)

        for i in range(n):
            start, size = _window(i, n, width)
            # S[R + k, i] is the weight of node i + k in row i
            window = slice(R + start - i, R + start - i + size)
            expect = fd_weights((i - start) * dt, dt * np.arange(size),
                                order)[:, order]
            assert np.allclose(S[window, i], expect, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(expect)))
            outside = np.ones(S.shape[0], dtype=bool)
            outside[window] = False
            assert np.all(S[outside, i] == 0.0)

    @pytest.mark.parametrize("n", [8, 256])
    @pytest.mark.parametrize("order, width", [(1, 5), (2, 6)])
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["1d", "2d"])
    def test_apply_is_the_dense_matrix(self, n, order, width, shape):
        dt = 4.0 / n
        dense = np.zeros((n, n))
        for i in range(n):
            start, size = _window(i, n, width)
            dense[i, start:start + size] = fd_weights(
                (i - start) * dt, dt * np.arange(size), order)[:, order]
        S = time_stencil(n, dt, order)
        u = np.random.default_rng(n + order).standard_normal((n,) + shape)
        for got, ref in ((apply_stencil(S, u), dense @ u),
                         (apply_stencil(S, u, transpose=True), dense.T @ u)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestQuadraticSystem:
    def test_positive_semidefinite(self, small_system):
        *_, system = small_system
        rng = np.random.default_rng(0)
        for _ in range(5):
            psi = rng.standard_normal((16, 8))
            quad = np.sum(psi * system.apply(psi))
            assert quad >= system.eps * np.sum(psi * psi) * (1 - 1e-10)

    def test_discrete_self_adjointness(self, small_system):
        *_, system = small_system
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.standard_normal((16, 8))
            b = rng.standard_normal((16, 8))
            lhs = np.sum(system.apply(a) * b)
            rhs = np.sum(a * system.apply(b))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)

    def test_potential_enters_by_expansion(self, domain, grid8, tgrid16,
                                           weights8, small_system):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, size=(16, 8))
        with_a = assemble_hum_system(weights8, a_vals=a, eps_scale=0.0)
        without = assemble_hum_system(weights8, eps_scale=0.0)
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

    def test_rejects_nonfinite_source(self, small_system):
        *_, source, system = small_system
        values = source.copy()
        values[3, 2] = np.nan
        with pytest.raises(ValueError, match="source is not finite"):
            minimize_J(system, values, plain_cg)

    def test_rejects_source_off_the_grid(self, small_system):
        *_, source, system = small_system
        with pytest.raises(ValueError, match="source not sampled"):
            minimize_J(system, source[1:], plain_cg)

    def test_rejects_nonfinite_potential(self, grid8, tgrid16, weights8):
        a = np.zeros((16, 8))
        a[5, 1] = np.nan
        with pytest.raises(ValueError, match="a_vals"):
            assemble_hum_system(weights8, a_vals=a)

    @pytest.mark.parametrize("field", ["log_xi", "neg2s_phi"])
    def test_rejects_nonfinite_kernels(self, grid8, tgrid16, weights8,
                                       field):
        # an overflowing exponent in -2 s phi makes W1 (and W2) infinite; one
        # in log(xi) alone reaches only W2 = exp(7 log xi - 2 s phi)
        values = getattr(weights8, field).copy()
        values[4, 2] = 1e6
        name = "W1" if field == "neg2s_phi" else "W2"
        w = dataclasses.replace(weights8, **{field: values})
        assert w.domain.in_omega(w.grid.nodes)[2]
        with pytest.raises(ValueError, match=name):
            assemble_hum_system(w)

    def test_rejects_nonfinite_rhs(self, grid8, tgrid16, weights8,
                                   small_system):
        # a finite source whose quadrature pairing overflows
        *_, source, _ = small_system
        values = source.copy()
        values[6, 2] = 1e308
        w = dataclasses.replace(weights8, t_grid=TimeGrid(
            tgrid16.nodes, 1e10 * tgrid16.weights, tgrid16.T))
        system = assemble_hum_system(w)
        with pytest.raises(ValueError, match="rhs"):
            minimize_J(system, values, plain_cg)

    def test_rejects_nonuniform_time_grid(self, domain, eta, theta, params,
                                          grid8):
        # the time stencils take dt from the first two nodes, so Gauss
        # panels gave uniform stencils over Gauss-sampled weights
        tg = gauss_panels(domain.T, np.array(theta.junctions), 48)
        w = eval_weights(eta, theta, params, grid8, tg)
        with pytest.raises(ValueError, match="t_grid"):
            assemble_hum_system(w)


def dense_from_blocks(ab):
    """Symmetric dense matrix from the block band: slot [l, o] holds block
    (l + o, l), and its transpose is block (l, l + o)."""
    n_t, K, nx, _ = ab.shape
    A = np.zeros((n_t * nx, n_t * nx))
    for l in range(n_t):
        for o in range(min(K, n_t - l)):
            r, c = slice((l + o) * nx, (l + o + 1) * nx), \
                slice(l * nx, (l + 1) * nx)
            A[r, c] = ab[l, o]
            if o:
                A[c, r] = ab[l, o].T
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
        w = eval_weights(eta, theta, params, grid, tg)
        rng = np.random.default_rng(seed)
        source = rng.standard_normal((n_time, nx))
        a = rng.uniform(-1, 1, size=(n_time, nx)) if potential else None
        system = assemble_hum_system(w, a_vals=a)

        ab = system.normal_band()
        assert ab.shape == (n_time, 6, nx, nx)
        assert system.band_shape == (6 * nx, n_time * nx)
        A = dense_from_blocks(ab)
        psi = rng.standard_normal((n_time, nx))
        ref = system.apply(psi).ravel()
        assert np.max(np.abs(A @ psi.ravel() - ref)) \
            <= 1e-13 * np.max(np.abs(ref))
        # every column of apply matches the blocks, the diagonal blocks in
        # full and the others with their transposes above the diagonal, and
        # nothing of the operator lies outside the band
        cols = np.stack([system.apply(e.reshape(n_time, nx)).ravel()
                         for e in np.eye(n_time * nx)], axis=1)
        assert np.max(np.abs(cols - A)) <= 1e-13 * np.max(np.abs(cols))

        assert system.eps > 0
        assert np.all(np.isfinite(banded_preconditioner(system, ab)(source)))

    @staticmethod
    def check_band_multiplies_like_apply(system, K):
        # the stored blocks multiply like apply, the widest of the K offsets
        # holds entries, and the slots past the last time block hold none
        n_time, nx = system.t_grid.n, system.grid.n
        ab = system.normal_band()
        assert ab.shape == (n_time, K, nx, nx)
        assert system.band_shape == (K * nx, n_time * nx)
        rng = np.random.default_rng(15)
        for _ in range(3):
            psi = rng.standard_normal((n_time, nx))
            y = np.einsum("lpq,lq->lp", ab[:, 0], psi)
            for o in range(1, K):
                y[o:] += np.einsum("lpq,lq->lp", ab[:n_time - o, o],
                                   psi[:n_time - o])
                y[:n_time - o] += np.einsum("lqp,lq->lp", ab[:n_time - o, o],
                                            psi[o:])
            ref = system.apply(psi)
            assert np.max(np.abs(y - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.any(ab[:, K - 1])
        for o in range(1, K):
            assert not np.any(ab[n_time - o:, o])

    def test_band_at_control_size(self, control_size_system):
        # only the centered rows carry weight, and they span 4 blocks
        system = control_size_system
        assert not np.any(system.W1[[0, 1, -2, -1]])
        self.check_band_multiplies_like_apply(system, 5)

    @pytest.mark.parametrize("row", [0, -2])
    def test_band_widens_for_a_weighted_edge_row(self, control_size_system,
                                                 row):
        # a one-sided edge row of Dtt spans 5 blocks once it carries weight
        W1 = control_size_system.W1.copy()
        W1[row] = W1[128]
        system = dataclasses.replace(control_size_system, W1=W1)
        self.check_band_multiplies_like_apply(system, 6)

    def test_stacked_solve_equals_single_solves(self, control_size_system):
        # one solve of an (n_t, n_x, k) stack gives the k single solves
        system = control_size_system
        solve = banded_preconditioner(system, system.normal_band())
        rng = np.random.default_rng(19)
        r = rng.standard_normal((system.t_grid.n, system.grid.n, 3))
        x = solve(r)
        assert x.shape == r.shape
        for j in range(3):
            single = solve(r[..., j])
            assert np.max(np.abs(x[..., j] - single)) \
                <= 1e-14 * np.max(np.abs(single))


class TestMinimize:
    def test_zero_source_gives_zero(self, domain, grid8, weights8,
                                    small_system, small_precond):
        *_, system = small_system
        zero = np.zeros(grid8.n)
        source = free_source(weights8, build_theta1(domain.T), zero, zero)
        sol = minimize_J(system, source, small_precond)
        assert np.all(sol.psi_min == 0.0) and np.all(sol.v == 0.0)
        assert sol.J_value == 0.0
        assert sol.true_relative_residual == 0.0

    def test_true_residual_is_a_direct_apply(self, small_system,
                                             small_precond):
        *_, source, system = small_system
        sol = minimize_J(system, source, small_precond)
        b = system.M * source
        direct = np.linalg.norm(b - system.apply(sol.psi_min)) \
            / np.linalg.norm(b)
        assert sol.true_relative_residual == pytest.approx(direct, rel=1e-12)
        assert direct > 0.0

    def test_rhs_scaling_scales_solution(self, small_system, small_precond):
        *_, source, system = small_system
        sol1 = minimize_J(system, source, small_precond, tol=1e-12,
                          max_iter=2000)
        sol5 = minimize_J(system, 5.0 * source, small_precond, tol=1e-12,
                          max_iter=2000)
        rel = np.max(np.abs(sol5.psi_min - 5.0 * sol1.psi_min)) \
            / np.max(np.abs(sol1.psi_min)) / 5.0
        assert rel < 1e-9

    def test_matches_dense_solve(self, small_system, small_precond):
        *_, source, system = small_system
        sol = minimize_J(system, source, small_precond, tol=1e-12,
                         max_iter=2000)
        N = 16 * 8
        A = np.zeros((N, N))
        for j in range(N):
            e = np.zeros(N)
            e[j] = 1.0
            A[:, j] = system.apply(e.reshape(16, 8)).ravel()
        dense = np.linalg.solve(A, (system.M * source).ravel())
        rel = np.linalg.norm(sol.psi_min.ravel() - dense) / np.linalg.norm(dense)
        assert rel < 1e-8
        # the block Cholesky preconditioner is exact; PCG only refines
        assert sol.iterations <= 2

    def test_minimum_properties(self, small_system, small_precond):
        *_, source, system = small_system
        sol = minimize_J(system, source, small_precond, tol=1e-12,
                         max_iter=2000)
        assert sol.J_value < 0.0  # J(psi_min) < J(0) = 0 for nonzero source
        b = system.M * source
        rng = np.random.default_rng(3)
        direction = rng.standard_normal(sol.psi_min.shape)
        for delta in (1e-3, 1e-2):
            for sign in (+1, -1):
                probe = sol.psi_min + sign * delta * direction
                assert system.quadratic_value(probe, b) > sol.J_value

    def test_one_factor_serves_many_sources(self, domain, grid8, tgrid16,
                                            eta, theta, params, weights8,
                                            small_system, small_precond):
        # the operator holds no data: one system and one factor solve for
        # each source exactly as a full synthesis of that source does
        theta1, b0, b1, _, system = small_system
        x = grid8.nodes
        for data in ((b0, b1), (np.sin(grid8.kappa[2] * x),
                                np.cos(grid8.kappa[3] * x))):
            source = free_source(weights8, theta1, *data)
            sol = minimize_J(system, source, small_precond)
            _, ref, _, _, _ = synthesize_control(
                grid8, tgrid16, eta, theta, params, theta1, *data,
                verify_steps=256)
            assert np.array_equal(sol.psi_min, ref.psi_min)

    def test_nonconvergence_raises_with_history(self, small_system):
        *_, source, system = small_system
        with pytest.raises(CGConvergenceError) as err:
            minimize_J(system, source, plain_cg, tol=1e-14, max_iter=2)
        assert len(err.value.history) == 3

    def test_factor_breakdown_raises_named_error(self, small_system):
        *_, system = small_system
        broken = copy.copy(system)
        broken.eps = -1e3 * system.norm_estimate
        with pytest.raises(FactorizationError, match="eps"):
            factor(broken)

    @pytest.mark.parametrize("bad, message", [(np.nan, "not finite"),
                                              (np.inf, "eps")])
    @pytest.mark.parametrize("slot", [(0, 0, 1, 0), (3, 2, 0, 5),
                                      (14, 1, 7, 7)])
    def test_nonfinite_band_raises_named_error(self, small_system, slot,
                                               bad, message):
        # a NaN anywhere in the band reaches a later diagonal slot, which
        # the factor checks; an inf may break the Cholesky of a block first
        *_, system = small_system
        ab = system.normal_band()
        ab[slot] = bad
        with pytest.raises(FactorizationError, match=message):
            banded_preconditioner(system, ab)

    def test_nonpositive_curvature_raises(self, small_system):
        *_, source, system = small_system
        indefinite = copy.copy(system)
        indefinite.eps = -10.0 * system.norm_estimate
        with pytest.raises(CurvatureError, match="curvature"):
            minimize_J(indefinite, source, plain_cg)


class TestSpline:
    @pytest.mark.parametrize("uniform", [True, False])
    def test_matches_scipy_not_a_knot(self, uniform):
        rng = np.random.default_rng(8)
        nodes = uniform_interior(4.0, 256).nodes if uniform \
            else np.sort(rng.uniform(0.0, 4.0, 256))
        field = rng.standard_normal((256, 64))
        times = np.linspace(0.0, 4.0, 4097)
        ref = CubicSpline(nodes, field, axis=0)(times)
        got = sample_pieces(nodes, spline_pieces(nodes, field), times)
        assert got.shape == (4097, 64)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_reproduces_cubics(self):
        nodes = np.array([0.0, 0.3, 1.0, 1.2, 2.0])
        times = np.linspace(-0.5, 2.5, 31)
        cubic = np.polynomial.Polynomial([0.5, -1.0, 2.0, 0.75])
        got = sample_pieces(nodes, spline_pieces(nodes, cubic(nodes)[:, None]),
                            times)
        assert np.allclose(got[:, 0], cubic(times), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_needs_four_nodes(self, n):
        with pytest.raises(ValueError, match="at least 4 nodes"):
            spline_pieces(np.arange(n, dtype=float), np.zeros((n, 2)))


class TestVerification:
    def test_small_instance_report(self, small_system, small_precond):
        theta1, b0, b1, source, system = small_system
        sol = minimize_J(system, source, small_precond, tol=1e-12,
                         max_iter=2000)
        report, runs = verify_null_control(b0, b1, theta1, sol, system,
                                           n_steps=512)
        assert report.support_ok
        assert report.superposition_defect < 1e-10
        assert report.uncontrolled_terminal > 0
        assert set(runs) == {"controlled", "uncontrolled", "cutoff", "g"}

    def test_control_vanishes_off_omega(self, domain, grid8, small_system,
                                        small_precond):
        *_, source, system = small_system
        sol = minimize_J(system, source, small_precond, tol=1e-10,
                         max_iter=2000)
        chi = domain.in_omega(grid8.nodes)
        assert np.all(sol.v[:, ~chi] == 0.0)
        times = np.linspace(0.0, domain.T, 65)
        v = control_on_times(sol, system, times)
        assert np.all(v[:, ~chi] == 0.0)
        assert np.all(v[0] == 0.0) and np.all(v[-1] == 0.0)

    def test_control_on_system_nodes_is_the_solution(self, small_system,
                                                     small_precond):
        # every weighted kernel is the one weighted_kernel, bit for bit: the
        # 11 kernel_stack rows, W1, W2 and control_weight_factor
        *_, source, system = small_system
        w = system.weights
        nodes = system.t_grid.nodes
        chi = w.domain.in_omega(system.grid.nodes)

        def kernel(exponents, cells=1.0):
            return weighted_kernel(w.params, w.log_xi, w.neg2s_phi,
                                   exponents, cells)

        quad = w.quad_weights()
        omega_quad = w.t_grid.weights[:, None] \
            * w.domain.omega_cell_weights(w.grid.nodes, w.grid.h)
        rows = [kernel(row[2:], quad) for row in LADDER]
        rows += [kernel((0, 0, 0), quad), kernel(OBSERVATION, omega_quad)]
        assert np.array_equal(kernel_stack(w)[0],
                              np.reshape(rows, (N_ROWS, -1)))
        assert np.array_equal(system.W1, kernel((0, 0, 0)))
        assert np.array_equal(system.W2, kernel(OBSERVATION, chi))
        weight = control_weight_factor(w, nodes)
        assert np.array_equal(weight, kernel(OBSERVATION))
        assert np.array_equal(weight * chi, system.W2)
        sol = minimize_J(system, source, small_precond, tol=1e-10,
                         max_iter=2000)
        v = control_on_times(sol, system, nodes)
        # the spline reproduces its knots exactly except the last one, which
        # it reaches from the left end of the final piece
        assert np.array_equal(v[:-1], sol.v[:-1])
        assert np.max(np.abs(v[-1] - sol.v[-1])) \
            <= 1e-14 * np.max(np.abs(sol.v[-1]))

    def test_control_on_times_samples_in_chunks(self, control_size_system):
        # the configs/control.ini verification grid: sampled a chunk of
        # times at a time, the control has the bits of one evaluation over
        # every time, and the sampling's own allocations stay near the size
        # of the control it returns
        system = control_size_system
        rng = np.random.default_rng(20)
        sol = HumSolution(
            psi_min=rng.standard_normal((system.t_grid.n, system.grid.n)),
            g_tilde=None, v=None, J_value=0.0, residual_history=[],
            iterations=0, relative_residual=0.0, true_relative_residual=0.0)
        times = np.linspace(0.0, system.t_grid.T, 4097)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            v = control_on_times(sol, system, times)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * v.nbytes
        t = times[1:-1]
        whole = -control_weight_factor(system.weights, t) \
            * sample_pieces(system.t_grid.nodes, spline_pieces(
                system.t_grid.nodes, sol.psi_min), t) \
            * system.chi
        assert np.array_equal(v[1:-1], whole)
        assert np.all(v[[0, -1]] == 0.0)

    def test_control_on_times_rebuilds_no_profile(self, control_size_system,
                                                  monkeypatch):
        # its 16 chunks of times read eta at the nodes from the weight field
        # and build no polynomial of theta
        system = control_size_system
        sol = HumSolution(
            psi_min=np.ones((system.t_grid.n, system.grid.n)), g_tilde=None,
            v=None, J_value=0.0, residual_history=[], iterations=0,
            relative_residual=0.0, true_relative_residual=0.0)
        times = np.linspace(0.0, system.t_grid.T, 4097)
        expected = control_on_times(sol, system, times)
        calls = []
        derivs = EtaProfile.derivs
        monkeypatch.setattr(EtaProfile, "derivs", lambda self, *args, **kw:
                            calls.append(args) or derivs(self, *args, **kw))
        monkeypatch.setattr(Polynomial, "deriv", None)
        v = control_on_times(sol, system, times)
        assert calls == []
        assert v.tobytes() == expected.tobytes()

    def test_synthesize_control_chains_the_stages(self, grid8, eta, theta,
                                                  params, tgrid16,
                                                  small_system,
                                                  small_precond):
        theta1, b0, b1, source, system = small_system
        sol = minimize_J(system, source, small_precond)
        report, _ = verify_null_control(b0, b1, theta1, sol, system,
                                        n_steps=256)
        sys2, sol2, report2, runs2, _ = synthesize_control(
            grid8, tgrid16, eta, theta, params, theta1, b0, b1,
            verify_steps=256)
        assert sys2.eps == system.eps
        assert np.array_equal(sys2.W2, system.W2)
        assert np.array_equal(sol2.v, sol.v)
        assert report2 == report
        assert runs2["controlled"].times.size == 257

    def test_synthesis_computes_no_energy(self, grid8, eta, theta, params,
                                          tgrid16, small_system, monkeypatch):
        # verification reads only norms of the states
        calls = []
        monkeypatch.setattr(dynamics, "trajectory_energy",
                            lambda *args: calls.append(args))
        theta1, b0, b1, *_ = small_system
        synthesize_control(grid8, tgrid16, eta, theta, params, theta1, b0, b1,
                           verify_steps=256)
        assert calls == []

    def test_weight_forced_decay_of_g_tilde(self, domain, grid64, eta, theta,
                                            params):
        # log |g_tilde(t)| tracks -2 s theta(t) times the phi-profile range
        theta1 = build_theta1(domain.T)
        tg = uniform_interior(domain.T, 128)
        w = eval_weights(eta, theta, params, grid64, tg)
        x = grid64.nodes
        b0 = np.cos(grid64.kappa[1] * x) + 0.3
        b1 = 0.2 * np.sin(grid64.kappa[2] * x)
        system = assemble_hum_system(w)
        sol = minimize_J(system, free_source(w, theta1, b0, b1),
                         factor(system), tol=1e-10, max_iter=2000)
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

    def test_data_scaling_scales_control(self, domain, grid8,
                                         weights8):
        theta1 = build_theta1(domain.T)
        x = grid8.nodes
        b0 = np.cos(grid8.kappa[1] * x) + 0.2
        b1 = 0.5 * np.sin(grid8.kappa[1] * x)
        system = assemble_hum_system(weights8)
        precond = factor(system)

        def solve(scale):
            source = free_source(weights8, theta1, scale * b0, scale * b1)
            return minimize_J(system, source, precond, tol=1e-12,
                              max_iter=2000)

        s1, s3 = solve(1.0), solve(3.0)
        rel = np.max(np.abs(s3.v - 3.0 * s1.v)) / np.max(np.abs(s1.v)) / 3.0
        assert rel < 1e-10
