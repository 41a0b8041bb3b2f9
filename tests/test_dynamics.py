import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from beamctrl.dynamics import (Potential, SolverDivergenceError,
                               analytic_eigenpairs, assemble_operator,
                               calibrate_solver_constant, dft_matrices,
                               fixed_point_solve, propagator, solve_forward,
                               trajectory_energy)
from beamctrl.io import read_snapshot, write_snapshot
from beamctrl.torus import SpatialGrid


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(64, 3.0, x0=-1.0)


def smooth_data(grid, seed=0, max_mode=3, velocity=True):
    rng = np.random.default_rng(seed)
    x = grid.nodes
    b0 = np.zeros(grid.n)
    b1 = np.zeros(grid.n)
    for k in range(max_mode + 1):
        kap = grid.kappa[k]
        b0 += rng.standard_normal() * np.cos(kap * x)
        if k:
            b0 += rng.standard_normal() * np.sin(kap * x)
        if velocity:
            b1 += 0.3 * rng.standard_normal() * np.cos(kap * x)
    return b0, b1


class TestSpectrum:
    def test_unit_normalization_k1(self):
        pair = analytic_eigenpairs(1)
        assert pair.lam_plus == pytest.approx((-1 + np.sqrt(3) * 1j) / 2)
        assert pair.lam_minus == pytest.approx((-1 - np.sqrt(3) * 1j) / 2)

    def test_unit_normalization_k2(self):
        pair = analytic_eigenpairs(2)
        assert pair.lam_plus == pytest.approx(-2 + 2 * np.sqrt(3) * 1j)

    def test_k0_double_zero(self):
        pair = analytic_eigenpairs(0)
        assert pair.lam_plus == 0 and pair.lam_minus == 0

    def test_blocks_match_analytic_eigenvalues(self, grid):
        blocks = assemble_operator(grid)
        assert np.allclose(blocks[0], [[0.0, 1.0], [0.0, 0.0]])
        for k in range(grid.kappa.size):
            numeric = np.sort_complex(np.linalg.eigvals(blocks[k]))
            pair = analytic_eigenpairs(k, circumference=grid.circumference)
            exact = np.sort_complex(np.array([pair.lam_plus, pair.lam_minus]))
            denom = np.maximum(np.abs(exact), 1.0)
            assert np.max(np.abs(numeric - exact) / denom) < 1e-12

    def test_characteristic_polynomial(self, grid):
        # trace -kappa^2 and determinant kappa^4 per block
        blocks = assemble_operator(grid)
        kap = grid.kappa
        assert np.allclose(np.trace(blocks, axis1=1, axis2=2), -kap**2)
        assert np.allclose(np.linalg.det(blocks), kap**4)


class TestPropagator:
    def test_matches_expm(self, grid):
        blocks = assemble_operator(grid)
        for dt in (0.001, 0.05, 0.7):
            E = propagator(grid, dt)
            for k in (0, 1, 5, 17, 32):
                assert np.allclose(E[k], expm(blocks[k] * dt),
                                   rtol=1e-12, atol=1e-13)

    def test_k0_jordan_block(self, grid):
        out = solve_forward(grid, np.full(grid.n, 2.0), np.full(grid.n, 0.5),
                            np.array([0.0, 0.25]))
        assert np.allclose(out.beta[-1], 2.0 + 0.5 * 0.25, atol=1e-14)
        assert np.allclose(out.beta_t[-1], 0.5, atol=1e-14)

    def test_single_mode_one_step_exact(self, grid):
        k = 2
        kap = grid.kappa[k]
        lam = analytic_eigenpairs(k, circumference=grid.circumference).lam_plus
        mode = np.exp(1j * kap * grid.nodes)
        dt = 0.17
        out = solve_forward(grid, np.real(mode), np.real(lam * mode),
                            np.array([0.0, dt]))
        expect = np.real(np.exp(lam * dt) * mode)
        assert (np.max(np.abs(out.beta[-1] - expect))
                < 1e-12 * np.max(np.abs(expect)))

    def test_zero_state_stays_zero(self, grid):
        a = Potential.from_values(np.ones((2, grid.n)))
        out = solve_forward(grid, np.zeros(grid.n), np.zeros(grid.n),
                            np.array([0.0, 0.1]), a=a)
        assert np.all(out.beta == 0.0) and np.all(out.beta_t == 0.0)

    def test_rejects_nonpositive_dt(self, grid):
        with pytest.raises(ValueError):
            solve_forward(grid, np.zeros(grid.n), np.zeros(grid.n),
                          np.array([0.0, -0.1]))


class TestSolveForward:
    def test_zero_data_zero_trajectory(self, grid):
        times = np.linspace(0, 1.0, 65)
        traj = solve_forward(grid, np.zeros(grid.n), np.zeros(grid.n), times)
        assert np.all(traj.beta == 0.0)

    def test_single_mode_semigroup(self, grid):
        k = 1
        kap = grid.kappa[k]
        lam = analytic_eigenpairs(k, circumference=grid.circumference).lam_plus
        mode = np.exp(1j * kap * grid.nodes)
        times = np.linspace(0, 1.0, 129)
        traj = solve_forward(grid, np.real(mode), np.real(lam * mode), times)
        expect = np.real(np.exp(lam * 1.0) * mode)
        rel = np.max(np.abs(traj.beta[-1] - expect)) / np.max(np.abs(expect))
        assert rel < 1e-8

    def test_energy_monotone_and_identity(self, grid):
        b0, b1 = smooth_data(grid, seed=4, max_mode=2)
        dt = 5e-4
        times = dt * np.arange(1001)
        traj = solve_forward(grid, b0, b1, times)
        assert np.all(np.diff(traj.energy) <= 1e-12 * traj.energy[0])
        dE = np.diff(traj.energy) / dt
        davg = 0.5 * (traj.dissipation[:-1] + traj.dissipation[1:])
        assert np.max(np.abs(dE + davg)) <= 1e-3 * traj.energy[0]

    @given(alpha=st.floats(-4.0, 4.0))
    @settings(max_examples=10, deadline=None)
    @example(alpha=1.8305252962998064e-163)   # squared norms underflow
    @example(alpha=5e-324)
    def test_linearity_in_data(self, grid, alpha):
        b0, b1 = smooth_data(grid, seed=7)
        times = np.linspace(0, 0.5, 33)
        base = solve_forward(grid, b0, b1, times)
        scaled = solve_forward(grid, alpha * b0, alpha * b1, times)
        assert np.allclose(scaled.beta, alpha * base.beta,
                           rtol=1e-12, atol=1e-12 * np.max(np.abs(base.beta)))

    def test_superposition_in_forcing(self, grid):
        times = np.linspace(0, 0.8, 65)
        rng = np.random.default_rng(9)
        f1 = rng.standard_normal((65, grid.n))
        f2 = rng.standard_normal((65, grid.n))
        zero = np.zeros(grid.n)
        r1 = solve_forward(grid, zero, zero, times, forcing=f1)
        r2 = solve_forward(grid, zero, zero, times, forcing=f2)
        r12 = solve_forward(grid, zero, zero, times, forcing=f1 + f2)
        assert np.allclose(r12.beta, r1.beta + r2.beta, atol=1e-12)

    def test_second_order_convergence(self, grid):
        # manufactured run with a potential, self-convergence under halving
        b0, b1 = smooth_data(grid, seed=5, max_mode=2)
        x = grid.nodes

        def a_vals(times):
            tt = np.asarray(times)[:, None]
            return 0.5 * np.cos(grid.kappa[1] * x)[None, :] * np.cos(tt)

        def run(n):
            times = np.linspace(0, 1.0, n + 1)
            return solve_forward(grid, b0, b1, times,
                                 a=Potential.from_values(a_vals(times)))

        r1, r2, r4 = run(100), run(200), run(400)
        e1 = np.max(np.abs(r1.beta[-1] - r4.beta[-1]))
        e2 = np.max(np.abs(r2.beta[-1] - r4.beta[-1]))
        assert np.log2(e1 / e2) > 1.9

    def test_stability_ratio_invariant_under_scaling(self, grid):
        # trajectory-to-data norm ratio is scale-free (linear boundedness)
        b0, b1 = smooth_data(grid, seed=8)
        times = np.linspace(0, 1.0, 129)
        ratios = []
        for alpha in (1.0, 10.0, 1000.0):
            traj = solve_forward(grid, alpha * b0, alpha * b1, times)
            data = np.sqrt(grid.l2_sq(alpha * b0) + grid.l2_sq(alpha * b1))
            ratios.append(traj.sup_l2_beta() / data)
        assert max(ratios) / min(ratios) < 1.01

    def test_divergence_detector(self, grid):
        b0, b1 = smooth_data(grid, seed=6)
        times = np.linspace(0, 2.0, 257)
        bad = Potential.from_values(np.full((257, grid.n), -3.0e4))
        with pytest.raises(SolverDivergenceError):
            solve_forward(grid, b0, b1, times, a=bad)

    def test_zero_data_forced_divergence_detected(self, grid):
        # the guard scales with the forcing integral when the data are zero
        times = np.linspace(0, 2.0, 257)
        f = 1e-3 * np.sin(np.pi * times)[:, None] * np.cos(grid.nodes)[None, :]
        bad = Potential.from_values(np.full((257, grid.n), -3.0e4))
        with pytest.raises(SolverDivergenceError):
            solve_forward(grid, np.zeros(grid.n), np.zeros(grid.n), times,
                          a=bad, forcing=f)

    def test_rejects_nan_potential(self, grid):
        b0, b1 = smooth_data(grid, seed=6)
        times = np.linspace(0, 0.5, 33)
        values = np.zeros((33, grid.n))
        values[5, 3] = np.nan
        with pytest.raises(ValueError, match="a.values"):
            solve_forward(grid, b0, b1, times, a=Potential.from_values(values))

    def test_rejects_mismatched_batch(self, grid):
        b0, b1 = smooth_data(grid, seed=6)
        times = np.linspace(0, 0.5, 33)
        with pytest.raises(ValueError, match="batch"):
            solve_forward(grid, np.stack([b0, b0]), np.stack([b1, b1]), times,
                          forcing=np.zeros((3, 33, grid.n)))

    def test_batch_members_equal_unbatched_bit_for_bit(self, grid):
        times = np.linspace(0, 1.0, 129)
        rng = np.random.default_rng(11)
        data = [smooth_data(grid, seed=s) for s in (1, 2, 3)]
        b0 = np.stack([d[0] for d in data])
        b1 = np.stack([d[1] for d in data])
        f = rng.standard_normal((3, 129, grid.n))
        a = Potential.from_values(
            np.cos(grid.kappa[1] * grid.nodes)[None, :] * np.cos(times)[:, None])
        batch = solve_forward(grid, b0, b1, times, a=a, forcing=f)
        for i in range(3):
            one = solve_forward(grid, b0[i], b1[i], times, a=a, forcing=f[i])
            member = batch.member(i)
            for name in ("beta", "beta_t", "energy", "dissipation"):
                assert np.array_equal(getattr(member, name), getattr(one, name))

    def test_matches_nodal_lawson_reference(self, grid):
        # the same Lawson two-stage step, marched through nodes every step
        b0, b1 = smooth_data(grid, seed=10)
        times = np.linspace(0, 0.5, 65)
        dt = times[1] - times[0]
        rng = np.random.default_rng(12)
        f = rng.standard_normal((65, grid.n))
        a_vals = 2.0 + np.cos(grid.kappa[1] * grid.nodes)[None, :] \
            * np.sin(3 * times)[:, None]
        E = propagator(grid, dt)

        def prop(U):
            return np.einsum("kij,jk->ik", E, U)

        beta, beta_t = b0, b1
        for i in range(64):
            U = np.stack([grid.to_modes(beta), grid.to_modes(beta_t)])
            n0 = grid.to_modes(f[i] - a_vals[i] * beta)
            EN0 = prop(np.stack([np.zeros_like(n0), n0]))
            EU = prop(U)
            pred = grid.to_nodes(EU[0] + dt * EN0[0])
            n1 = grid.to_modes(f[i + 1] - a_vals[i + 1] * pred)
            U1 = EU + 0.5 * dt * (EN0 + np.stack([np.zeros_like(n1), n1]))
            beta, beta_t = grid.to_nodes(U1[0]), grid.to_nodes(U1[1])

        traj = solve_forward(grid, b0, b1, times,
                             a=Potential.from_values(a_vals), forcing=f)
        assert np.allclose(traj.beta[-1], beta, rtol=0,
                           atol=1e-12 * np.max(np.abs(beta)))
        assert np.allclose(traj.beta_t[-1], beta_t, rtol=0,
                           atol=1e-12 * np.max(np.abs(beta_t)))

    def test_dft_matrices_reproduce_transforms(self, grid):
        rng = np.random.default_rng(13)
        syn, ana = dft_matrices(grid)
        u = rng.standard_normal((4, grid.n))
        u[0] = np.cos(np.pi * np.arange(grid.n))        # the Nyquist mode
        modes = grid.to_modes(u).view(float)
        assert np.max(np.abs(u @ ana - modes)) <= 1e-15 * np.max(np.abs(modes))
        # arbitrary modes, imaginary mean and Nyquist parts included
        hat = rng.standard_normal((4, syn.shape[0]))
        hat[0, :-2] = 0.0                               # Nyquist only
        nodes = grid.to_nodes(hat.view(complex))
        assert np.max(np.abs(hat @ syn - nodes)) <= 1e-15 * np.max(np.abs(nodes))

    def test_zero_potential_matches_no_potential(self, grid):
        b0, b1 = smooth_data(grid, seed=14)
        times = np.linspace(0, 0.5, 129)
        f = np.random.default_rng(15).standard_normal((129, grid.n))
        zero = solve_forward(grid, b0, b1, times, forcing=f,
                             a=Potential.from_values(np.zeros((129, grid.n))))
        none = solve_forward(grid, b0, b1, times, forcing=f)
        for name in ("beta", "beta_t"):
            ref = getattr(none, name)
            assert (np.max(np.abs(getattr(zero, name) - ref))
                    <= 1e-15 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("onset", [0, 100])
    def test_divergence_raised_at_first_failing_step(self, grid, onset):
        # the guard is checked per block of steps; the error must still name
        # the first step whose norm exceeds it
        b0, b1 = smooth_data(grid, seed=6)
        times = np.linspace(0, 2.0, 257)[:onset + 41]
        values = np.zeros((times.size, grid.n))
        values[onset:] = -3.0e4
        a = Potential.from_values(values)
        free = solve_forward(grid, b0, b1, times, a=a,
                             divergence_factor=np.inf)
        norms = np.sqrt(grid.l2_sq(free.beta) + grid.l2_sq(free.beta_t))
        guard = 1e6 * np.sqrt(grid.l2_sq(b0) + grid.l2_sq(b1))
        step = np.flatnonzero(norms > guard)[0]
        assert 0 < step < times.size - 1
        with pytest.raises(SolverDivergenceError, match=f"at step {step},"):
            solve_forward(grid, b0, b1, times, a=a)

    def test_nonfinite_state_in_block_raises_without_warning(self, grid):
        b0, b1 = smooth_data(grid, seed=6)
        times = np.linspace(0, 0.5, 65)
        values = np.zeros((65, grid.n))
        values[10:] = -1e300                 # a*beta overflows from step 10
        a = Potential.from_values(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverDivergenceError,
                               match=r"norm grew to inf .* at step 10,"):
                solve_forward(grid, b0, b1, times, a=a)
            # an infinite guard still stops at the first NaN state
            with pytest.raises(SolverDivergenceError,
                               match=r"norm grew to nan .* at step 11,"):
                solve_forward(grid, b0, b1, times, a=a,
                              divergence_factor=np.inf)

    def test_rejects_nonuniform_times(self, grid):
        times = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ValueError):
            solve_forward(grid, np.zeros(grid.n), np.zeros(grid.n), times)


class TestEnergy:
    def test_zero_state(self, grid):
        e, d = trajectory_energy(grid, np.zeros(grid.n), np.zeros(grid.n))
        assert e == 0.0 and d == 0.0

    def test_single_mode_value(self, grid):
        # beta = cos(kappa x), beta_t = 0: E = kappa^4 * circumference / 4
        kap = grid.kappa[1]
        e, d = trajectory_energy(grid, np.cos(kap * grid.nodes),
                                 np.zeros(grid.n))
        assert e == pytest.approx(kap**4 * grid.circumference / 4, rel=1e-12)
        assert d == 0.0

    def test_rows_equal_single_state_calls(self, grid):
        b0, b1 = smooth_data(grid, seed=2)
        beta = np.stack([b0, 2 * b0, -b0])
        beta_t = np.stack([b1, b1, 3 * b1])
        e, d = trajectory_energy(grid, beta, beta_t)
        for i in range(3):
            assert (e[i], d[i]) == trajectory_energy(grid, beta[i], beta_t[i])

    def test_snapshot_round_trip_energy_bit_for_bit(self, grid, tmp_path):
        b0, b1 = smooth_data(grid, seed=2)
        traj = solve_forward(grid, b0, b1, np.linspace(0, 0.5, 65))
        back = read_snapshot(write_snapshot(tmp_path / "traj.bin", traj))
        assert np.array_equal(back.energy, traj.energy)
        assert np.array_equal(back.dissipation, traj.dissipation)


class TestFixedPoint:
    def test_zero_potential_single_iteration(self, grid):
        b0, b1 = smooth_data(grid, seed=3)
        times = np.linspace(0, 0.5, 129)
        a = Potential.from_values(np.zeros((129, grid.n)))
        traj, report = fixed_point_solve(grid, b0, b1, times, a, None, 0.25)
        assert report.converged
        assert report.observed_factor == 0.0

    def test_matches_direct_solve(self, grid):
        b0, b1 = smooth_data(grid, seed=3)
        times = np.linspace(0, 1.0, 513)
        x = grid.nodes
        tt = times[:, None]
        a = Potential.from_values(
            np.cos(grid.kappa[1] * x)[None, :] * np.cos(2 * tt))
        direct = solve_forward(grid, b0, b1, times, a=a)
        fp, report = fixed_point_solve(grid, b0, b1, times, a, None, 0.2)
        assert report.converged
        diff = np.max(np.abs(fp.beta - direct.beta)) / np.max(np.abs(direct.beta))
        assert diff < 1e-6

    def test_distances_decrease_in_contraction_regime(self, grid):
        b0, b1 = smooth_data(grid, seed=3)
        times = np.linspace(0, 0.25, 129)
        a = Potential.from_values(np.ones((129, grid.n)))
        _, report = fixed_point_solve(grid, b0, b1, times, a, None, 0.25)
        assert report.converged
        tail = report.distances[:-1]  # last step may sit at the tol floor
        assert all(b < a_ for a_, b in zip(tail[:-1], tail[1:]))

    def test_noncontraction_reported(self, grid):
        # kappa far above the threshold: expected report, not an exception
        b0, b1 = smooth_data(grid, seed=3)
        times = np.linspace(0, 8.0, 1025)
        a = Potential.from_values(np.full((1025, grid.n), 4.0))
        traj, report = fixed_point_solve(grid, b0, b1, times, a, None, 8.0,
                                         max_iter=12)
        if traj is None:
            assert not report.converged
            assert report.observed_factor >= 1.0
        else:
            assert report.converged

    def test_threshold_estimate_recorded(self, grid):
        C = calibrate_solver_constant(grid, T=0.5, n_steps=128)
        assert C > 0
        b0, b1 = smooth_data(grid, seed=3)
        times = np.linspace(0, 0.25, 65)
        a = Potential.from_values(np.ones((65, grid.n)))
        _, report = fixed_point_solve(grid, b0, b1, times, a, None, 0.25,
                                      threshold_constant=C)
        assert report.threshold_estimate == pytest.approx(1.0 / C**2)
