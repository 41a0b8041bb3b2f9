import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from beamctrl import dynamics
from beamctrl.dynamics import (BeamTrajectory, SolverDivergenceError,
                               analytic_eigenpairs, assemble_operator,
                               dft_matrices, fixed_point_solve, propagator,
                               solve_forward, trajectory_energy)
from beamctrl.io import read_field_snapshot, write_field_snapshot
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
        lam_plus, lam_minus = analytic_eigenpairs(1)
        assert lam_plus == pytest.approx((-1 + np.sqrt(3) * 1j) / 2)
        assert lam_minus == pytest.approx((-1 - np.sqrt(3) * 1j) / 2)

    def test_unit_normalization_k2(self):
        lam_plus, _ = analytic_eigenpairs(2)
        assert lam_plus == pytest.approx(-2 + 2 * np.sqrt(3) * 1j)

    def test_k0_double_zero(self):
        assert analytic_eigenpairs(0) == (0, 0)

    def test_blocks_match_analytic_eigenvalues(self, grid):
        blocks = assemble_operator(grid)
        assert np.allclose(blocks[0], [[0.0, 1.0], [0.0, 0.0]])
        for k in range(grid.kappa.size):
            numeric = np.sort_complex(np.linalg.eigvals(blocks[k]))
            exact = np.sort_complex(np.array(analytic_eigenpairs(
                k, circumference=grid.circumference)))
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
        lam, _ = analytic_eigenpairs(k, circumference=grid.circumference)
        mode = np.exp(1j * kap * grid.nodes)
        dt = 0.17
        out = solve_forward(grid, np.real(mode), np.real(lam * mode),
                            np.array([0.0, dt]))
        expect = np.real(np.exp(lam * dt) * mode)
        assert (np.max(np.abs(out.beta[-1] - expect))
                < 1e-12 * np.max(np.abs(expect)))

    def test_zero_state_stays_zero(self, grid):
        a = np.ones((2, grid.n))
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
        lam, _ = analytic_eigenpairs(k, circumference=grid.circumference)
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
                                 a=a_vals(times))

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
            ratios.append(np.max(grid.l2(traj.beta)) / data)
        assert max(ratios) / min(ratios) < 1.01

    def test_divergence_detector(self, grid):
        b0, b1 = smooth_data(grid, seed=6)
        times = np.linspace(0, 2.0, 257)
        bad = np.full((257, grid.n), -3.0e4)
        with pytest.raises(SolverDivergenceError):
            solve_forward(grid, b0, b1, times, a=bad)

    def test_zero_data_forced_divergence_detected(self, grid):
        # the guard scales with the forcing integral when the data are zero
        times = np.linspace(0, 2.0, 257)
        f = 1e-3 * np.sin(np.pi * times)[:, None] * np.cos(grid.nodes)[None, :]
        bad = np.full((257, grid.n), -3.0e4)
        with pytest.raises(SolverDivergenceError):
            solve_forward(grid, np.zeros(grid.n), np.zeros(grid.n), times,
                          a=bad, forcing=f)

    def test_rejects_nan_potential(self, grid):
        b0, b1 = smooth_data(grid, seed=6)
        times = np.linspace(0, 0.5, 33)
        values = np.zeros((33, grid.n))
        values[5, 3] = np.nan
        with pytest.raises(ValueError, match="^a is not finite"):
            solve_forward(grid, b0, b1, times, a=values)

    def test_rejects_mismatched_batch(self, grid):
        b0, b1 = smooth_data(grid, seed=6)
        times = np.linspace(0, 0.5, 33)
        with pytest.raises(ValueError, match="batch"):
            solve_forward(grid, np.stack([b0, b0]), np.stack([b1, b1]), times,
                          forcing=np.zeros((3, 33, grid.n)))

    # 129 nodes march two whole guard blocks, 131 end in a partial one; the
    # batch shares its synthesis product, and five members (more than
    # four) would show a BLAS kernel that changes with the row count
    @pytest.mark.parametrize("n_t", [129, 131])
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("members", [2, 3, 5])
    def test_batch_members_equal_unbatched_bit_for_bit(self, grid, n_t,
                                                       forced, members):
        times = np.linspace(0, 1.0, n_t)
        rng = np.random.default_rng(11)
        data = [smooth_data(grid, seed=s) for s in range(1, members + 1)]
        b0 = np.stack([d[0] for d in data])
        b1 = np.stack([d[1] for d in data])
        f = (rng.standard_normal((members, n_t, grid.n)) if forced
             else None)
        a = (
            np.cos(grid.kappa[1] * grid.nodes)[None, :] * np.cos(times)[:, None])
        batch = solve_forward(grid, b0, b1, times, a=a, forcing=f)
        for i in range(members):
            one = solve_forward(grid, b0[i], b1[i], times, a=a,
                                forcing=None if f is None else f[i])
            member = batch.member(i)
            for name in ("beta", "beta_t", "energy", "dissipation",
                         "guard_margin"):
                assert np.array_equal(getattr(member, name), getattr(one, name))

    def test_march_holds_its_output_plus_one_block(self, grid):
        # the modal states and the forcing's transform are kept one guard
        # block at a time, so the march's own allocations stay near the
        # size of the trajectory it returns
        n_t = 4097
        times = np.linspace(0, 4.0, n_t)
        rng = np.random.default_rng(16)
        b0, b1 = rng.standard_normal((2, 3, grid.n))
        a = np.cos(grid.kappa[1] * grid.nodes)[None, :] \
            * np.cos(times)[:, None]
        f = rng.standard_normal((3, n_t, grid.n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = solve_forward(grid, b0, b1, times, a=a, forcing=f)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (traj.beta.nbytes + traj.beta_t.nbytes)

    def test_guard_margin_is_largest_norm_over_guard(self, grid):
        times = np.linspace(0, 1.0, 131)
        rng = np.random.default_rng(17)
        b0, b1 = (np.stack([d, d, np.zeros(grid.n)])
                  for d in smooth_data(grid, seed=5))
        f = rng.standard_normal((3, 131, grid.n))
        f[1] = f[2] = 0.0           # member 2: zero data, zero forcing
        a = 3.0 * np.cos(grid.kappa[2] * grid.nodes)[None, :] \
            * np.sin(times)[:, None]
        traj = solve_forward(grid, b0, b1, times, a=a, forcing=f,
                             divergence_factor=1e3)
        trap = np.full(times.size, times[1] - times[0])
        trap[0] = trap[-1] = 0.5 * trap[0]
        guard = 1e3 * (grid.pair_norm(b0, b1) + grid.l2(f) @ trap)
        norms = grid.pair_norm(traj.beta, traj.beta_t).max(axis=1)
        assert traj.guard_margin.shape == (3,)
        assert traj.guard_margin[:2] == pytest.approx(norms[:2] / guard[:2],
                                                      rel=1e-12)
        assert traj.guard_margin[2] == 0.0
        assert traj.member(0).guard_margin == traj.guard_margin[0]
        one = solve_forward(grid, b0[0], b1[0], times, a=a, forcing=f[0],
                            divergence_factor=1e3)
        assert one.guard_margin == traj.guard_margin[0]

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
                             a=a_vals, forcing=f)
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
                             a=np.zeros((129, grid.n)))
        none = solve_forward(grid, b0, b1, times, forcing=f)
        for name in ("beta", "beta_t"):
            ref = getattr(none, name)
            assert (np.max(np.abs(getattr(zero, name) - ref))
                    <= 1e-15 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("onset", [0, 100])
    def test_divergence_raised_at_first_failing_step(self, grid, onset):
        # the guard is checked per block of steps; the error must still name
        # the first step whose norm exceeds it, as the per-step loop does
        b0, b1 = smooth_data(grid, seed=6)
        times = np.linspace(0, 2.0, 257)[:onset + 41]
        values = np.zeros((times.size, grid.n))
        values[onset:] = -3.0e4
        a = values
        free = solve_forward(grid, b0, b1, times, a=a,
                             divergence_factor=np.inf)
        norms = np.sqrt(grid.l2_sq(free.beta) + grid.l2_sq(free.beta_t))
        guard = 1e6 * np.sqrt(grid.l2_sq(b0) + grid.l2_sq(b1))
        step = np.flatnonzero(norms > guard)[0]
        assert 0 < step < times.size - 1
        with pytest.raises(SolverDivergenceError, match=f"at step {step},"):
            solve_forward(grid, b0, b1, times, a=a)
        with pytest.raises(SolverDivergenceError) as want:
            reference_potential_march(grid, b0, b1, times, a)
        with pytest.raises(SolverDivergenceError,
                           match=f"^{re.escape(str(want.value))}$"):
            solve_forward(grid, b0, b1, times, a=a)

    # one unforced member and batches of forced ones, over two whole guard
    # blocks (129 nodes) and ending in a partial one (131)
    @pytest.mark.parametrize("n_t", [129, 131])
    @pytest.mark.parametrize("members", [None, 2, 3, 5])
    def test_matches_per_step_loop_bit_for_bit(self, grid, n_t, members):
        times = np.linspace(0, 1.0, n_t)
        rng = np.random.default_rng(18)
        shape = (grid.n,) if members is None else (members, grid.n)
        b0, b1 = rng.standard_normal((2,) + shape)
        f = (None if members is None
             else rng.standard_normal((members, n_t, grid.n)))
        a = 3.0 * np.cos(grid.kappa[1] * grid.nodes)[None, :] \
            * np.cos(times)[:, None]
        want = reference_potential_march(grid, b0, b1, times, a, f)
        traj = solve_forward(grid, b0, b1, times, a=a, forcing=f)
        for name in ("beta", "beta_t", "guard_margin"):
            assert np.array_equal(getattr(traj, name), want[name])

    def test_nonfinite_state_in_block_raises_without_warning(self, grid):
        b0, b1 = smooth_data(grid, seed=6)
        times = np.linspace(0, 0.5, 65)
        values = np.zeros((65, grid.n))
        values[10:] = -1e300                 # a*beta overflows from step 10
        a = values
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



class TestFreeMarch:
    """Marches without a potential, which go by block products."""

    # 129 nodes march two whole guard blocks, 131 end in a partial one, 105
    # end 8 steps into the second sub-block of a guard block
    @pytest.mark.parametrize("n_t", [129, 131, 105])
    @pytest.mark.parametrize("forced", [False, True])
    def test_batch_members_equal_unbatched_bit_for_bit(self, grid, n_t,
                                                       forced):
        times = np.linspace(0, 1.0, n_t)
        data = [smooth_data(grid, seed=s) for s in (1, 2, 3)]
        b0 = np.stack([d[0] for d in data])
        b1 = np.stack([d[1] for d in data])
        f = (np.random.default_rng(11).standard_normal((3, n_t, grid.n))
             if forced else None)
        batch = solve_forward(grid, b0, b1, times, forcing=f)
        for i in range(3):
            one = solve_forward(grid, b0[i], b1[i], times,
                                forcing=None if f is None else f[i])
            member = batch.member(i)
            for name in ("beta", "beta_t", "guard_margin"):
                assert np.array_equal(getattr(member, name), getattr(one, name))

    @pytest.mark.parametrize("onset", [0, 100])
    def test_divergence_raised_at_first_failing_step(self, grid, onset):
        b0, b1 = smooth_data(grid, seed=6)
        times = np.linspace(0, 2.0, 257)[:onset + 41]
        f = np.zeros((times.size, grid.n))
        f[onset:] = 200.0 * np.cos(grid.kappa[1] * grid.nodes)
        free = solve_forward(grid, b0, b1, times, forcing=f,
                             divergence_factor=np.inf)
        norms = grid.pair_norm(free.beta, free.beta_t)
        trap = np.full(times.size, times[1] - times[0])
        trap[0] = trap[-1] = 0.5 * trap[0]
        guard = 0.2 * (grid.pair_norm(b0, b1) + grid.l2(f) @ trap)
        step = np.flatnonzero(norms > guard)[0]
        assert 0 < step < times.size - 1
        # the message prints the guard crossed, in the units of the norm
        printed = (f"(> guard {guard:.3e} = 2e-01 x (data norm + forcing "
                   f"integral)) at step {step},")
        with pytest.raises(SolverDivergenceError, match=re.escape(printed)):
            solve_forward(grid, b0, b1, times, forcing=f,
                          divergence_factor=0.2)

    def test_guard_margin_is_largest_norm_over_guard(self, grid):
        times = np.linspace(0, 1.0, 131)
        rng = np.random.default_rng(17)
        b0, b1 = (np.stack([d, d, np.zeros(grid.n)])
                  for d in smooth_data(grid, seed=5))
        f = rng.standard_normal((3, 131, grid.n))
        f[1] = f[2] = 0.0           # member 2: zero data, zero forcing
        traj = solve_forward(grid, b0, b1, times, forcing=f,
                             divergence_factor=1e3)
        trap = np.full(times.size, times[1] - times[0])
        trap[0] = trap[-1] = 0.5 * trap[0]
        guard = 1e3 * (grid.pair_norm(b0, b1) + grid.l2(f) @ trap)
        norms = grid.pair_norm(traj.beta, traj.beta_t).max(axis=1)
        assert traj.guard_margin[:2] == pytest.approx(norms[:2] / guard[:2],
                                                      rel=1e-12)
        assert traj.guard_margin[2] == 0.0
        assert np.all(traj.beta[2] == 0.0) and np.all(traj.beta_t[2] == 0.0)

    def test_march_holds_its_output_plus_one_block(self, grid):
        n_t = 4097
        times = np.linspace(0, 4.0, n_t)
        rng = np.random.default_rng(16)
        b0, b1 = rng.standard_normal((2, 3, grid.n))
        f = rng.standard_normal((3, n_t, grid.n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = solve_forward(grid, b0, b1, times, forcing=f)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (traj.beta.nbytes + traj.beta_t.nbytes)

    def test_matches_closed_form_propagator(self, grid):
        # the block products against exp(t_k L) applied to the data
        b0, b1 = smooth_data(grid, seed=18, max_mode=6)
        times = np.linspace(0, 2.0, 4097)
        traj = solve_forward(grid, b0, b1, times)
        U0 = np.stack([grid.to_modes(b0), grid.to_modes(b1)])
        for k in range(0, times.size, 7):
            Uk = np.einsum("mrc,cm->rm", propagator(grid, times[k]), U0)
            for got, want in ((traj.beta[k], grid.to_nodes(Uk[0])),
                              (traj.beta_t[k], grid.to_nodes(Uk[1]))):
                assert (np.max(np.abs(got - want))
                        <= 1e-13 * np.max(np.abs(want)))


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

    def test_derived_energy_equals_trajectory_energy(self, grid):
        data = [smooth_data(grid, seed=s) for s in (4, 5)]
        batch = solve_forward(grid, np.stack([d[0] for d in data]),
                              np.stack([d[1] for d in data]),
                              np.linspace(0, 0.5, 65))
        for traj in (batch, batch.member(0), batch.member(1)):
            e, d = trajectory_energy(grid, traj.beta, traj.beta_t)
            assert np.array_equal(traj.energy, e)
            assert np.array_equal(traj.dissipation, d)

    def test_huge_states_march_and_raise_on_energy(self, grid):
        # squared norms of states near 1e300 overflow; the march does not
        # square them, so only a read of the energy fails, by name
        x = grid.nodes
        times = np.linspace(0, 0.1, 33)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve_forward(grid, 1e300 * np.cos(grid.kappa[1] * x),
                                 np.zeros(grid.n), times)
            assert np.all(np.isfinite(traj.beta))
            assert np.all(np.isfinite(traj.beta_t))
            for name in ("energy", "dissipation"):
                with pytest.raises(OverflowError, match="energy.*beta_t"):
                    getattr(traj, name)

    def test_snapshot_round_trip_energy_bit_for_bit(self, grid, tmp_path):
        b0, b1 = smooth_data(grid, seed=2)
        traj = solve_forward(grid, b0, b1, np.linspace(0, 0.5, 65))
        path = write_field_snapshot(tmp_path / "traj.bin", grid, traj.times,
                                    {"beta": traj.beta, "beta_t": traj.beta_t})
        back_grid, times, fields = read_field_snapshot(path)
        back = BeamTrajectory(back_grid, times, **fields)
        assert np.array_equal(back.energy, traj.energy)
        assert np.array_equal(back.dissipation, traj.dissipation)


class TestFixedPoint:
    def test_zero_potential_single_iteration(self, grid):
        b0, b1 = smooth_data(grid, seed=3)
        times = np.linspace(0, 0.5, 129)
        a = np.zeros((129, grid.n))
        traj, report = fixed_point_solve(grid, b0, b1, times, a, 0.25)
        assert report.converged
        assert report.observed_factor == 0.0

    def test_matches_direct_solve(self, grid):
        b0, b1 = smooth_data(grid, seed=3)
        times = np.linspace(0, 1.0, 513)
        x = grid.nodes
        tt = times[:, None]
        a = (
            np.cos(grid.kappa[1] * x)[None, :] * np.cos(2 * tt))
        direct = solve_forward(grid, b0, b1, times, a=a)
        fp, report = fixed_point_solve(grid, b0, b1, times, a, 0.2)
        assert report.converged
        diff = np.max(np.abs(fp.beta - direct.beta)) / np.max(np.abs(direct.beta))
        assert diff < 1e-6

    def test_each_core_builds_its_tables_once(self, grid):
        # marches with a potential at two step sizes build each stage table
        # once and no block matrix; a fixed-point solve, whose windows share
        # one step, builds the block matrix once
        tables = dynamics._stage_table, dynamics._block_matrix
        for table in tables:
            table.cache_clear()
        b0, b1 = smooth_data(grid, seed=3)
        for n in (128, 200, 128, 200):
            times = np.linspace(0, 0.5, n + 1)
            solve_forward(grid, b0, b1, times, a=np.ones((n + 1, grid.n)))
        assert [t.cache_info()[:2] for t in tables] == [(2, 2), (0, 0)]
        times = np.linspace(0, 0.5, 129)
        _, report = fixed_point_solve(grid, b0, b1, times,
                                      np.ones((129, grid.n)), 0.1)
        assert report.converged and report.windows > 1
        assert dynamics._block_matrix.cache_info().misses == 1

    def test_distances_decrease_in_contraction_regime(self, grid):
        b0, b1 = smooth_data(grid, seed=3)
        times = np.linspace(0, 0.25, 129)
        a = np.ones((129, grid.n))
        _, report = fixed_point_solve(grid, b0, b1, times, a, 0.25)
        assert report.converged
        tail = report.distances[:-1]  # last step may sit at the tol floor
        assert all(b < a_ for a_, b in zip(tail[:-1], tail[1:]))

    def test_noncontraction_reported(self, grid):
        # kappa far above the threshold: expected report, not an exception
        b0, b1 = smooth_data(grid, seed=3)
        times = np.linspace(0, 8.0, 1025)
        a = np.full((1025, grid.n), 4.0)
        traj, report = fixed_point_solve(grid, b0, b1, times, a, 8.0,
                                         max_iter=12)
        if traj is None:
            assert not report.converged
            assert report.observed_factor >= 1.0
        else:
            assert report.converged

    def test_sweeps_running_out_are_not_converged(self, grid):
        # the distances shrink but stay above tol after max_iter sweeps: the
        # window has not converged, so no trajectory comes back
        b0, b1 = smooth_data(grid, seed=3)
        times = np.linspace(0, 1.0, 1025)
        a = np.cos(grid.kappa[1] * grid.nodes)[None, :] \
            * np.cos(2 * times)[:, None]
        traj, report = fixed_point_solve(grid, b0, b1, times, a, 0.2,
                                         max_iter=3)
        assert not report.converged and traj is None
        assert report.iterations_total == len(report.distances) == 3
        assert report.distances[-1] > 1e-12 * grid.pair_norm(b0, b1)
        traj, report = fixed_point_solve(grid, b0, b1, times, a, 0.2)
        assert report.converged and traj is not None

    def test_computes_no_energy(self, grid, monkeypatch):
        calls = []
        monkeypatch.setattr(dynamics, "trajectory_energy",
                            lambda *args: calls.append(args))
        b0, b1 = smooth_data(grid, seed=3)
        times = np.linspace(0, 0.5, 129)
        a = np.ones((129, grid.n))
        traj, report = fixed_point_solve(grid, b0, b1, times, a, 0.25)
        assert report.converged and report.windows > 1
        assert calls == []

    # the windows' layouts: a last window shorter than a full one (109
    # steps, not a multiple of the 32-step sub-block), a single window
    # shorter than half of one (19 steps), an odd kappa / dt rounded up to
    # 24 steps, and a window that does not contract
    @pytest.mark.parametrize("n_t, kappa, amp, max_iter", [
        (129, 0.25, 1.0, 60), (110, 0.25, 2.0, 60), (20, 0.25, 3.0, 60),
        (200, 0.09, 1.5, 60), (1025, 8.0, 4.0, 12)])
    def test_matches_one_solve_per_sweep_bit_for_bit(self, grid, n_t, kappa,
                                                     amp, max_iter):
        b0, b1 = smooth_data(grid, seed=n_t)
        times = np.arange(n_t) / 256 * (32.0 if kappa > 1 else 1.0)
        a = amp * (1.0 + np.cos(grid.kappa[1] * grid.nodes)[None, :]
                   * np.cos(3 * times)[:, None])
        want = reference_fixed_point(grid, b0, b1, times, a, kappa, max_iter)
        fp, report = fixed_point_solve(grid, b0, b1, times, a, kappa,
                                       max_iter=max_iter)
        assert report.converged == want["converged"] == (fp is not None)
        assert report.windows == want["windows"]
        assert report.iterations_total == want["iterations"]
        assert report.distances == want["distances"]
        if fp is not None:
            assert np.array_equal(fp.beta, want["beta"])
            assert np.array_equal(fp.beta_t, want["beta_t"])
        assert want["converged"] == (max_iter == 60)

    def test_later_windows_start_from_the_converged_overlap(self, grid):
        # the first window keeps its zero seed, so its distances and
        # observed factor are those of a run that seeds every window with
        # zero; the later windows, seeded with their overlap, need fewer
        # sweeps
        b0, b1 = smooth_data(grid, seed=4)
        times = np.linspace(0, 1.0, 257)
        a = 2.0 * (1.0 + np.cos(grid.kappa[1] * grid.nodes)[None, :]
                   * np.cos(3 * times)[:, None])
        zero = reference_fixed_point(grid, b0, b1, times, a, 0.25,
                                     seeded=False)
        _, report = fixed_point_solve(grid, b0, b1, times, a, 0.25)
        assert report.converged and report.windows == zero["windows"] > 2
        assert report.distances == zero["distances"]
        d = zero["distances"]
        assert report.observed_factor == d[1] / d[0]
        assert report.iterations_total < zero["iterations"]

    def test_rejects_bad_inputs_once(self, grid):
        b0, b1 = smooth_data(grid, seed=3)
        times = np.linspace(0, 0.5, 129)
        a = np.ones((129, grid.n))
        a[100, 7] = np.inf
        with pytest.raises(ValueError, match="^a is not finite"):
            fixed_point_solve(grid, b0, b1, times, a, 0.25)
        with pytest.raises(ValueError, match="^a must have shape"):
            fixed_point_solve(grid, b0, b1, times, np.ones((128, grid.n)),
                              0.25)
        uneven = times.copy()
        uneven[60] += 1e-4
        with pytest.raises(ValueError, match="^times must be"):
            fixed_point_solve(grid, b0, b1, uneven, np.ones((129, grid.n)),
                              0.25)
        with pytest.raises(ValueError, match="shape"):
            fixed_point_solve(grid, np.stack([b0, b0]), np.stack([b1, b1]),
                              times, np.ones((129, grid.n)), 0.25)

    # a potential near the float limit from t = 0.3 on: the first sweep of
    # the second window, seeded with the first window's nodes, overflows,
    # so the error names a step within that window and the absolute time;
    # and a top mode on a short circle, whose velocity outgrows 1e6 x the
    # data's norm within the first window
    @pytest.mark.parametrize("case", ["overflow", "guard"])
    def test_diverging_window_raises_where_one_solve_per_sweep_does(
            self, grid, case):
        if case == "overflow":
            b0, b1 = (0.1 * d for d in smooth_data(grid, seed=3))
            times = np.linspace(0, 0.5, 129)
            a = np.zeros((129, grid.n))
            a[times >= 0.3] = 1e308
            kappa = 0.25
        else:
            grid = SpatialGrid(64, 0.02)
            b0, b1 = np.cos(grid.kappa[30] * grid.nodes), np.zeros(grid.n)
            times = 1.0 + np.arange(65) * 2.0**-36
            a = np.zeros((65, grid.n))
            kappa = 16 * 2.0**-36
        with pytest.raises(SolverDivergenceError) as want:
            reference_fixed_point(grid, b0, b1, times, a, kappa)
        step = re.search(r"at step (\d+), t = (\S+)$", str(want.value))
        assert int(step[1]) > 1
        if case == "overflow":
            assert "nan" in str(want.value)
            assert int(step[1]) < float(step[2]) * 256   # a later window
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverDivergenceError,
                               match=re.escape(str(want.value))):
                fixed_point_solve(grid, b0, b1, times, a, kappa)


def reference_fixed_point(grid, beta0, beta1, times, a, kappa, max_iter=60,
                          tol=1e-12, seeded=True):
    """The sweeps as one `solve_forward` per iteration, with the distance
    taken on the returned nodes.  The first window starts from zero; with
    `seeded` each later one starts from the previous window's converged
    nodes from its restart row on, held at their last row, else from zero."""
    dt = times[1] - times[0]
    seg_steps = max(2, int(round(kappa / dt)))
    seg_steps += seg_steps % 2
    half = seg_steps // 2
    n_t = times.size
    beta, beta_t = np.empty((2, n_t, grid.n))
    data = (beta0, beta1)
    seed = np.zeros((2, 1, grid.n))
    distances = []
    iterations = windows = start = 0
    while start < n_t - 1:
        windows += 1
        stop = min(start + seg_steps, n_t - 1)
        w_a = a[start:stop + 1]
        rows = np.minimum(np.arange(stop - start + 1), seed.shape[1] - 1)
        prev, prev_t = seed[:, rows]
        dist_prev = None
        scale = max(float(grid.pair_norm(*data)), 1e-300)
        for it in range(max_iter):
            traj = solve_forward(grid, data[0], data[1],
                                 times[start:stop + 1], forcing=-w_a * prev)
            dist = float(np.max(grid.pair_norm(traj.beta - prev,
                                               traj.beta_t - prev_t)))
            iterations += 1
            if windows == 1:
                distances.append(dist)
            if dist <= tol * scale:
                break
            if dist_prev is not None and dist > dist_prev and it >= 2:
                return dict(converged=False, windows=windows,
                            iterations=iterations, distances=distances)
            dist_prev = dist
            prev, prev_t = traj.beta, traj.beta_t
        else:
            return dict(converged=False, windows=windows,
                        iterations=iterations, distances=distances)
        keep = stop - start if stop == n_t - 1 else half
        beta[start:start + keep + 1] = traj.beta[:keep + 1]
        beta_t[start:start + keep + 1] = traj.beta_t[:keep + 1]
        data = (traj.beta[keep], traj.beta_t[keep])
        seed = (np.stack([traj.beta[keep:], traj.beta_t[keep:]]) if seeded
                else np.zeros((2, 1, grid.n)))
        start += keep
    return dict(converged=True, windows=windows, iterations=iterations,
                distances=distances, beta=beta, beta_t=beta_t)


def reference_potential_march(grid, beta0, beta1, times, a, forcing=None,
                              divergence_factor=1e6):
    """The march with a potential as a loop of steps on the pair (beta,
    beta_t): the propagator, then the Lawson stage terms, with a*beta at
    the second-stage point and at the stored beta from one stacked
    synthesis and analysis product; the guard checked per block.  beta,
    beta_t and guard_margin as `solve_forward` returns them."""
    g = grid
    times, data, a, forcing, batch = dynamics._checked_inputs(
        g, times, beta0, beta1, a, forcing)
    n_t, n_b = times.size, data.shape[1]
    w, block = 2 * g.kappa.size, dynamics._GUARD_BLOCK
    dt = float(times[1] - times[0])
    guard = dynamics._Guard(g, data, forcing, times, divergence_factor)
    E = np.repeat(propagator(g, dt), 2, axis=0).transpose(1, 2, 0)
    lift = 0.5 * dt * E[:, 1]
    ahead = np.stack([dt * E[0, 1], lift[0]])
    syn, ana = dft_matrices(g)
    U = np.empty((block + 1, n_b, 2, w))
    U.view(complex)[0] = g.to_modes(data.transpose(1, 0, 2))
    out = np.empty((2, n_b, n_t, g.n))
    out[:, :, 0] = g.to_nodes(U.view(complex)[0].transpose(1, 0, 2))
    peak_sq = guard.check(U[:1], None)[0]
    f_hat = None if forcing is None else np.empty((block + 1, n_b, 1, w))
    P = np.empty((n_b, 2, 2, w))
    ab = (U[0, :, :1] @ syn * a[0]) @ ana
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n_t - 1, block):
            n = min(block, n_t - 1 - i0)
            if i0:
                U[0] = U[block]
            if f_hat is not None:
                f_hat.view(complex)[:n + 1, :, 0] = g.to_modes(
                    forcing[:, i0:i0 + n + 1].transpose(1, 0, 2))
            for j in range(n):
                nxt, bt = U[j + 1], U[j + 1, :, 1:]
                np.multiply(U[j, :, None], E, out=P)
                np.add(P[:, :, 0], P[:, :, 1], out=nxt)
                n0 = -ab if f_hat is None else f_hat[j] - ab
                pts = ahead * n0 + U[j + 1, :, :1]
                prod = (pts @ syn * a[i0 + j + 1]) @ ana
                ab = prod[:, 1:]
                n1 = (-prod[:, :1] if f_hat is None
                      else f_hat[j + 1] - prod[:, :1])
                nxt += lift * n0
                bt += 0.5 * dt * n1
            np.maximum(peak_sq, guard.check(U[1:n + 1], i0).max(axis=0),
                       out=peak_sq)
            out[:, :, i0 + 1:i0 + n + 1] = g.to_nodes(
                U.view(complex)[1:n + 1].transpose(2, 1, 0, 3))
        margin = np.sqrt(peak_sq / guard.guard_sq)
    margin[guard.guard_sq == 0] = 0.0
    beta, beta_t = out.reshape((2,) + batch + (n_t, g.n))
    return dict(beta=beta, beta_t=beta_t, guard_margin=margin.reshape(batch))
