"""Fourier-spectral forward dynamics of the damped beam with potential.

The evolution  beta_tt - beta_txx + beta_xxxx + a*beta = f  diagonalizes per
Fourier mode into 2x2 blocks [[0, 1], [-kappa^4, -kappa^2]] acting on the
modal pair (beta, beta_t).  The stiff linear blocks are propagated exactly by
their matrix exponential; the potential term and forcing are explicit with
second-order accuracy (Lawson two-stage scheme), so the integrator has no
step-size restriction from the kappa^4 stiffness.

The march keeps its state in rfft space, as the interleaved float view of
the modes: the forcing is transformed once up front, a step applies the real
propagator to the stacked pair (beta, beta_t), a*beta at the stage points
goes through real DFT matrices (no FFT inside the loop), and the recorded
states go back to nodes in one batched inverse transform at the end.  A
4096-step march at n_x = 64 (one member, 2 vCPUs) costs 19-44 us per step
with a potential, against 41-96 us with the earlier 4-FFT step, and 7-17 us
without, against 16-37 us; the ranges span the machine's own speed drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import SpatialGrid


class SolverDivergenceError(RuntimeError):
    """Trajectory norm exceeded the divergence guard."""


# steps marched between two vectorized checks of the divergence guard
_GUARD_BLOCK = 64


@dataclass(frozen=True)
class ModePair:
    """Analytic eigenstructure of one Fourier block.

    Eigenvalues are (-kappa^2 +/- sqrt(3) i kappa^2) / 2; the corresponding
    modes are e^{i kappa x} paired with lam * e^{i kappa x} in the velocity
    slot.  With unit normalization (kappa = k) this is the textbook integer
    spectrum; the physical normalization uses kappa = 2 pi k / circumference.
    """

    k: int
    kappa: float

    @property
    def lam_plus(self) -> complex:
        return 0.5 * (-self.kappa**2 + np.sqrt(3.0) * 1j * self.kappa**2)

    @property
    def lam_minus(self) -> complex:
        return 0.5 * (-self.kappa**2 - np.sqrt(3.0) * 1j * self.kappa**2)


def analytic_eigenpairs(k: int, circumference: float | None = None) -> ModePair:
    """Eigenpair of mode k; unit normalization (kappa = k) when no
    circumference is given."""
    kappa = float(k) if circumference is None else 2.0 * np.pi * k / circumference
    return ModePair(k=k, kappa=kappa)


def assemble_operator(grid: SpatialGrid) -> np.ndarray:
    """Per-mode 2x2 blocks of the generator, shape (n_modes, 2, 2)."""
    kap = grid.kappa
    blocks = np.zeros((kap.size, 2, 2))
    blocks[:, 0, 1] = 1.0
    blocks[:, 1, 0] = -kap**4
    blocks[:, 1, 1] = -kap**2
    return blocks


def propagator(grid: SpatialGrid, dt: float) -> np.ndarray:
    """Exact matrix exponentials exp(dt * block) for every mode.

    The k = 0 block is a Jordan block and is handled exactly as [[1, dt],
    [0, 1]]; all other blocks have the complex-conjugate eigenvalue pair and
    a closed-form real exponential.
    """
    kap = grid.kappa
    E = np.empty((kap.size, 2, 2))
    E[0] = [[1.0, dt], [0.0, 1.0]]
    k2 = kap[1:] ** 2
    alpha = 0.5 * k2
    omega = 0.5 * np.sqrt(3.0) * k2
    decay = np.exp(-alpha * dt)
    c, s = np.cos(omega * dt), np.sin(omega * dt)
    inv_sqrt3 = 1.0 / np.sqrt(3.0)
    E[1:, 0, 0] = decay * (c + inv_sqrt3 * s)
    E[1:, 0, 1] = decay * s / omega
    E[1:, 1, 0] = -decay * kap[1:] ** 4 * s / omega
    E[1:, 1, 1] = decay * (c - inv_sqrt3 * s)
    return E


@dataclass(frozen=True)
class Potential:
    """A bounded potential sampled on a space-time grid (time-major)."""

    values: np.ndarray
    sup_norm: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> "Potential":
        values = np.asarray(values, dtype=float)
        return cls(values=values, sup_norm=float(np.max(np.abs(values))))


@dataclass(frozen=True)
class BeamTrajectory:
    """States recorded on a uniform time grid, with energy diagnostics.

    A batched march carries a leading batch axis on every array but `times`;
    the norm helpers below take one member (see `member`).
    """

    grid: SpatialGrid
    times: np.ndarray
    beta: np.ndarray      # ([batch,] n_times, n_x)
    beta_t: np.ndarray
    energy: np.ndarray    # ([batch,] n_times)
    dissipation: np.ndarray

    def member(self, i: int) -> "BeamTrajectory":
        """Member i of a batched trajectory."""
        return BeamTrajectory(self.grid, self.times, self.beta[i],
                              self.beta_t[i], self.energy[i],
                              self.dissipation[i])

    def terminal_norm(self) -> float:
        """L2 x L2 norm of (beta, beta_t) at the final time."""
        return float(np.sqrt(self.grid.l2_sq(self.beta[-1])
                             + self.grid.l2_sq(self.beta_t[-1])))

    def sup_l2_beta(self) -> float:
        return float(np.max(np.sqrt(self.grid.l2_sq(self.beta))))


def trajectory_energy(grid: SpatialGrid, beta: np.ndarray, beta_t: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Energy (1/2)(|beta_t|^2 + |beta_xx|^2) and dissipation rate |beta_tx|^2
    of nodal fields of any leading shape, one value per row.

    Along unforced zero-potential trajectories dE/dt = -dissipation, which the
    integrator reproduces to second order in dt.
    """
    e = 0.5 * (grid.l2_sq(beta_t) + grid.l2_sq(grid.deriv(beta, 2)))
    d = grid.l2_sq(grid.deriv(beta_t, 1))
    return e, d


def dft_matrices(grid: SpatialGrid) -> tuple[np.ndarray, np.ndarray]:
    """irfft and rfft as real matrices on the interleaved float view of the
    modes: nodes = modes.view(float) @ syn and modes.view(float) = nodes @ ana,
    with syn of shape (2 n_m, n_x) and ana of shape (n_x, 2 n_m).

    The rows of syn for the imaginary parts of the mean and Nyquist modes are
    zero, as irfft ignores those parts.
    """
    syn = grid.to_nodes(np.eye(2 * grid.kappa.size).view(complex))
    ana = grid.to_modes(np.eye(grid.n)).view(float)
    return syn, ana


def solve_forward(grid: SpatialGrid, beta0: np.ndarray, beta1: np.ndarray,
                  times: np.ndarray, a: Potential | None = None,
                  forcing: np.ndarray | None = None,
                  divergence_factor: float = 1e6) -> BeamTrajectory:
    """March the beam over a uniform time grid, recording every state.

    `a.values` (shape (n_times, n_x)) and `forcing` are sampled at the
    trajectory's own time nodes; each step uses the node values at its two
    ends.  `beta0`/`beta1` may carry a leading batch axis, which `forcing`
    (shape ([batch,] n_times, n_x)) must then share; the potential is shared
    by every member, and each member's march equals its unbatched march bit
    for bit.

    The state lives in rfft space, held as the interleaved float view of the
    modes.  A step applies the real modal propagator to the stacked pair
    (beta, beta_t) with one multiply and one add.  With a potential it forms
    a*beta through the real matrices of irfft/rfft (`dft_matrices`), no FFT:
    the second-stage point of step i and the beta it stores both meet
    a_{i+1}, so one stacked synthesis and one analysis product per step
    serve both.  Energy and dissipation are evaluated once, vectorized, on
    the nodal result.

    Each member's divergence guard is divergence_factor times its data norm
    plus the trapezoid integral of its forcing's L2 norm; a state whose norm
    exceeds it, or is not finite, raises SolverDivergenceError at the first
    such step.  The guard is checked once per block of _GUARD_BLOCK steps.
    A member with zero data and zero forcing stays exactly zero, so its zero
    guard never fires.  Non-finite inputs and mismatched shapes raise
    ValueError.
    """
    g = grid
    times = np.asarray(times, dtype=float)
    steps = np.diff(times)
    if (times.size < 2 or not steps[0] > 0
            or not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0)):
        raise ValueError("times must be an increasing uniform grid with at "
                         "least two nodes")
    data = np.stack([np.asarray(beta0, dtype=float),
                     np.asarray(beta1, dtype=float)])
    if np.shape(beta0) != np.shape(beta1) or data.ndim not in (2, 3) \
            or data.shape[-1] != g.n:
        raise ValueError("beta0 and beta1 must share the shape ([batch,] n_x)")
    batch = data.shape[1:-1]
    n_t = times.size
    a_vals = None if a is None else a.values
    if a_vals is not None and a_vals.shape != (n_t, g.n):
        raise ValueError("a must have shape (n_times, n_x)")
    forcing = (np.zeros(batch + (n_t, g.n)) if forcing is None
               else np.asarray(forcing, dtype=float))
    if forcing.shape != batch + (n_t, g.n):
        raise ValueError(f"forcing has shape {forcing.shape}, but the data "
                         f"batch needs {batch + (n_t, g.n)}")
    for name, arr in (("beta0", data[0]), ("beta1", data[1]),
                      ("a.values", a_vals), ("forcing", forcing)):
        if arr is not None and not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} is not finite")

    data = data.reshape(2, -1, g.n)                         # (2, B, n_x)
    forcing = forcing.reshape(-1, n_t, g.n)                 # (B, n_t, n_x)
    n_b = data.shape[1]
    n_m = g.kappa.size
    w = 2 * n_m                        # float width of one modal field
    dt = float(steps[0])
    trap = np.full(n_t, dt)
    trap[0] = trap[-1] = 0.5 * dt
    # the guard sees each member divided by its largest input, so that the
    # squared norms neither underflow nor overflow
    scale = np.maximum(np.abs(data).max(axis=(0, 2)),
                       np.abs(forcing).max(axis=(1, 2)))[:, None]   # (B, 1)
    scale[scale == 0] = 1.0            # an all-zero member stays exactly zero
    d, f = data / scale, forcing / scale[:, :, None]
    guard_sq = (divergence_factor * (np.sqrt(g.l2_sq(d[0]) + g.l2_sq(d[1]))
                                     + g.l2(f) @ trap)) ** 2
    # Parseval: |u|_L2^2 = circumference / n^2 * sum_k mult_k |u_hat_k|^2,
    # on the float view of one member's modal pair (beta, beta_t)
    mult = np.r_[1.0, np.full(n_m - 2, 2.0), 1.0]
    mult = np.tile(np.repeat(mult, 2), 2) * g.circumference / g.n ** 2

    # E[r, c] multiplies component c of the pair into component r; the
    # lift adds the Lawson stage terms (hdt e01, hdt e11) * n0
    E = np.repeat(propagator(g, dt), 2, axis=0).transpose(1, 2, 0)  # (2, 2, w)
    hdt = 0.5 * dt
    lift = hdt * E[:, 1]
    # (dt e01, hdt e01) * n0 + e^{dt L} beta: the second-stage point and,
    # bit for bit, the beta the step stores; both are multiplied by a_{i+1}
    ahead = np.stack([dt * E[0, 1], lift[0]])
    syn, ana = dft_matrices(g)

    U = np.empty((n_t, n_b, 2, w))
    U.view(complex)[0] = g.to_modes(data.transpose(1, 0, 2))
    f_hat = np.empty((n_t, n_b, 1, w))
    f_hat.view(complex)[:, :, 0] = g.to_modes(forcing.transpose(1, 0, 2))
    P = np.empty((n_b, 2, 2, w))
    P0, P1 = P[:, :, 0], P[:, :, 1]
    pair = U[:, :, None]               # (n_t, B, 1, 2, w) against E
    b_rows, bt_rows = U[:, :, :1], U[:, :, 1:]              # (n_t, B, 1, w)
    if a_vals is not None:
        ab = (b_rows[0] @ syn * a_vals[0]) @ ana            # a*beta, modal
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n_t - 1, _GUARD_BLOCK):
            i1 = min(i0 + _GUARD_BLOCK, n_t - 1)
            if a_vals is None:
                F0 = lift * f_hat[i0:i1]
                F1 = hdt * f_hat[i0 + 1:i1 + 1]
            for i in range(i0, i1):
                nxt, bt = U[i + 1], bt_rows[i + 1]
                np.multiply(pair[i], E, out=P)
                np.add(P0, P1, out=nxt)
                if a_vals is None:
                    nxt += F0[i - i0]
                    bt += F1[i - i0]
                    continue
                n0 = f_hat[i] - ab
                pts = ahead * n0 + b_rows[i + 1]
                prod = (pts @ syn * a_vals[i + 1]) @ ana    # (B, 2, w)
                n1, ab = f_hat[i + 1] - prod[:, :1], prod[:, 1:]
                nxt += lift * n0
                bt += hdt * n1
            v = U[i0 + 1:i1 + 1].reshape(i1 - i0, n_b, -1) / scale
            norm_sq = (v * v) @ mult                         # (steps, B)
            bad = np.flatnonzero(~(norm_sq <= guard_sq).all(axis=1))
            if bad.size:
                step = i0 + 1 + bad[0]
                norm = np.max(np.sqrt(norm_sq[bad[0]]) * scale[:, 0])
                raise SolverDivergenceError(
                    f"norm grew to {norm:.3e} (>{divergence_factor:.0e} x "
                    f"(data norm + forcing integral)) at step {step}, "
                    f"t = {times[step]:.6g}"
                )

    nodes = g.to_nodes(U.view(complex).transpose(2, 1, 0, 3))  # (2, B, n_t, n_x)
    beta, beta_t = nodes.reshape((2,) + batch + (n_t, g.n))
    energy, dissipation = trajectory_energy(g, beta, beta_t)
    return BeamTrajectory(grid=g, times=times, beta=beta, beta_t=beta_t,
                          energy=energy, dissipation=dissipation)


# fixed-point treatment of the potential -------------------------------------

@dataclass(frozen=True)
class ContractionReport:
    """Convergence record of the sub-interval fixed-point iteration."""

    kappa: float
    kappa_effective: float
    distances: list[float]        # successive-iterate distances, first window
    factors: list[float]
    observed_factor: float        # first post-seed contraction ratio
    converged: bool
    windows: int
    iterations_total: int
    threshold_estimate: float | None


def calibrate_solver_constant(grid: SpatialGrid, T: float = 1.0,
                              n_steps: int = 256, seed: int = 0) -> float:
    """Empirical constant C in |response|_{sup L2} <= C |source|_{L2 L2}.

    Measured on seeded random smooth sources from zero data; used only to
    estimate the contraction threshold kappa* < 1 / (C |a|_inf)^2.
    """
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, T, n_steps + 1)
    dt = times[1] - times[0]
    coeffs = rng.standard_normal((3, 4, grid.n))   # = three (4, n) draws
    profiles = sum(
        coeffs[:, j, None, :] * np.sin((j + 1) * np.pi * times / T)[:, None]
        for j in range(4)
    )
    zero = np.zeros((3, grid.n))
    traj = solve_forward(grid, zero, zero, times, forcing=profiles)
    resp = np.max(np.sqrt(grid.l2_sq(traj.beta)), axis=-1)
    src = np.sqrt(np.sum(grid.l2_sq(profiles), axis=-1) * dt)
    return float(np.max(resp / src))


def fixed_point_solve(grid: SpatialGrid, beta0: np.ndarray, beta1: np.ndarray,
                      times: np.ndarray, a: Potential,
                      forcing: np.ndarray | None, kappa: float,
                      tol: float = 1e-12, max_iter: int = 60,
                      threshold_constant: float | None = None,
                      ) -> tuple[BeamTrajectory | None, ContractionReport]:
    """Solve the potential problem by iterating the source -a * beta_prev.

    The horizon is covered by sub-intervals of length kappa overlapping by
    half (each restart reuses the state at the midpoint of the previous
    window).  Within each window the map beta_prev -> beta is iterated until
    the sup-in-time distance of successive iterates, measured on the state
    pair (beta, beta_t) in L2 x L2, drops below tol.

    A non-contracting window (distances growing) is an expected outcome for
    kappa too large: the returned trajectory is None and the report carries
    the observed factor >= 1.
    """
    times = np.asarray(times, dtype=float)
    dt = times[1] - times[0]
    seg_steps = max(2, int(round(kappa / dt)))
    seg_steps += seg_steps % 2
    half = seg_steps // 2
    kappa_eff = seg_steps * dt

    threshold = None
    if threshold_constant is not None and a.sup_norm > 0:
        threshold = 1.0 / (threshold_constant * a.sup_norm) ** 2

    n_t = times.size
    beta = np.empty((n_t, grid.n))
    beta_t = np.empty((n_t, grid.n))
    data = (np.asarray(beta0, dtype=float), np.asarray(beta1, dtype=float))

    first_distances: list[float] = []
    total_iters = 0
    windows = 0
    start = 0
    while start < n_t - 1:
        stop = min(start + seg_steps, n_t - 1)
        w_times = times[start:stop + 1]
        w_a = a.values[start:stop + 1]
        w_f = None if forcing is None else forcing[start:stop + 1]

        prev = np.zeros((w_times.size, grid.n))
        prev_t = np.zeros((w_times.size, grid.n))
        traj = None
        dist_prev = None
        scale = max(float(np.sqrt(grid.l2_sq(data[0]) + grid.l2_sq(data[1]))),
                    1e-300)
        for it in range(max_iter):
            src = -w_a * prev
            if w_f is not None:
                src = src + w_f
            traj = solve_forward(grid, data[0], data[1], w_times, forcing=src)
            dist = float(np.max(np.sqrt(grid.l2_sq(traj.beta - prev)
                                        + grid.l2_sq(traj.beta_t - prev_t))))
            total_iters += 1
            if windows == 0:
                first_distances.append(dist)
            if dist <= tol * scale:
                break
            if dist_prev is not None and dist > dist_prev and it >= 2:
                factors = [b / a_ for a_, b in
                           zip(first_distances[:-1], first_distances[1:])]
                report = ContractionReport(
                    kappa=kappa, kappa_effective=kappa_eff,
                    distances=first_distances, factors=factors,
                    observed_factor=max(factors) if factors else float("inf"),
                    converged=False, windows=windows + 1,
                    iterations_total=total_iters, threshold_estimate=threshold,
                )
                return None, report
            dist_prev = dist
            prev, prev_t = traj.beta, traj.beta_t

        keep = stop - start if stop == n_t - 1 else half
        beta[start:start + keep + 1] = traj.beta[:keep + 1]
        beta_t[start:start + keep + 1] = traj.beta_t[:keep + 1]
        data = (traj.beta[keep], traj.beta_t[keep])
        start += keep
        windows += 1

    E, D = trajectory_energy(grid, beta, beta_t)
    full = BeamTrajectory(grid=grid, times=times, beta=beta, beta_t=beta_t,
                          energy=E, dissipation=D)

    factors = [b / a_ for a_, b in zip(first_distances[:-1], first_distances[1:])]
    report = ContractionReport(
        kappa=kappa, kappa_effective=kappa_eff, distances=first_distances,
        factors=factors,
        observed_factor=factors[0] if factors else 0.0,
        converged=True, windows=windows, iterations_total=total_iters,
        threshold_estimate=threshold,
    )
    return full, report
