"""Fourier-spectral forward dynamics of the damped beam with potential.

The evolution  beta_tt - beta_txx + beta_xxxx + a*beta = f  diagonalizes per
Fourier mode into 2x2 blocks [[0, 1], [-kappa^4, -kappa^2]] acting on the
modal pair (beta, beta_t).  The stiff linear blocks are propagated exactly by
their matrix exponential; the potential term and forcing are explicit with
second-order accuracy (Lawson two-stage scheme), so the integrator has no
step-size restriction from the kappa^4 stiffness.

The march keeps its state in rfft space, as the interleaved float view of
the modes (width w), one block of _GUARD_BLOCK steps at a time, whose
states go back to nodes once the divergence guard has passed them.  Each
of its two cores builds the tables it reads, cached per (grid, dt).  With
a potential a block's rows (rows, 4, B, w) are component-major: each of
(beta*, beta, beta_t, n0 = f - a beta) is one (B, w) block of the batch.
One stage table maps a row's (beta, beta_t, n0) to the next row's
second-stage point beta* and state, and a*beta at both goes through real
DFT matrices (`_stage_table`).  Without one the rows (rows, B, 2, w) are
member-major, a step is a fixed affine map per mode, and _SUB_BLOCK steps
are one stacked product against the powers of the propagator
(`_free_march` on `_block_matrix`); the fixed-point sweeps march on that
core, each window from the last one's converged overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .torus import SpatialGrid, trapezoid_weights


class SolverDivergenceError(RuntimeError):
    """Trajectory norm exceeded the divergence guard."""


# steps marched between two vectorized checks of the divergence guard
_GUARD_BLOCK = 64
# steps of one block product in a march without a potential; divides
# _GUARD_BLOCK
_SUB_BLOCK = 32
# the divergence guard's multiple of the data norm plus forcing integral
_DIVERGENCE_FACTOR = 1e6


def analytic_eigenpairs(k: int, circumference: float | None = None
                        ) -> tuple[complex, complex]:
    """The eigenvalues (lam_plus, lam_minus) = (-kappa^2 +/- sqrt(3) i
    kappa^2) / 2 of mode k's block, with kappa = k (the textbook integer
    spectrum) when no circumference is given, else 2 pi k / circumference;
    their modes pair e^{i kappa x} with lam * e^{i kappa x}."""
    kappa = float(k) if circumference is None else 2.0 * np.pi * k / circumference
    return (0.5 * (-kappa**2 + np.sqrt(3.0) * 1j * kappa**2),
            0.5 * (-kappa**2 - np.sqrt(3.0) * 1j * kappa**2))


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
class BeamTrajectory:
    """States recorded on a uniform time grid.

    A batched march carries a leading batch axis on every array but `times`;
    the norm helpers below take one member (see `member`).  `energy` and
    `dissipation` ([batch,] n_times) are derived from the states by
    `trajectory_energy`, together, the first time either is read.
    `guard_margin` ([batch]) is the largest state norm over the divergence
    guard of the march that recorded the states (`solve_forward`), None for
    states put together otherwise.
    """

    grid: SpatialGrid
    times: np.ndarray
    beta: np.ndarray      # ([batch,] n_times, n_x)
    beta_t: np.ndarray
    guard_margin: np.ndarray | None = None

    @cached_property
    def _energy_pair(self) -> tuple[np.ndarray, np.ndarray]:
        return trajectory_energy(self.grid, self.beta, self.beta_t)

    @property
    def energy(self) -> np.ndarray:
        return self._energy_pair[0]

    @property
    def dissipation(self) -> np.ndarray:
        return self._energy_pair[1]

    def member(self, i: int) -> "BeamTrajectory":
        """Member i of a batched trajectory."""
        return BeamTrajectory(
            self.grid, self.times, self.beta[i], self.beta_t[i],
            None if self.guard_margin is None else self.guard_margin[i])

    def terminal_norm(self) -> float:
        """L2 x L2 norm of (beta, beta_t) at the final time."""
        return float(self.grid.pair_norm(self.beta[-1], self.beta_t[-1]))


def trajectory_energy(grid: SpatialGrid, beta: np.ndarray, beta_t: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Energy (1/2)(|beta_t|^2 + |beta_xx|^2) and dissipation rate |beta_tx|^2
    of nodal fields of any leading shape, one value per row.

    Along unforced zero-potential trajectories dE/dt = -dissipation, which the
    integrator reproduces to second order in dt.  States too large for the
    squared norms (above about 1e154) raise OverflowError.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # raised below
        e = 0.5 * (grid.l2_sq(beta_t) + grid.l2_sq(grid.deriv(beta, 2)))
        d = grid.l2_sq(grid.deriv(beta_t, 1))
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(d))):
        raise OverflowError(
            f"trajectory energy is not finite: largest |beta| = "
            f"{np.max(np.abs(beta)):.3e}, |beta_t| = "
            f"{np.max(np.abs(beta_t)):.3e}")
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
                  times: np.ndarray, a: np.ndarray | None = None,
                  forcing: np.ndarray | None = None,
                  divergence_factor: float = _DIVERGENCE_FACTOR
                  ) -> BeamTrajectory:
    """March the beam over a uniform time grid, recording every state.

    The potential `a` (an (n_times, n_x) array) and `forcing` are sampled at
    the trajectory's own time nodes; each step uses the node values at its two
    ends.  `beta0`/`beta1` may carry a leading batch axis, which `forcing`
    (shape ([batch,] n_times, n_x)) must then share; the potential is shared
    by every member, and each member's march, guard margin included, equals
    its unbatched march bit for bit.

    The march holds its output plus one block of _GUARD_BLOCK modal states
    and transformed forcing.  How a block's states are found depends on the
    potential:

    - With a potential, step by step in about ten calls on views built
      once per march.  The stage table's multiply and two adds give the
      next row's beta*, beta and first stage of beta_t.  beta* and beta
      meet a_{i+1} through the real matrices of irfft/rfft, no FFT: one
      (2B, w) @ (w, n_x) synthesis serves the batch; the analysis is one
      (2, n_x) @ (n_x, w) product per member, as one (2B, n_x) product
      breaks member parity on OpenBLAS.  Its cost per step at 1, 3 and 4
      members is in `BENCH_28.json` (`in_process_step.us_per_step`).
    - Without one, _SUB_BLOCK steps are one stacked product (`_free_march`).

    Each member's divergence guard is divergence_factor times its data norm
    plus the trapezoid integral of its forcing's L2 norm; a state whose norm
    exceeds it, or is not finite, raises SolverDivergenceError at the first
    such step.  The guard is checked once per block.  The trajectory's
    `guard_margin` is each member's largest state norm over its guard, 0
    where the guard is 0: a member with zero data and zero forcing stays
    exactly zero, so its zero guard never fires.  Non-finite inputs and
    mismatched shapes raise ValueError.
    """
    g = grid
    times, data, a, forcing, batch = _checked_inputs(g, times, beta0, beta1,
                                                     a, forcing)
    n_t, n_b = times.size, data.shape[1]
    w = 2 * g.kappa.size               # float width of one modal field
    dt = float(times[1] - times[0])
    guard = _Guard(g, data, forcing, times, divergence_factor)
    # row 0 of a block is the last state of the previous one
    U = np.empty((_GUARD_BLOCK + 1, n_b, 2, w) if a is None
                 else (_GUARD_BLOCK + 1, 4, n_b, w))
    state = U if a is None else U[:, 1:3].swapaxes(1, 2)   # (rows, B, 2, w)
    state.view(complex)[0] = g.to_modes(data.transpose(1, 0, 2))
    out = np.empty((2, n_b, n_t, g.n))
    out[:, :, 0] = g.to_nodes(state.view(complex)[0].transpose(1, 0, 2))
    peak_sq = guard.check(state[:1], None)[0]               # (B,)
    f_hat = (None if forcing is None
             else np.empty((_GUARD_BLOCK + 1, n_b, 1, w)))
    if a is not None:
        (T, syn, ana), hdt = _stage_table(g, dt), np.array(0.5 * dt)
        P, S, Q = (np.empty((3, 3, n_b, w)), np.empty((2 * n_b, g.n)),
                   np.empty((2, n_b, w)))
        Q0, Q1 = Q                      # Q0 then holds hdt (f - a beta*)
        # S and Q as per-member (B, 2, .) stacks, for the analysis
        S_m, Q_m = S.reshape(2, n_b, -1).swapaxes(0, 1), Q.swapaxes(0, 1)
        # the forcing rows; unforced, -0.0 - x is -x bit for bit
        f_rows = ([np.full((n_b, w), -0.0)] * (_GUARD_BLOCK + 1)
                  if f_hat is None else list(f_hat[:, :, 0]))
        # per step: the row read, the row written and its parts
        rows = list(zip(U[:-1, 1:, None], U[1:, :3],
                        U[1:, :2].reshape(-1, 2 * n_b, w), U[1:, 2], U[1:, 3],
                        f_rows[1:]))
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n_t - 1, _GUARD_BLOCK):
            n = min(_GUARD_BLOCK, n_t - 1 - i0)
            if i0:
                U[0] = U[_GUARD_BLOCK]
            if f_hat is not None:
                f_hat.view(complex)[:n + 1, :, 0] = g.to_modes(
                    forcing[:, i0:i0 + n + 1].transpose(1, 0, 2))
            if a is None:
                norm_sq = _free_march(g, dt, U, f_hat, n, guard, i0)
            else:
                if not i0:             # row 0's n0 = f_0 - a_0 beta_0
                    np.subtract(f_rows[0], ((U[0, 1, :, None] @ syn * a[0])
                                            @ ana)[:, 0], out=U[0, 3])
                for (src, nxt, pts, bt, n0, f), a_j in zip(
                        rows[:n], a[i0 + 1:i0 + n + 1]):
                    np.multiply(src, T, out=P)
                    np.add(P[0], P[1], out=nxt)
                    np.add(nxt, P[2], out=nxt)
                    np.matmul(pts, syn, out=S)
                    np.multiply(S, a_j, out=S)
                    np.matmul(S_m, ana, out=Q_m)        # a*(beta*, beta)
                    np.subtract(f, Q0, out=Q0)
                    np.multiply(Q0, hdt, out=Q0)
                    np.add(bt, Q0, out=bt)
                    np.subtract(f, Q1, out=n0)
                norm_sq = guard.check(state[1:n + 1], i0)
            np.maximum(peak_sq, norm_sq.max(axis=0), out=peak_sq)
            out[:, :, i0 + 1:i0 + n + 1] = g.to_nodes(
                state.view(complex)[1:n + 1].transpose(2, 1, 0, 3))
        margin = np.sqrt(peak_sq / guard.guard_sq)
    margin[guard.guard_sq == 0] = 0.0

    beta, beta_t = out.reshape((2,) + batch + (n_t, g.n))
    return BeamTrajectory(grid=g, times=times, beta=beta, beta_t=beta_t,
                          guard_margin=margin.reshape(batch))


def _checked_inputs(g: SpatialGrid, times, beta0, beta1, a, forcing=None):
    """times, data (2, B, n_x), a, forcing (B, n_times, n_x) and batch shape;
    ValueError for non-uniform times, bad shapes or non-finite values."""
    times = np.asarray(times, dtype=float)
    steps = np.diff(times)
    if (times.size < 2 or not steps[0] > 0
            or not (np.abs(steps - steps[0]) <= 1e-12 * steps[0]).all()):
        raise ValueError("times must be an increasing uniform grid with at "
                         "least two nodes")
    data = np.stack([np.asarray(beta0, dtype=float),
                     np.asarray(beta1, dtype=float)])
    if np.shape(beta0) != np.shape(beta1) or data.ndim not in (2, 3) \
            or data.shape[-1] != g.n:
        raise ValueError("beta0 and beta1 must share the shape ([batch,] n_x)")
    batch = data.shape[1:-1]
    n_t = times.size
    if a is not None:
        a = np.asarray(a, dtype=float)
        if a.shape != (n_t, g.n):
            raise ValueError("a must have shape (n_times, n_x)")
    if forcing is not None:
        forcing = np.asarray(forcing, dtype=float)
        if forcing.shape != batch + (n_t, g.n):
            raise ValueError(f"forcing has shape {forcing.shape}, but the "
                             f"data batch needs {batch + (n_t, g.n)}")
    for name, arr in (("beta0", data[0]), ("beta1", data[1]),
                      ("a", a), ("forcing", forcing)):
        if arr is not None and not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} is not finite")
    return (times, data.reshape(2, -1, g.n), a, None if forcing is None
            else forcing.reshape(-1, n_t, g.n), batch)


class _Guard:
    """The divergence guard (see `solve_forward`) for the data (2, B, n_x)
    and forcing (B, n_t, n_x) or None.  Each member's norms are taken on
    their own, divided by its largest input against under- and overflow."""

    def __init__(self, g: SpatialGrid, data, forcing, times, factor):
        scale = np.abs(data).max(axis=(0, 2))               # (B,)
        if forcing is not None:
            scale = np.maximum(scale,
                               [max(fb.max(), -fb.min()) for fb in forcing])
        scale[scale == 0] = 1.0        # an all-zero member stays exactly zero
        d = data / scale[:, None]
        guard = g.pair_norm(d[0], d[1])
        if forcing is not None:        # member by member: no scaled copy
            trap = trapezoid_weights(times)
            guard += [g.l2(fb / s) @ trap for fb, s in zip(forcing, scale)]
        self.guard_sq, self.scale = (factor * guard) ** 2, scale[:, None, None]
        self.times, self.mult, self.factor = times, _pair_mult(g), factor

    def check(self, rows: np.ndarray, i0: int | None) -> np.ndarray:
        """Scaled squared norms (steps, B) of states (steps, B, 2, w) of steps
        i0 + 1, ...: SolverDivergenceError at the first beyond the guard."""
        v = rows.reshape(len(rows), -1, 1, self.mult.size) / self.scale
        norm_sq = (np.multiply(v, v, out=v) @ self.mult)[..., 0]
        bad = np.argwhere(~(norm_sq <= self.guard_sq))    # (row, member)
        if bad.size and i0 is not None:        # None: step 0, unchecked
            (row, m), step = bad[0], i0 + 1 + bad[0, 0]
            norm, guard = self.scale[m, 0, 0] * np.sqrt(   # input's units
                [norm_sq[row, m], self.guard_sq[m]])
            raise SolverDivergenceError(
                f"norm grew to {norm:.3e} (> guard {guard:.3e} = "
                f"{self.factor:.0e} x (data norm + forcing integral)) at "
                f"step {step}, t = {self.times[step]:.6g}")
        return norm_sq


def _free_march(g: SpatialGrid, dt: float, U: np.ndarray,
                f_hat: np.ndarray | None, n: int, guard: _Guard | None = None,
                i0: int = 0):
    """March n steps of dt without a potential from the modal states U[0]
    (rows, B, 2, w) with the forcing f_hat[:n + 1] (rows, B, 1, w; None:
    unforced) into U[1:n + 1], and return `guard.check` of them as steps
    i0 + 1, ... (None without a guard): _SUB_BLOCK steps are one stacked
    product against `_block_matrix`, with members and modes on its stack
    axis."""
    K = _block_matrix(g, dt)
    n_b, n_m = U.shape[1], K.shape[0]
    # per member and mode: a sub-block's start state, then its forcing at
    # the sub-block's nodes; real and imaginary lanes on the last axis
    X = np.empty((n_b, n_m, 2 if f_hat is None else _SUB_BLOCK + 3), complex)
    X_lanes = X.view(float).reshape(X.shape + (2,))
    for s0 in range(0, n, _SUB_BLOCK):
        m = min(_SUB_BLOCK, n - s0)
        cols = 2 if f_hat is None else m + 3
        X[:, :, :2] = U.view(complex)[s0].transpose(0, 2, 1)
        if f_hat is not None:
            X[:, :, 2:cols] = f_hat.view(complex)[
                s0:s0 + m + 1, :, 0].transpose(1, 2, 0)
        Y = np.matmul(K[:, :2 * m, :cols], X_lanes[:, :, :cols])
        U.view(complex)[s0 + 1:s0 + m + 1] = Y.view(complex).reshape(
            n_b, n_m, m, 2).transpose(2, 0, 3, 1)
    return None if guard is None else guard.check(U[1:n + 1], i0)


def _pair_mult(g: SpatialGrid) -> np.ndarray:
    """Parseval weights of |(beta, beta_t)|^2 on one pair's float view."""
    return (np.tile(np.repeat(g.mode_mult, 2), 2)
            * g.circumference / g.n ** 2)


@lru_cache(maxsize=4)
def _stage_table(g: SpatialGrid, dt: float):
    """The tables of a march with a potential on the grid g with step dt,
    on the interleaved float view of the modes: the stage table T (3, 3,
    1, w), axis 2 for the members, and `dft_matrices`.  T[c, r, 0] takes
    component c of a row's (beta, beta_t, n0 = f - a beta) into component
    r of the next row's (beta*, beta, beta_t): rows (0, 0, 1) of e^{dt L}
    and the Lawson stage terms (dt e01, hdt e01, hdt e11).  beta* is the
    second stage's point; beta_t lacks that stage's hdt (f - a beta*)."""
    E = np.repeat(propagator(g, dt), 2, axis=0).transpose(2, 1, 0)  # [c, r]
    stage = np.stack([dt * E[1, 0], 0.5 * dt * E[1, 0], 0.5 * dt * E[1, 1]])
    tables = (np.concatenate([E[:, [0, 0, 1]], stage[None]])[:, :, None],
              *dft_matrices(g))
    for t in tables:
        t.flags.writeable = False
    return tables


@lru_cache(maxsize=4)
def _block_matrix(g: SpatialGrid, dt: float) -> np.ndarray:
    """The block-product matrix K of a march without a potential on the
    grid g with step dt.

    Such a march maps U_j to E U_j + hdt E[:, 1] f_j + hdt e_1 f_{j+1} on
    each mode, so m steps give E^m U_0 + hdt sum_l c_{m,l} E^{m-l}[:, 1]
    f_l over l = 0..m, with c = 1 at both ends and 2 between.  K (n_m,
    2 _SUB_BLOCK, _SUB_BLOCK + 3) holds those coefficients: row 2 (m - 1)
    + r is component r after m steps, its first two columns the row of E^m
    and column 2 + l the weight of f_l.  Its first 2m rows and m + 3
    columns march m steps.  The powers are repeated products of the
    one-step propagator; they stay bounded, as the eigenvalues of every
    mode but k = 0 lie inside the unit disc and its Jordan block grows
    linearly.  K is about 0.6 MB at n = 64; every such march shares it.
    """
    E1 = propagator(g, dt)                                  # (n_m, 2, 2)
    n_m = E1.shape[0]
    powers = np.empty((_SUB_BLOCK + 1, n_m, 2, 2))
    powers[0] = np.eye(2)
    for m in range(_SUB_BLOCK):
        np.matmul(E1, powers[m], out=powers[m + 1])
    K = np.zeros((n_m, _SUB_BLOCK, 2, _SUB_BLOCK + 3))
    K[..., :2] = powers[1:].transpose(1, 0, 2, 3)
    col = 0.5 * dt * powers[..., 1].transpose(1, 2, 0)      # (n_m, 2, S + 1)
    for m in range(1, _SUB_BLOCK + 1):
        K[:, m - 1, :, 2:m + 3] = col[..., m::-1]
        K[:, m - 1, :, 3:m + 2] *= 2.0
    K = K.reshape(n_m, 2 * _SUB_BLOCK, -1)
    K.flags.writeable = False
    return K


# fixed-point treatment of the potential -------------------------------------

@dataclass(frozen=True)
class ContractionReport:
    """Convergence record of the sub-interval fixed-point iteration."""

    distances: list[float]        # successive-iterate distances, first window
    factors: list[float]
    observed_factor: float        # first post-seed contraction ratio
    converged: bool
    windows: int
    iterations_total: int


def fixed_point_solve(grid: SpatialGrid, beta0: np.ndarray, beta1: np.ndarray,
                      times: np.ndarray, a: np.ndarray, kappa: float,
                      tol: float = 1e-12, max_iter: int = 60,
                      ) -> tuple[BeamTrajectory | None, ContractionReport]:
    """Solve the potential problem by iterating the source -a * beta_prev.

    The potential `a` is an (n_times, n_x) array sampled on `times`.
    The horizon is covered by sub-intervals of length kappa overlapping by
    half (each restart reuses the state at the midpoint of the previous
    window).  Within each window the map beta_prev -> beta is iterated until
    the sup-in-time distance of successive iterates, measured on the state
    pair (beta, beta_t) in L2 x L2, drops below tol.  The first window's
    seed iterate is zero, so the report's distances are those from zero;
    a later window's is its predecessor's converged nodes from the restart
    on, held at their last row.

    An iterate is the window's modal states, marched by `_free_march` from
    one rfft of the source; one irfft gives the nodes for the distance and
    the next source.  It equals `solve_forward` of the window bit for bit
    and diverges where that would, but the inputs are checked once.

    A non-contracting window (distances growing) is an expected outcome for
    kappa too large: the returned trajectory is None and the report carries
    the observed factor >= 1.
    """
    g = grid
    times, data, a, _, batch = _checked_inputs(g, times, beta0, beta1, a)
    if batch:
        raise ValueError("beta0 and beta1 must have shape (n_x,)")
    seg_steps = max(2, int(round(kappa / (times[1] - times[0]))))
    seg_steps += seg_steps % 2
    half = seg_steps // 2
    n_t = times.size
    out = np.empty((2, n_t, g.n))
    # a full window's modal states and source, and the nodes (2, rows, n_x)
    # of its last two iterates, so that no sweep allocates a field
    rows, w = min(seg_steps, n_t - 1) + 1, 2 * g.kappa.size
    U_all, f_all = np.empty((rows, 1, 2, w)), np.empty((rows, 1, 1, w))
    forcing_all, iterates = np.empty((rows, g.n)), np.empty((2, 2, rows, g.n))
    mult_sum = _pair_mult(g).sum()
    first_distances: list[float] = []
    seed = np.zeros((2, 1, g.n))       # the first window's seed iterate
    total_iters = windows = start = 0
    converged = True
    while start < n_t - 1:
        windows += 1
        stop = min(start + seg_steps, n_t - 1)
        w_times, neg_a = times[start:stop + 1], -a[start:stop + 1]
        rows = w_times.size
        U, f_hat, forcing = U_all[:rows], f_all[:rows], forcing_all[:rows]
        prev, nodes = iterates[:, :, :rows]
        seed.take(np.arange(rows), axis=1, out=nodes, mode="clip")
        g.to_modes(data[:, 0], out=U.view(complex)[0, 0])
        dt = float(w_times[1] - w_times[0])
        dist_prev = None
        scale = max(float(g.pair_norm(*data)[0]), 1e-300)
        floor = 0.25 * (_DIVERGENCE_FACTOR * scale) ** 2
        for it in range(max_iter):
            prev, nodes = nodes, prev
            np.multiply(neg_a, prev[0], out=forcing)
            with np.errstate(over="ignore", invalid="ignore"):
                g.to_modes(forcing, out=f_hat.view(complex)[:, 0, 0])
                _free_march(g, dt, U, f_hat, rows - 1)
                # norm^2 <= mult_sum x largest entry^2, and the guard is at
                # least the factor times the data norm: the guard is built
                # only where this bound fails
                if not max(U.max(), -U.min()) ** 2 * mult_sum < floor:
                    _Guard(g, data, forcing[None], w_times,
                           _DIVERGENCE_FACTOR).check(U[1:], 0)
            g.to_nodes(U.view(complex)[:, 0].transpose(1, 0, 2), out=nodes)
            change = np.subtract(nodes, prev, out=prev)
            dist = float(np.max(g.pair_norm(*change)))
            total_iters += 1
            if windows == 1:
                first_distances.append(dist)
            if dist <= tol * scale:
                break
            if dist_prev is not None and dist > dist_prev and it >= 2:
                converged = False
                break
            dist_prev = dist
        if not converged:
            break
        keep = stop - start if stop == n_t - 1 else half
        out[:, start:start + keep + 1] = nodes[:, :keep + 1]
        seed = nodes[:, keep:].copy()
        data = seed[:, :1]
        start += keep

    factors = [b / a_ for a_, b in zip(first_distances[:-1], first_distances[1:])]
    if converged:
        observed = factors[0] if factors else 0.0
    else:
        observed = max(factors) if factors else float("inf")
    report = ContractionReport(
        distances=first_distances, factors=factors, observed_factor=observed,
        converged=converged, windows=windows, iterations_total=total_iters)
    full = (BeamTrajectory(grid=g, times=times, beta=out[0], beta_t=out[1])
            if converged else None)
    return full, report
