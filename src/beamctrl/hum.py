"""Control synthesis by minimizing the weighted quadratic functional.

The trajectory is split as beta = theta1 * q + g with a smooth time cutoff
theta1 (one near t = 0, zero near t = T): q evolves freely from the data, and
g starts from rest, is forced by the cutoff commutator source f, and must be
steered to zero.  The control comes from minimizing

    J(psi) = 1/2 int |L psi|^2 e^{-2 s phi}
           + (s^7 lam^8 / 2) int chi_omega xi^7 |psi|^2 e^{-2 s phi}
           - int f psi,
    L = dtt + dtxx + dxxxx + a   (adjoint damping sign),

over space-time fields psi.  Discretely, L is spectral in x and a 4th-order
stencil in t (one-sided closures at the grid edges), stored as numpy diagonal
arrays; the operator, its exact transpose and the band of its matrix all read
those arrays, so the discrete system is symmetric positive definite up to the
Tikhonov term.  In time-major order the matrix is block banded (the time
stencils reach 5 rows, the spectral x-blocks are dense), so it is factored
exactly by block Cholesky with numpy's own LAPACK and BLAS, and
preconditioned conjugate gradients refine that direct solve in one or two
iterations.  The band is built as an array of its dense blocks: the
spectral Sxx is the same at every time node, so the stencil sums act on
weight vectors and each block needs one product with Sxx.  The
minimizer yields the weighted residual g_tilde = e^{-2 s phi} L psi_min and
the control v = -s^7 lam^8 xi^7 chi_omega psi_min e^{-2 s phi}, which is
then validated by forward simulation.

The normal operator depends on the weights, the potential and eps, not on
the data: `assemble_hum_system` builds it, `banded_preconditioner` factors
its band (`QuadraticSystem.normal_band`) into a solve the caller holds, and
`minimize_J(sys, f, precond)` solves for one source f, so one factor serves
any number of sources.  W1 = e^{-2 s phi}, W2 (on omega's nodes) and the
control's weight are `weights.weighted_kernel`s, like the audit's rows.
`synthesize_control` chains the weights, the free march with its source
(`free_source`), those steps and the verification (`verify_null_control`),
and is the one place that times them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bumps import smoothstep
from .dynamics import BeamTrajectory, solve_forward
from .io import StageClock
from .torus import SpatialGrid, TimeGrid, trapezoid_weights
from .weights import OBSERVATION, CarlemanParams, EtaProfile, \
    ThetaProfile, WeightField, eval_weights, weight_formulas, weighted_kernel


class CGConvergenceError(RuntimeError):
    """Conjugate gradients missed the tolerance; carries the residual trail."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


class CurvatureError(RuntimeError):
    """Conjugate gradients met a direction p with p . A p <= 0."""


class FactorizationError(RuntimeError):
    """The block Cholesky factor of the normal operator broke down or is
    not finite."""


# time cutoff ----------------------------------------------------------------

@dataclass(frozen=True)
class Theta1Cutoff:
    """C-infinity cutoff: 1 on [0, r0 T], 0 on [r1 T, T], smoothstep between."""

    T: float
    r0: float
    r1: float

    def eval(self, t: np.ndarray, order: int = 0) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        a, b = self.r0 * self.T, self.r1 * self.T
        u = (t - a) / (b - a)
        vals = -smoothstep(u, order) / (b - a) ** order
        if order == 0:
            vals = 1.0 + vals
        return vals


def build_theta1(T: float, r0: float = 0.3, r1: float = 0.7) -> Theta1Cutoff:
    if not 0.0 < r0 < r1 < 1.0:
        raise ValueError("plateau fractions must satisfy 0 < r0 < r1 < 1")
    return Theta1Cutoff(T=T, r0=r0, r1=r1)


# free evolution and commutator source ---------------------------------------

def assemble_source(theta1: Theta1Cutoff, q: BeamTrajectory) -> np.ndarray:
    """Cutoff commutator source f = -theta1'' q - 2 theta1' q_t + theta1' q_xx
    on the times of q, shape (n_t, n_x).

    Identically zero outside the cutoff transition band, since every term
    carries a theta1 derivative.
    """
    th1 = theta1.eval(q.times, 1)[:, None]
    th2 = theta1.eval(q.times, 2)[:, None]
    q_xx = q.grid.deriv(q.beta, 2)
    return -th2 * q.beta - 2.0 * th1 * q.beta_t + th1 * q_xx


def free_source(w: WeightField, theta1: Theta1Cutoff, beta0: np.ndarray,
                beta1: np.ndarray, a_sampler=None) -> np.ndarray:
    """The cutoff source of the free beam on the grids of the weights w,
    whose time grid must be a midpoint grid.

    The free beam marches on the half-step grid, whose odd nodes are the
    nodes of `uniform_interior(T, n)`; the source is assembled there.
    """
    grid, t_grid = w.grid, w.t_grid
    times = np.linspace(0.0, t_grid.T, 2 * t_grid.n + 1)
    mid = slice(1, None, 2)
    if not np.allclose(times[mid], t_grid.nodes, rtol=0.0,
                       atol=1e-12 * t_grid.T):
        raise ValueError("free_source needs a uniform midpoint time grid")
    a = a_sampler(times) if a_sampler else None
    q = solve_forward(grid, beta0, beta1, times, a=a)
    return assemble_source(theta1, BeamTrajectory(
        grid=grid, times=times[mid], beta=q.beta[mid], beta_t=q.beta_t[mid]))


# time stencils ---------------------------------------------------------------

def fd_weights(z: float, x: np.ndarray, m: int) -> np.ndarray:
    """Fornberg weights for derivatives 0..m at z from nodes x."""
    x = np.asarray(x, dtype=float)
    n = x.size
    c = np.zeros((n, m + 1))
    c1, c4 = 1.0, x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def time_stencil(n: int, dt: float, order: int) -> np.ndarray:
    """4th-order derivative matrix D in time on a uniform interior grid, as
    the (2 R + 1, n) diagonal array S, R = 5, with S[R + k, i] = D[i, i + k].

    Centered 5-point stencils on rows 2..n-3; rows 0, 1 and n-2, n-1 use
    one-sided stencils of the same order on the first and last order + 4
    nodes (reaching R nodes for Dtt).  Entries off a row's window are 0.
    """
    if order not in (1, 2):
        raise ValueError("only first and second time derivatives are used")
    width, R = order + 4, 5
    if n < width + 2:
        raise ValueError(f"need at least {width + 2} time nodes")
    S = np.zeros((2 * R + 1, n))
    S[R - 2:R + 3, 2:n - 2] = \
        fd_weights(0.0, dt * np.arange(-2, 3), order)[:, order, None]
    for i, j in ((0, 0), (1, 1), (n - 2, width - 2), (n - 1, width - 1)):
        # row i sits at node j of its window
        S[R - j:R - j + width, i] = \
            fd_weights(j * dt, dt * np.arange(width), order)[:, order]
    return S


def _supports(S: np.ndarray) -> list[tuple[int, int]]:
    """Per row of S, the range [lo, hi) spanning its nonzero entries."""
    nz = S != 0
    lo = nz.argmax(axis=1)
    hi = np.where(nz.any(axis=1), S.shape[1] - nz[:, ::-1].argmax(axis=1), lo)
    return list(zip(lo.tolist(), hi.tolist()))


def _runs(v: np.ndarray) -> list[tuple[int, int]]:
    """The ranges [lo, hi) of consecutive nonzero entries of v."""
    edges = np.flatnonzero(np.diff(np.r_[0, v != 0, 0]))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def apply_stencil(S: np.ndarray, u: np.ndarray, transpose: bool = False
                  ) -> np.ndarray:
    """D @ u, or D^T @ u, along axis 0 of u for a stencil D stored as in
    `time_stencil`; each diagonal acts only between its first and last
    nonzero entry.  Output rows sum from zero in ascending column (for D^T,
    row) order of D, as a compressed-row sparse product does, bit for bit.
    """
    reach = S.shape[0] // 2
    spans = _supports(S)
    out = np.zeros(u.shape)
    for k in (range(reach, -reach - 1, -1) if transpose
              else range(-reach, reach + 1)):
        lo, hi = spans[reach + k]
        c = S[reach + k, lo:hi].reshape((-1,) + (1,) * (u.ndim - 1))
        if transpose:
            out[lo + k:hi + k] += c * u[lo:hi]
        else:
            out[lo:hi] += c * u[lo + k:hi + k]
    return out


# quadratic system ------------------------------------------------------------

# time blocks per pass of `QuadraticSystem.normal_band`, so that its four
# (BAND_CHUNK, n_x, n_x) work arrays stay in cache
BAND_CHUNK = 32


@dataclass
class QuadraticSystem:
    """Normal operator of the functional; it holds no data.

    Its space and time grids are those of its weights.  apply(psi)
    computes  L^T M W1 L psi + M W2 psi + eps psi  with M the space-time
    quadrature weights; `apply_stencil` transposes the time stencils Dt,
    Dtt exactly, so apply is symmetric to machine precision.  The
    right-hand side of a source f is M f (`minimize_J`).
    """

    weights: WeightField
    Dt: np.ndarray          # time stencils, see `time_stencil`
    Dtt: np.ndarray
    a_vals: np.ndarray | None
    chi: np.ndarray         # boolean mask of the space nodes in omega
    W1: np.ndarray
    W2: np.ndarray
    M: np.ndarray
    eps: float
    norm_estimate: float

    @property
    def grid(self) -> SpatialGrid:
        return self.weights.grid

    @property
    def t_grid(self) -> TimeGrid:
        return self.weights.t_grid

    def apply_L(self, psi: np.ndarray) -> np.ndarray:
        out = apply_stencil(self.Dtt, psi) \
            + apply_stencil(self.Dt, self.grid.deriv(psi, 2)) \
            + self.grid.deriv(psi, 4)
        if self.a_vals is not None:
            out = out + self.a_vals * psi
        return out

    def apply_Lt(self, u: np.ndarray) -> np.ndarray:
        out = apply_stencil(self.Dtt, u, transpose=True) \
            + self.grid.deriv(apply_stencil(self.Dt, u, transpose=True), 2) \
            + self.grid.deriv(u, 4)
        if self.a_vals is not None:
            out = out + self.a_vals * u
        return out

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = self.apply_Lt(self.M * self.W1 * self.apply_L(psi))
        out += self.M * self.W2 * psi
        out += self.eps * psi
        return out

    @property
    def band_shape(self) -> tuple[int, int]:
        """(half-bandwidth + 1, unknowns) of the time-major normal matrix.

        Time blocks couple through row t of L^T M W1 L when row t of L
        reaches both, and the x-blocks are dense.  So the band holds one
        more block than the widest span of the rows t of Dt and Dtt (t
        itself included) over the time rows where M W1 has a nonzero
        entry.  The centered rows span 4 blocks and the one-sided edge
        rows 0, 1, n_t - 2, n_t - 1 span 5, so a weighted edge row gives
        6 n_x rows.  At configs/control.ini W1 underflows to exactly 0 on
        the edge rows: the band has 5 n_x = 320 rows (half-bandwidth 319,
        41.9 MB) instead of 384 (50.3 MB), K = 5 blocks per time block in
        `normal_band`.
        """
        R = len(self.Dtt) // 2
        reach = (self.Dt != 0) | (self.Dtt != 0)
        reach[R] = True                 # B_t sits on the diagonal block
        k = np.arange(-R, R + 1)[:, None]
        span = np.where(reach, k, -R).max(axis=0) \
            - np.where(reach, k, R).min(axis=0)             # per time row
        weighted = np.any(self.M * self.W1 != 0, axis=1)
        nx = self.grid.n
        return ((int(span[weighted].max(initial=0)) + 1) * nx,
                self.t_grid.n * nx)

    def normal_band(self) -> np.ndarray:
        """The lower block band of the time-major matrix of `apply`, shape
        (n_t, K, n_x, n_x) with K = band_shape[0] // n_x: slot [l, o] holds
        block (l + o, l), entry (p, q) of it row (l + o) n_x + p and column
        l n_x + q of the matrix.

        Row block t of L is L_{t,k} = Dtt[t,k] I + Dt[t,k] Sxx + delta_tk B_t
        with B_t = Sx4 + diag(a_t) and dense spectral Sxx, Sx4.  With
        m = M W1, E_t = B_t diag(m_t) and F_t = E_t Sxx, block (l, l + o) is

            Sxx diag(P_DD) Sxx + diag(P_CD) Sxx + Sxx diag(P_DC) + diag(P_CC)
            + Dtt[l, l+o] E_l + Dt[l, l+o] F_l                      (t = l)
            + (Dtt[l+o, l] E_{l+o} + Dt[l+o, l] F_{l+o})^T          (t = l+o)
            + E_l B_l + diag(M W2 + eps)                           (o = 0)

        where P_XY[l] = sum over t of X[t, l] Y[t, l + o] m_t for X, Y in
        {C = Dtt, D = Dt}: Sxx is the same at every time node, so the
        stencil sums act on vectors, and one product with Sxx per block and
        offset replaces the sum over t of Sxx diag(m_t) Sxx.  Stencil
        entries are read from the arrays Dt, Dtt, and the t = l, l + o terms
        only on the runs of rows where they are nonzero.  Only the offsets
        o that fit in `band_shape` are written: the ones past it hold
        exactly 0, since every term of theirs carries m_t on a time row
        where it is 0 (at configs/control.ini offsets 0..4 of the stencil
        reach R = 5).  Each offset's blocks are written transposed into
        their slots in chunks of `BAND_CHUNK` time blocks; the diagonal
        blocks are stored whole.  `banded_preconditioner` factors the array
        in place.
        """
        n_t, nx = self.t_grid.n, self.grid.n
        eye = np.eye(nx)
        Sxx, Sx4 = self.grid.deriv(eye, 2), self.grid.deriv(eye, 4)
        m = self.M * self.W1
        C, D = self.Dtt, self.Dt
        R = len(C) // 2
        ab = np.zeros((n_t, self.band_shape[0] // nx, nx, nx))

        def pair(X, Y, o):
            # P_XY: sum over t of X[t, l] Y[t, l + o] m[t], for each l, as
            # P^T m with P[t, t + j] = X[t, t + j] Y[t, t + j + o]
            P = np.zeros_like(X)
            P[:2 * R + 1 - o] = X[:2 * R + 1 - o] * Y[o:]
            return apply_stencil(P, m, transpose=True)[:n_t - o]

        offsets = []
        for o in range(ab.shape[1]):
            # (first row, end row, entries, F not E, transposed) of the
            # t = l and t = l + o terms, one per run of nonzero entries
            sides = [(lo, hi, coef, use_f, at_k)
                     for at_k, row in enumerate((R + o, R - o))
                     for use_f, S in enumerate((C, D))
                     for coef in [S[row, at_k * o:][:n_t - o]]
                     for lo, hi in _runs(coef)]
            offsets.append((
                pair(D, D, o), pair(C, D, o), pair(D, C, o), pair(C, C, o),
                sides))
        X, U = (np.empty((BAND_CHUNK, nx, nx)) for _ in range(2))
        E, F = (np.empty((BAND_CHUNK + R, nx, nx)) for _ in range(2))
        am = None if self.a_vals is None else self.a_vals * m

        def diagonal(Y):
            return Y.reshape(len(Y), -1)[:, ::nx + 1]

        for c0 in range(0, n_t, BAND_CHUNK):
            # E_t = B_t diag(m_t) and F_t = E_t Sxx for the chunk's blocks
            # and the R after it
            nt = min(c0 + BAND_CHUNK + R, n_t) - c0
            e, f = E[:nt], F[:nt]
            np.einsum("pq,lq->lpq", Sx4, m[c0:c0 + nt], out=e)
            if am is not None:
                diagonal(e)[:] += am[c0:c0 + nt]
            np.matmul(e, Sxx, out=f)
            for o, (dd, cd, dc, cc, sides) in enumerate(offsets):
                n = min(c0 + BAND_CHUNK, n_t - o) - c0
                if n <= 0:
                    break
                rows = slice(c0, c0 + n)
                x, u = X[:n], U[:n]
                if dd[rows].any() or cd[rows].any():
                    # one small product per block keeps BLAS on one thread
                    np.einsum("pq,lq->lpq", Sxx, dd[rows], out=x)
                    diagonal(x)[:] += cd[rows]
                    np.matmul(x, Sxx, out=u)
                else:       # Dt rows span R nodes: P_DD vanishes at o = R
                    u.fill(0.0)
                np.einsum("pq,lq->lpq", Sxx, dc[rows], out=x)
                u += x
                diagonal(u)[:] += cc[rows]
                for lo, hi, coef, use_f, at_k in sides:
                    lo, hi = max(lo, c0), min(hi, c0 + n)
                    if lo >= hi:
                        continue
                    t, g = x[:hi - lo], (e, f)[use_f]
                    np.einsum("lpq,l->lpq",
                              g[lo - c0 + at_k * o:hi - c0 + at_k * o],
                              coef[lo:hi], out=t)
                    u[lo - c0:hi - c0] += t.transpose(0, 2, 1) if at_k else t
                if o == 0:
                    np.matmul(e[:n], Sx4, out=x)
                    u += x
                    if am is not None:
                        np.multiply(e[:n], self.a_vals[rows, None, :], out=x)
                        u += x
                    diagonal(u)[:] += (self.M * self.W2)[rows] + self.eps
                # u holds blocks (l, l + o); their transposes are (l + o, l)
                np.copyto(ab[rows, o], u.transpose(0, 2, 1))
        return ab

    def quadratic_value(self, psi: np.ndarray, b: np.ndarray) -> float:
        """J at psi for the right-hand side b, without the Tikhonov term."""
        lp = self.apply_L(psi)
        quad = 0.5 * np.sum(self.M * (self.W1 * lp**2 + self.W2 * psi**2))
        return float(quad - np.sum(b * psi))


def _operator_norm_estimate(apply, shape) -> float:
    """Twelve seeded power iterations."""
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(shape)
    x /= np.sqrt(np.sum(x * x))
    for _ in range(12):
        y = apply(x)
        est = float(np.sqrt(np.sum(y * y)))
        if est == 0.0:
            return 1.0
        x = y / est
    return est


def assemble_hum_system(w: WeightField, a_vals: np.ndarray | None = None,
                        eps_scale: float = 1e-14) -> QuadraticSystem:
    """Build the discrete normal operator of the functional on the grids
    of the weights w.

    The time stencils need a uniform time grid (`uniform_interior`); any
    other raises ValueError naming it.  The Tikhonov level is eps_scale
    times a power-iteration estimate of the operator norm.  It must stay
    tiny: configs/control.ini gives suppression_ratio 1.008e-6 at eps_scale
    1e-14, 4.166e-4 at 1e-12 (413 times higher for 100 times the eps) and
    3.665e-2 at 1e-10, with control_l2_norm 16.52, 16.50 and 14.50.  Below
    1e-14 the eps bias no longer sets it: from 1e-15 to 1e-17 the march
    error of `free_source` holds suppression_ratio at 3.1-3.5e-6, and at
    1e-14 the two errors partly cancel.  A non-finite potential or kernel
    (W1, W2) raises ValueError naming it.
    """
    if eps_scale < 0:
        raise ValueError("eps_scale must be nonnegative")
    if a_vals is not None and not np.all(np.isfinite(a_vals)):
        raise ValueError("a_vals is not finite")
    grid, t_grid = w.grid, w.t_grid
    n_t = t_grid.n
    dt = float(t_grid.nodes[1] - t_grid.nodes[0])
    if not np.allclose(np.diff(t_grid.nodes), dt, rtol=1e-12, atol=0.0):
        raise ValueError("the time grid of the weights (t_grid) is not "
                         "uniform; the time stencils need uniform_interior")
    Dt, Dtt = (time_stencil(n_t, dt, order) for order in (1, 2))
    chi = w.domain.in_omega(grid.nodes)
    with np.errstate(over="ignore", invalid="ignore"):   # named below
        W1 = weighted_kernel(w.params, w.log_xi, w.neg2s_phi, (0, 0, 0))
        W2 = weighted_kernel(w.params, w.log_xi, w.neg2s_phi, OBSERVATION,
                             chi)
    for name, vals in (("W1", W1), ("W2", W2)):
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{name} is not finite")

    sys = QuadraticSystem(
        weights=w, Dt=Dt, Dtt=Dtt, a_vals=a_vals, chi=chi, W1=W1, W2=W2,
        M=w.quad_weights(), eps=0.0, norm_estimate=0.0)
    est = _operator_norm_estimate(sys.apply, (n_t, grid.n))
    sys.norm_estimate, sys.eps = est, eps_scale * est
    return sys


def _tri_inv(L: np.ndarray) -> np.ndarray:
    """The inverse of a lower-triangular L by halves: inverting the two
    diagonal halves and two products cost less than a general inverse."""
    h = len(L) // 2
    out = np.zeros_like(L)
    out[:h, :h] = np.linalg.inv(L[:h, :h])
    out[h:, h:] = np.linalg.inv(L[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ L[h:, :h]) @ out[:h, :h]
    return out


def banded_preconditioner(sys: QuadraticSystem, ab: np.ndarray):
    """r -> A^{-1} r by the exact block Cholesky factor of the operator A.

    ab is the block band of A (`sys.normal_band()`), factored in place by a
    right-looking block Cholesky (Golub & Van Loan, "Matrix Computations",
    4.3): per time block l, slot [l, 0] becomes the inverse of the Cholesky
    factor of the diagonal block, the panel below it becomes W = A_sub
    Linv^T, and the trailing blocks take one stacked product per block
    offset d, W[d:] W[:m - d]^T.  Every product is of n_x x n_x blocks.
    Raises FactorizationError when A is not numerically positive definite
    or its band is not finite: a non-finite entry reaches a later diagonal
    slot, so the check reads those.  The returned solve serves any number
    of right-hand sides, an (n_t, n_x) field or an (n_t, n_x, k) stack of k.
    """
    n_t, K, nx, _ = ab.shape
    with np.errstate(over="ignore", invalid="ignore"):   # named below
        for l in range(n_t):
            m = min(K - 1, n_t - 1 - l)
            try:
                Linv = _tri_inv(np.linalg.cholesky(ab[l, 0]))
            except np.linalg.LinAlgError as exc:
                raise FactorizationError(
                    f"block Cholesky of the {n_t * nx}-unknown normal "
                    f"operator broke down at time block {l} "
                    f"(eps = {sys.eps:.3e}): {exc}") from exc
            ab[l, 0] = Linv
            # the transposed factors are copied: products of C-contiguous
            # blocks ran about a third faster than of transposed views
            W = ab[l, 1:1 + m]
            W[:] = W @ Linv.T.copy()
            Wt = W.transpose(0, 2, 1).copy()
            for d in range(m):
                ab[l + 1:l + 1 + m - d, d] -= W[d:] @ Wt[:m - d]
    if not np.all(np.isfinite(ab[:, 0])):
        raise FactorizationError(
            f"the block Cholesky factor of the {n_t * nx}-unknown normal "
            f"operator is not finite (eps = {sys.eps:.3e})")
    diag = ab[:, 0]
    panel = ab.reshape(n_t, K * nx, nx)[:, nx:]      # W of each block column

    def solve(r):
        # forward: z_l = Linv_l y_l, then y below it -= W z_l; backward:
        # x_l = Linv_l^T (z_l - W^T x below it).  y holds x once solved.
        y = np.array(r, dtype=float).reshape(n_t * nx, *r.shape[2:])
        z, t = np.empty_like(y), np.empty_like(y[:(K - 1) * nx])
        for l in range(n_t):
            b, n = l * nx, (min(K, n_t - l) - 1) * nx     # n rows below
            np.dot(diag[l], y[b:b + nx], out=z[b:b + nx])
            np.dot(panel[l, :n], z[b:b + nx], out=t[:n])
            y[b + nx:b + nx + n] -= t[:n]
        for l in range(n_t - 1, -1, -1):
            b, n = l * nx, (min(K, n_t - l) - 1) * nx
            np.dot(panel[l, :n].T, y[b + nx:b + nx + n], out=t[:nx])
            z[b:b + nx] -= t[:nx]
            np.dot(diag[l].T, z[b:b + nx], out=y[b:b + nx])
        return y.reshape(r.shape)
    return solve


@dataclass(frozen=True)
class HumSolution:
    """Minimizer, derived fields, and solver diagnostics."""

    psi_min: np.ndarray
    g_tilde: np.ndarray
    v: np.ndarray
    J_value: float
    residual_history: list[float]
    iterations: int
    relative_residual: float        # CG's recursive residual |r_k| / |b|
    true_relative_residual: float   # |b - A x| / |b|, from one more apply


def minimize_J(sys: QuadraticSystem, f: np.ndarray, precond,
               tol: float = 1e-10, max_iter: int = 5000) -> HumSolution:
    """Preconditioned conjugate-gradient solve of A psi = b to relative tol.

    b = M f pairs the commutator source f (`free_source`, shape (n_t, n_x))
    with psi by plain quadrature.  precond maps r to about A^{-1} r: with
    the exact block factor (`banded_preconditioner`) PCG only refines the
    direct solve (2 iterations to 1e-10 at configs/control.ini), and
    `lambda r: r` gives plain CG.  A source off the system grid, or a
    non-finite source or right-hand side, raises ValueError naming it.
    tol bounds CG's recursive residual |r_k| / |b|; the true residual
    |b - A x| / |b| (true_relative_residual) has a rounding floor, 2.56e-8
    at configs/control.ini, that no smaller tol lowers.
    CurvatureError (p.Ap <= 0) means the operator is not positive definite.
    CGConvergenceError (with the residual history attached) signals
    ill-conditioning; the remedy is a larger eps or smaller s.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if f.shape != (sys.t_grid.n, sys.grid.n):
        raise ValueError("source not sampled on the system grid")
    if not np.all(np.isfinite(f)):
        raise ValueError("source is not finite")
    with np.errstate(over="ignore", invalid="ignore"):   # named below
        b = sys.M * f
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs is not finite")
    b_norm = float(np.sqrt(np.sum(b * b)))
    if b_norm == 0.0:
        zero = np.zeros_like(b)
        return HumSolution(psi_min=zero, g_tilde=zero, v=zero, J_value=0.0,
                           residual_history=[0.0], iterations=0,
                           relative_residual=0.0, true_relative_residual=0.0)

    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    history = [1.0]
    for it in range(1, max_iter + 1):
        Ap = sys.apply(p)
        curvature = float(np.sum(p * Ap))
        if curvature <= 0.0:
            raise CurvatureError(
                f"CG met nonpositive curvature p.Ap = {curvature:.3e} at "
                f"iteration {it} (eps = {sys.eps:.3e})")
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * Ap
        rel = float(np.sqrt(np.sum(r * r))) / b_norm
        history.append(rel)
        if rel <= tol:
            break
        z = precond(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        raise CGConvergenceError(
            f"CG did not reach tol {tol:g} in {max_iter} iterations "
            f"(residual {history[-1]:.3e})", history)

    true_r = b - sys.apply(x)
    return HumSolution(
        psi_min=x,
        g_tilde=sys.W1 * sys.apply_L(x),
        v=-sys.W2 * x,
        J_value=sys.quadratic_value(x, b),
        residual_history=history,
        iterations=len(history) - 1,
        relative_residual=history[-1],
        true_relative_residual=float(np.sqrt(np.sum(true_r * true_r))) / b_norm,
    )


# a-posteriori verification ---------------------------------------------------

def control_weight_factor(w: WeightField, t_interior: np.ndarray
                          ) -> np.ndarray:
    """The control weight, W2 without the omega indicator: the OBSERVATION
    `weighted_kernel` from the profiles of w at its space nodes, at
    arbitrary interior times."""
    _, _, log_xi, neg2s_phi = weight_formulas(
        w.eta_nodes, w.eta.eta_max, w.theta.eval(t_interior, 0)[:, None],
        w.params.lam, w.params.s)
    return weighted_kernel(w.params, log_xi, neg2s_phi, OBSERVATION)


def spline_pieces(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (n - 1, 4, m) of the not-a-knot cubic spline through the
    rows of y (n, m) at the nodes x: piece i is the cubic in t - x_i with
    these coefficients, highest power first.

    Second derivatives match at the interior nodes and third derivatives at
    x[1] and x[-2], one tridiagonal system for the nodal slopes of all m
    columns.
    """
    n = x.size
    if n < 4:
        raise ValueError("a not-a-knot cubic spline needs at least 4 nodes")
    h = np.diff(x)
    slope = np.diff(y, axis=0) / h[:, None]
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    # row i: sub[i - 1] s[i - 1] + diag[i] s[i] + sup[i] s[i + 1] = rhs[i]
    sup = [d0, *h[:-1].tolist()]
    diag = [h[1], *(2.0 * (h[:-1] + h[1:])).tolist(), h[-2]]
    sub = [*h[1:].tolist(), d1]
    s = np.empty_like(y)
    s[1:-1] = 3.0 * (h[1:, None] * slope[:-1] + h[:-1, None] * slope[1:])
    s[0] = ((h[0] + 2.0 * d0) * h[1] * slope[0] + h[0]**2 * slope[1]) / d0
    s[-1] = (h[-1]**2 * slope[-2]
             + (2.0 * d1 + h[-1]) * h[-2] * slope[-1]) / d1
    # Thomas elimination in place of the right-hand side; the pivots stay
    # positive for increasing nodes, so no row is exchanged
    for i in range(1, n):
        c = sub[i - 1] / diag[i - 1]
        diag[i] -= c * sup[i - 1]
        s[i] -= c * s[i - 1]
    s[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] -= sup[i] * s[i + 1]
        s[i] /= diag[i]

    curv = (s[:-1] + s[1:] - 2.0 * slope) / h[:, None]
    return np.stack([curv / h[:, None], (slope - s[:-1]) / h[:, None] - curv,
                     s[:-1], y[:-1]], axis=1)


def sample_pieces(x: np.ndarray, pieces: np.ndarray, t: np.ndarray
                  ) -> np.ndarray:
    """The spline with the given `spline_pieces` at the times t, each by
    Horner's rule on the piece holding it (the right one at a node, the
    last at x[-1]); the end pieces extend past x[0] and x[-1].  Each row
    depends on its own time only."""
    piece = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    coef = pieces[piece]
    z = (t - x[piece])[:, None]
    out = coef[:, 0]
    for k in (1, 2, 3):
        out = out * z + coef[:, k]
    return out


# times sampled together by control_on_times: its temporaries stay a few
# chunks of rows, not several copies of the result, which raised the peak
# RSS of a process's later control runs by 4 MB at configs/control.ini size
_CONTROL_CHUNK = 256


def control_on_times(sol: HumSolution, sys: QuadraticSystem,
                     times: np.ndarray) -> np.ndarray:
    """Sample the control on a trajectory time grid.

    The minimizer is interpolated in time by the not-a-knot cubic spline;
    the exponential weight factor is evaluated analytically from the
    system's weight profiles.  Rows at t = 0 and t = T are exactly zero (the
    weight vanishes there), as are all nodes outside omega.  Rows are
    sampled _CONTROL_CHUNK times at a time, with the bits of one evaluation
    over all times.
    """
    times = np.asarray(times, dtype=float)
    T = sys.t_grid.T
    rows = np.flatnonzero((times > 0.0) & (times < T))
    nodes = sys.t_grid.nodes
    pieces = spline_pieces(nodes, sol.psi_min)
    out = np.zeros((times.size, sys.grid.n))
    for i in range(0, rows.size, _CONTROL_CHUNK):
        r = rows[i:i + _CONTROL_CHUNK]
        out[r] = -control_weight_factor(sys.weights, times[r]) \
            * sample_pieces(nodes, pieces, times[r]) * sys.chi
    return out


@dataclass(frozen=True)
class TerminalReport:
    """Forward-verification summary for one synthesized control."""

    controlled_terminal: float
    uncontrolled_terminal: float
    suppression_ratio: float
    control_l2: float
    data_norm: float
    bound_ratio: float
    g_terminal: float
    superposition_defect: float
    cutoff_consistency_defect: float
    support_ok: bool

    def rows(self):
        yield ("controlled_terminal_norm", self.controlled_terminal)
        yield ("uncontrolled_terminal_norm", self.uncontrolled_terminal)
        yield ("suppression_ratio", self.suppression_ratio)
        yield ("control_l2_norm", self.control_l2)
        yield ("data_norm_h3_h1", self.data_norm)
        yield ("control_bound_ratio", self.bound_ratio)
        yield ("g_terminal_norm", self.g_terminal)
        yield ("superposition_defect", self.superposition_defect)
        yield ("cutoff_consistency_defect", self.cutoff_consistency_defect)
        yield ("control_support_in_omega", int(self.support_ok))


def verify_null_control(beta0: np.ndarray, beta1: np.ndarray,
                        theta1: Theta1Cutoff, sol: HumSolution,
                        sys: QuadraticSystem, a_sampler=None,
                        n_steps: int = 2048
                        ) -> tuple[TerminalReport, dict[str, BeamTrajectory]]:
    """Forward-simulate the control and audit the decomposition.

    The uncontrolled beam q runs first, since the cutoff source f is built
    from it.  The controlled beam (driven by v), the cutoff subsystem
    (driven by -f) and the g system (zero data, driven by v + f) then march
    as one batch with the same potential.  Discrete linearity makes
    `controlled = cutoff_run + g_run` an exact identity; the reported
    superposition defect only measures floating-point noise.  The pointwise
    product theta1(t) q(t) differs from the cutoff run by the time-stepper's
    product-rule error and is reported separately as a consistency
    diagnostic.  The grid, the domain and the weight profiles are those of
    the system.
    """
    grid = sys.grid
    times = np.linspace(0.0, sys.t_grid.T, n_steps + 1)
    a = a_sampler(times) if a_sampler else None

    # the forcings v, -f and v + f of the batched march, written in place;
    # v's metrics are taken first, so all three go once the march is done
    forcing = np.empty((3, times.size, grid.n))
    v_vals = forcing[0]
    v_vals[:] = control_on_times(sol, sys, times)
    support_ok = bool(np.all(v_vals[:, ~sys.chi] == 0.0))
    control_l2 = float(np.sqrt(np.sum(trapezoid_weights(times)
                                      * grid.l2_sq(v_vals))))

    q_run = solve_forward(grid, beta0, beta1, times, a=a)
    f_vals = assemble_source(theta1, q_run)
    np.negative(f_vals, out=forcing[1])
    np.add(v_vals, f_vals, out=forcing[2])
    del f_vals, v_vals

    zero = np.zeros(grid.n)
    batch = solve_forward(grid, np.stack([beta0, beta0, zero]),
                          np.stack([beta1, beta1, zero]), times, a=a,
                          forcing=forcing)
    del forcing
    controlled, cutoff_run, g_run = (batch.member(i) for i in range(3))

    scale = max(np.max(grid.pair_norm(controlled.beta, controlled.beta_t)),
                1e-300)
    superpos = float(np.max(grid.pair_norm(
        controlled.beta - cutoff_run.beta - g_run.beta,
        controlled.beta_t - cutoff_run.beta_t - g_run.beta_t)) / scale)

    th = theta1.eval(times, 0)[:, None]
    th1 = theta1.eval(times, 1)[:, None]
    cutoff_defect = float(np.max(grid.pair_norm(
        cutoff_run.beta - th * q_run.beta,
        cutoff_run.beta_t - (th1 * q_run.beta + th * q_run.beta_t))) / scale)

    controlled_T = controlled.terminal_norm()
    uncontrolled_T = q_run.terminal_norm()
    suppression = controlled_T / uncontrolled_T if uncontrolled_T > 0 else 1.0

    data_norm = grid.data_norm(beta0, beta1)

    report = TerminalReport(
        controlled_terminal=controlled_T,
        uncontrolled_terminal=uncontrolled_T,
        suppression_ratio=suppression,
        control_l2=control_l2,
        data_norm=data_norm,
        bound_ratio=control_l2 / data_norm if data_norm > 0 else 0.0,
        g_terminal=g_run.terminal_norm(),
        superposition_defect=superpos,
        cutoff_consistency_defect=cutoff_defect,
        support_ok=support_ok,
    )
    runs = {"controlled": controlled, "uncontrolled": q_run,
            "cutoff": cutoff_run, "g": g_run}
    return report, runs


def synthesize_control(grid: SpatialGrid, t_grid: TimeGrid, eta: EtaProfile,
                       theta: ThetaProfile, params: CarlemanParams,
                       theta1: Theta1Cutoff, beta0: np.ndarray,
                       beta1: np.ndarray, a_sampler=None,
                       eps_scale: float = 1e-14, tol: float = 1e-10,
                       max_iter: int = 5000, verify_steps: int = 2048):
    """Synthesize the null control of (beta0, beta1) and verify it.

    t_grid is the midpoint grid of the functional (`uniform_interior`);
    a_sampler maps times to potential samples (None for a zero potential).
    Returns (system, solution, report, runs, timing): the normal operator,
    the minimizer with the control on t_grid, the forward verification, and
    the `StageClock` laps of each stage (weights, free march with its
    source, assembly with the norm estimate, band, factor, CG,
    verification), in wall and CPU seconds.  The factor's products are of
    n_x x n_x blocks, which OpenBLAS runs on one thread; a stall, two BLAS
    threads time-sliced on one CPU, shows as a factor lap many times its
    usual length with as many CPU seconds (measured in `BENCH_19.json`).
    The band is as wide as the weights reach (`QuadraticSystem.band_shape`):
    5 n_x rows at configs/control.ini, half-bandwidth 319 and 41.9 MB.  The
    band and the factor are released before the verification march.
    """
    clock = StageClock()
    w = eval_weights(eta, theta, params, grid, t_grid)
    clock.lap("weights")
    source = free_source(w, theta1, beta0, beta1, a_sampler)
    clock.lap("free_march")
    a_vals = a_sampler(t_grid.nodes) if a_sampler else None
    system = assemble_hum_system(w, a_vals=a_vals, eps_scale=eps_scale)
    clock.lap("assembly")
    ab = system.normal_band()
    clock.lap("band")
    precond = banded_preconditioner(system, ab)
    clock.lap("factor")
    sol = minimize_J(system, source, precond, tol=tol, max_iter=max_iter)
    clock.lap("cg")
    del ab, precond
    report, runs = verify_null_control(beta0, beta1, theta1, sol, system,
                                       a_sampler=a_sampler,
                                       n_steps=verify_steps)
    clock.lap("verification")
    return system, sol, report, runs, clock.timing
