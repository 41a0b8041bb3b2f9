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
stencil in t (one-sided closures at the grid edges); the normal operator uses
the exact stencil transpose, so the discrete system is symmetric positive
definite up to the Tikhonov term.  In time-major order its matrix is banded
(the time stencils reach 5 rows, the spectral x-blocks are dense), so it is
factored exactly by banded Cholesky, and preconditioned conjugate gradients
refine that direct solve in one or two iterations.  The minimizer yields
the weighted residual g_tilde = e^{-2 s phi} L psi_min and the control
v = -s^7 lam^8 xi^7 chi_omega psi_min e^{-2 s phi}, which is then validated
by forward simulation.

`synthesize_control` is the entry point: it builds the weights, marches the
free beam and assembles the source (`free_source`), assembles the normal
equations (`assemble_hum_system`), minimizes (`minimize_J`) and verifies the
control (`verify_null_control`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.interpolate import CubicSpline
from scipy.linalg import cho_solve_banded, cholesky_banded

from ._bumps import smoothstep
from .dynamics import BeamTrajectory, Potential, solve_forward
from .torus import SpatialGrid, TimeGrid
from .weights import CarlemanParams, EtaProfile, ThetaProfile, WeightField, \
    eval_weights, weight_formulas


class CGConvergenceError(RuntimeError):
    """Conjugate gradients missed the tolerance; carries the residual trail."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


class CurvatureError(RuntimeError):
    """Conjugate gradients met a direction p with p . A p <= 0."""


class FactorizationError(RuntimeError):
    """The banded Cholesky factorization of the normal operator broke down."""


# time cutoff ----------------------------------------------------------------

@dataclass(frozen=True)
class Theta1Cutoff:
    """C-infinity cutoff: 1 on [0, r0 T], 0 on [r1 T, T], smoothstep between."""

    T: float
    r0: float
    r1: float

    @property
    def band(self) -> tuple[float, float]:
        return (self.r0 * self.T, self.r1 * self.T)

    def eval(self, t: np.ndarray, order: int = 0) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        a, b = self.band
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

@dataclass(frozen=True)
class HumSource:
    """Cutoff commutator source f = -theta1'' q - 2 theta1' q_t + theta1' q_xx.

    Identically zero outside the cutoff transition band, since every term
    carries a theta1 derivative.
    """

    values: np.ndarray


def assemble_source(theta1: Theta1Cutoff, q: BeamTrajectory) -> HumSource:
    th1 = theta1.eval(q.times, 1)[:, None]
    th2 = theta1.eval(q.times, 2)[:, None]
    q_xx = q.grid.deriv(q.beta, 2)
    vals = -th2 * q.beta - 2.0 * th1 * q.beta_t + th1 * q_xx
    return HumSource(values=vals)


def free_source(grid: SpatialGrid, t_grid: TimeGrid, theta1: Theta1Cutoff,
                beta0: np.ndarray, beta1: np.ndarray, a_sampler=None
                ) -> HumSource:
    """The cutoff source of the free beam on the nodes of a midpoint grid.

    The free beam marches on the half-step grid, whose odd nodes are the
    nodes of `uniform_interior(T, n)`; the source is assembled there.
    """
    times = np.linspace(0.0, t_grid.T, 2 * t_grid.n + 1)
    mid = slice(1, None, 2)
    if not np.allclose(times[mid], t_grid.nodes, rtol=0.0,
                       atol=1e-12 * t_grid.T):
        raise ValueError("free_source needs a uniform midpoint time grid")
    a = Potential.from_values(a_sampler(times)) if a_sampler else None
    q = solve_forward(grid, beta0, beta1, times, a=a)
    return assemble_source(theta1, BeamTrajectory(
        grid=grid, times=times[mid], beta=q.beta[mid], beta_t=q.beta_t[mid],
        energy=q.energy[mid], dissipation=q.dissipation[mid]))


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


def time_stencil(n: int, dt: float, order: int) -> sparse.csr_matrix:
    """4th-order derivative matrix in time on a uniform interior grid.

    Centered 5-point stencils inside; one-sided stencils of the same order at
    the edges (5 nodes for the first derivative, 6 for the second).
    """
    if order not in (1, 2):
        raise ValueError("only first and second time derivatives are used")
    width = 5 if order == 1 else 6
    if n < width + 2:
        raise ValueError(f"need at least {width + 2} time nodes")
    D = sparse.lil_matrix((n, n))
    centered = fd_weights(0.0, dt * np.arange(-2, 3), order)[:, order]
    for i in range(2, n - 2):
        D[i, i - 2:i + 3] = centered
    for i in (0, 1):
        D[i, :width] = fd_weights(i * dt, dt * np.arange(width), order)[:, order]
    for i in (n - 2, n - 1):
        offs = n - width
        D[i, offs:] = fd_weights(
            (i - offs) * dt, dt * np.arange(width), order)[:, order]
    return D.tocsr()


# quadratic system ------------------------------------------------------------

@dataclass
class QuadraticSystem:
    """Normal operator of the functional and its right-hand side.

    apply(psi) computes  L^T M W1 L psi + M W2 psi + eps psi  with M the
    space-time quadrature weights; the transpose of L uses exact stencil
    transposes, so apply is symmetric to machine precision.
    """

    grid: SpatialGrid
    t_grid: TimeGrid
    weights: WeightField
    Dt: sparse.csr_matrix
    Dtt: sparse.csr_matrix
    a_vals: np.ndarray | None
    W1: np.ndarray
    W2: np.ndarray
    M: np.ndarray
    eps: float
    rhs: np.ndarray
    source: HumSource
    norm_estimate: float

    def apply_L(self, psi: np.ndarray) -> np.ndarray:
        out = self.Dtt @ psi + self.Dt @ self.grid.deriv(psi, 2) \
            + self.grid.deriv(psi, 4)
        if self.a_vals is not None:
            out = out + self.a_vals * psi
        return out

    def apply_Lt(self, u: np.ndarray) -> np.ndarray:
        out = self.Dtt.T @ u + self.grid.deriv(self.Dt.T @ u, 2) \
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

        Time blocks couple when one stencil row reaches both and the x-blocks
        are dense, so the 6-point one-sided Dtt rows give 6 n_x - 1.
        """
        rows = abs(self.Dtt) + abs(self.Dt) + sparse.identity(self.t_grid.n)
        reach = (rows.T @ rows).tocoo()
        nx = self.grid.n
        return ((int(np.max(reach.row - reach.col)) + 1) * nx,
                self.t_grid.n * nx)

    def normal_band(self) -> np.ndarray:
        """The matrix of `apply` in LAPACK lower band storage, time-major.

        Row block t of L is L_{t,k} = Dtt[t,k] I + Dt[t,k] Sxx + delta_tk B_t
        with B_t = Sx4 + diag(a_t) and dense spectral Sxx, Sx4.  With
        D_t = diag(M W1)_t, block (k, l) sums stencil-weighted D_t, D_t Sxx,
        Sxx D_t and Sxx D_t Sxx over the rows t reaching both k and l, plus
        the t = k and t = l terms in B_t D_t, B_t D_t Sxx and B_t D_t B_t.
        Fortran order lets LAPACK factor the array in place.
        """
        n_t, nx = self.t_grid.n, self.grid.n
        eye, diag = np.eye(nx), (slice(None), range(nx), range(nx))
        Sxx = self.grid.deriv(eye, 2)
        B = np.repeat(self.grid.deriv(eye, 4)[None], n_t, axis=0)
        if self.a_vals is not None:
            B[diag] += self.a_vals
        m = self.M * self.W1
        BD = B * m[:, None, :]
        BDB, BDS = BD @ B, BD @ Sxx
        del B
        SDS = (Sxx * m[:, None, :]) @ Sxx
        C, D, E = self.Dtt, self.Dt, sparse.identity(n_t, format="csr")
        ab = np.zeros(self.band_shape, order="F")
        for o in range(ab.shape[0] // nx):
            n_o = n_t - o

            def pair(X, Y, field):
                # sum over t of X[t, l + o] Y[t, l] field[t], for each l
                w = X[:, o:].multiply(Y[:, :n_o]).T
                out = w @ field.reshape(n_t, -1)
                return out.reshape(n_o, *field.shape[1:])

            # E picks t = k (then t = l, transposed) for the terms in B_t
            blk = pair(D, D, SDS) + pair(E, C, BD) + pair(E, D, BDS)
            blk += (pair(C, E, BD) + pair(D, E, BDS)).transpose(0, 2, 1)
            blk += Sxx * (pair(C, D, m)[:, :, None]
                          + pair(D, C, m)[:, None, :])
            blk[diag] += pair(C, C, m)
            if o == 0:
                blk += BDB
                blk[diag] += self.M * self.W2 + self.eps
            # entry (p, q) of block (l + o, l) is ab[o nx + p - q, l nx + q]
            for q in range(nx):
                p0 = q if o == 0 else 0
                ab[o * nx + p0 - q:(o + 1) * nx - q, q:n_o * nx:nx] = \
                    blk[:, p0:, q].T
        return ab

    def quadratic_value(self, psi: np.ndarray) -> float:
        """The functional J at psi, without the Tikhonov term."""
        lp = self.apply_L(psi)
        quad = 0.5 * np.sum(self.M * (self.W1 * lp**2 + self.W2 * psi**2))
        return float(quad - np.sum(self.rhs * psi))

    def control_from(self, psi: np.ndarray) -> np.ndarray:
        return -self.W2 * psi

    def residual_field_from(self, psi: np.ndarray) -> np.ndarray:
        return self.W1 * self.apply_L(psi)


def _operator_norm_estimate(apply, shape, seed: int = 1234,
                            iters: int = 12) -> float:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    x /= np.sqrt(np.sum(x * x))
    est = 1.0
    for _ in range(iters):
        y = apply(x)
        est = float(np.sqrt(np.sum(y * y)))
        if est == 0.0:
            return 1.0
        x = y / est
    return est


def assemble_hum_system(grid: SpatialGrid, t_grid: TimeGrid, w: WeightField,
                        f: HumSource, a_vals: np.ndarray | None = None,
                        eps_scale: float = 1e-14) -> QuadraticSystem:
    """Build the discrete normal equations of the functional.

    The right-hand side is the plain quadrature pairing of the commutator
    source against psi (no exponential weight).  The Tikhonov level is
    eps_scale times a power-iteration estimate of the operator norm; it must
    stay tiny because the terminal residual of the verified control scales
    linearly with it (measured: eps_scale 1e-10 already caps the suppression
    ratio near 3e-2).  A non-finite source, potential, kernel (W1, W2) or
    right-hand side raises ValueError naming it.
    """
    if eps_scale < 0:
        raise ValueError("eps_scale must be nonnegative")
    for name, vals in (("source", f.values), ("a_vals", a_vals)):
        if vals is not None and not np.all(np.isfinite(vals)):
            raise ValueError(f"{name} is not finite")
    n_t = t_grid.n
    dt = float(t_grid.nodes[1] - t_grid.nodes[0])
    Dt = time_stencil(n_t, dt, 1)
    Dtt = time_stencil(n_t, dt, 2)

    if f.values.shape != (n_t, grid.n):
        raise ValueError("source not sampled on the system grid")
    chi = w.domain.in_omega(w.x_nodes).astype(float)
    M = w.quad_weights()
    with np.errstate(over="ignore", invalid="ignore"):   # named below
        W1 = w.kernel(0.0)
        W2 = (w.params.s**7 * w.params.lam**8) * chi[None, :] * w.kernel(7.0)
        rhs = M * f.values
    for name, vals in (("W1", W1), ("W2", W2), ("rhs", rhs)):
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{name} is not finite")

    sys = QuadraticSystem(
        grid=grid, t_grid=t_grid, weights=w, Dt=Dt, Dtt=Dtt, a_vals=a_vals,
        W1=W1, W2=W2, M=M, eps=0.0, rhs=rhs, source=f,
        norm_estimate=0.0,
    )
    est = _operator_norm_estimate(sys.apply, (n_t, grid.n))
    sys.norm_estimate = est
    sys.eps = eps_scale * est
    return sys


def banded_preconditioner(sys: QuadraticSystem):
    """r -> A^{-1} r by the exact banded Cholesky factor of the operator A.

    Raises FactorizationError when A is not numerically positive definite.
    """
    try:
        chol = cholesky_banded(sys.normal_band(), overwrite_ab=True,
                               lower=True)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"banded Cholesky of the {sys.band_shape[1]}-unknown normal "
            f"operator broke down (eps = {sys.eps:.3e}): {exc}") from exc
    return lambda r: cho_solve_banded(
        (chol, True), r.ravel(), check_finite=False).reshape(r.shape)


@dataclass(frozen=True)
class HumSolution:
    """Minimizer, derived fields, and solver diagnostics."""

    psi_min: np.ndarray
    g_tilde: np.ndarray
    v: np.ndarray
    J_value: float
    residual_history: list[float]
    iterations: int
    relative_residual: float
    eps: float


def minimize_J(sys: QuadraticSystem, tol: float = 1e-10,
               max_iter: int = 5000, precondition: bool = True
               ) -> HumSolution:
    """Conjugate-gradient solve of the normal equations to relative tol.

    The preconditioner is the exact banded Cholesky factor, so PCG only
    refines the direct solve (2 iterations to 1e-10 at configs/control.ini).
    FactorizationError or CurvatureError (p.Ap <= 0) mean the operator is not
    positive definite.  CGConvergenceError (with the residual history
    attached) signals ill-conditioning; the remedy is a larger eps or
    smaller s.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = sys.rhs
    b_norm = float(np.sqrt(np.sum(b * b)))
    if b_norm == 0.0:
        zero = np.zeros_like(b)
        return HumSolution(psi_min=zero, g_tilde=zero, v=zero, J_value=0.0,
                           residual_history=[0.0], iterations=0,
                           relative_residual=0.0, eps=sys.eps)

    precond = banded_preconditioner(sys) if precondition else (lambda r: r)
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

    return HumSolution(
        psi_min=x,
        g_tilde=sys.residual_field_from(x),
        v=sys.control_from(x),
        J_value=sys.quadratic_value(x),
        residual_history=history,
        iterations=len(history) - 1,
        relative_residual=history[-1],
        eps=sys.eps,
    )


# a-posteriori verification ---------------------------------------------------

def control_weight_factor(eta: EtaProfile, theta: ThetaProfile,
                          params: CarlemanParams, x_nodes: np.ndarray,
                          t_interior: np.ndarray) -> np.ndarray:
    """s^7 lam^8 xi^7 e^{-2 s phi} at arbitrary interior times."""
    lam, s = params.lam, params.s
    _, _, log_xi, neg2s_phi = weight_formulas(
        eta.derivs(x_nodes, max_order=0)[:, 0], eta.eta_max,
        theta.eval(t_interior, 0)[:, None], lam, s)
    return (s**7 * lam**8) * np.exp(7.0 * log_xi + neg2s_phi)


def control_on_times(sol: HumSolution, sys: QuadraticSystem,
                     eta: EtaProfile, theta: ThetaProfile,
                     times: np.ndarray) -> np.ndarray:
    """Sample the control on a trajectory time grid.

    The minimizer is interpolated in time by a cubic spline; the exponential
    weight factor is evaluated analytically.  Rows at t = 0 and t = T are
    exactly zero (the weight vanishes there), as are all nodes outside omega.
    """
    times = np.asarray(times, dtype=float)
    T = sys.t_grid.T
    spline = CubicSpline(sys.t_grid.nodes, sol.psi_min, axis=0)
    interior = (times > 0.0) & (times < T)
    out = np.zeros((times.size, sys.grid.n))
    factor = control_weight_factor(eta, theta, sys.weights.params,
                                   sys.grid.nodes, times[interior])
    chi = sys.weights.domain.in_omega(sys.grid.nodes).astype(float)
    out[interior] = -factor * spline(times[interior]) * chi[None, :]
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


def _pair_sup_norm(grid: SpatialGrid, beta: np.ndarray, beta_t: np.ndarray
                   ) -> float:
    return float(np.max(np.sqrt(grid.l2_sq(beta) + grid.l2_sq(beta_t))))


def verify_null_control(beta0: np.ndarray, beta1: np.ndarray,
                        theta1: Theta1Cutoff, sol: HumSolution,
                        sys: QuadraticSystem, eta: EtaProfile,
                        theta: ThetaProfile,
                        a_sampler=None, n_steps: int = 2048
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
    diagnostic.  The grid and the domain are those of the system.
    """
    grid = sys.grid
    times = np.linspace(0.0, sys.t_grid.T, n_steps + 1)
    a = Potential.from_values(a_sampler(times)) if a_sampler else None

    v_vals = control_on_times(sol, sys, eta, theta, times)
    chi = sys.weights.domain.in_omega(grid.nodes)
    support_ok = bool(np.all(v_vals[:, ~chi] == 0.0))

    q_run = solve_forward(grid, beta0, beta1, times, a=a)
    f_vals = assemble_source(theta1, q_run).values

    zero = np.zeros(grid.n)
    batch = solve_forward(grid, np.stack([beta0, beta0, zero]),
                          np.stack([beta1, beta1, zero]), times, a=a,
                          forcing=np.stack([v_vals, -f_vals, v_vals + f_vals]))
    controlled, cutoff_run, g_run = (batch.member(i) for i in range(3))

    scale = max(_pair_sup_norm(grid, controlled.beta, controlled.beta_t),
                1e-300)
    superpos = _pair_sup_norm(
        grid,
        controlled.beta - cutoff_run.beta - g_run.beta,
        controlled.beta_t - cutoff_run.beta_t - g_run.beta_t,
    ) / scale

    th = theta1.eval(times, 0)[:, None]
    th1 = theta1.eval(times, 1)[:, None]
    cutoff_defect = _pair_sup_norm(
        grid,
        cutoff_run.beta - th * q_run.beta,
        cutoff_run.beta_t - (th1 * q_run.beta + th * q_run.beta_t),
    ) / scale

    controlled_T = controlled.terminal_norm()
    uncontrolled_T = q_run.terminal_norm()
    suppression = controlled_T / uncontrolled_T if uncontrolled_T > 0 else 1.0

    dt = times[1] - times[0]
    trap = np.full(times.size, dt)
    trap[0] = trap[-1] = 0.5 * dt
    control_l2 = float(np.sqrt(np.sum(trap * grid.l2_sq(v_vals))))
    data_norm = float(np.sqrt(grid.sobolev_sq(beta0, 3)
                              + grid.sobolev_sq(beta1, 1)))

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
    Returns (system, solution, report, runs): the normal equations, the
    minimizer with the control on t_grid, and the forward verification.
    """
    w = eval_weights(eta, theta, params, grid.nodes, t_grid)
    source = free_source(grid, t_grid, theta1, beta0, beta1, a_sampler)
    a_vals = a_sampler(t_grid.nodes) if a_sampler else None
    system = assemble_hum_system(grid, t_grid, w, source, a_vals=a_vals,
                                 eps_scale=eps_scale)
    sol = minimize_J(system, tol=tol, max_iter=max_iter)
    report, runs = verify_null_control(beta0, beta1, theta1, sol, system,
                                       eta, theta, a_sampler=a_sampler,
                                       n_steps=verify_steps)
    return system, sol, report, runs
