"""Construction and auditing of the exponential space-time weights.

The weights live on the torus (-L, d+L] with the two-interval observation
collar omega = (-L, 0) u (d, d+L).  A positive spatial profile `eta` with no
critical point outside omega and a temporal profile `theta` blowing up like
1/t^2 and 1/(T-t)^2 at the ends combine into

    phi = theta * (exp(6*lam*M) - exp(lam*(eta + 4*M))),
    xi  = theta * exp(lam*(eta + 4*M)),          M = sup |eta|,

whose derivative fields obey a ledger of pointwise bounds of the form
|d phi| <= C lam^i xi^p.  `audit_derivative_bounds` measures the empirical
constants of that ledger on a grid and the positivity floor of the spatial
xi-derivatives on [0, d].
`weighted_kernel` forms every weight s^a lam^b xi^p e^{-2 s phi} of the
estimate and of its HUM functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial

from ._bumps import corner_blend
from .torus import SpatialGrid, TimeGrid, gauss_panels

ETA_SCAN_SIZE = 8192
POSITIVITY_OFFSET_FRACTION = 0.05


class ConstructionError(ValueError):
    """A weight profile failed one of its certified construction checks."""


@dataclass(frozen=True)
class DomainSpec:
    """Beam interior span d, collar half-width L, and horizon T.

    The torus is (-L, d+L] with circumference d + 2L; the observation region
    is the open union (-L, 0) u (d, d+L).
    """

    d: float
    L: float
    T: float

    def __post_init__(self):
        if self.d <= 0 or self.L <= 0 or self.T <= 0:
            raise ValueError("d, L and T must all be positive")

    @property
    def circumference(self) -> float:
        return self.d + 2.0 * self.L

    @property
    def omega(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((-self.L, 0.0), (self.d, self.d + self.L))

    def in_omega(self, x: np.ndarray) -> np.ndarray:
        """Strict indicator of the open observation region."""
        x = self.wrap(x)
        (a1, b1), (a2, b2) = self.omega
        return ((x > a1) & (x < b1)) | ((x > a2) & (x < b2))

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Map positions into the fundamental domain (-L, d+L]."""
        M = self.circumference
        return -self.L + np.mod(np.asarray(x, dtype=float) + self.L, M)

    def omega_cell_weights(self, x_nodes: np.ndarray, h: float) -> np.ndarray:
        """Quadrature weights for integrals over omega.

        Each node owns the cell [x - h/2, x + h/2); the weight is the measure
        of the cell's intersection with omega, so cells are split exactly at
        the omega endpoints.
        """
        M = self.circumference
        w = np.zeros_like(np.asarray(x_nodes, dtype=float))
        lo = self.wrap(x_nodes) - 0.5 * h
        hi = lo + h
        for a, b in self.omega:
            for shift in (-M, 0.0, M):
                w += np.clip(np.minimum(hi, b + shift) - np.maximum(lo, a + shift),
                             0.0, None)
        return w


@dataclass(frozen=True)
class CarlemanParams:
    """Large parameter s, sharpness lam, junction times, and the free
    absorption parameter zeta (kept exact as a rational)."""

    s: float
    lam: float
    T0: float
    T1: float
    zeta: Fraction = Fraction(1)

    def __post_init__(self):
        if self.s < 1.0 or self.lam < 1.0:
            raise ValueError("s and lam must both be >= 1")
        if not (0.0 < self.T0 < 1.0) or not (0.0 < self.T1 < 1.0):
            raise ValueError(
                "T0 and T1 must lie in (0, 1) so the blow-up pieces exceed the "
                "plateau value 1"
            )

    def validate_horizon(self, T: float) -> None:
        if not 2.0 * self.T0 + 2.0 * self.T1 < T:
            raise ValueError("junction times must satisfy 2*T0 + 2*T1 < T")


@dataclass(frozen=True)
class EtaProfile:
    """Mollified two-extremum spatial profile with analytic derivatives.

    The profile rises linearly from a minimum at -L/2 to a maximum at d + L/2
    and falls linearly across the seam; both corners are rounded by a
    compactly supported mollifier whose radius keeps the rounding strictly
    inside omega.  Off omega the profile is exactly linear, so the slope
    floor there is a certificate, not an accident.  `derivs` scales the
    mollified tent by `scale` and adds `shift` to its values; `build_eta`
    fixes both and measures `eta_max` and `slope_floor` on its scan.
    """

    domain: DomainSpec
    mollify_radius: float
    scale: float
    shift: float
    eta_max: float
    slope_floor: float

    @property
    def corners(self) -> tuple[float, float]:
        return (-0.5 * self.domain.L, self.domain.d + 0.5 * self.domain.L)

    def derivs(self, x: np.ndarray, max_order: int = 6) -> np.ndarray:
        """Stack eta, eta', ..., eta^(max_order) at x, shape (len(x),
        max_order + 1): the tent plus one `corner_blend` stack per corner."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        dom = self.domain
        M = dom.circumference
        rise = dom.d + dom.L
        s_up = 1.0 / rise
        s_dn = 1.0 / dom.L
        c0, c1 = self.corners
        p = np.mod(x - c0, M)
        rising = p <= rise
        tent = np.where(rising, s_up * p, 1.0 - s_dn * (p - rise))
        tent_d1 = np.where(rising, s_up, -s_dn)
        jump = s_up + s_dn
        r = self.mollify_radius
        # each corner's displacement, wrapped into (-M/2, M/2]
        z0, z1 = (z - M * np.round(z / M) for z in (x - c0, x - c1))
        out = jump * (corner_blend(z0, r, max_order)
                      - corner_blend(z1, r, max_order))
        for j, piece in enumerate((tent, tent_d1)[:max_order + 1]):
            out[:, j] += piece
        out *= self.scale
        out[:, 0] += self.shift
        return out


def build_eta(domain: DomainSpec, eta_scale: float = 0.1,
              mollify_radius: float | None = None) -> EtaProfile:
    """Construct the spatial profile and certify its slope and positivity.

    Raises ConstructionError if the dense scan finds a nonpositive value, a
    vanishing slope off omega, or a critical point outside omega.
    """
    if eta_scale <= 0:
        raise ValueError("eta_scale must be positive")
    if mollify_radius is None:
        mollify_radius = domain.L / 8.0
    if not 0.0 < mollify_radius < domain.L / 4.0:
        raise ValueError("mollify_radius must lie in (0, L/4)")

    offset = POSITIVITY_OFFSET_FRACTION * eta_scale
    proto = EtaProfile(domain=domain, mollify_radius=mollify_radius,
                       scale=1.0, shift=0.0, eta_max=0.0, slope_floor=0.0)
    M = domain.circumference
    x_scan = -domain.L + M * np.arange(ETA_SCAN_SIZE) / ETA_SCAN_SIZE
    raw = proto.derivs(x_scan, max_order=1)
    mn, mx = float(raw[:, 0].min()), float(raw[:, 0].max())
    scale = eta_scale / (mx - mn)
    # the scaled minimum lands on the positivity offset
    profile = replace(proto, scale=scale, shift=offset - scale * mn)
    # profile.derivs(x_scan, 1), from the unit scan in the same operations
    eta_vals, eta_slope = raw[:, 0] * scale + profile.shift, raw[:, 1] * scale

    if eta_vals.min() <= 0.0:
        raise ConstructionError("profile is not strictly positive")
    off_omega = ~domain.in_omega(x_scan)
    slope_floor = float(np.abs(eta_slope[off_omega]).min())
    if slope_floor <= 0.0:
        raise ConstructionError(
            "slope floor off omega is not positive; mollification bled outside"
        )
    sign_change = np.flatnonzero(eta_slope[:-1] * eta_slope[1:] <= 0.0)
    crit_x = x_scan[sign_change]
    if crit_x.size and not np.all(domain.in_omega(crit_x)):
        raise ConstructionError("found a critical point outside omega")

    return replace(profile, slope_floor=slope_floor,
                   eta_max=float(eta_vals.max()))


@dataclass(frozen=True)
class ThetaProfile:
    """Five-piece temporal profile with C4 junctions.

    1/t^2 on (0, T0], a strictly decreasing degree-9 Hermite blend to the
    plateau value 1 on [T0, 2*T0], the plateau, a strictly increasing blend on
    [T - 2*T1, T - T1], and 1/(T-t)^2 on [T - T1, T).
    """

    T: float
    T0: float
    T1: float
    # each blend's derivatives of orders 0..4, built once
    _blend_down: tuple[Polynomial, ...] = field(repr=False)
    _blend_up: tuple[Polynomial, ...] = field(repr=False)

    @property
    def junctions(self) -> tuple[float, float, float, float]:
        return (self.T0, 2 * self.T0, self.T - 2 * self.T1, self.T - self.T1)

    def gauss_grid(self, n_nodes: int) -> TimeGrid:
        """The audits' time grid: Gauss panels split at the junctions."""
        return gauss_panels(self.T, np.array(self.junctions), n_nodes)

    def eval(self, t: np.ndarray, order: int = 0) -> np.ndarray:
        if order > 4:
            raise ValueError("theta derivatives available up to order 4")
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t <= 0.0) or np.any(t >= self.T):
            raise ValueError("theta is evaluated strictly inside (0, T)")
        j1, j2, j3, j4 = self.junctions
        out = np.empty_like(t)

        m = t <= j1
        out[m] = _inv_sq(t[m], order)
        m = (t > j1) & (t < j2)
        out[m] = self._blend_down[order](t[m])
        m = (t >= j2) & (t <= j3)
        out[m] = 1.0 if order == 0 else 0.0
        m = (t > j3) & (t < j4)
        out[m] = self._blend_up[order](t[m])
        m = t >= j4
        out[m] = _inv_sq_mirror(self.T, t[m], order)
        return out


def _inv_sq(t: np.ndarray, order: int) -> np.ndarray:
    """order-th derivative of 1/t^2."""
    return (-1.0) ** order * math.factorial(order + 1) / t ** (order + 2)


def _inv_sq_mirror(T: float, t: np.ndarray, order: int) -> np.ndarray:
    """order-th derivative of 1/(T-t)^2 (all derivatives positive)."""
    return (-1.0) ** order * _inv_sq(T - t, order)


def _hermite_blend(a: float, b: float, left, right) -> Polynomial:
    """The degree-9 polynomial on [a, b] whose derivatives of orders 0..4
    are `left` at a and `right` at b.

    Its coefficients in w = (2t - a - b) / (b - a) solve the 10 end
    conditions p^(j)(-1) = left_j r^j, p^(j)(1) = right_j r^j, r = (b - a)/2.
    The window [-1, 1] keeps the power basis well conditioned: on [0, 1]
    the coefficients reach ~200 times the values and the blend loses about
    two digits against the Bernstein form.
    """
    r = 0.5 * (b - a)
    # d^j/dw^j w^k at w = 1 is k! / (k - j)!, zero for k < j; at w = -1 it
    # carries the sign (-1)^(k - j)
    at_one = np.array([[math.perm(k, j) for k in range(10)] for j in range(5)],
                      dtype=float)
    at_minus_one = at_one * (-1.0) ** np.subtract.outer(range(5), range(10))
    values = [d * r**j for ders in (left, right) for j, d in enumerate(ders)]
    return Polynomial(np.linalg.solve(np.vstack([at_minus_one, at_one]),
                                      values),
                      domain=[a, b], window=[-1.0, 1.0])


def build_theta(params: CarlemanParams, T: float) -> ThetaProfile:
    """Build theta and certify blend monotonicity by a derivative sign scan."""
    params.validate_horizon(T)
    T0, T1 = params.T0, params.T1
    plateau = [1.0, 0.0, 0.0, 0.0, 0.0]

    left_vals = [_inv_sq(np.array([T0]), j)[0] for j in range(5)]
    blend_down = _hermite_blend(T0, 2 * T0, left_vals, plateau)
    right_vals = [_inv_sq_mirror(T, np.array([T - T1]), j)[0] for j in range(5)]
    blend_up = _hermite_blend(T - 2 * T1, T - T1, plateau, right_vals)

    for blend, (a, b), sign, name in (
        (blend_down, (T0, 2 * T0), -1.0, "decreasing"),
        (blend_up, (T - 2 * T1, T - T1), +1.0, "increasing"),
    ):
        ts = np.linspace(a, b, 2049)[1:-1]
        d1 = blend.deriv(1)(ts)
        if np.any(sign * d1 <= 0.0):
            raise ConstructionError(
                f"theta blend on [{a}, {b}] failed its {name} certification"
            )
        if np.any(blend(ts) < 1.0):
            raise ConstructionError("theta blend dips below the plateau value 1")

    down, up = (tuple(blend.deriv(j) for j in range(5))
                for blend in (blend_down, blend_up))
    return ThetaProfile(T=T, T0=T0, T1=T1, _blend_down=down, _blend_up=up)


# weight-field assembly ------------------------------------------------------

def weight_formulas(eta_val, eta_max: float, theta_val, lam: float,
                    s: float = 1.0):
    """phi, xi, log(xi) and -2 s phi from profile values, broadcast together.

    The one place the weight formulas are written; at theta = 1 phi and xi
    are the spatial profiles exp(6 lam M) - exp(lam (eta + 4M)) and
    exp(lam (eta + 4M)).
    """
    expo = lam * (np.asarray(eta_val) + 4.0 * eta_max)
    G = np.exp(expo)
    phi = theta_val * (math.exp(6.0 * lam * eta_max) - G)
    return phi, theta_val * G, np.log(theta_val) + expo, -2.0 * s * phi


# (p, a, b) of the observation term, of W2 and of the control's weight
OBSERVATION = (7, 7, 8)


def weighted_kernel(params: CarlemanParams, log_xi, neg2s_phi, exponents,
                    cells=1.0, out: np.ndarray | None = None) -> np.ndarray:
    """s^a lam^b xi^p e^{-2 s phi} times `cells` for exponents (p, a, b):
    every weighted kernel of the audit and of HUM.  xi^p e^{-2 s phi} comes
    from log(xi) and -2 s phi, so it does not overflow near the horizon
    ends; `cells` (quadrature weights, an omega indicator) joins s^a lam^b
    before the product."""
    p, a, b = exponents
    return np.multiply(params.s**a * params.lam**b * cells,
                       np.exp(p * log_xi + neg2s_phi), out=out)


# the derivative ledger: (name, family, x-order i, t-order j) per entry; the
# entry is bounded by lam^i xi^(1 + j/2)
_X_ONLY = [(i, 0) for i in (1, 2, 3, 4)]
_TIMED = [(0, 1), (0, 2), (1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]
LEDGER = tuple(
    (f"{fam}_x{i}" if j == 0 else f"{fam}_{'t' * j}{'x' * i}", fam, i, j)
    for fam, orders in (("phi", _X_ONLY + _TIMED), ("xi", _TIMED + _X_ONLY))
    for i, j in orders)


@dataclass(frozen=True)
class WeightField:
    """Sampled weights and every derivative the bound ledger references.

    The field carries the profiles, the parameters and the space and time
    grids it was sampled on; its consumers read them here.
    Arrays are time-major with shape (n_t, n_x); `ledger` maps each `LEDGER`
    name, in table order, to its derivative field.  Exponentials of phi are
    carried in the log domain: `neg2s_phi` stores -2*s*phi and `log_xi`
    stores log(xi), from which `weighted_kernel` assembles every weighted
    kernel.
    """

    eta: EtaProfile          # the sampled profiles
    theta: ThetaProfile
    params: CarlemanParams
    grid: SpatialGrid        # the sampling grids
    t_grid: TimeGrid
    eta_nodes: np.ndarray    # eta at the grid's nodes
    phi: np.ndarray
    xi: np.ndarray
    ledger: dict[str, np.ndarray]
    log_xi: np.ndarray
    neg2s_phi: np.ndarray

    @property
    def domain(self) -> DomainSpec:
        return self.eta.domain

    def quad_weights(self) -> np.ndarray:
        """Space-time quadrature weights, shape (n_t, n_x)."""
        return self.t_grid.weights[:, None] * self.grid.h


def eval_weights(eta: EtaProfile, theta: ThetaProfile, params: CarlemanParams,
                 grid: SpatialGrid, t_grid: TimeGrid) -> WeightField:
    """Sample phi, xi and their derivative ledger on the nodes of grid and
    t_grid; the returned field carries both grids.

    All derivatives come from the chain-rule formulas in eta', .., eta'''' and
    theta', theta''; nothing is differenced numerically.  The xi entry
    (i, j) is theta^(j) * (P_i * G), with G the spatial xi profile and P_i
    the Faa di Bruno polynomial of d^i/dx^i exp(lam * eta) (P_0 = 1); the
    phi entry is its negation for i >= 1 and theta^(j) times the spatial phi
    profile for i = 0.  A grid whose circumference differs from eta's domain,
    or a t_grid whose T differs from theta's (relative 1e-12), raises
    ValueError naming it.
    """
    for name, got, want in (("grid", grid.circumference,
                             eta.domain.circumference),
                            ("t_grid", t_grid.T, theta.T)):
        if not np.isclose(got, want, rtol=1e-12, atol=0.0):
            raise ValueError(f"{name} spans {got!r}, its profile {want!r}")
    lam, s = params.lam, params.s
    m = eta.eta_max
    if 6.0 * lam * m > 500.0:
        raise ValueError("lam * eta_max too large for direct exponentials")

    ed = eta.derivs(grid.nodes, max_order=4)
    e1, e2, e3, e4 = ed[:, 1], ed[:, 2], ed[:, 3], ed[:, 4]
    P = {
        0: 1.0,
        1: lam * e1,
        2: lam * e2 + lam**2 * e1**2,
        3: lam * e3 + 3 * lam**2 * e1 * e2 + lam**3 * e1**3,
        4: (lam * e4 + 4 * lam**2 * e1 * e3 + 3 * lam**2 * e2**2
            + 6 * lam**3 * e1**2 * e2 + lam**4 * e1**4),
    }
    profile, G, _, _ = weight_formulas(ed[:, 0], m, 1.0, lam)
    th = [theta.eval(t_grid.nodes, j)[:, None] for j in (0, 1, 2)]

    phi, xi, log_xi, neg2s_phi = weight_formulas(ed[:, 0], m, th[0], lam, s)
    xi_d = {(i, j): th[j] * (P[i] * G)
            for _, fam, i, j in LEDGER if fam == "xi"}
    ledger = {name: xi_d[i, j] if fam == "xi"
              else -xi_d[i, j] if i else th[j] * profile
              for name, fam, i, j in LEDGER}
    return WeightField(
        eta=eta, theta=theta, params=params, grid=grid, t_grid=t_grid,
        eta_nodes=ed[:, 0], phi=phi, xi=xi, ledger=ledger, log_xi=log_xi,
        neg2s_phi=neg2s_phi,
    )


# bound auditing -------------------------------------------------------------

@dataclass(frozen=True)
class BoundRecord:
    inequality: str
    constant: float
    passed: bool
    x_at: float
    t_at: float


@dataclass(frozen=True)
class PositivityRecord:
    order: int
    floor: float
    passed: bool


@dataclass(frozen=True)
class BoundReport:
    """Empirical constants for the derivative-bound ledger at one (s, lam)."""

    s: float
    lam: float
    records: list[BoundRecord]
    positivity: list[PositivityRecord]
    identity_defect: float  # max |d^i phi + d^i xi| over i = 1..4

    def by_name(self) -> dict[str, float]:
        return {r.inequality: r.constant for r in self.records}

    def rows(self):
        for r in self.records:
            yield (r.inequality, r.constant, int(r.passed), r.x_at, r.t_at)
        for p in self.positivity:
            yield (f"xi_x{p.order}_positivity_floor", p.floor, int(p.passed),
                   float("nan"), float("nan"))


# nodes whose ratio lies within this many ulps of the constant tie with it
_TIE_ULPS = 16


def audit_derivative_bounds(w: WeightField) -> BoundReport:
    """Measure max |LHS| / majorant for every inequality in the ledger.

    The phi and xi families share the same majorants; positivity of the
    spatial xi-derivatives is scanned on the beam interior [0, d] only, where
    the profile construction guarantees a strictly positive floor.  Nodes
    within `_TIE_ULPS` ulps of the constant tie with it (the non-finite
    nodes, for a non-finite constant): |eta'| is constant on the linear
    pieces of eta, so whole runs of nodes tie up to rounding.  The
    maximizer (x_at, t_at) is the first column holding a tie, then that
    column's first tied row; both node arrays increase, so it is the
    smallest x, then the earliest t, among the tied nodes.
    """
    lam = w.params.lam
    x_nodes, t_nodes = w.grid.nodes, w.t_grid.nodes
    xi_pow = {j: w.xi ** (1 + j / 2) for j in (0, 1, 2)}
    records = []
    for name, _, i, j in LEDGER:
        ratio = np.abs(w.ledger[name]) / (lam**i * xi_pow[j])
        c = float(np.max(ratio))
        tie = ratio >= c - _TIE_ULPS * np.spacing(c) if np.isfinite(c) \
            else ~np.isfinite(ratio)
        col = np.argmax(tie.any(axis=0))
        # theta cancels from the x-only ratios, so no time row is the maximizer
        records.append(BoundRecord(
            inequality=name, constant=c, passed=bool(np.isfinite(c)),
            x_at=float(x_nodes[col]),
            t_at=float("nan") if j == 0
            else float(t_nodes[np.argmax(tie[:, col])]),
        ))

    interior = (x_nodes >= 0.0) & (x_nodes <= w.domain.d)
    positivity = []
    for i in (1, 2, 3, 4):
        floor = float(np.min(w.ledger[f"xi_x{i}"][:, interior]
                             / (lam**i * w.xi[:, interior])))
        positivity.append(PositivityRecord(order=i, floor=floor,
                                           passed=floor > 0.0))

    defect = max(float(np.max(np.abs(w.ledger[f"phi_x{i}"]
                                     + w.ledger[f"xi_x{i}"])))
                 for i in (1, 2, 3, 4))
    return BoundReport(s=w.params.s, lam=lam, records=records,
                       positivity=positivity, identity_defect=defect)


@dataclass(frozen=True)
class LambdaSweep:
    """Bound audits across a lam sweep, with per-inequality growth factors,
    and the weight field and bound audit at params.lam."""

    lams: list[float]
    reports: list[BoundReport]
    growth: dict[str, float]          # max over adjacent lam pairs of C_hi/C_lo
    positivity_threshold: float | None  # smallest lam with all floors positive
    base: WeightField                 # the field at params.lam
    base_report: BoundReport          # its bound audit

    def stable(self, factor: float = 2.0) -> bool:
        return all(g < factor for g in self.growth.values())


def sweep_lambda_bounds(eta: EtaProfile, theta: ThetaProfile,
                        params: CarlemanParams, lams, grid: SpatialGrid,
                        t_grid: TimeGrid) -> LambdaSweep:
    """Audit the bound ledger for each lam and flag any growing constant.

    Point lam samples the weights with `replace(params, lam=lam)` on grid
    and t_grid, once per distinct lam.  params.lam, swept or not, comes
    last; its field and audit are kept as `base` and `base_report`, so no
    other field outlives its point.  `reports` holds the swept lams only.
    A constant growing without bound along the sweep signals a defect in
    the eta/theta construction; the reported growth factor is the largest
    adjacent-step increase.
    """
    lams = sorted(float(l) for l in lams)
    by_lam = {}
    for lam in [*dict.fromkeys(l for l in lams if l != params.lam),
                params.lam]:
        w = eval_weights(eta, theta, replace(params, lam=lam), grid, t_grid)
        by_lam[lam] = audit_derivative_bounds(w)
    reports = [by_lam[lam] for lam in lams]

    growth: dict[str, float] = {}
    for name in reports[0].by_name():
        consts = [r.by_name()[name] for r in reports]
        growth[name] = max(
            (hi / lo if lo > 0 else float("inf"))
            for lo, hi in zip(consts[:-1], consts[1:])
        ) if len(consts) > 1 else 1.0

    threshold = None
    for lam, rep in zip(lams, reports):
        if all(p.passed for p in rep.positivity):
            threshold = lam
            break
    return LambdaSweep(lams=lams, reports=reports, growth=growth,
                       positivity_threshold=threshold, base=w,
                       base_report=by_lam[params.lam])
