"""Numerical stress tests of the weighted observability inequality.

Both sides of the estimate are evaluated on families of smooth test
functions: the left side is the seven-term ladder of weighted derivative
integrals; the right side is the weighted residual of the adjoint operator
(dtt + dtxx + dxxxx, plus the potential in the corollary variant) plus the
localized observation term.  Samples are sums of separable terms,
trigonometric polynomial x envelope, so every derivative is analytic; no
numerical differentiation enters.

The audit is a falsification harness: it calibrates an empirical constant on
one family and checks held-out families and parameter sweeps against it,
reporting rather than hiding violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._bumps import bump
from .torus import SpatialGrid, TimeGrid
from .weights import CarlemanParams, EtaProfile, ThetaProfile, \
    WeightField, eval_weights

# The estimate's left side, one row per weighted integral: (name, derivative
# key "ij" with i x- and j t-derivatives, xi power p, s exponent a, lam
# exponent b), so the row is s^a lam^b int xi^p |d psi|^2 e^{-2 s phi}.
LADDER = (
    ("psi", "00", 7, 7, 8),
    ("psi_x", "10", 5, 5, 6),
    ("psi_xx", "20", 3, 3, 4),
    ("psi_t", "01", 3, 3, 4),
    ("psi_tx", "11", 1, 1, 2),
    ("psi_xxx", "30", 1, 1, 2),
    ("psi_tt", "02", -1, -1, 0),
    ("psi_txx", "21", -1, -1, 0),
    ("psi_xxxx", "40", -1, -1, 0),
)
DERIV_KEYS = tuple(row[1] for row in LADDER)


@dataclass(frozen=True)
class SeparableTerm:
    """One product term p(x) * mu(t) with closed-form derivatives."""

    x_coeffs_cos: np.ndarray     # (max_mode + 1,)
    x_coeffs_sin: np.ndarray
    circumference: float
    gamma: float                 # envelope sharpness
    t_poly: np.ndarray           # low-degree modulation in t/T
    T: float
    x_bump: tuple[float, float] | None = None   # (center, halfwidth) variant

    def x_derivs(self, x: np.ndarray, max_order: int = 4) -> np.ndarray:
        out = np.zeros((max_order + 1, x.size))
        if self.x_bump is not None:
            c, w = self.x_bump
            for j in range(max_order + 1):
                out[j] = bump((x - c) / w, j) / w**j
            return out
        k = np.arange(self.x_coeffs_cos.size)
        kap = 2.0 * np.pi * k / self.circumference
        phase = kap[:, None] * x[None, :]
        cos, sin = np.cos(phase), np.sin(phase)
        # d/dx cycles (cos, sin) -> (-sin, cos) -> (-cos, -sin) -> (sin, -cos)
        cycle = ((cos, sin), (-sin, cos), (-cos, -sin), (sin, -cos))
        for j in range(max_order + 1):
            amp = kap**j
            cj, sj = cycle[j % 4]
            out[j] = (amp * self.x_coeffs_cos) @ cj + (amp * self.x_coeffs_sin) @ sj
        return out

    def t_derivs(self, t: np.ndarray) -> np.ndarray:
        """Envelope times polynomial, with first and second derivatives.

        The envelope exp(-gamma T / t - gamma T / (T - t)) vanishes to all
        orders at both horizon ends.
        """
        T, g = self.T, self.gamma
        env = np.exp(-g * T / t - g * T / (T - t))
        w1 = g * T / t**2 - g * T / (T - t) ** 2
        w2 = -2 * g * T / t**3 - 2 * g * T / (T - t) ** 3
        env1 = env * w1
        env2 = env * (w1**2 + w2)

        tau = t / T
        p = np.polyval(self.t_poly[::-1], tau)
        dp = np.polyval(np.polyder(self.t_poly[::-1]), tau) / T
        ddp = np.polyval(np.polyder(self.t_poly[::-1], 2), tau) / T**2

        out = np.empty((3, t.size))
        out[0] = env * p
        out[1] = env1 * p + env * dp
        out[2] = env2 * p + 2 * env1 * dp + env * ddp
        return out


@dataclass(frozen=True)
class SpaceTimeSample:
    """Sum of separable terms; each derivative is one matrix product over them."""

    terms: tuple[SeparableTerm, ...]
    label: str = ""

    def derivs(self, x: np.ndarray, t: np.ndarray) -> dict[str, np.ndarray]:
        """(n_t, n_x) fields by DERIV_KEYS: key "ij" is the (n_t, k) @ (k, n_x)
        product of the k terms' j-th t- and i-th x-derivatives."""
        xd = np.stack([term.x_derivs(x) for term in self.terms], axis=1)
        td = np.stack([term.t_derivs(t) for term in self.terms], axis=2)
        return {key: td[int(key[1])] @ xd[int(key[0])] for key in DERIV_KEYS}


@dataclass(frozen=True)
class TestFunctionFamily:
    """Seeded generator of smooth samples on the closed cylinder."""

    __test__ = False  # bare name confuses pytest collection otherwise

    family_id: str
    seed: int
    n_samples: int
    max_mode: int
    T: float
    circumference: float
    gamma_range: tuple[float, float] = (0.02, 0.08)
    n_terms: tuple[int, int] = (1, 3)

    def generate(self) -> list[SpaceTimeSample]:
        rng = np.random.default_rng(self.seed)
        decay = 1.0 / (1.0 + np.arange(self.max_mode + 1)) ** 1.5
        samples = []
        for idx in range(self.n_samples):
            n_terms = rng.integers(self.n_terms[0], self.n_terms[1] + 1)
            terms = []
            for _ in range(n_terms):
                gamma = rng.uniform(*self.gamma_range)
                t_poly = rng.standard_normal(3)
                terms.append(SeparableTerm(
                    x_coeffs_cos=rng.standard_normal(self.max_mode + 1) * decay,
                    x_coeffs_sin=rng.standard_normal(self.max_mode + 1) * decay,
                    circumference=self.circumference, gamma=gamma,
                    t_poly=t_poly, T=self.T,
                ))
            samples.append(SpaceTimeSample(
                terms=tuple(terms), label=f"{self.family_id}[{idx}]"))
        return samples


@dataclass(frozen=True)
class LhsBreakdown:
    """The weighted integral ladder of the estimate's left side."""

    psi_sq: float            # s^7 lam^8  int xi^7 |psi|^2
    psi_x_sq: float          # s^5 lam^6  int xi^5 |psi_x|^2
    psi_xx_t_sq: float       # s^3 lam^4  int xi^3 (|psi_xx|^2 + |psi_t|^2)
    psi_tx_xxx_sq: float     # s   lam^2  int xi   (|psi_tx|^2 + |psi_xxx|^2)
    psi_high_sq: float       # s^-1       int 1/xi (|psi_tt|^2 + |psi_txx|^2 + |psi_xxxx|^2)
    individual: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_ladder(cls, values: np.ndarray) -> LhsBreakdown:
        """Group the LADDER row values by xi power, in ladder order."""
        ind = {row[0]: float(v) for row, v in zip(LADDER, values)}
        powers = dict.fromkeys(row[2] for row in LADDER)
        return cls(*(sum(ind[row[0]] for row in LADDER if row[2] == p)
                     for p in powers), individual=ind)

    @property
    def total(self) -> float:
        return (self.psi_sq + self.psi_x_sq + self.psi_xx_t_sq
                + self.psi_tx_xxx_sq + self.psi_high_sq)


@dataclass(frozen=True)
class RhsBreakdown:
    residual: float          # int |(dtt + dtxx + dxxxx [+ a]) psi|^2 e^{-2 s phi}
    observation: float       # s^7 lam^8 int_omega xi^7 |psi|^2 e^{-2 s phi}

    @property
    def total(self) -> float:
        return self.residual + self.observation


def adjoint_residual(psi: dict[str, np.ndarray],
                     a: np.ndarray | None = None) -> np.ndarray:
    """(dtt + dtxx + dxxxx) psi, plus a * psi when a potential is given.

    The damping term enters with the adjoint (+) sign; the forward beam
    operator carries the opposite one.
    """
    res = psi["02"] + psi["21"] + psi["40"]
    if a is not None:
        res = res + a * psi["00"]
    return res


def kernel_stack(w: WeightField) -> tuple[np.ndarray, float]:
    """Quadrature-weighted kernels of every integral, shape (11, n_t * n_x).

    Rows: LADDER with s^a lam^b folded in, the residual's e^{-2 s phi}, and
    s^7 lam^8 xi^7 e^{-2 s phi} on omega (cells split at its endpoints).
    Also returns the share of grid entries where e^{-2 s phi} is exactly 0.
    """
    s, lam = w.params.s, w.params.lam
    quad = w.quad_weights()
    omega_quad = w.t_grid.weights[:, None] * w.domain.omega_cell_weights(
        w.grid.nodes, w.grid.h)
    residual_kernel = w.kernel(0)
    rows = [s**a * lam**b * quad * w.kernel(p) for _, _, p, a, b in LADDER]
    rows += [quad * residual_kernel, s**7 * lam**8 * omega_quad * w.kernel(7)]
    return (np.stack(rows).reshape(len(rows), -1),
            float(np.mean(residual_kernel == 0.0)))


def field_stack(psi: dict[str, np.ndarray],
                a: np.ndarray | None = None) -> np.ndarray:
    """The squared densities matching the kernel_stack rows, (11, n_t * n_x)."""
    rows = [psi[key] ** 2 for _, key, _, _, _ in LADDER]
    rows += [adjoint_residual(psi, a) ** 2, rows[0]]
    return np.stack(rows).reshape(len(rows), -1)


def _integrals(psi: dict[str, np.ndarray], w: WeightField,
               a: np.ndarray | None = None) -> np.ndarray:
    return np.einsum("rn,rn->r", kernel_stack(w)[0], field_stack(psi, a))


def lhs_terms(psi: dict[str, np.ndarray], w: WeightField) -> LhsBreakdown:
    """The weighted LADDER of one sample; `psi` maps DERIV_KEYS to fields."""
    return LhsBreakdown.from_ladder(_integrals(psi, w)[:len(LADDER)])


def rhs_terms(psi: dict[str, np.ndarray], w: WeightField,
              a: np.ndarray | None = None) -> RhsBreakdown:
    """Weighted residual plus omega-localized observation."""
    *_, residual, observation = _integrals(psi, w, a)
    return RhsBreakdown(residual=float(residual),
                        observation=float(observation))


@dataclass(frozen=True)
class RatioRow:
    family: str
    sample: str
    s: float
    lam: float
    lhs: float
    residual: float
    observation: float

    @property
    def ratio(self) -> float:
        return self.lhs / (self.residual + self.observation)


@dataclass(frozen=True)
class RatioReport:
    """Per-sample ratios plus family maxima over the (s, lam) grid."""

    rows: list[RatioRow]
    calibration_max: dict[tuple[float, float], float]
    heldout_max: dict[tuple[float, float], float]
    s_grid: list[float]
    lam_grid: list[float]
    kernel_underflow_frac: float   # largest share of e^{-2 s phi} == 0

    def heldout_within(self, factor: float = 10.0) -> bool:
        return all(
            self.heldout_max[key] <= factor * self.calibration_max[key]
            for key in self.calibration_max
        )

    def s_growth_factors(self, lam: float) -> list[float]:
        """Ratio-max growth between consecutive s values at fixed lam."""
        maxima = [max(self.calibration_max[(s, lam)],
                      self.heldout_max[(s, lam)]) for s in self.s_grid]
        return [b / a for a, b in zip(maxima[:-1], maxima[1:])]


def audit_inequality(calibration: TestFunctionFamily,
                     heldout: TestFunctionFamily,
                     eta: EtaProfile, theta: ThetaProfile,
                     params: CarlemanParams, s_grid, lam_grid,
                     grid: SpatialGrid, t_grid: TimeGrid,
                     a: np.ndarray | None = None) -> RatioReport:
    """Measure LHS/RHS ratios for both families over the parameter grid.

    Point (s, lam) samples the weights with `replace(params, s=s, lam=lam)`
    on grid and t_grid, and its kernel_stack is built once.  Samples then
    stream: each one's derivative fields are formed once, squared into its
    field_stack and contracted against all (s, lam) stacks in one einsum,
    so memory holds one sample's fields at a time.  Rows come out in
    (s, lam, role, sample) order; ratios are deterministic given the family
    seeds.
    """
    points = [(float(s), float(lam)) for s in s_grid for lam in lam_grid]
    stacks = [kernel_stack(eval_weights(
        eta, theta, replace(params, s=s, lam=lam), grid, t_grid))
        for s, lam in points]
    kernels = np.stack([stack for stack, _ in stacks])
    fams = [("calibration", calibration.generate()),
            ("heldout", heldout.generate())]
    values = {   # one (n_points, 11) array per sample
        role: [np.einsum("prn,rn->pr", kernels, field_stack(
            smp.derivs(grid.nodes, t_grid.nodes), a)) for smp in samples]
        for role, samples in fams}

    rows: list[RatioRow] = []
    maxima: dict[str, dict[tuple[float, float], float]] = {}
    for p, (s, lam) in enumerate(points):
        for role, samples in fams:
            worst = 0.0
            for smp, v in zip(samples, values[role]):
                *ladder, residual, observation = v[p]
                rows.append(RatioRow(
                    family=role, sample=smp.label, s=s, lam=lam,
                    lhs=LhsBreakdown.from_ladder(ladder).total,
                    residual=float(residual), observation=float(observation)))
                worst = max(worst, rows[-1].ratio)
            maxima.setdefault(role, {})[(s, lam)] = worst
    return RatioReport(rows=rows, calibration_max=maxima["calibration"],
                       heldout_max=maxima["heldout"],
                       s_grid=[float(s) for s in s_grid],
                       lam_grid=[float(lam) for lam in lam_grid],
                       kernel_underflow_frac=max(f for _, f in stacks))
