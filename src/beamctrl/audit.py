"""Numerical stress tests of the weighted observability inequality.

Both sides of the estimate are evaluated on families of smooth test
functions: the left side is the `LADDER` of nine weighted derivative
integrals; the right side is the weighted residual of the adjoint operator
(dtt + dtxx + dxxxx, plus the potential in the corollary variant) plus the
localized observation term.  Samples are sums of separable terms,
trigonometric polynomial x envelope, so every derivative is analytic; no
numerical differentiation enters.

Each formula has one home, which every caller goes through:
`derivative_tables` differentiates all terms of any number of samples at
once and `kernel_stack` weights the kernel of every integral at one (s, lam)
point, each row one `weights.weighted_kernel` like HUM's weights.  One
sample's integrals (`integrals`) form its fields with `sample_fields`,
square them and contract them with `_contract`; that path is the
reference.  A family's (`audit_inequality`) expand each squared field of
a sum of separable terms as a quadratic form over the sample's term pairs,
so each product runs over the whole family; only the residual, which mixes
derivatives and the potential, is still formed as one field per sample.  Results stay in one form: an (..., 11) array of integrals in
`kernel_stack` row order, the LADDER rows, then the residual, then the
observation.  `lhs_total` sums the left side of any such array.

The audit is a falsification harness: it calibrates an empirical constant on
one family and checks held-out families and parameter sweeps against it,
reporting rather than hiding violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from .io import StageClock
from .torus import SpatialGrid, TimeGrid
from .weights import OBSERVATION, CarlemanParams, EtaProfile, \
    ThetaProfile, WeightField, eval_weights, weighted_kernel

# The estimate's left side, one row per weighted integral: (name, derivative
# key "ij" with i x- and j t-derivatives, xi power p, s exponent a, lam
# exponent b), so the row is s^a lam^b int xi^p |d psi|^2 e^{-2 s phi}; the
# psi row carries the observation's weight.
LADDER = (
    ("psi", "00", *OBSERVATION),
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
# x- and t-derivative order of each DERIV_KEYS field
_X_ORDER = [int(key[0]) for key in DERIV_KEYS]
_T_ORDER = [int(key[1]) for key in DERIV_KEYS]
# kernel_stack rows: the LADDER, the adjoint residual, the omega observation
N_ROWS = len(LADDER) + 2
# LADDER row indices by xi power, the powers in order of first appearance
_XI_GROUPS = [[r for r, row in enumerate(LADDER) if row[2] == p]
              for p in dict.fromkeys(row[2] for row in LADDER)]
# (t order, row, x order) of the kernel_stack rows that integrate one
# squared field, the LADDER rows and the observation of psi, by t order
_SQUARE_ROWS = sorted([(j, r, i) for r, (i, j)
                       in enumerate(zip(_X_ORDER, _T_ORDER))]
                      + [(0, N_ROWS - 1, 0)])
# OpenBLAS runs a product on one thread while m n k stays below this
_SERIAL_MNK = 4 * 65536


@dataclass(frozen=True)
class SeparableTerm:
    """One product term p(x) * mu(t); `derivative_tables` differentiates it.

    p is a trigonometric polynomial; mu is the envelope exp(-gamma T / t -
    gamma T / (T - t)), which vanishes to all orders at both horizon ends,
    times the polynomial sum_i t_poly[i] (t / T)^i.
    """

    x_coeffs_cos: np.ndarray     # (max_mode + 1,)
    x_coeffs_sin: np.ndarray
    circumference: float
    gamma: float                 # envelope sharpness
    t_poly: np.ndarray           # low-degree modulation in t/T
    T: float


def derivative_tables(samples: Sequence[SpaceTimeSample], x: np.ndarray,
                      t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form derivatives of the K terms of samples, in order.

    Returns the x table, shape (5, K, n_x), whose [i, k] is the i-th
    x-derivative of term k's profile, and the t table, shape (3, n_t, K),
    whose [j, :, k] is the j-th t-derivative of its envelope times
    polynomial.  The terms share one cos/sin phase table, so each
    x-derivative order is one product over all of them; terms of more than
    one circumference raise ValueError.
    """
    terms = [term for smp in samples for term in smp.terms]
    circumferences = {term.circumference for term in terms}
    if len(circumferences) > 1:
        raise ValueError("the terms differ in circumference: "
                         f"{sorted(circumferences)}")
    x = np.asarray(x, dtype=float)
    n_modes = max(max(term.x_coeffs_cos.size, term.x_coeffs_sin.size)
                  for term in terms)
    kap = 2.0 * np.pi * np.arange(n_modes) / circumferences.pop()
    phase = kap[:, None] * x[None, :]
    # coefficients on [cos | sin]; d/dx maps (cos_c, sin_c) to
    # kap (sin_c, -cos_c)
    coef = np.zeros((5, len(terms), 2, n_modes))
    for k, term in enumerate(terms):
        coef[0, k, 0, :term.x_coeffs_cos.size] = term.x_coeffs_cos
        coef[0, k, 1, :term.x_coeffs_sin.size] = term.x_coeffs_sin
    for i in range(4):
        coef[i + 1, :, 0] = kap * coef[i, :, 1]
        coef[i + 1, :, 1] = -kap * coef[i, :, 0]
    x_table = coef.reshape(5, len(terms), -1) @ np.concatenate(
        [np.cos(phase), np.sin(phase)])

    T = np.array([term.T for term in terms])
    gT = np.array([term.gamma for term in terms]) * T
    t = np.asarray(t, dtype=float)[:, None]
    env = np.exp(-gT / t - gT / (T - t))
    w1 = gT / t**2 - gT / (T - t) ** 2
    w2 = -2 * gT / t**3 - 2 * gT / (T - t) ** 3
    env1 = env * w1
    env2 = env * (w1**2 + w2)
    # Horner sums of the polynomial in tau = t / T and its two derivatives
    poly = np.zeros((max(term.t_poly.size for term in terms), len(terms)))
    for k, term in enumerate(terms):
        poly[:term.t_poly.size, k] = term.t_poly
    tau = t / T
    p = dp = ddp = np.zeros_like(tau)
    for coeff in poly[::-1]:
        ddp = ddp * tau + 2 * dp
        dp = dp * tau + p
        p = p * tau + coeff
    dp, ddp = dp / T, ddp / T**2

    t_table = np.empty((3, t.size, len(terms)))
    t_table[0] = env * p
    t_table[1] = env1 * p + env * dp
    t_table[2] = env2 * p + 2 * env1 * dp + env * ddp
    return x_table, t_table


def sample_fields(x_table: np.ndarray, t_table: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The (9, n_t, n_x) DERIV_KEYS fields of one sample's table slices.

    Field "ij" is the (n_t, k) @ (k, n_x) product of its k terms' j-th t- and
    i-th x-derivatives; the nine are one stacked matmul.
    """
    return np.matmul(t_table[_T_ORDER], x_table[_X_ORDER], out=out)


@dataclass(frozen=True)
class SpaceTimeSample:
    """Sum of separable terms; each derivative is one matrix product over them."""

    terms: tuple[SeparableTerm, ...]
    label: str = ""

    def derivs(self, x: np.ndarray, t: np.ndarray) -> dict[str, np.ndarray]:
        """(n_t, n_x) fields by DERIV_KEYS, from `sample_fields`."""
        return dict(zip(DERIV_KEYS,
                        sample_fields(*derivative_tables([self], x, t))))


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


def adjoint_residual(psi: dict[str, np.ndarray],
                     a: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """(dtt + dtxx + dxxxx) psi, plus a * psi when a potential is given.

    The damping term enters with the adjoint (+) sign; the forward beam
    operator carries the opposite one.
    """
    res = np.add(psi["02"], psi["21"], out=out)
    res += psi["40"]
    if a is not None:
        res += a * psi["00"]
    return res


def kernel_stack(w: WeightField, out: np.ndarray | None = None
                 ) -> tuple[np.ndarray, float]:
    """Quadrature-weighted kernels of every integral, shape (11, n_t * n_x).

    Every row is one `weighted_kernel` of w: the LADDER rows with their
    exponents and the residual's e^{-2 s phi} on the space-time quadrature
    weights, and the OBSERVATION on omega's (cells split at its endpoints).
    They are written into `out` when given, such as one point's
    `kernels[:, p]` of an (11, points, n_t * n_x) stack.  Also returns the
    share of grid entries where e^{-2 s phi} is exactly 0.
    """
    quad = w.quad_weights()
    omega_quad = w.t_grid.weights[:, None] * w.domain.omega_cell_weights(
        w.grid.nodes, w.grid.h)
    # the residual row takes quad after the underflow count, which quad
    # could inflate, with the same bits as cells=quad
    rows = [(row[2:], quad) for row in LADDER]
    rows += [((0, 0, 0), 1.0), (OBSERVATION, omega_quad)]
    out = np.empty((N_ROWS, w.phi.size)) if out is None else out
    for r, (exponents, cells) in enumerate(rows):
        weighted_kernel(w.params, w.log_xi, w.neg2s_phi, exponents, cells,
                        out=out[r].reshape(w.phi.shape))
    residual = out[len(LADDER)].reshape(w.phi.shape)
    underflow = float(np.mean(residual == 0.0))
    residual *= quad
    return out, underflow


def _squared_rows(rows: np.ndarray, a: np.ndarray | None = None
                  ) -> np.ndarray:
    """Turn rows[:9], the DERIV_KEYS fields, into the 11 squared densities
    of the kernel_stack rows, in place; rows has shape (11, n_t, n_x)."""
    adjoint_residual(dict(zip(DERIV_KEYS, rows)), a, out=rows[len(LADDER)])
    np.square(rows[:-1], out=rows[:-1])
    rows[-1] = rows[0]
    return rows


def _contract(kernels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(points, 11) integrals of squared rows against an (11, points, N)
    kernel stack: one stacked BLAS product over every point."""
    return np.matmul(kernels, rows.reshape(N_ROWS, -1, 1))[..., 0].T


def integrals(psi: dict[str, np.ndarray], w: WeightField,
              a: np.ndarray | None = None) -> np.ndarray:
    """The (11,) kernel_stack integrals of one sample, whose `psi` maps
    DERIV_KEYS to fields: the LADDER rows, the residual, the observation."""
    rows = np.empty((N_ROWS, *psi["00"].shape))
    np.stack([psi[key] for key in DERIV_KEYS], out=rows[:len(DERIV_KEYS)])
    return _contract(kernel_stack(w)[0][:, None], _squared_rows(rows, a))[0]


@np.errstate(over="ignore", invalid="ignore")     # raised as OverflowError
def _family_integrals(kernels: np.ndarray,
                      samples: Sequence[SpaceTimeSample], x: np.ndarray,
                      t: np.ndarray, a: np.ndarray | None = None
                      ) -> np.ndarray:
    """(points, samples, 11) integrals of one family against an (11,
    points, n_t * n_x) kernel stack, from one `derivative_tables` call.

    A squared field (sum_k T_k X_k)^2 integrates against a kernel K as the
    quadratic form sum_{k<=l} c_kl sum_t T_k T_l (K (X_k X_l)), c_kl 1 on
    the diagonal and 2 off it, over the term pairs within each sample.  So
    every LADDER row and the observation takes, for all samples at once,
    the t pair table of its t order (built once per order), the x pair
    table of its x order, one product per point of the t pairs against the
    kernel, a row-wise dot with the x pairs and an `np.add.reduceat` over
    each sample's pairs.  The products take the pairs in blocks small
    enough for one BLAS thread.  The residual mixes three derivative pairs
    and the potential, so it stays one (n_t, n_x) field per sample,
    squared and contracted against its kernel.

    Against the one-sample fields, the expansion adds a rounding error of
    about eps * sum_{k<=l} |c_kl I_kl| to an integral I, where I_kl are the
    term-pair integrals; |I_kl| <= sqrt(I_kk I_ll), so this stays near eps
    * I unless the terms of a sample nearly cancel.
    """
    n_t, n_x = t.size, x.size
    values = np.empty((kernels.shape[1], len(samples), N_ROWS))
    if not samples:
        return values
    x_table, t_table = derivative_tables(samples, x, t)
    sizes = [len(smp.terms) for smp in samples]
    offsets = np.cumsum([0, *sizes[:-1]])
    first, second = np.array([(o + k, o + l) for o, m in zip(offsets, sizes)
                              for k in range(m) for l in range(k, m)]).T
    coeff = np.where(first == second, 1.0, 2.0)[:, None]
    starts = np.cumsum([0, *(m * (m + 1) // 2 for m in sizes[:-1])])
    n_pairs = first.size
    # blocks of pair rows, zero past the last pair
    block = max(1, (_SERIAL_MNK - 1) // (n_t * n_x))
    t_pairs = np.zeros((-(-n_pairs // block), block, n_t))
    for j, rows in groupby(_SQUARE_ROWS, key=itemgetter(0)):
        t_j = t_table[j].T
        np.multiply(t_j[first], t_j[second],
                    out=t_pairs.reshape(-1, n_t)[:n_pairs])
        for _, r, i in rows:
            x_pairs = x_table[i, first] * x_table[i, second] * coeff
            for p, kernel in enumerate(kernels[r]):
                part = (t_pairs @ kernel.reshape(n_t, n_x)).reshape(-1, n_x)
                values[p, :, r] = np.add.reduceat(
                    np.einsum("ij,ij->i", part[:n_pairs], x_pairs), starts)

    # the residual's (t order, x order) pairs (2, 0), (1, 2), (0, 4)
    t_res = t_table[::-1].transpose(1, 0, 2)
    x_res = x_table[0::2]
    field = np.empty((n_t, n_x))
    for smp, (o, m) in enumerate(zip(offsets, sizes)):
        cols = slice(o, o + m)
        np.matmul(t_res[:, :, cols].reshape(n_t, 3 * m),
                  x_res[:, cols].reshape(3 * m, n_x), out=field)
        if a is not None:
            field += a * (t_table[0, :, cols] @ x_table[0, cols])
        np.square(field, out=field)
        values[:, smp, len(LADDER)] = kernels[len(LADDER)] @ field.ravel()
    if not np.isfinite(values).all():
        raise OverflowError("the audit integrals overflow to inf or nan")
    return values


def lhs_total(values: np.ndarray) -> np.ndarray:
    """The left side of (..., 11) kernel_stack integrals: the LADDER rows
    summed left to right within each xi-power group, then the groups in
    LADDER order."""
    return sum(sum(values[..., r] for r in group) for group in _XI_GROUPS)


class RatioRow(NamedTuple):
    """One sample at one (s, lam) point, in `ratio_rows.csv` column order."""

    family: str
    sample: str
    s: float
    lam: float
    lhs: float
    residual: float
    observation: float
    ratio: float           # lhs / (residual + observation)


@dataclass(frozen=True)
class RatioReport:
    """Per-sample ratios plus family maxima over the (s, lam) grid."""

    rows: list[RatioRow]
    calibration_max: dict[tuple[float, float], float]
    heldout_max: dict[tuple[float, float], float]
    s_grid: list[float]
    lam_grid: list[float]
    kernel_underflow_frac: float   # largest share of e^{-2 s phi} == 0
    # StageClock laps, kept out of the ratios
    timing: dict[str, float] = field(default_factory=dict)

    def heldout_within(self, factor: float) -> bool:
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
    on grid and t_grid, and its kernel_stack is written once into column p
    of one (11, points, n_t * n_x) array.  Each family then takes one
    `_family_integrals` call: one `derivative_tables` call for all its
    samples, each LADDER row and the observation as a quadratic form over
    the term pairs within its samples, with one product of pair tables per
    row and point, and the residual as one squared field per sample.  The
    families run apart, so a sample's bits do not depend on the other
    family.  Besides the kernel stack, memory holds one family's derivative
    tables (5 n_x + 3 n_t entries per term, plus their evaluation's
    temporaries), one t pair table (n_t per term pair) and one field.  At
    the perfbench audit size (64 + 64 samples, 2 points, 256 times, 64
    nodes) the kernel stack is 2.9 MB and tracemalloc's peak over the whole
    call 7.5 MB.  The integrals of all samples form one (points, samples,
    11) array, calibration samples first, from which the left sides, ratios
    and family maxima are array operations.  Rows come out in (s, lam,
    role, sample) order; ratios are deterministic given the family seeds.
    `timing` holds the `StageClock` laps of the kernel stack (weights
    included) and of the samples, which also frees the stack and the
    samples' tables.  Integrals too large for floats raise OverflowError.
    """
    clock = StageClock()
    x, t = grid.nodes, t_grid.nodes
    points = [(float(s), float(lam)) for s in s_grid for lam in lam_grid]
    kernels = np.empty((N_ROWS, len(points), t.size * x.size))
    underflow = max(kernel_stack(eval_weights(
        eta, theta, replace(params, s=s, lam=lam), grid, t_grid),
        out=kernels[:, p])[1] for p, (s, lam) in enumerate(points))
    clock.lap("kernels")

    fams = {"calibration": calibration.generate(),
            "heldout": heldout.generate()}
    # each family on its own, so a sample's bits do not depend on the other
    values = np.concatenate([_family_integrals(kernels, samples, x, t, a)
                             for samples in fams.values()], axis=1)
    lhs = lhs_total(values)
    ratio = lhs / (values[..., -2] + values[..., -1])
    n_cal = len(fams["calibration"])
    maxima = [dict(zip(points, part.max(axis=1, initial=0.0).tolist()))
              for part in (ratio[:, :n_cal], ratio[:, n_cal:])]
    keys = [(role, smp.label, s, lam) for s, lam in points
            for role, samples in fams.items() for smp in samples]
    table = np.stack([lhs, values[..., -2], values[..., -1], ratio], axis=-1)
    rows = [RatioRow(*key, *cols) for key, cols
            in zip(keys, table.reshape(-1, 4).tolist())]
    del kernels, fams, values, keys, table   # freed inside the samples lap
    clock.lap("samples")
    return RatioReport(rows=rows, calibration_max=maxima[0],
                       heldout_max=maxima[1],
                       s_grid=[float(s) for s in s_grid],
                       lam_grid=[float(lam) for lam in lam_grid],
                       kernel_underflow_frac=underflow, timing=clock.timing)
