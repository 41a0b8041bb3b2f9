"""Periodic spatial grid, spectral calculus, and interior-node time grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform nodes on a circle of the given circumference.

    Fields are real nodal arrays; transforms use the real FFT so Hermitian
    symmetry is structural.  Derivatives are exact for band-limited data, with
    the Nyquist mode zeroed for odd orders (its sign is not representable).
    """

    n: int
    circumference: float
    x0: float = 0.0

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise ValueError("grid size must be even and at least 4")
        if self.circumference <= 0:
            raise ValueError("circumference must be positive")

    @property
    def h(self) -> float:
        return self.circumference / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.n)

    @property
    def kappa(self) -> np.ndarray:
        """Angular wavenumbers 2*pi*k/circumference for the rfft modes."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.h)

    def to_modes(self, u: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        return np.fft.rfft(u, axis=-1, out=out)

    def to_nodes(self, u_hat: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        return np.fft.irfft(u_hat, n=self.n, axis=-1, out=out)

    def deriv(self, u: np.ndarray, order: int) -> np.ndarray:
        """Spectral derivative of the given order along the last axis."""
        if order == 0:
            return np.array(u, dtype=float, copy=True)
        u_hat = self.to_modes(u)
        symbol = (1j * self.kappa) ** order
        if order % 2:
            symbol = symbol.copy()
            symbol[-1] = 0.0
        return self.to_nodes(u_hat * symbol)

    def l2_sq(self, u: np.ndarray) -> float | np.ndarray:
        """Squared L2 norm over the circle (nodal rectangle rule, exact for
        trigonometric polynomials)."""
        return self.h * np.sum(np.asarray(u) ** 2, axis=-1)

    def l2(self, u: np.ndarray) -> float | np.ndarray:
        return np.sqrt(self.l2_sq(u))

    def pair_norm(self, beta: np.ndarray, beta_t: np.ndarray) -> np.ndarray:
        """L2 x L2 norm of the state pair (beta, beta_t), one per row."""
        return np.sqrt(self.l2_sq(beta) + self.l2_sq(beta_t))

    @property
    def mode_mult(self) -> np.ndarray:
        """Each rfft mode's multiplicity in the full spectrum (Parseval):
        |u|_L2^2 = circumference / n^2 * sum_k mode_mult_k |rfft(u)_k|^2."""
        return np.r_[1.0, np.full(self.n // 2 - 1, 2.0), 1.0]

    def sobolev_sq(self, u: np.ndarray, order: int) -> float:
        """Squared H^order norm via the modal sum of (1 + kappa^2)^order."""
        u_hat = self.to_modes(np.asarray(u, dtype=float)) / self.n
        weight = (1.0 + self.kappa**2) ** order
        return float(self.circumference * np.sum(
            self.mode_mult * weight * np.abs(u_hat) ** 2))

    def data_norm(self, b0: np.ndarray, b1: np.ndarray) -> float:
        """The H^3 x H^1 norm of the data (b0, b1)."""
        return float(np.sqrt(self.sobolev_sq(b0, 3) + self.sobolev_sq(b1, 1)))


@dataclass(frozen=True)
class TimeGrid:
    """Quadrature nodes strictly inside (0, T) with matching weights."""

    nodes: np.ndarray
    weights: np.ndarray
    T: float

    def __post_init__(self):
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must be matching 1D arrays")
        if np.any(self.nodes <= 0.0) or np.any(self.nodes >= self.T):
            raise ValueError("time nodes must lie strictly inside (0, T)")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("time nodes must be strictly increasing")

    @property
    def n(self) -> int:
        return self.nodes.size


def trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoid weights on the uniform grid `times`, halved at both ends."""
    trap = np.full(times.size, times[1] - times[0])
    trap[0] = trap[-1] = 0.5 * trap[0]
    return trap


def uniform_interior(T: float, n: int) -> TimeGrid:
    """Midpoint grid: nodes (i + 1/2) T/n, each carrying weight T/n."""
    dt = T / n
    nodes = dt * (np.arange(n) + 0.5)
    return TimeGrid(nodes, np.full(n, dt), T)


def gauss_panels(T: float, breakpoints: np.ndarray, n_nodes: int) -> TimeGrid:
    """Composite Gauss-Legendre grid on (0, T) aligned with the breakpoints.

    Panels of 8 nodes are distributed over the sub-intervals between
    consecutive breakpoints proportionally to their length (at least one
    panel each), targeting roughly ``n_nodes`` total nodes.
    """
    pts = np.unique(np.clip(np.asarray(breakpoints, dtype=float), 0.0, T))
    pts = np.concatenate([[0.0], pts[(pts > 0) & (pts < T)], [T]])
    lengths = np.diff(pts)
    n_panels = max(len(lengths), n_nodes // 8)
    alloc = np.maximum(1, np.round(n_panels * lengths / T).astype(int))
    gx, gw = leggauss(8)
    nodes, weights = [], []
    for (a, b), m in zip(zip(pts[:-1], pts[1:]), alloc):
        edges = np.linspace(a, b, m + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            nodes.append(0.5 * (hi + lo) + half * gx)
            weights.append(half * gw)
    return TimeGrid(np.concatenate(nodes), np.concatenate(weights), T)
