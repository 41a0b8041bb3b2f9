"""Compactly supported C-infinity bump kernels and smoothstep utilities.

The standard bump g(u) = exp(-1/(1-u^2)) on (-1,1) underlies two
constructions in this package: the mollifier that rounds the corners of the
spatial weight profile, and the smooth time cutoff used by the control
synthesis.  With w = 1 - u^2 its derivatives are g^(j) = p_j(u) g /
w^(2j), where p_0 = 1 and p_{j+1} = p_j' w^2 - 2 u p_j + 4 j u w p_j; the
smoothstep and its first two derivatives are written in closed form.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import leggauss

_MAX_BUMP_ORDER = 4


def _bump_numerators(max_order: int) -> list[Polynomial]:
    """Q_j with p_j(u) = u^(j mod 2) Q_j(w): p_j has the parity of j, and
    powers of w cancel far less than powers of u where g / w^(2j) peaks."""
    u = Polynomial([0.0, 1.0])
    w = 1.0 - u**2
    p = Polynomial([1.0])
    out = []
    for j in range(max_order + 1):
        out.append(Polynomial(p.coef[j % 2::2])(Polynomial([1.0, -1.0])))
        p = p.deriv() * w**2 - 2.0 * u * p + 4.0 * j * u * w * p
    return out


_BUMP_NUMERATORS = _bump_numerators(_MAX_BUMP_ORDER)

# unit-bump mass int_{-1}^{1} g as scipy.integrate.quad returns it; it
# normalizes the mollifier to unit integral
BUMP_MASS = 0.44399381616807865

_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(64)


def bump(u: np.ndarray, order: int = 0) -> np.ndarray:
    """Derivative of order `order` of exp(-1/(1-u^2)), zero for |u| >= 1."""
    if order > _MAX_BUMP_ORDER:
        raise ValueError(f"bump derivatives available up to order {_MAX_BUMP_ORDER}")
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0 - 1e-12
    if np.any(inside):
        ui = u[inside]
        w = 1.0 - ui * ui
        out[inside] = ui ** (order % 2) * _BUMP_NUMERATORS[order](w) \
            * np.exp(-1.0 / w) / w ** (2 * order)
    return out


def mollifier(y: np.ndarray, radius: float, order: int = 0) -> np.ndarray:
    """Derivatives of the unit-mass mollifier of the given support radius."""
    y = np.asarray(y, dtype=float)
    scale = 1.0 / (BUMP_MASS * radius ** (order + 1))
    return scale * bump(y / radius, order)


def _gauss_integral(lo: np.ndarray, hi: np.ndarray, f) -> np.ndarray:
    """Vectorized fixed-order Gauss quadrature of f over [lo, hi] per entry."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[..., None] + half[..., None] * _GAUSS_NODES
    vals = f(nodes)
    return half * (vals @ _GAUSS_WEIGHTS)


def corner_blend(z: np.ndarray, radius: float, order: int = 0) -> np.ndarray:
    """Derivatives of B = H - max(z, 0), H = mollifier * max(z, 0) the
    smoothed hinge; B is zero for |z| >= radius, where the unit mass and
    zero first moment of the kernel make H = max(z, 0) exactly.

    Adding `jump * B(x - c)` to a piecewise-linear function whose slope jumps
    by `jump` at the corner c replaces the corner with a C-infinity blend and
    leaves the function untouched at distance >= radius.
    """
    z = np.asarray(z, dtype=float)
    if order >= 2:
        return mollifier(z, radius, order - 2)
    out = np.zeros(z.shape)
    trans = np.abs(z) < radius
    if np.any(trans):
        zt = z[trans]
        lo = np.full_like(zt, -radius)
        if order == 0:
            hinge = _gauss_integral(
                lo, zt, lambda y: mollifier(y, radius) * (zt[..., None] - y))
        else:
            hinge = _gauss_integral(lo, zt, lambda y: mollifier(y, radius))
        out[trans] = hinge - np.where(zt > 0, zt if order == 0 else 1.0, 0.0)
    return out


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + e^{-x}); exp only sees -|x|, so it cannot
    overflow, and it stays finite at x = +-inf."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def smoothstep(u: np.ndarray, order: int = 0) -> np.ndarray:
    """C-infinity monotone step from 0 at u<=0 to 1 at u>=1 (derivatives to 2).

    s = e^{-1/u} / (e^{-1/u} + e^{-1/(1-u)}) = expit(-h) with
    h = (1-2u)/(u(1-u)), so s' = s(1-s) k and s'' = s(1-s)(k^2 (1-2s) + k')
    with k = -h' = 1/u^2 + 1/(1-u)^2 and 1 - 2s = tanh(h/2).  expit is the
    logistic `_expit`, written with exp(-|h|), so h of either sign and any
    size (near u = 0 and u = 1 |h| grows like 1/u) raises no overflow.
    """
    if order > 2:
        raise ValueError("smoothstep derivatives available up to order 2")
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    if order == 0:
        out[u >= 1.0] = 1.0
    inside = (u > 1e-12) & (u < 1.0 - 1e-12)
    if np.any(inside):
        ui = u[inside]
        vi = 1.0 - ui
        h = (1.0 - 2.0 * ui) / (ui * vi)
        if order == 0:
            out[inside] = _expit(-h)
        else:
            k = 1.0 / ui**2 + 1.0 / vi**2
            if order == 2:
                k = k * k * np.tanh(0.5 * h) + (2.0 / vi**3 - 2.0 / ui**3)
            out[inside] = _expit(-h) * _expit(h) * k
    return out
