"""The bump and smoothstep derivatives against exact values and each other."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

import beamctrl
from beamctrl._bumps import BUMP_MASS, _expit, bump, smoothstep

# exact values (30-digit symbolic evaluation, rounded to double) of
# d^j/du^j exp(-1/(1-u^2)) and of the smoothstep
# e^{-1/u} / (e^{-1/u} + e^{-1/(1-u)}) at the points below
BUMP_POINTS = [-0.95, -0.8, -0.6, -0.35, -0.1, 0.05, 0.3, 0.55, 0.75, 0.9]
BUMP_GOLDEN = [
    [3.5131575098565517e-05, 0.06217652402211631, 0.2096113871510978,
     0.3199466104022343, 0.3641821916336149, 0.36695859198784514,
     0.3332370771562238, 0.23842708080241162, 0.10170139230422683,
     0.0051789243705977536],
    [0.00702169548321099, 0.7676114076804483, 0.614095860794232,
     0.2908581940491574, 0.0743153130565483, -0.03688002884281834,
     -0.24144698260322942, -0.539088221133136, -0.7970068294861857,
     -0.25822891598548353],
    [1.122358458001218, 1.693957273121977, -1.5272436121314883,
     -1.0306562789061107, -0.758014676692494, -0.7412885565749469,
     -0.9482744472325039, -1.4616214975391804, -0.28193438866178,
     7.6960005955292],
    [128.83823702724382, -54.68982663012125, 0.5031882892555275,
     1.7964809204935348, 0.44875711767694176, -0.2216457208692152,
     -1.498978363971499, -1.893177088560244, 26.44960606974564,
     -22.567512296113975],
    [7575.833688420429, 674.2085286957652, 43.353833608616355,
     -5.9206382306393515, -4.632402874680919, -4.4695696399895555,
     -5.905186935884785, 15.68437756380966, 432.7685368904448,
     -4940.405604038519],
]
STEP_POINTS = [0.02, 0.1, 0.2, 0.35, 0.45, 0.5, 0.62, 0.78, 0.9, 0.97]
STEP_GOLDEN = [
    [5.350982608235586e-22, 0.00013789379201631493, 0.022977369910025615,
     0.21103777134870938, 0.400341977640111, 0.5, 0.7347145658259578,
     0.9631517645945965, 0.9998621062079837, 0.9999999999999907],
    [1.3383028139298084e-18, 0.013957693506311037, 0.5963124632730296,
     1.7532752580609914, 1.9791365074185003, 2.0, 1.8568333566059179,
     0.7916076761248946, 0.013957693506311037, 1.0409173514793286e-11],
    [3.2133770914961787e-15, 1.1372400854973734, 9.586987829296618,
     4.115531638713784, 0.868944569404795, 0.0, -2.835434395266478,
     -9.838877959871937, -1.1372400854973734, -1.0883550100530243e-08],
]


def sup(fn, order, lo, hi):
    return np.max(np.abs(fn(np.linspace(lo, hi, 20001), order)))


@pytest.mark.parametrize("order", range(5))
def test_bump_matches_exact_values(order):
    got = bump(np.array(BUMP_POINTS), order)
    assert np.max(np.abs(got - BUMP_GOLDEN[order])) \
        <= 1e-13 * sup(bump, order, -1.0, 1.0)


@pytest.mark.parametrize("order", range(3))
def test_smoothstep_matches_exact_values(order):
    got = smoothstep(np.array(STEP_POINTS), order)
    assert np.max(np.abs(got - STEP_GOLDEN[order])) \
        <= 1e-13 * sup(smoothstep, order, 0.0, 1.0)


def central_difference(fn, order, u, h):
    """4th-order central difference of fn(., order) at u."""
    return (fn(u - 2 * h, order) - 8 * fn(u - h, order)
            + 8 * fn(u + h, order) - fn(u + 2 * h, order)) / (12 * h)


@pytest.mark.parametrize("order", range(4))
def test_bump_orders_are_derivatives(order):
    u = np.linspace(-0.97, 0.97, 195)
    fd = central_difference(bump, order, u, 1e-4)
    assert np.max(np.abs(fd - bump(u, order + 1))) \
        <= 1e-8 * sup(bump, order + 1, -1.0, 1.0)


@pytest.mark.parametrize("order", range(2))
def test_smoothstep_orders_are_derivatives(order):
    # across both ends too, where every derivative vanishes
    u = np.linspace(-0.1, 1.1, 241)
    fd = central_difference(smoothstep, order, u, 1e-4)
    assert np.max(np.abs(fd - smoothstep(u, order + 1))) \
        <= 1e-10 * sup(smoothstep, order + 1, 0.0, 1.0)


def test_bump_mass_is_the_quadrature_value():
    assert BUMP_MASS == quad(lambda y: float(np.exp(-1.0 / (1.0 - y * y))),
                             -1.0, 1.0)[0]


def test_expit_matches_scipy():
    x = np.linspace(-700.0, 700.0, 140001)
    ref = expit(x)
    assert np.all(np.abs(_expit(x) - ref) <= 4 * np.spacing(ref))


def test_expit_is_finite_at_extremes():
    x = np.array([-np.inf, -1e12, 1e12, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _expit(x)
    assert np.array_equal(got, [0.0, 0.0, 1.0, 1.0])


def test_package_import_needs_no_symbolic_or_quadrature_module():
    # nor any scipy module: the package needs only numpy, and no run of any
    # kind loads scipy (test_experiments_cli.TestImportBoundary)
    code = ("import sys, beamctrl.cli, beamctrl.experiments; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('sympy', 'scipy')))")
    src = str(Path(beamctrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
