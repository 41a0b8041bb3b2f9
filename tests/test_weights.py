from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BPoly

from beamctrl import weights
from beamctrl.hum import fd_weights
from beamctrl.torus import SpatialGrid, gauss_panels, uniform_interior
from beamctrl.weights import (LEDGER, CarlemanParams, ConstructionError,
                              DomainSpec, audit_derivative_bounds, build_eta,
                              build_theta, eval_weights, sweep_lambda_bounds,
                              weight_formulas)


class TestTheta:
    def test_piece_values(self, theta):
        # 1/t^2 and 1/(T-t)^2 pieces plus the plateau, T=4, T0=T1=0.5
        for t, expect in [(0.25, 16.0), (0.5, 4.0), (2.0, 1.0), (3.75, 16.0)]:
            assert theta.eval(np.array([t]))[0] == pytest.approx(expect, rel=1e-12)

    def test_at_least_one_everywhere(self, theta, domain):
        ts = np.linspace(1e-4, domain.T - 1e-4, 4001)
        assert np.all(theta.eval(ts) >= 1.0 - 1e-12)

    def test_blend_monotonicity(self, theta):
        ts = np.linspace(theta.T0, 2 * theta.T0, 513)[1:-1]
        assert np.all(theta.eval(ts, 1) < 0)
        ts = np.linspace(theta.T - 2 * theta.T1, theta.T - theta.T1, 513)[1:-1]
        assert np.all(theta.eval(ts, 1) > 0)

    def test_c4_junctions(self, theta):
        # one-sided 6-point estimates from both sides of every junction must
        # agree within the stencil's own O(h) error: halving h shrinks the
        # cross-junction defect for every order up to 4
        def defect(tj, order, h):
            left_nodes = tj - h * np.arange(6)[::-1]
            right_nodes = tj + h * np.arange(6)
            wl = fd_weights(tj, left_nodes, order)[:, order]
            wr = fd_weights(tj, right_nodes, order)[:, order]
            return abs(wl @ theta.eval(left_nodes, 0)
                       - wr @ theta.eval(right_nodes, 0))

        for tj in theta.junctions:
            scale = max(abs(theta.eval(np.array([tj + 1e-9]), o)[0])
                        for o in range(5))
            for order in range(5):
                d1 = defect(tj, order, 1e-3)
                d2 = defect(tj, order, 5e-4)
                assert d2 <= max(0.75 * d1, 1e-8 * scale), (tj, order)

    def test_rejects_T0_at_least_one(self, domain):
        with pytest.raises(ValueError):
            CarlemanParams(s=1.0, lam=1.0, T0=1.5, T1=0.5)

    def test_rejects_junctions_exceeding_horizon(self):
        params = CarlemanParams(s=1.0, lam=1.0, T0=0.6, T1=0.6)
        with pytest.raises(ValueError):
            build_theta(params, 2.0)

    @pytest.mark.parametrize("T0, T1, T", [(0.5, 0.5, 4.0), (0.25, 0.3, 2.0),
                                           (0.1, 0.1, 1.0)])
    def test_blends_match_bernstein_form(self, T0, T1, T):
        # the numpy blends against scipy's Bernstein-form Hermite
        # interpolant of the same end derivatives
        theta = build_theta(CarlemanParams(s=1.0, lam=1.0, T0=T0, T1=T1), T)
        plateau = [1.0, 0.0, 0.0, 0.0, 0.0]
        ends = [theta.eval(np.array([T0]), j)[0] for j in range(5)]
        starts = [theta.eval(np.array([T - T1]), j)[0] for j in range(5)]
        pieces = [(BPoly.from_derivatives([T0, 2 * T0], [ends, plateau]),
                   np.linspace(T0, 2 * T0, 2001)[1:-1]),
                  (BPoly.from_derivatives([T - 2 * T1, T - T1],
                                          [plateau, starts]),
                   np.linspace(T - 2 * T1, T - T1, 2001)[1:-1])]
        for order in range(5):
            refs = [ref.derivative(order)(ts) if order else ref(ts)
                    for ref, ts in pieces]
            sup = max(np.max(np.abs(r)) for r in refs)
            for (_, ts), r in zip(pieces, refs):
                assert np.max(np.abs(theta.eval(ts, order) - r)) \
                    <= 1e-13 * sup, order

    @given(T0=st.floats(0.05, 0.9), T1=st.floats(0.05, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_always_above_plateau(self, T0, T1):
        # parameters are either accepted with a certified profile or
        # rejected by the monotonicity/plateau certification scan
        T = 2.0 * (T0 + T1) + 1.0
        try:
            theta = build_theta(CarlemanParams(s=1.0, lam=1.0, T0=T0, T1=T1), T)
        except ConstructionError:
            return
        ts = np.linspace(T * 1e-3, T * (1 - 1e-3), 801)
        assert np.all(theta.eval(ts) >= 1.0 - 1e-12)


class TestEta:
    def test_positive_everywhere(self, eta, domain):
        xs = np.linspace(-domain.L, domain.d + domain.L, 4097)[:-1]
        assert eta.derivs(xs, 0)[:, 0].min() > 0

    def test_slope_floor_on_interior(self, eta, domain):
        # scan over the beam interior [0, d] at resolution 2048
        xs = np.linspace(0.0, domain.d, 2048)
        slopes = eta.derivs(xs, 1)[:, 1]
        assert np.abs(slopes).min() > 0
        assert eta.slope_floor > 0

    def test_extrema_inside_omega(self, eta, domain):
        xs = np.linspace(-domain.L, domain.d + domain.L, 8192, endpoint=False)
        d1 = eta.derivs(xs, 1)[:, 1]
        crossings = xs[np.flatnonzero(d1[:-1] * d1[1:] <= 0)]
        assert crossings.size >= 2
        assert np.all(domain.in_omega(crossings))

    def test_periodic_continuity_across_seam(self, eta, domain):
        M = domain.circumference
        left = eta.derivs(np.array([-domain.L + 1e-9]), 6)
        right = eta.derivs(np.array([domain.d + domain.L - 1e-9 - M]), 6)
        # same point expressed through the wrap; derivatives must agree
        assert np.allclose(left, right, rtol=1e-9, atol=1e-9)

    def test_derivative_continuity_scan(self, eta, domain):
        xs = np.linspace(-domain.L, domain.d + domain.L, 8192, endpoint=False)
        d = eta.derivs(xs, 6)
        h = xs[1] - xs[0]
        for j in range(6):
            jumps = np.abs(np.diff(d[:, j]))
            bound = 2.0 * h * np.max(np.abs(d[:, j + 1])) + 1e-12
            assert jumps.max() < bound

    def test_rejects_wide_mollifier(self, domain):
        with pytest.raises(ValueError):
            build_eta(domain, 0.1, mollify_radius=domain.L)

    @given(scale=st.floats(0.02, 0.5), radius=st.floats(0.02, 0.24))
    @settings(max_examples=15, deadline=None)
    def test_construction_certificates(self, domain, scale, radius):
        profile = build_eta(domain, eta_scale=scale, mollify_radius=radius)
        assert profile.slope_floor > 0
        assert profile.eta_max == pytest.approx(1.05 * scale, rel=1e-6)


class TestWeightFormulas:
    def test_spot_values(self):
        # eta = 0.05, |eta| = 0.1, lam = 2, theta = 1
        phi, xi, log_xi, neg2s_phi = weight_formulas(0.05, 0.1, 1.0, 2.0,
                                                     s=4.0)
        assert xi == pytest.approx(np.exp(0.9), rel=1e-14)
        assert phi == pytest.approx(np.exp(1.2) - np.exp(0.9), rel=1e-13)
        assert log_xi == pytest.approx(0.9, rel=1e-15)
        assert neg2s_phi == -8.0 * phi

    def test_sum_identity(self, weights64, theta, params, eta):
        # phi + xi = theta * exp(6 lam |eta|) pointwise
        expect = theta.eval(weights64.t_grid.nodes)[:, None] \
            * np.exp(6.0 * params.lam * eta.eta_max)
        total = weights64.phi + weights64.xi
        assert np.max(np.abs(total - expect) / expect) < 1e-12

    def test_positivity(self, weights64):
        assert weights64.phi.min() > 0
        assert weights64.xi.min() > 0

    def test_analytic_vs_spectral_derivatives(self, eta, theta, params, domain):
        # cross-validation of the chain-rule formulas; the tolerance loosens
        # with the order because the spectral derivative amplifies roundoff
        # by kappa^order
        g = SpatialGrid(2048, domain.circumference, x0=-domain.L)
        tg = uniform_interior(domain.T, 8)
        w = eval_weights(eta, theta, params, g, tg)
        for order, tol in [(1, 1e-8), (2, 1e-6), (3, 1e-4), (4, 2e-3)]:
            spectral = g.deriv(w.xi, order)
            analytic = w.ledger[f"xi_x{order}"]
            rel = np.max(np.abs(spectral - analytic)) \
                / np.max(np.abs(analytic))
            assert rel < tol, order

    def test_time_nodes_strictly_interior(self, weights64, domain):
        assert weights64.t_grid.nodes.min() > 0
        assert weights64.t_grid.nodes.max() < domain.T

    @pytest.mark.parametrize("circumference, T, name", [
        (5.0, 3.0, "grid"), (3.0, 3.0, "t_grid"), (3.0, 4.0 + 1e-9, "t_grid")])
    def test_rejects_grids_off_the_profiles(self, eta, theta, params,
                                            circumference, T, name):
        # eta lives on circumference 3 and theta on T = 4: eta would wrap
        # over the wrong circle, the time nodes stop short of T
        grid = SpatialGrid(8, circumference, x0=-1.0)
        with pytest.raises(ValueError, match=f"^{name} "):
            eval_weights(eta, theta, params, grid, uniform_interior(T, 16))


class TestBoundAudit:
    def test_phi_xi_spatial_derivatives_opposite(self, weights64):
        report = audit_derivative_bounds(weights64)
        assert report.identity_defect == 0.0

    def test_every_ledger_entry_present(self, weights64):
        report = audit_derivative_bounds(weights64)
        names = {r.inequality for r in report.records}
        for fam in ("phi", "xi"):
            for i in (1, 2, 3, 4):
                assert f"{fam}_x{i}" in names
            for suffix in ("t", "tt", "tx", "txx", "txxx", "ttx", "ttxx"):
                assert f"{fam}_{suffix}" in names
        assert len(report.records) == 22
        assert len(report.positivity) == 4

    def test_ledger_holds_the_table_in_order(self, weights64):
        names = [name for name, *_ in LEDGER]
        timed = ["t", "tt", "tx", "txx", "txxx", "ttx", "ttxx"]
        assert names == ([f"phi_x{i}" for i in (1, 2, 3, 4)]
                         + [f"phi_{d}" for d in timed]
                         + [f"xi_{d}" for d in timed]
                         + [f"xi_x{i}" for i in (1, 2, 3, 4)])
        for name, fam, i, j in LEDGER:
            prefix, _, suffix = name.partition("_")
            assert prefix == fam and suffix.count("t") == j
            assert i == (int(suffix[1]) if j == 0 else suffix.count("x"))
        assert list(weights64.ledger) == names

    def test_x_only_entries_report_no_time(self, weights64):
        # theta cancels from |d^i_x phi| / (lam^i xi), so no time row is
        # the maximizer; every constant is still the plain grid maximum
        w = weights64
        lam = w.params.lam
        report = audit_derivative_bounds(w)
        x_only = {f"{fam}_x{i}" for fam in ("phi", "xi") for i in (1, 2, 3, 4)}
        assert {r.inequality for r in report.records
                if np.isnan(r.t_at)} == x_only
        assert [r.inequality for r in report.records] == \
            [name for name, *_ in LEDGER]
        for r, (name, _, i, j) in zip(report.records, LEDGER):
            majorant = lam**i * (w.xi if j == 0
                                 else w.xi ** (1.5 if j == 1 else 2))
            lhs = w.ledger[name]
            assert r.constant == float(np.max(np.abs(lhs) / majorant))

    @pytest.mark.parametrize("lam", [1.0, 2.0, 4.0])
    def test_maximizer_is_tie_stable(self, eta, theta, grid64, tgrid128, lam):
        # |eta'| is constant on the linear pieces of eta, so phi_x1 and xi_x1
        # tie at whole runs of nodes: the smallest tied x is reported, and
        # rounding-level noise on the field rows moves no reported x
        params = CarlemanParams(s=4.0, lam=lam, T0=0.5, T1=0.5)
        w = eval_weights(eta, theta, params, grid64, tgrid128)
        base = audit_derivative_bounds(w)
        assert base.records[0].inequality == "phi_x1"
        assert base.records[0].x_at == grid64.nodes[0]
        rng = np.random.default_rng(0)
        eps = np.finfo(float).eps
        for _ in range(4):
            noisy = replace(w, ledger={
                name: f * (1.0 + eps * rng.integers(-2, 3, (f.shape[0], 1)))
                for name, f in w.ledger.items()})
            report = audit_derivative_bounds(noisy)
            assert [r.x_at for r in report.records] \
                == [r.x_at for r in base.records]

    def test_positivity_floors(self, weights64):
        report = audit_derivative_bounds(weights64)
        assert all(p.floor > 0 for p in report.positivity)

    def test_lambda_sweep_growth(self, eta, theta, params, grid64, tgrid128):
        sweep = sweep_lambda_bounds(eta, theta, params, [1.0, 2.0, 4.0],
                                    grid64, tgrid128)
        assert sweep.stable(2.0)
        assert sweep.positivity_threshold == 1.0

    def test_lambda_sweep_evaluates_each_lambda_once(self, eta, theta,
                                                     params, grid64,
                                                     tgrid128, monkeypatch):
        # params.lam (2) comes last and its field is kept; a repeated lam
        # is evaluated once and reported at each of its places
        seen = []
        real = weights.eval_weights

        def counted(eta, theta, params, *grids):
            seen.append(params.lam)
            return real(eta, theta, params, *grids)

        monkeypatch.setattr(weights, "eval_weights", counted)
        sweep = sweep_lambda_bounds(eta, theta, params, [4.0, 2.0, 1.0, 4.0],
                                    grid64, tgrid128)
        assert seen == [1.0, 4.0, 2.0]
        assert sweep.lams == [1.0, 2.0, 4.0, 4.0]
        assert sweep.reports[2] is sweep.reports[3]
        w = real(eta, theta, params, grid64, tgrid128)
        assert sweep.base.params == params
        for name in ("phi", "xi", "log_xi", "neg2s_phi"):
            assert getattr(sweep.base, name).tobytes() \
                == getattr(w, name).tobytes()
        # repr, since a NaN t_at is unequal to itself
        assert repr(sweep.reports[1]) == repr(audit_derivative_bounds(w))
        assert sweep_lambda_bounds(eta, theta, params, [1.0, 4.0], grid64,
                                   tgrid128).base is None

    def test_constants_stabilize_under_refinement(self, eta, theta, params,
                                                  domain):
        # grid maxima approach the true sup from below and settle to a
        # finite limit once the mollified corner features are resolved
        tg = gauss_panels(domain.T, np.array(theta.junctions), 128)
        maxima = []
        for n in (256, 512, 1024):
            g = SpatialGrid(n, domain.circumference, x0=-domain.L)
            w = eval_weights(eta, theta, params, g, tg)
            maxima.append(audit_derivative_bounds(w).by_name())
        for name in maxima[0]:
            seq = [m[name] for m in maxima]
            assert all(np.isfinite(c) for c in seq)
            assert seq[1] >= seq[0] * (1 - 1e-12)
            assert seq[2] >= seq[1] * (1 - 1e-12)
            assert seq[2] <= 1.02 * seq[1]
