import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamctrl._bumps import bump
from beamctrl.audit import (_SERIAL_MNK, DERIV_KEYS, LADDER, N_ROWS,
                            SeparableTerm, SpaceTimeSample,
                            TestFunctionFamily, _family_integrals,
                            adjoint_residual, audit_inequality,
                            derivative_tables, integrals, kernel_stack,
                            lhs_total)
from beamctrl.torus import TimeGrid, gauss_panels
from beamctrl.weights import CarlemanParams, eval_weights


def single_mode_sample(domain, k=2, gamma=0.05):
    coeffs_sin = np.zeros(k + 2)
    coeffs_sin[k] = 1.0
    term = SeparableTerm(
        x_coeffs_cos=np.zeros(k + 2), x_coeffs_sin=coeffs_sin,
        circumference=domain.circumference, gamma=gamma,
        t_poly=np.array([1.0, 0.0, 0.0]), T=domain.T,
    )
    return SpaceTimeSample(terms=(term,))


def omega_bump_fields(domain, x, t):
    """DERIV_KEYS fields of bump(x) * mu(t), the bump supported in the
    right collar interval (d, d + L) and mu the samples' envelope."""
    a, b = domain.omega[1]
    center, halfwidth = 0.5 * (a + b), 0.3 * (b - a)
    _, t_table = derivative_tables([single_mode_sample(domain)], x, t)
    fields = {}
    for key in DERIV_KEYS:
        i, j = int(key[0]), int(key[1])
        profile = bump((x - center) / halfwidth, i) / halfwidth**i
        fields[key] = t_table[j, :, :1] * profile
    return fields


class TestSampleDerivatives:
    def test_separable_term_derivatives_vs_finite_differences(self, domain,
                                                              grid64):
        smp = single_mode_sample(domain)
        ts = np.linspace(0.9, 3.1, 7)
        d = smp.derivs(grid64.nodes, ts)
        h = 1e-5
        dp = smp.derivs(grid64.nodes, ts + h)
        dm = smp.derivs(grid64.nodes, ts - h)
        fd_t = (dp["00"] - dm["00"]) / (2 * h)
        assert np.max(np.abs(fd_t - d["01"])) < 1e-7 * max(np.max(np.abs(d["01"])), 1)
        fd_tt = (dp["00"] - 2 * d["00"] + dm["00"]) / h**2
        assert np.max(np.abs(fd_tt - d["02"])) < 1e-4 * max(np.max(np.abs(d["02"])), 1)
        fd_x = grid64.deriv(d["00"], 1)
        assert np.allclose(fd_x, d["10"], atol=1e-10)

    def test_multi_term_derivs_are_the_sum_of_terms(self, domain, grid64,
                                                    tgrid128):
        fam = TestFunctionFamily("m", seed=9, n_samples=2, max_mode=8,
                                 T=domain.T,
                                 circumference=domain.circumference,
                                 n_terms=(3, 3))
        x, t = grid64.nodes, tgrid128.nodes
        for smp in fam.generate():
            full = smp.derivs(x, t)
            singles = [SpaceTimeSample(terms=(term,)).derivs(x, t)
                       for term in smp.terms]
            for key in DERIV_KEYS:
                parts = sum(d[key] for d in singles)
                scale = sum(np.max(np.abs(d[key])) for d in singles)
                assert np.max(np.abs(full[key] - parts)) <= 1e-14 * scale

    def test_terms_of_two_circumferences_rejected(self, domain, grid64,
                                                  tgrid128):
        # the terms of one call share one phase table
        smp = single_mode_sample(domain)
        other = replace(smp.terms[0], circumference=2 * domain.circumference)
        with pytest.raises(ValueError, match="circumference"):
            derivative_tables([smp, SpaceTimeSample(terms=(other,))],
                              grid64.nodes, tgrid128.nodes)

    def test_envelope_vanishes_at_horizon_ends(self, domain):
        smp = single_mode_sample(domain)
        d = smp.derivs(np.array([0.3]), np.array([1e-4, domain.T - 1e-4]))
        assert np.max(np.abs(d["00"])) < 1e-300


class TestLhsRhs:
    def test_zero_sample_gives_zero(self, weights64, grid64):
        zeros = {k: np.zeros((weights64.t_grid.nodes.size, grid64.n))
                 for k in ("00", "10", "20", "30", "40", "01", "11", "21", "02")}
        values = integrals(zeros, weights64)
        assert lhs_total(values) == 0.0 and values[-2] + values[-1] == 0.0

    @given(alpha=st.floats(0.1, 30.0))
    @settings(max_examples=10, deadline=None)
    def test_quadratic_scaling(self, domain, grid64, weights64, alpha):
        psi = single_mode_sample(domain).derivs(grid64.nodes,
                                                weights64.t_grid.nodes)
        scaled = {k: alpha * v for k, v in psi.items()}
        v1, v2 = integrals(psi, weights64), integrals(scaled, weights64)
        assert lhs_total(v2) == pytest.approx(alpha**2 * lhs_total(v1),
                                              rel=1e-12)
        assert v2[-2] + v2[-1] == pytest.approx(alpha**2 * (v1[-2] + v1[-1]),
                                                rel=1e-12)

    def test_ladder_against_direct_sums(self, domain, grid64, weights64):
        # each term written out: s^a lam^b sum(quad * xi^p e^{-2 s phi} f^2)
        w = weights64
        s, lam = w.params.s, w.params.lam
        psi = single_mode_sample(domain).derivs(grid64.nodes, w.t_grid.nodes)
        quad = w.t_grid.weights[:, None] * w.grid.h

        def kernel(p):
            return np.exp(p * w.log_xi + w.neg2s_phi)

        def direct(p, field, x_weights=w.grid.h):
            return float(np.sum(w.t_grid.weights[:, None] * x_weights
                                * kernel(p) * field**2))

        expect = {
            "psi": s**7 * lam**8 * direct(7, psi["00"]),
            "psi_x": s**5 * lam**6 * direct(5, psi["10"]),
            "psi_xx": s**3 * lam**4 * direct(3, psi["20"]),
            "psi_t": s**3 * lam**4 * direct(3, psi["01"]),
            "psi_tx": s * lam**2 * direct(1, psi["11"]),
            "psi_xxx": s * lam**2 * direct(1, psi["30"]),
            "psi_tt": direct(-1, psi["02"]) / s,
            "psi_txx": direct(-1, psi["21"]) / s,
            "psi_xxxx": direct(-1, psi["40"]) / s,
        }
        values = integrals(psi, w)
        assert [row[0] for row in LADDER] == list(expect)
        for value, expected in zip(values, expect.values()):
            assert value == pytest.approx(expected, rel=1e-13)
        assert values[2] + values[3] == pytest.approx(
            expect["psi_xx"] + expect["psi_t"], rel=1e-13)
        a = np.random.default_rng(2).uniform(-1, 1, psi["00"].shape)
        *_, residual, observation = integrals(psi, w, a)
        res = psi["02"] + psi["21"] + psi["40"] + a * psi["00"]
        assert residual == pytest.approx(
            float(np.sum(quad * kernel(0) * res**2)), rel=1e-13)
        omega = w.domain.omega_cell_weights(w.grid.nodes, w.grid.h)
        assert observation == pytest.approx(
            s**7 * lam**8 * direct(7, psi["00"], omega[None, :]), rel=1e-13)

    def test_sum_matches_parts(self, domain, grid64, weights64):
        psi = single_mode_sample(domain).derivs(grid64.nodes,
                                                weights64.t_grid.nodes)
        values = integrals(psi, weights64)
        assert lhs_total(values) == pytest.approx(
            sum(values[:len(LADDER)]), rel=1e-12)

    def test_lhs_total_sums_xi_power_groups_in_ladder_order(self):
        # mixed signs and scales, so another summation order shows in the bits
        rng = np.random.default_rng(7)
        v = rng.standard_normal((3, 5, N_ROWS)) \
            * 10.0 ** rng.integers(-3, 4, (3, 5, N_ROWS))
        expect = (v[..., 0] + v[..., 1] + (v[..., 2] + v[..., 3])
                  + (v[..., 4] + v[..., 5])
                  + (v[..., 6] + v[..., 7] + v[..., 8]))
        assert lhs_total(v).tobytes() == expect.tobytes()
        assert lhs_total(v[1, 2]).tobytes() == expect[1, 2].tobytes()

    def test_first_term_against_dense_trapezoid(self, domain, eta, theta,
                                                params, grid64):
        # independent oracle: plain trapezoid in time on a dense interior
        # grid, nodal rectangle sum in x, direct weight formulas
        smp = single_mode_sample(domain)
        from beamctrl.torus import gauss_panels
        tg = gauss_panels(domain.T, np.array(theta.junctions), 128)
        w = eval_weights(eta, theta, params, grid64, tg)
        first = integrals(smp.derivs(grid64.nodes, tg.nodes), w)[0]

        N = 8192
        tt = domain.T * np.arange(1, N) / N
        th = theta.eval(tt)
        eta_vals = eta.derivs(grid64.nodes, 0)[:, 0]
        m = eta.eta_max
        acc = 0.0
        psi_x = smp.derivs(grid64.nodes, tt)["00"]
        for i, t in enumerate(tt):
            xi_row = th[i] * np.exp(params.lam * (eta_vals + 4 * m))
            phi_row = th[i] * np.exp(6 * params.lam * m) - xi_row
            integrand = xi_row**7 * psi_x[i] ** 2 * np.exp(-2 * params.s * phi_row)
            acc += np.sum(integrand) * grid64.h * (domain.T / N)
        oracle = params.s**7 * params.lam**8 * acc
        assert first == pytest.approx(oracle, rel=1e-6)

    def test_omega_supported_sample_observation_equals_first_term(
            self, domain, grid64, weights64):
        psi = omega_bump_fields(domain, grid64.nodes, weights64.t_grid.nodes)
        values = integrals(psi, weights64)
        assert values[-1] == pytest.approx(values[0], rel=1e-12)
        # the observation then dominates, so the ratio stays small
        assert lhs_total(values) / (values[-2] + values[-1]) < 50.0

    def test_corollary_reduces_to_plain_residual_without_potential(
            self, domain, grid64, weights64):
        psi = single_mode_sample(domain).derivs(grid64.nodes,
                                                weights64.t_grid.nodes)
        zero_a = np.zeros((weights64.t_grid.nodes.size, grid64.n))
        assert integrals(psi, weights64, a=zero_a)[-2] == \
            integrals(psi, weights64)[-2]

    def test_potential_residual_two_term_bound(self, domain, grid64,
                                               weights64):
        # |(L + a) psi|^2 <= 2 |L psi|^2 + 2 |a|^2 |psi|^2, integrated
        rng = np.random.default_rng(12)
        fam = TestFunctionFamily("f", seed=5, n_samples=6, max_mode=6,
                                 T=domain.T,
                                 circumference=domain.circumference)
        a = rng.uniform(-1, 1, size=(weights64.t_grid.nodes.size, grid64.n))
        sup_a = np.max(np.abs(a))
        for smp in fam.generate():
            psi = smp.derivs(grid64.nodes, weights64.t_grid.nodes)
            with_a = integrals(psi, weights64, a=a)[-2]
            plain = integrals(psi, weights64)[-2]
            mass = float(np.sum(weights64.quad_weights()
                                * np.exp(weights64.neg2s_phi)
                                * psi["00"] ** 2))
            assert with_a <= 2 * plain + 2 * sup_a**2 * mass + 1e-12


class TestFamilies:
    def test_deterministic_generation(self, domain):
        kw = dict(seed=42, n_samples=3, max_mode=5, T=domain.T,
                  circumference=domain.circumference)
        a = TestFunctionFamily("a", **kw).generate()
        b = TestFunctionFamily("a", **kw).generate()
        xs = np.linspace(-1, 2, 50)
        ts = np.linspace(0.5, 3.5, 20)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.derivs(xs, ts)["00"],
                                  sb.derivs(xs, ts)["00"])

    def test_duplicated_family_gives_identical_maxima(self, domain, eta,
                                                      theta, params, grid64,
                                                      tgrid128):
        fam = TestFunctionFamily("same", seed=3, n_samples=4, max_mode=8,
                                 T=domain.T,
                                 circumference=domain.circumference)
        report = audit_inequality(fam, fam, eta, theta, params, [4.0], [2.0],
                                  grid64, tgrid128)
        key = (4.0, 2.0)
        assert report.calibration_max[key] == report.heldout_max[key]
        assert report.heldout_within(1.0 + 1e-12)

    def test_heldout_within_factor(self, domain, eta, theta, params, grid64,
                                   tgrid128):
        kw = dict(n_samples=8, max_mode=8, T=domain.T,
                  circumference=domain.circumference)
        calib = TestFunctionFamily("calibration", seed=11, **kw)
        held = TestFunctionFamily("heldout", seed=202, **kw)
        report = audit_inequality(calib, held, eta, theta, params, [4.0, 8.0],
                                  [2.0], grid64, tgrid128)
        assert report.heldout_within(10.0)
        assert all(f <= 2.0 for f in report.s_growth_factors(2.0))

    def test_adjoint_residual_sign(self, domain, grid64, weights64):
        # the damping term enters with the + sign in the residual
        psi = single_mode_sample(domain).derivs(grid64.nodes,
                                                weights64.t_grid.nodes)
        res = adjoint_residual(psi)
        assert np.allclose(res, psi["02"] + psi["21"] + psi["40"])


def check_rows_match_per_sample_terms(domain, eta, theta, params, grid,
                                      t_grid, with_potential, **fam_kw):
    kw = dict(max_mode=8, T=domain.T, circumference=domain.circumference,
              **fam_kw)
    calib = TestFunctionFamily("calibration", seed=11, **kw)
    held = TestFunctionFamily("heldout", seed=202, **kw)
    a = (np.random.default_rng(4).uniform(
        -1, 1, (t_grid.nodes.size, grid.n)) if with_potential else None)
    s_grid, lam_grid = [4.0, 8.0], [1.0, 2.0]
    report = audit_inequality(calib, held, eta, theta, params, s_grid,
                              lam_grid, grid, t_grid, a=a)
    expected = []
    for s in s_grid:
        for lam in lam_grid:
            w = eval_weights(eta, theta,
                             CarlemanParams(s=s, lam=lam, T0=0.5, T1=0.5),
                             grid, t_grid)
            for role, fam in (("calibration", calib), ("heldout", held)):
                for smp in fam.generate():
                    psi = smp.derivs(grid.nodes, t_grid.nodes)
                    values = integrals(psi, w, a)
                    expected.append((role, smp.label, s, lam,
                                     lhs_total(values), values[-2],
                                     values[-1]))
    assert [(r.family, r.sample, r.s, r.lam) for r in report.rows] \
        == [e[:4] for e in expected]
    for row, e in zip(report.rows, expected):
        assert row.lhs == pytest.approx(e[4], rel=1e-13)
        assert row.residual == pytest.approx(e[5], rel=1e-13)
        assert row.observation == pytest.approx(e[6], rel=1e-13)


class TestStreamedAudit:
    @pytest.mark.parametrize("with_potential", [False, True])
    def test_rows_match_per_sample_terms(self, domain, eta, theta, params,
                                         grid64, tgrid128, with_potential):
        check_rows_match_per_sample_terms(domain, eta, theta, params, grid64,
                                          tgrid128, with_potential,
                                          n_samples=3)

    # one- and three-term samples, 5 and 11 per family; then term pairs
    # just past one 31-pair product block (32), a sample whose pairs
    # (30-35) straddle two blocks, and mixed sizes
    @pytest.mark.parametrize("n_samples, n_terms", [
        (5, (1, 1)), (11, (3, 3)), (32, (1, 1)), (6, (3, 3)), (20, (1, 3))])
    @pytest.mark.parametrize("with_potential", [False, True])
    def test_rows_match_per_sample_terms_across_chunks(
            self, domain, eta, theta, params, grid64, tgrid128,
            with_potential, n_samples, n_terms):
        assert (_SERIAL_MNK - 1) // (tgrid128.nodes.size * grid64.n) == 31
        check_rows_match_per_sample_terms(domain, eta, theta, params, grid64,
                                          tgrid128, with_potential,
                                          n_samples=n_samples,
                                          n_terms=n_terms)

    @pytest.mark.parametrize("with_potential", [False, True])
    def test_nearly_cancelling_terms_within_expansion_bound(
            self, domain, grid64, weights64, with_potential):
        # psi = A + B with B = -(1 - 1e-3) A up to a sharper envelope, so
        # each squared row is under 1e-6 of S = (sum_k sqrt(I_kk))^2, which
        # bounds sum |c_kl I_kl|.  The quadratic form errs by about eps * S
        # there: measured at most 0.51 eps S, 5.2e-10 relative to the
        # one-sample fields; the materialized residual 1.7e-15.
        w = weights64
        x, t = grid64.nodes, w.t_grid.nodes
        base = single_mode_sample(domain, k=3).terms[0]
        terms = (base, SeparableTerm(
            x_coeffs_cos=base.x_coeffs_cos,
            x_coeffs_sin=-(1 - 1e-3) * base.x_coeffs_sin,
            circumference=base.circumference, gamma=base.gamma * 1.0001,
            t_poly=base.t_poly, T=base.T))
        smp = SpaceTimeSample(terms=terms)
        a = (np.random.default_rng(4).uniform(-1, 1, (t.size, grid64.n))
             if with_potential else None)
        got = _family_integrals(kernel_stack(w)[0][:, None], [smp], x, t,
                                a)[0, 0]
        expected = integrals(smp.derivs(x, t), w, a)
        scale = sum(np.sqrt(integrals(
            SpaceTimeSample(terms=(term,)).derivs(x, t), w))
            for term in terms) ** 2
        eps = np.finfo(float).eps
        squares = [r for r in range(N_ROWS) if r != len(LADDER)]
        assert np.all(expected[squares] < 1e-6 * scale[squares])
        assert np.all(np.abs(got - expected)[squares]
                      <= 2 * eps * scale[squares])
        assert got[len(LADDER)] == pytest.approx(expected[len(LADDER)],
                                                 rel=1e-13)

    def test_memory_holds_one_sample_at_a_time(self, domain, eta, theta,
                                               params, grid64):
        # a per-family derivative cache at this size peaks near 158 MB
        tg = gauss_panels(domain.T, np.array(theta.junctions), 256)
        kw = dict(n_samples=64, max_mode=16, T=domain.T,
                  circumference=domain.circumference)
        calib = TestFunctionFamily("calibration", seed=11, **kw)
        held = TestFunctionFamily("heldout", seed=202, **kw)
        a = np.random.default_rng(4).uniform(-1, 1, (tg.nodes.size, grid64.n))
        tracemalloc.start()
        try:
            report = audit_inequality(calib, held, eta, theta, params,
                                      [4.0, 8.0], [2.0], grid64, tg, a=a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.rows) == 256
        assert peak < 40e6
