import math

import numpy as np
import pytest

from wcl.analytic import gauss_hermite_rule, gauss_kernel_sq, hermite_eval
from wcl.chaos import (
    bridge_term,
    bridge_term_variance,
    chaos_term_table,
    chaos_terms_many,
    expansion_study_mc,
    self_intersection_mean_quadrature,
    sobolev_partial_norm,
)
from wcl.processes import BrownianMotion, TimeGrid, replica_seed, sample_values

SQRT_2PI = math.sqrt(2.0 * math.pi)


def term0(model, grid, seed, eps, u):
    """Order-0 term on the path that seed draws."""
    values, _ = sample_values(model, grid, seed, n_paths=1)
    return chaos_terms_many(values, 0, [eps], u)[0, 0, 0]


class TestBridgeTerms:
    def test_order_zero_constant(self):
        for x in (-2.0, 0.0, 1.3):
            assert bridge_term(x, 0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-14)

    def test_odd_orders_vanish(self):
        for n in (1, 3, 7, 11):
            assert bridge_term(0.7, n) == 0.0

    def test_order_two_value(self):
        # H_2(0) H_2(0) / (2! sqrt(2 pi)) = 0.5 / sqrt(2 pi)
        assert bridge_term(0.0, 2) == pytest.approx(0.5 / SQRT_2PI, rel=1e-13)

    def test_variance_formula(self):
        assert bridge_term_variance(0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
        assert bridge_term_variance(2) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-14)
        assert bridge_term_variance(3) == 0.0

    def test_variance_matches_quadrature(self):
        x, w = gauss_hermite_rule(80)
        for n in (0, 2, 4, 6):
            vals = np.array([bridge_term(xi, n) for xi in x])
            second = float(np.dot(w, vals**2))
            assert second == pytest.approx(bridge_term_variance(n), rel=1e-10)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            bridge_term(0.0, 41)
        with pytest.raises(ValueError):
            bridge_term_variance(-1)

    def test_coefficient_extraction_by_orthogonality(self):
        # pair the truncated series against H_m under the standard
        # Gaussian endpoint: orthogonality returns H_m(0)/sqrt(2 pi)
        x, w = gauss_hermite_rule(200)
        series = np.zeros_like(x)
        for n in range(41):
            series += np.array([bridge_term(xi, n) for xi in x])
        for m in range(0, 41, 2):
            got = float(np.dot(w, series * hermite_eval(m, x)))
            expect = hermite_eval(m, 0.0) / SQRT_2PI
            assert got == pytest.approx(expect, rel=1e-8)
        for m in (1, 3, 5, 11):
            got = float(np.dot(w, series * hermite_eval(m, x)))
            assert abs(got) < 1e-8


class TestSobolevNorm:
    def test_plain_sum_at_gamma_zero(self):
        m = [0.5, 0.25, 0.125]
        assert sobolev_partial_norm(m, 0.0, 2) == pytest.approx(0.875, rel=1e-14)

    def test_brute_force_bridge_sum(self):
        moments = [bridge_term_variance(n) for n in range(21)]
        brute = math.fsum((k + 1.0) ** -1.0 * moments[k] for k in range(21))
        assert sobolev_partial_norm(moments, -1.0, 20) == pytest.approx(brute, abs=1e-12)

    def test_monotone_in_cutoff_and_gamma(self):
        moments = [bridge_term_variance(n) for n in range(31)]
        prev = 0.0
        for k in range(31):
            cur = sobolev_partial_norm(moments, -1.0, k)
            assert cur >= prev * (1.0 - 1e-14)
            prev = cur
        for g1, g2 in ((-2.0, -1.0), (-1.0, 0.0), (0.0, 1.0)):
            assert sobolev_partial_norm(moments, g1, 30) <= sobolev_partial_norm(
                moments, g2, 30)

    def test_validation(self):
        with pytest.raises(ValueError):
            sobolev_partial_norm([1.0, 2.0], 0.0, 2)
        with pytest.raises(ValueError):
            sobolev_partial_norm([1.0, -0.5], 0.0, 1)


class TestChaosTerms:
    def test_order_zero_is_path_independent(self):
        grid = TimeGrid(256)
        va = term0(BrownianMotion(1), grid, 0, 0.1, [0.5])
        vb = term0(BrownianMotion(1), grid, 1, 0.1, [0.5])
        assert va == pytest.approx(vb, rel=1e-12)

    def test_order_zero_matches_quadrature(self):
        grid = TimeGrid(512)
        got = term0(BrownianMotion(1), grid, 3, 0.1, [0.5])
        oracle = self_intersection_mean_quadrature(0.1, [0.5], 1)
        assert got == pytest.approx(oracle, rel=1e-4)

    def test_order_zero_matches_quadrature_d2(self):
        grid = TimeGrid(512)
        got = term0(BrownianMotion(2), grid, 3, 0.1, [0.4, 0.3])
        oracle = self_intersection_mean_quadrature(0.1, [0.4, 0.3], 2)
        assert got == pytest.approx(oracle, rel=1e-4)

    def test_terms_many_shape(self):
        grid = TimeGrid(64)
        values, _ = sample_values(BrownianMotion(2), grid, 5, n_paths=7)
        out = chaos_terms_many(values, 4, [0.5, 0.1], [0.4, 0.3])
        assert out.shape == (2, 5, 7)

    def test_validation(self):
        grid = TimeGrid(32)
        values, _ = sample_values(BrownianMotion(1), grid, 0, n_paths=2)
        with pytest.raises(ValueError):
            chaos_terms_many(values, 2, [0.1, 0.0], [0.5])
        with pytest.raises(ValueError):
            chaos_terms_many(values, 2, [], [0.5])
        with pytest.raises(ValueError):
            chaos_terms_many(values, 2, [0.1], [0.5, 0.5])
        with pytest.raises(ValueError):
            chaos_terms_many(values, 31, [0.1], [0.5])


class TestEndpointPairing:
    def test_hermite_pairing_closed_form(self):
        # E[H_n(w(1)) p_eps(w(1))] = H_n(0) (1+eps)^{-(n+1)/2} / sqrt(2 pi)
        x, w = gauss_hermite_rule(200)
        # sharper kernels need more nodes; tolerance reflects the rule
        for eps, rel in ((1.0, 1e-10), (0.25, 1e-10), (0.04, 1e-5)):
            kern = gauss_kernel_sq(x**2, eps)
            for n in (0, 2, 4, 6):
                got = float(np.dot(w, hermite_eval(n, x) * kern))
                expect = hermite_eval(n, 0.0) * (1.0 + eps) ** (-(n + 1) / 2.0) / SQRT_2PI
                assert got == pytest.approx(expect, rel=rel, abs=1e-12)


class TestMonteCarloTables:
    def test_table_consistent_with_single_order(self):
        grid = TimeGrid(128)
        model = BrownianMotion(1)
        [table] = chaos_term_table(model, 3, [0.1], [0.5], 400, 7, grid)
        # 400 samples fit in the first replica chunk: the same paths
        values, _ = sample_values(model, grid, replica_seed(7, 0), n_paths=400)
        single = chaos_terms_many(values, 2, [0.1], [0.5])[0, 2] ** 2
        assert table[2].mean == pytest.approx(np.mean(single), rel=1e-12)
        assert table[2].n_samples == 400

    def test_sample_count_guard(self):
        grid = TimeGrid(128)
        with pytest.raises(ValueError):
            chaos_term_table(BrownianMotion(1), 2, [0.1], [0.5], 50, 0, grid)

    def test_table_refuses_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            chaos_term_table(BrownianMotion(1), 2, [0.1], [0.5], 100, -1, TimeGrid(32))

    def test_expansion_study_refuses_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -2"):
            expansion_study_mc(BrownianMotion(1), 2, 0.1, [0.5], 100, -2, TimeGrid(32))

    def test_eps_grid_tables_match_single_eps_tables(self):
        # one pass over the grid gives each eps the table of its own pass,
        # bit for bit; 1100 samples make two replica chunks
        grid = TimeGrid(64)
        model = BrownianMotion(2)
        eps_grid = [1.0, 0.1, 0.01]
        tables = chaos_term_table(model, 4, eps_grid, [0.4, 0.3], 1100, 7, grid)
        assert len(tables) == 3
        for eps, table in zip(eps_grid, tables):
            assert table == chaos_term_table(model, 4, [eps], [0.4, 0.3], 1100, 7, grid)[0]

    def test_expansion_study_fields(self):
        grid = TimeGrid(128)
        st = expansion_study_mc(BrownianMotion(1), 3, 0.1, [0.5], 400, 7, grid)
        assert st.n_samples == 400
        assert len(st.residual_moments) == 4
        assert st.cross_cov.shape == (4, 4)
        assert st.var_g >= 0.0
        # the mean of G matches the order-0 term up to MC noise
        mean0 = term0(BrownianMotion(1), grid, 0, 0.1, [0.5])
        assert abs(st.mean_g - mean0) <= 5.0 * st.se_mean_g


class TestQuadratureOracle:
    def test_against_scipy_quad(self):
        from scipy.integrate import quad

        for d, u, eps in ((1, [0.5], 0.1), (2, [0.4, 0.3], 0.01)):
            sq = float(np.dot(u, u))

            def f(tau):
                s = tau + eps
                return (1.0 - tau) * (2.0 * math.pi * s) ** (-0.5 * d) * math.exp(
                    -sq / (2.0 * s))

            expect, _ = quad(f, 0.0, 1.0, epsabs=1e-13)
            assert self_intersection_mean_quadrature(eps, u, d) == pytest.approx(
                expect, rel=1e-10)
