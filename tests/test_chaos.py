import itertools
import math

import numpy as np
import pytest

from wcl.analytic import gauss_kernel_sq, hermite_eval
from wcl.chaos import (
    MAX_TERM_ORDER,
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


def normal_rule(n):
    """numpy's n-node rule for E g(Z), Z standard normal (n <= 200: from
    400 nodes its weights are NaN)."""
    x, w = np.polynomial.hermite_e.hermegauss(n)
    return x, w / SQRT_2PI


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
        x, w = normal_rule(80)
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
        x, w = normal_rule(200)
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
            chaos_terms_many(values, 16, [0.1], [0.5])


def long_double_terms(values, k_max, eps, u):
    """Chaos terms of order 0..k_max of each path (k_max + 1, N), summed
    over node pairs in long double, with the Hermite recurrence applied to
    dv / sqrt(tau) at each lag: the algebra the kernel replaced."""
    ld = np.longdouble
    n_paths, n_nodes, d = values.shape
    n = n_nodes - 1
    v = values.astype(ld)
    u = np.asarray(u, dtype=ld)
    w1 = np.full(n_nodes, ld(1) / n)
    w1[[0, -1]] = ld(1) / (2 * n)
    pi = np.arccos(ld(-1))
    alphas = [a for a in itertools.product(range(k_max + 1), repeat=d) if sum(a) <= k_max]
    factorial = [ld(math.factorial(a)) for a in range(k_max + 1)]
    terms = np.zeros((k_max + 1, n_paths), dtype=ld)
    for lag in range(n_nodes):
        m = n_nodes - lag
        w = w1[:m] * w1[lag:]
        tau = ld(lag) / n
        s = tau + ld(eps)
        kernel = (2 * pi * s) ** (ld(-d) / 2) * np.exp(-np.dot(u, u) / (2 * s))
        if lag == 0:  # tau = 0: only the constant term, on half the diagonal
            terms[0] += kernel * np.sum(w) / 2
            continue
        z = (v[:, lag:] - v[:, :m]) / np.sqrt(tau)
        x = u / np.sqrt(s)
        h, level = [np.ones_like(z), z], [np.ones_like(x), x]
        for a in range(1, k_max):
            h.append(z * h[a] - a * h[a - 1])
            level.append(x * level[a] - a * level[a - 1])
        for alpha in alphas:
            k = sum(alpha)
            c = kernel * (tau / s) ** (ld(k) / 2)
            prod = np.ones((n_paths, m), dtype=ld)
            for j, a in enumerate(alpha):
                c = c * level[a][j] / factorial[a]
                prod = prod * h[a][..., j]
            terms[k] += c * (prod @ w)
    return terms


def order_errors(got, ref):
    """Per order, the largest |got - ref| over the paths relative to the
    largest |ref| of that order."""
    ref = ref.astype(float)
    return np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)


class TestKernelError:
    EPS = (1.0, 0.1, 0.01)
    OFFSETS = {1: (0.5,), 2: (0.4, 0.3)}

    @pytest.mark.parametrize("d", [1, 2])
    def test_within_the_stated_bound(self, d):
        # the bound of the chaos_terms_many docstring
        values, _ = sample_values(BrownianMotion(d), TimeGrid(256), 20 + d, n_paths=8)
        got = chaos_terms_many(values, 6, self.EPS, self.OFFSETS[d])
        for row, eps in zip(got, self.EPS):
            ref = long_double_terms(values, 6, eps, self.OFFSETS[d])
            assert np.all(order_errors(row, ref) <= 2e-14), eps

    @pytest.mark.parametrize("d", [1, 2])
    def test_every_order_up_to_the_limit(self, d):
        # the change of basis cancels more at higher orders; up to
        # MAX_TERM_ORDER every order keeps within 1e-12 of its largest term.
        # At seed 1095 (d = 1) order 15 is off by 2.5e-12
        for seed in (5, 6, 1095):
            values, _ = sample_values(BrownianMotion(d), TimeGrid(33), seed, n_paths=8)
            refs = [long_double_terms(values, MAX_TERM_ORDER, eps, self.OFFSETS[d])
                    for eps in self.EPS]
            for k_max in range(1, MAX_TERM_ORDER + 1):
                got = chaos_terms_many(values, k_max, self.EPS, self.OFFSETS[d])
                for row, ref in zip(got, refs):
                    assert np.all(order_errors(row, ref[: k_max + 1]) <= 1e-12), (seed, k_max)


class TestEndpointPairing:
    def test_hermite_pairing_closed_form(self):
        # E[H_n(w(1)) p_eps(w(1))] = H_n(0) (1+eps)^{-(n+1)/2} / sqrt(2 pi)
        x, w = normal_rule(200)
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
        means, cov = chaos_term_table(model, 3, [0.1], [0.5], 400, 7, grid)
        assert means.shape == (1, 4) and cov.shape == (4, 4)
        # 400 samples fit in the first replica chunk: the same paths
        values, _ = sample_values(model, grid, replica_seed(7, 0), n_paths=400)
        single = chaos_terms_many(values, 2, [0.1], [0.5])[0, 2] ** 2
        assert means[0, 2] == pytest.approx(np.mean(single), rel=1e-12)
        assert cov[2, 2] == pytest.approx(np.var(single) / 400, rel=1e-12)

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
        # one pass over the grid gives each eps the means and variances of
        # its own pass, bit for bit; 1100 samples make two replica chunks
        grid = TimeGrid(64)
        model = BrownianMotion(2)
        eps_grid = [1.0, 0.1, 0.01]
        means, cov = chaos_term_table(model, 4, eps_grid, [0.4, 0.3], 1100, 7, grid)
        assert means.shape == (3, 5)
        for i, eps in enumerate(eps_grid):
            [mean], var = chaos_term_table(model, 4, [eps], [0.4, 0.3], 1100, 7, grid)
            assert np.array_equal(means[i], mean)
            # the diagonal keeps its bits; a covariance is a dot product
            # whose rounding depends on the other rows of the table
            block = cov[5 * i : 5 * i + 5, 5 * i : 5 * i + 5]
            assert np.array_equal(np.diag(block), np.diag(var))
            assert np.all(np.abs(block - var) <= 1e-12 * np.sqrt(np.outer(np.diag(var),
                                                                          np.diag(var))))

    def test_expansion_study_fields(self):
        grid = TimeGrid(128)
        st = expansion_study_mc(BrownianMotion(1), 3, 0.1, [0.5], 400, 7, grid)
        assert len(st.residual_moments) == 4
        assert st.cross_cov.shape == (4, 4)
        assert st.var_g >= 0.0
        # the mean of G matches the order-0 term up to MC noise
        mean0 = term0(BrownianMotion(1), grid, 0, 0.1, [0.5])
        assert abs(st.mean_g - mean0) <= 5.0 * math.sqrt(st.var_g / 400)


# the u = 0 means int_eps^{1+eps} (1 + eps - s) (2 pi s)^(-d/2) ds, in forms
# free of cancellation at small eps
CLOSED_FORM_U0 = {
    1: lambda e: (4.0 / 3.0 * ((1.0 + e) ** 1.5 - e**1.5) - 2.0 * math.sqrt(e)) / SQRT_2PI,
    2: lambda e: ((1.0 + e) * math.log1p(1.0 / e) - 1.0) / (2.0 * math.pi),
    3: lambda e: (2.0 * (2.0 * math.pi) ** -1.5
                  / (math.sqrt(e) * (math.sqrt(1.0 + e) + math.sqrt(e)) ** 2)),
}
ORACLE_EPS = (1.0, 0.1, 0.01, 1e-4, 1e-6)


class TestQuadratureOracle:
    def test_against_scipy_quad(self):
        from scipy.integrate import quad

        for d, u in ((1, [0.5]), (2, [0.4, 0.3]), (2, [1.5, 1.0]), (3, [1.0, 0.5, 0.5])):
            sq = float(np.dot(u, u))
            for eps in ORACLE_EPS:
                def f(tau, eps=eps):
                    s = tau + eps
                    return (1.0 - tau) * (2.0 * math.pi * s) ** (-0.5 * d) * math.exp(
                        -sq / (2.0 * s))

                # breakpoints where the integrand's scale changes, near tau = 0
                points = [p for p in (eps, 10.0 * eps, 100.0 * eps) if p < 1.0]
                expect, _ = quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13,
                                 points=points or None, limit=200)
                assert self_intersection_mean_quadrature(eps, u, d) == pytest.approx(
                    expect, rel=5e-14, abs=0.0), (d, u, eps)

    def test_closed_forms_at_zero_offset(self):
        # a 4000-node rule in tau is off by up to 1.2e-6 here (d = 3, eps = 1e-6)
        for d, closed in CLOSED_FORM_U0.items():
            for eps in ORACLE_EPS:
                assert self_intersection_mean_quadrature(eps, [0.0] * d, d) == pytest.approx(
                    closed(eps), rel=5e-14, abs=0.0), (d, eps)

    def test_rejects_bad_input(self):
        # eps = 0 is a divergent integral for d >= 2
        for eps in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="eps"):
                self_intersection_mean_quadrature(eps, [0.0, 0.0], 2)
        for u in ([0.5], [0.5, 0.5, 0.5], 0.5):
            with pytest.raises(ValueError, match="offset"):
                self_intersection_mean_quadrature(0.1, u, 2)

    def test_chaos_driver_builds_no_large_rule(self, tmp_path, monkeypatch):
        import wcl.analytic
        from wcl.cli import cli_main

        sizes = []
        build = wcl.analytic.gauss_legendre

        def recording(n):
            sizes.append(n)
            return build(n)

        monkeypatch.setattr(wcl.analytic, "gauss_legendre", recording)
        assert cli_main(["chaos", "--steps", "256", "--samples", "100", "--seed", "7",
                         "--out", str(tmp_path), "--quiet"]) == 0
        assert sizes and max(sizes) <= 500
