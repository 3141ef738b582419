import math
import tracemalloc

import numpy as np
import pytest

from wcl.analytic import (
    HeatKernelParams,
    QuadratureRule,
    gauss_hermite_rule,
    gauss_kernel_sq,
    gauss_legendre,
    heat_convolve_variance,
    heat_kernel,
    hermite_bound_constant,
    hermite_eval,
    hermite_sequence,
    integrate_interval,
    integrate_simplex,
    product_basis_eval,
    product_basis_norm,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestHermite:
    def test_base_cases(self):
        assert hermite_eval(0, 2.7) == 1.0
        assert hermite_eval(1, 2.7) == 2.7

    def test_low_orders_closed_form(self):
        for x in (-3.0, -0.5, 0.0, 1.0, 2.25):
            assert hermite_eval(2, x) == pytest.approx(x**2 - 1.0, rel=1e-14)
            assert hermite_eval(3, x) == pytest.approx(x**3 - 3.0 * x, rel=1e-13, abs=1e-13)
            assert hermite_eval(4, x) == pytest.approx(x**4 - 6.0 * x**2 + 3.0, rel=1e-13)

    def test_matches_coefficient_oracle(self):
        # independent oracle: symbolic coefficients in the power basis
        xs = np.linspace(-4.0, 4.0, 81)
        for n in range(11):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            poly = np.polynomial.hermite_e.herme2poly(coeffs)
            expect = np.polynomial.polynomial.polyval(xs, poly)
            got = hermite_eval(n, xs)
            assert np.allclose(got, expect, rtol=1e-9, atol=1e-9)

    def test_sequence_consistency(self):
        xs = np.linspace(-3.0, 3.0, 17)
        seq = hermite_sequence(8, xs)
        assert seq.shape == (9, 17)
        for n in range(9):
            assert np.allclose(seq[n], hermite_eval(n, xs), rtol=1e-12)
        seq = hermite_sequence(8, 1.5)
        assert seq.shape == (9,)
        assert seq[8] == pytest.approx(hermite_eval(8, 1.5), rel=1e-12)

    def test_values_at_zero(self):
        # H_n(0): 0 for odd n, (-1)^(n/2) (n-1)!! for even n
        assert hermite_eval(3, 0.0) == 0.0
        assert hermite_eval(2, 0.0) == -1.0
        assert hermite_eval(4, 0.0) == 3.0
        assert hermite_eval(6, 0.0) == -15.0

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            hermite_eval(-1, 0.0)
        with pytest.raises(ValueError):
            hermite_eval(61, 0.0)

    def test_array_shape(self):
        x = np.zeros((3, 5))
        assert hermite_eval(4, x).shape == (3, 5)


class TestHermiteBound:
    def test_constant_order_zero(self):
        assert hermite_bound_constant(0) == 1.0

    def test_bound_holds_on_random_sample(self):
        rng = np.random.default_rng(8675309)
        for n in range(1, 13):
            a_n = hermite_bound_constant(n)
            x = np.concatenate([
                rng.uniform(-30.0, 30.0, size=5000),
                rng.normal(0.0, 4.0, size=5000),
            ])
            lhs = np.abs(hermite_eval(n, x))
            rhs = a_n * np.exp(0.25 * x**2)
            assert np.all(lhs <= rhs * (1.0 + 1e-9))

    def test_bound_is_attained(self):
        # the extremum is an interior maximum of |H_n| e^{-x^2/4}
        for n in (1, 2, 5):
            a_n = hermite_bound_constant(n)
            xs = np.linspace(-15.0, 15.0, 200001)
            peak = np.max(np.abs(hermite_eval(n, xs)) * np.exp(-0.25 * xs**2))
            assert peak == pytest.approx(a_n, rel=1e-6)

    def test_first_order_value(self):
        # max |x| e^{-x^2/4} at x = sqrt(2): sqrt(2) e^{-1/2}
        assert hermite_bound_constant(1) == pytest.approx(
            math.sqrt(2.0) * math.exp(-0.5), rel=1e-10)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            hermite_bound_constant(21)


class TestHeatKernel:
    def test_normalization_at_zero(self):
        for d in (1, 2, 3):
            for eps in (0.01, 0.5, 2.0):
                p = heat_kernel(HeatKernelParams(d, eps), np.zeros(d))
                assert p == pytest.approx((2.0 * math.pi * eps) ** (-0.5 * d), rel=1e-14)

    def test_standard_normal_value(self):
        assert heat_kernel(HeatKernelParams(1, 1.0), [0.0]) == pytest.approx(
            1.0 / SQRT_2PI, rel=1e-14)

    def test_integrates_to_one(self):
        xs = np.linspace(-12.0, 12.0, 6001)
        vals = gauss_kernel_sq(xs**2, 0.7)
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-12)

    def test_underflow_cutoff(self):
        assert gauss_kernel_sq(1e6, 0.01) == 0.0
        arr = gauss_kernel_sq(np.array([0.0, 1e9]), 0.1)
        assert arr[1] == 0.0 and arr[0] > 0

    def test_semigroup_property(self):
        assert heat_convolve_variance(0.3, 0.9) == 1.2
        with pytest.raises(ValueError):
            heat_convolve_variance(-0.1, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HeatKernelParams(0, 1.0)
        with pytest.raises(ValueError):
            HeatKernelParams(1, 0.0)
        with pytest.raises(ValueError):
            heat_kernel(HeatKernelParams(2, 1.0), [1.0])


class TestProductBasis:
    def test_zero_index_is_one(self):
        assert product_basis_eval((0, 0), 2.0, [0.3, -1.0]) == 1.0
        assert product_basis_norm((0, 0), 2.0) == 1.0

    def test_scaling(self):
        # R_(1,)(x) = sigma * H_1(x / sigma) = x for any sigma
        for sigma in (0.5, 1.0, 3.0):
            assert product_basis_eval((1,), sigma, [1.7]) == pytest.approx(1.7, rel=1e-14)

    def test_norm_formula(self):
        assert product_basis_norm((2, 3), 2.0) == pytest.approx(
            2.0**5 * math.sqrt(2.0 * 6.0), rel=1e-14)

    def test_orthogonality_by_quadrature(self):
        # int R_a R_b p_{sigma^2} dx = 0 for a != b, = norm^2 for a = b
        sigma = 1.5
        x, w = gauss_hermite_rule(60)
        xs = sigma * x  # x ~ N(0, sigma^2)
        for a in range(4):
            for b in range(4):
                va = np.array([product_basis_eval((a,), sigma, [xi]) for xi in xs])
                vb = np.array([product_basis_eval((b,), sigma, [xi]) for xi in xs])
                inner = float(np.dot(w, va * vb))
                expect = product_basis_norm((a,), sigma) ** 2 if a == b else 0.0
                assert inner == pytest.approx(expect, abs=1e-10)


class TestQuadrature:
    def test_interval_weights_sum(self):
        for rule in (QuadratureRule("trapezoid", 100), QuadratureRule("gauss-legendre", 20)):
            _, w = rule.nodes_weights()
            assert np.sum(w) == pytest.approx(1.0, rel=1e-14)

    def test_polynomial_exactness(self):
        rule = QuadratureRule("gauss-legendre", 10)
        assert integrate_interval(lambda t: t**3, rule) == pytest.approx(0.25, rel=1e-14)
        assert integrate_interval(lambda t: np.exp(t), rule) == pytest.approx(
            math.e - 1.0, rel=1e-12)

    def test_scalar_integrand_fallback(self):
        rule = QuadratureRule("gauss-legendre", 10)
        val = integrate_interval(lambda t: float(t) ** 2, rule)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_non_finite_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            integrate_interval(lambda t: 1.0 / t, QuadratureRule("trapezoid", 50))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule("simpson", 10)

    def test_simplex_volume(self):
        # volume of the ordered simplex is 1/n!
        for n in (2, 3, 4):
            rule = QuadratureRule("gauss-legendre", 40)
            vol = integrate_simplex(lambda *ts: np.ones_like(ts[0]), n, rule)
            assert vol == pytest.approx(1.0 / math.factorial(n), rel=1e-10)

    def test_simplex_singular_integrand(self):
        # int over {s < t} of 1/sqrt(s (t - s)) = pi (Beta(1/2,1/2) per slice)
        val = integrate_simplex(
            lambda s, t: 1.0 / np.sqrt(s * (t - s)), 2,
            QuadratureRule("gauss-legendre", 200))
        assert val == pytest.approx(math.pi, rel=1e-8)

    def test_simplex_node_budget(self):
        # the default 200-node rule at n = 4 would need 1.6e9 tensor nodes:
        # refused before the integrand is called or any array allocated
        calls = []
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                integrate_simplex(lambda *ts: calls.append(ts), 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 1e6

    def test_simplex_order_guard(self):
        with pytest.raises(ValueError):
            integrate_simplex(lambda *ts: 1.0, 5)
        with pytest.raises(ValueError):
            integrate_simplex(lambda *ts: 1.0, 2, QuadratureRule("trapezoid", 50))


class TestGaussHermiteRule:
    def test_moments(self):
        x, w = gauss_hermite_rule(40)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-12)
        assert np.dot(w, x**2) == pytest.approx(1.0, rel=1e-12)
        assert np.dot(w, x**4) == pytest.approx(3.0, rel=1e-12)

    def test_high_order_stable(self):
        x, w = gauss_hermite_rule(400)
        assert np.all(np.isfinite(w))
        assert np.dot(w, x**2) == pytest.approx(1.0, rel=1e-10)


class TestGaussLegendre:
    def test_matches_numpy(self):
        for n in (2, 60, 400, 1000):
            x, w = gauss_legendre(n)
            x_np, w_np = np.polynomial.legendre.leggauss(n)
            np.testing.assert_allclose(x, x_np, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(w, w_np, rtol=0.0, atol=1e-12)

    def test_built_once_and_read_only(self):
        x, w = gauss_legendre(50)
        assert gauss_legendre(50)[0] is x
        with pytest.raises(ValueError):
            w[0] = 0.0
