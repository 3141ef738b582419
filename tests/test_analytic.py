import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import wcl
from wcl.analytic import (
    gauss_kernel_sq,
    gauss_legendre,
    hermite_bound_constant,
    hermite_coefficients,
    hermite_eval,
    hermite_sequence,
    integrate_interval,
    integrate_log,
    integrate_simplex,
)
from wcl.functionals import interval_weights

SQRT_2PI = math.sqrt(2.0 * math.pi)
# the rule sizes the drivers build, the smallest rules and a larger rule
LEGENDRE_SIZES = (1, 2, 40, 60, 120, 160, 200, 400, 500)


@pytest.fixture
def no_matrix(monkeypatch):
    """np.linalg and np.polynomial (whose root finders solve companion
    matrices) stubbed so that any use of them fails."""
    class Unused:
        def __init__(self, name):
            self.name = name

        def __getattr__(self, attr):
            raise AssertionError(f"np.{self.name}.{attr} used")

    for name in ("linalg", "polynomial"):
        monkeypatch.setattr(np, name, Unused(name))


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

    def test_coefficient_table_matches_numpy(self):
        # row n holds H_n's power-basis coefficients, exact integers up to
        # the chaos kernel's largest order
        table = hermite_coefficients(15)
        for n in range(16):
            expect = np.polynomial.hermite_e.herme2poly([0.0] * n + [1.0])
            assert np.array_equal(table[n, : n + 1], expect)
            assert not np.any(table[n, n + 1 :])

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
            math.sqrt(2.0) * math.exp(-0.5), rel=1e-14)

    def test_second_and_third_order_values(self):
        # |x^2 - 1| e^{-x^2/4} peaks at x^2 = 5 (x = 0 gives only 1)
        assert hermite_bound_constant(2) == pytest.approx(4.0 * math.exp(-1.25), rel=1e-14)
        # H_4 - 3 H_2 = x^4 - 9 x^2 + 6 vanishes at x^2 = (9 +- sqrt 57) / 2
        a3 = max(math.sqrt(y) * abs(y - 3.0) * math.exp(-0.25 * y)
                 for y in ((9.0 - math.sqrt(57.0)) / 2.0, (9.0 + math.sqrt(57.0)) / 2.0))
        assert hermite_bound_constant(3) == pytest.approx(a3, rel=1e-14)

    def test_cramer_inequality(self):
        # Cramer (1946), Indritz (1961): a_n <= 1.086435 sqrt(n!)
        for n in range(21):
            assert hermite_bound_constant(n) <= 1.086435 * math.sqrt(math.factorial(n))

    def test_matches_polished_search(self):
        # reference: maximize |H_n| e^{-x^2/4} by a bounded scalar search
        # around each critical point, with H_n from numpy's Clenshaw sum
        from scipy.optimize import minimize_scalar

        herme = np.polynomial.hermite_e
        for n in range(1, 21):
            coeffs = np.zeros(n + 2)
            coeffs[n + 1], coeffs[n - 1] = 1.0, -n
            roots = np.sort(herme.hermeroots(coeffs))
            half_gap = 0.5 * np.min(np.diff(roots))
            basis = np.zeros(n + 1)
            basis[n] = 1.0

            def neg_objective(x):
                return -abs(herme.hermeval(x, basis)) * math.exp(-0.25 * x * x)

            best = max(-minimize_scalar(neg_objective, bounds=(r - half_gap, r + half_gap),
                                        method="bounded", options={"xatol": 1e-12}).fun
                       for r in roots)
            assert hermite_bound_constant(n) == pytest.approx(best, rel=1e-13)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            hermite_bound_constant(21)

    @pytest.mark.parametrize("n", (1, 2, 7, 20))
    def test_makes_no_matrix(self, n, no_matrix):
        assert 0.0 < hermite_bound_constant(n) <= 1.086435 * math.sqrt(math.factorial(n))


def test_import_leaves_out_scipy_optimize(tmp_path):
    # wcl runs on numpy alone: neither the import nor a selftest run, which
    # builds Gauss-Legendre rules and Hermite bounds, loads any of scipy.
    # The selftest, a bridge run and a Holder fit make no LAPACK call (the
    # gufunc module behind np.linalg raises) and leave numpy.polynomial
    # unloaded
    src = os.path.dirname(os.path.dirname(wcl.__file__))
    code = f"""
import sys
sys.path.insert(0, {src!r})
import numpy.linalg._linalg


class NoLapack:
    def __getattr__(self, name):
        raise AssertionError(f"LAPACK {{name}} called")


numpy.linalg._linalg._umath_linalg = NoLapack()
import wcl.cli
print('scipy.optimize' in sys.modules)
assert wcl.cli.cli_main(['selftest', '--out', {str(tmp_path / "st")!r}, '--quiet']) == 0
assert wcl.cli.cli_main(['bridge', '--samples', '2000', '--steps', '256',
                         '--out', {str(tmp_path / "br")!r}, '--quiet']) == 0
wcl.holder_moment_diagnostic(wcl.BrownianMotion(1), wcl.LocalTime, [1.0], 1,
                             [(0.25, 0.5), (0.5, 1.0), (0.0, 1.0)],
                             wcl.MCConfig(200, 0), wcl.TimeGrid(16))
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
print('numpy.polynomial' in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "[]", "False"]
    assert (tmp_path / "st" / "report.json").exists()
    assert (tmp_path / "br" / "report.json").exists()


class TestHeatKernel:
    def test_normalization_at_zero(self):
        for d in (1, 2, 3):
            for eps in (0.01, 0.5, 2.0):
                p = gauss_kernel_sq(0.0, eps, d)
                assert p == pytest.approx((2.0 * math.pi * eps) ** (-0.5 * d), rel=1e-14)

    def test_standard_normal_value(self):
        assert gauss_kernel_sq(0.0, 1.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-14)
        # p_{1/2}^2 at the point (1, 1): |x|^2 = 2
        assert gauss_kernel_sq(2.0, 0.5, 2) == pytest.approx(
            math.exp(-2.0) / math.pi, rel=1e-14)

    def test_integrates_to_one(self):
        xs = np.linspace(-12.0, 12.0, 6001)
        vals = gauss_kernel_sq(xs**2, 0.7)
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-12)

    def test_underflow_cutoff(self):
        assert gauss_kernel_sq(1e6, 0.01) == 0.0
        arr = gauss_kernel_sq(np.array([0.0, 1e9]), 0.1)
        assert arr[1] == 0.0 and arr[0] > 0
        # up to the cutoff the value is the plain closed form, bit for bit
        assert gauss_kernel_sq(2.0 * 745.0, 1.0) == math.exp(-745.0) / SQRT_2PI

    def test_parameter_validation(self):
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                gauss_kernel_sq(1.0, eps)


class TestQuadrature:
    def test_interval_weights_sum(self):
        for n_nodes in (2, 20, 500):
            assert integrate_interval(np.ones_like, n_nodes) == pytest.approx(1.0, rel=1e-14)

    def test_polynomial_exactness(self):
        assert integrate_interval(lambda t: t**3, 10) == pytest.approx(0.25, rel=1e-14)
        assert integrate_interval(lambda t: np.exp(t), 10) == pytest.approx(
            math.e - 1.0, rel=1e-12)

    def test_type_error_in_integrand_propagates(self):
        # the integrand gets the node array; a scalar-only f is an error
        with pytest.raises(TypeError):
            integrate_interval(lambda t: float(t) ** 2, 10)

    def test_non_finite_rejected(self):
        # Gauss-Legendre nodes avoid the endpoints, so 1/t is finite there
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            integrate_interval(lambda t: np.exp(1000.0 * t), 50)
        with pytest.raises(ValueError, match="non-finite"):
            integrate_interval(lambda t: np.where(t > 0.5, np.nan, t), 50)

    def test_log_substitution(self):
        # 1/s is constant in the substituted variable, so any rule is exact
        for lo, hi in ((1e-8, 1.0), (0.5, 2.0), (3.0, 1e6)):
            assert integrate_log(lambda s: 1.0 / s, lo, hi, 2) == pytest.approx(
                math.log(hi / lo), rel=1e-15)
        for lo, hi in ((0.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, math.inf),
                       (math.nan, 1.0)):
            with pytest.raises(ValueError, match="lo < hi"):
                integrate_log(np.ones_like, lo, hi, 10)

    def test_simplex_volume(self):
        # volume of the ordered simplex is 1/n!
        for n in (2, 3, 4):
            vol = integrate_simplex(lambda *ts: np.ones_like(ts[0]), n, 40)
            assert vol == pytest.approx(1.0 / math.factorial(n), rel=1e-10)

    def test_simplex_singular_integrand(self):
        # int over {s < t} of 1/sqrt(s (t - s)) = pi (Beta(1/2,1/2) per slice)
        val = integrate_simplex(lambda s, t: 1.0 / np.sqrt(s * (t - s)), 2, 200)
        assert val == pytest.approx(math.pi, rel=1e-8)

    @staticmethod
    def dense_products(f, n, n_nodes):
        """weight * jacobian * f at every node of integrate_simplex's
        tensor rule, on dense grids, every array full-size."""
        x, w = gauss_legendre(n_nodes)
        theta = (x + 1.0) * (math.pi / 4.0)
        u = np.sin(theta) ** 2
        wu = w * (math.pi / 4.0) * np.sin(2.0 * theta)
        grids = np.meshgrid(*([u] * n), indexing="ij")
        weight = np.ones_like(grids[0])
        for g in np.meshgrid(*([wu] * n), indexing="ij"):
            weight = weight * g
        ts = [None] * n
        ts[n - 1] = grids[n - 1]
        jac = np.ones_like(grids[0])
        for j in range(n - 2, -1, -1):
            ts[j] = ts[j + 1] * grids[j]
            jac = jac * ts[j + 1]
        return weight * jac * np.asarray(f(*ts), dtype=float)

    @staticmethod
    def kac_integrand(*ts):
        val = 1.0 / np.sqrt(ts[0])
        for j in range(1, len(ts)):
            val = val / np.sqrt(ts[j] - ts[j - 1])
        return val

    def test_slab_sums_round_like_the_exact_sum(self):
        # the selftest's three simplex rows and the kac driver's n = 2, 3,
        # then node counts whose last slab is shorter than the others:
        # 161 rows in slabs of 50, 61 in slabs of 2, 31 in slabs of 1.
        # Within 1 ulp of the exactly rounded sum of the dense products
        # (0 measured; np.sum over the dense array was 1 ulp off in three)
        cases = [(lambda a, b: np.ones_like(a), 2, 60),
                 (lambda a, b, c: np.ones_like(a), 3, 40),
                 (lambda a, b: 1.0 / np.sqrt(a * (b - a)), 2, 120),
                 (self.kac_integrand, 2, 160),
                 (self.kac_integrand, 3, 60),
                 (lambda *ts: np.ones_like(ts[0]), 4, 30),
                 (self.kac_integrand, 2, 161),
                 (self.kac_integrand, 3, 61),
                 (self.kac_integrand, 4, 31)]
        for f, n, n_nodes in cases:
            exact = math.fsum(self.dense_products(f, n, n_nodes).ravel())
            got = integrate_simplex(f, n, n_nodes)
            assert abs(got - exact) <= math.ulp(exact), (n, n_nodes)

    def test_simplex_peak_is_integrand_sized(self):
        # every array is slab-sized: the peak is at most 8 buffers of a
        # slab's nodes (7.1 measured), however many nodes the rule has.
        # kac's n = 3, 60-node rule has 216 000 nodes in slabs of 7200:
        # dense grids peaked at 20.7 MB here, whole open grids at 8.7 MB, a
        # full-size product array at 2.2 MB (37.6 slab buffers), slab sums
        # at 0.38 MB; at (3, 120) that product array was 128 slab buffers
        for n, n_nodes in ((3, 60), (4, 30), (3, 120)):
            integrate_simplex(self.kac_integrand, n, n_nodes)  # builds the cached rule
            tracemalloc.start()
            try:
                integrate_simplex(self.kac_integrand, n, n_nodes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            row = n_nodes ** (n - 1)
            slab = max(1, wcl.analytic._SLAB_NODES // row) * row
            assert peak <= 8 * 8 * slab, (n, n_nodes, peak)

    def test_simplex_node_budget(self):
        # 200 nodes at n = 4 would need 1.6e9 tensor nodes: refused
        # before the integrand is called or any array allocated
        calls = []
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                integrate_simplex(lambda *ts: calls.append(ts), 4, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 1e6

    def test_simplex_order_guard(self):
        with pytest.raises(ValueError):
            integrate_simplex(lambda *ts: 1.0, 5, 10)


def long_double_legendre(n):
    """Gauss-Legendre nodes and weights in long double: Newton's method on
    P_n from numpy's nodes, and the weights 2 (1 - x^2) / (n P_{n-1}(x))^2."""
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for newton in (True, True, True, True, False):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        if newton:
            x = x - p * (x * x - 1) / (n * (x * p - p_prev))
    return x, 2 * (1 - x * x) / (n * p_prev) ** 2


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
        # the trapezoid rule of the path functionals is cached the same way
        w = interval_weights(50)
        assert interval_weights(50) is w
        with pytest.raises(ValueError):
            w[0] = 0.0

    @pytest.mark.parametrize("n", LEGENDRE_SIZES)
    def test_nodes_match_scipy(self, n):
        from scipy.special import roots_legendre  # reference only

        x, _ = gauss_legendre(n)
        ref, _ = roots_legendre(n)
        assert np.all(np.abs(x - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("n", LEGENDRE_SIZES)
    def test_even_moments(self, n):
        # int_{-1}^{1} x^(2k) dx = 2 / (2k + 1), exact for 2k <= 2n - 1:
        # within 1e-12 relative up to k = n - 1 (1.5e-13 measured at 500)
        x, w = gauss_legendre(n)
        for k in range(n):
            assert np.dot(w, x ** (2 * k)) == pytest.approx(2.0 / (2 * k + 1), rel=1e-12), k

    @pytest.mark.parametrize("n", LEGENDRE_SIZES)
    def test_makes_no_matrix(self, n, no_matrix):
        x, w = gauss_legendre.__wrapped__(n)
        assert x.shape == w.shape == (n,)

    @pytest.mark.parametrize("n", LEGENDRE_SIZES)
    def test_matches_a_long_double_rule(self, n):
        # nodes within 1e-16 and weights within 1e-11 relative (5.6e-17 and
        # 4.1e-12 measured at 500; the Golub-Welsch eigen-solve gave
        # 1.8e-15 and 1.5e-11 at 400)
        x, w = gauss_legendre(n)
        ref_x, ref_w = long_double_legendre(n)
        assert np.all(np.diff(x) > 0)
        assert np.max(np.abs(x - ref_x)) <= 1e-16
        assert np.max(np.abs(w / ref_w - 1)) <= 1e-11


def test_rule_needs_a_node():
    with pytest.raises(ValueError, match="at least one node"):
        gauss_legendre(0)
