import math
import warnings

import numpy as np
import pytest

from wcl.analytic import gauss_kernel_sq
from wcl.functionals import (
    EndpointKernel,
    LocalTime,
    SelfIntersection,
    eval_family_many,
    eval_functional_many,
    indicator_local_time_many,
    interval_weights,
    local_time_field,
    triangle_rule,
    upcrossing_count_many,
)
from wcl.processes import BrownianMotion, TimeGrid, sample_values

SQRT_2PI = math.sqrt(2.0 * math.pi)


def zero_path(n_steps=64, d=1):
    return np.zeros((1, n_steps + 1, d))


def one_path(model, grid, seed):
    """The path that seed draws, as a batch of one."""
    values, _ = sample_values(model, grid, seed, n_paths=1)
    return values


class TestWeights:
    def test_interval_weights_sum_to_one(self):
        for n in (2, 7, 256):
            assert np.sum(interval_weights(n)) == pytest.approx(1.0, rel=1e-14)

    def test_triangle_weights_sum_to_half(self):
        for n in (4, 33, 256):
            weights = list(triangle_rule(n))
            assert math.fsum(np.concatenate(weights)) == pytest.approx(0.5, rel=1e-13)

    def test_triangle_lag_weighs_the_pairs_of_its_time_gap(self):
        # lag L weighs the pairs (i, i + L), by the product of their
        # trapezoid weights, halved on the diagonal
        w1 = interval_weights(8)
        weights = list(triangle_rule(8))
        assert len(weights) == 9
        for lag, w in enumerate(weights):
            pairs = [w1[i] * w1[i + lag] for i in range(9 - lag)]
            assert np.array_equal(w, np.multiply(pairs, 0.5 if lag == 0 else 1.0))


class TestSpecValidation:
    def test_eps_must_be_positive(self):
        for cls in (LocalTime, EndpointKernel):
            with pytest.raises(ValueError):
                cls(0.0)
        with pytest.raises(ValueError):
            SelfIntersection(-1.0, (0.5,))

    def test_zero_offset_warns_for_d_above_one(self):
        with pytest.warns(UserWarning):
            SelfIntersection(0.1, (0.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SelfIntersection(0.1, (0.0,))  # d = 1 is allowed silently

    def test_dimension_mismatch(self):
        p = zero_path(d=2)
        with pytest.raises(ValueError):
            eval_functional_many(LocalTime(0.1), p)
        with pytest.raises(ValueError):
            eval_functional_many(SelfIntersection(0.1, (0.5,)), p)

    def test_scalar_path_operations_reject_d_above_one(self):
        # these read coordinate 0 only, so a d = 2 batch must not pass silently
        values = one_path(BrownianMotion(2), TimeGrid(16), 3)
        for call in (lambda: indicator_local_time_many(values, 0.0, 0.1),
                     lambda: local_time_field(values, 0.1, [0.0]),
                     lambda: upcrossing_count_many(values, 0.0)):
            with pytest.raises(ValueError, match="d = 2"):
                call()


class TestClosedFormValues:
    def test_endpoint_kernel_zero_end(self):
        assert eval_functional_many(EndpointKernel(1.0), zero_path())[0] == pytest.approx(
            0.3989422804014327, rel=1e-12)

    def test_endpoint_kernel_reads_the_last_node(self):
        # every node differs from its neighbours, so reading w(1 - h) for
        # w(1) changes every value
        values = np.linspace(-2.0, 3.0, 4 * 65).reshape(4, 65, 1)
        eps_grid = (1.0, 0.1, 0.01)
        family = eval_family_many(EndpointKernel, eps_grid, values)
        for row, eps in zip(family, eps_grid):
            expect = gauss_kernel_sq(values[:, -1, 0] ** 2, eps)
            assert np.array_equal(eval_functional_many(EndpointKernel(eps), values), expect)
            assert np.array_equal(row, expect)

    def test_local_time_zero_path(self):
        for eps in (0.01, 0.5, 2.0):
            assert eval_functional_many(LocalTime(eps), zero_path())[0] == pytest.approx(
                1.0 / math.sqrt(2.0 * math.pi * eps), rel=1e-12)

    def test_self_intersection_zero_path(self):
        # constant integrand times the area of the triangle
        for d, u in ((1, (0.5,)), (2, (0.4, 0.3))):
            for eps in (0.1, 1.0):
                p = zero_path(d=d)
                sq = sum(x * x for x in u)
                expect = 0.5 * (2.0 * math.pi * eps) ** (-0.5 * d) * math.exp(
                    -sq / (2.0 * eps))
                got = eval_functional_many(SelfIntersection(eps, u), p)[0]
                assert got == pytest.approx(expect, rel=1e-12)

    def test_batch_matches_single(self):
        grid = TimeGrid(64)
        paths = [one_path(BrownianMotion(2), grid, s) for s in range(5)]
        values = np.concatenate(paths)
        spec = SelfIntersection(0.1, (0.4, 0.3))
        batch = eval_functional_many(spec, values)
        singles = [eval_functional_many(spec, p)[0] for p in paths]
        assert np.allclose(batch, singles, rtol=1e-12, atol=0.0)

    def test_everything_non_negative(self):
        grid = TimeGrid(64)
        p = one_path(BrownianMotion(1), grid, 17)
        for spec in (LocalTime(0.1), EndpointKernel(0.1), SelfIntersection(0.1, (0.5,))):
            assert eval_functional_many(spec, p)[0] >= 0.0


class TestIndicatorLocalTime:
    def test_path_at_level(self):
        p = zero_path()
        assert indicator_local_time_many(p, 0.0, 0.25)[0] == pytest.approx(2.0, rel=1e-12)

    def test_path_outside_band(self):
        p = zero_path()
        p[:] = 5.0
        assert indicator_local_time_many(p, 0.0, 0.25)[0] == 0.0

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            indicator_local_time_many(zero_path(), 0.0, 0.0)
        with pytest.raises(ValueError):
            indicator_local_time_many(np.zeros((2, 5, 1)), 0.0, -1.0)

    def test_batch_matches_single(self):
        grid = TimeGrid(128)
        paths = [one_path(BrownianMotion(1), grid, s) for s in range(4)]
        values = np.concatenate(paths)
        batch = indicator_local_time_many(values, 0.0, 0.05)
        singles = [indicator_local_time_many(p, 0.0, 0.05)[0] for p in paths]
        assert np.allclose(batch, singles, rtol=1e-12)


class TestLocalTimeField:
    def test_zero_path_peak(self):
        field = local_time_field(zero_path(), 0.04, [0.0])
        assert field[0, 0] == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * 0.04), rel=1e-12)

    def test_integrates_to_one(self):
        grid = TimeGrid(256)
        p = one_path(BrownianMotion(1), grid, 23)
        xs = np.linspace(-6.0, 6.0, 2001)
        field = local_time_field(p, 0.05, xs)[0]
        assert np.trapezoid(field, xs) == pytest.approx(1.0, abs=1e-6)

    def test_consistent_with_local_time(self):
        grid = TimeGrid(128)
        p = one_path(BrownianMotion(1), grid, 29)
        field = local_time_field(p, 0.1, [0.0])
        assert field[0, 0] == pytest.approx(eval_functional_many(LocalTime(0.1), p)[0],
                                            rel=1e-12)

    def test_agrees_with_indicator_in_mc_mean(self):
        # both estimate the same local time ell(0); means within 10%
        grid = TimeGrid(2048)
        eps_field, eps_band = 1e-4, 0.02
        tot_f = tot_i = 0.0
        n = 200
        for s in range(n):
            p = one_path(BrownianMotion(1), grid, s)
            tot_f += local_time_field(p, eps_field, [0.0])[0, 0]
            tot_i += indicator_local_time_many(p, 0.0, eps_band)[0]
        assert abs(tot_f - tot_i) / tot_i < 0.10


class TestOccupationIdentity:
    """sum_x W_x f(x) ell_eps(x), the field integrated against a polynomial f
    on a Gauss-Legendre rule in x, at closed forms of its other side
    sum_k w_k E f(v_k + sqrt(eps) Z); on random paths against numpy's
    Hermite rule, 7 nodes here and 5 in criterion 6."""

    @staticmethod
    def field_integral(values, eps, coeffs):
        v = values[0, :, 0]
        lo, hi = v.min() - 12.0 * math.sqrt(eps), v.max() + 12.0 * math.sqrt(eps)
        x, wx = np.polynomial.legendre.leggauss(200)
        xs = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        f = np.polynomial.polynomial.polyval(xs, coeffs)
        return 0.5 * (hi - lo) * float(np.sum(wx * f * local_time_field(values, eps, xs)[0]))

    def test_constant_test_function(self):
        p = one_path(BrownianMotion(1), TimeGrid(64), 31)
        assert self.field_integral(p, 0.01, [1.0]) == pytest.approx(1.0, rel=1e-12)

    def test_odd_function_zero_path(self):
        assert abs(self.field_integral(zero_path(), 0.5, [0.0, 1.0])) <= 1e-15

    def test_exact_on_random_paths(self):
        # the other side from numpy's probabilists' Hermite rule (7 nodes,
        # exact to degree 13) and trapezoid weights in t
        grid = TimeGrid(128)
        eps = 0.01
        z, wz = np.polynomial.hermite_e.hermegauss(7)
        wz = wz / math.sqrt(2.0 * math.pi)
        w = np.full(129, 1.0 / 128)
        w[[0, -1]] *= 0.5
        rng = np.random.default_rng(314)
        for s in range(100):
            p = one_path(BrownianMotion(1), grid, s)
            coeffs = rng.standard_normal(5)
            lhs = self.field_integral(p, eps, coeffs)
            v = p[0, :, 0]
            rhs = float(w @ (np.polynomial.polynomial.polyval(
                v[:, None] + math.sqrt(eps) * z, coeffs) @ wz))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) / scale < 1e-12

    def test_quadratic_closed_form(self):
        # f = x^2 on the zero path: E (sqrt(eps) Z)^2 = eps
        assert self.field_integral(zero_path(), 0.3, [0.0, 0.0, 1.0]) == pytest.approx(
            0.3, rel=1e-12)
