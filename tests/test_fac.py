import itertools
import math

import numpy as np
import pytest

from wcl.analytic import gauss_hermite_rule
from wcl.fac import (
    MAX_POLY_DEGREE,
    FacStudyReport,
    HolderDiagnostic,
    MCConfig,
    PolyFunctional,
    TailDiagnostic,
    bm_kl_second_moment,
    endpoint_hermite_bound,
    eval_poly_many,
    fac_ratios,
    holder_moment_diagnostic,
    kl_basis,
    poly_norm,
    random_poly,
    tail_moment_diagnostic,
    uniform_fac_study,
)
from wcl.functionals import EndpointKernel, LocalTime, OffsetLocalTime, SelfIntersection
from wcl.processes import (
    BrownianMotion,
    DegenerateLine,
    Integrator,
    IntegratorOperator,
    SmoothStationary,
    TimeGrid,
    covariance,
    model_dimension,
    sample_values,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def one_path(model, grid, seed):
    """The path that seed draws, as a batch of one."""
    values, _ = sample_values(model, grid, seed, n_paths=1)
    return values


class TestPolyFunctional:
    def test_constant(self):
        p = PolyFunctional.constant(2.5)
        grid = TimeGrid(8)
        path = one_path(BrownianMotion(1), grid, 0)
        assert eval_poly_many(p, path, grid)[0] == 2.5

    def test_point_evaluation(self):
        grid = TimeGrid(8)
        path = one_path(BrownianMotion(2), grid, 3)
        p = PolyFunctional((0.5,), (2,), (((1,), 1.0),))
        assert eval_poly_many(p, path, grid)[0] == pytest.approx(path[0, 4, 1], rel=1e-14)

    def test_polynomial_combination(self):
        grid = TimeGrid(8)
        path = one_path(BrownianMotion(1), grid, 3)
        x, y = path[0, 2, 0], path[0, 8, 0]
        # 3 x^2 y - y + 1
        p = PolyFunctional((0.25, 1.0), (1, 1),
                           (((2, 1), 3.0), ((0, 1), -1.0), ((0, 0), 1.0)))
        assert eval_poly_many(p, path, grid)[0] == pytest.approx(3.0 * x * x * y - y + 1.0,
                                                                rel=1e-12)

    def test_degree_property(self):
        p = PolyFunctional((0.5,), (1,), (((3,), 1.0), ((1,), 2.0)))
        assert p.degree == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PolyFunctional((0.5,), (), (((1,), 1.0),))
        with pytest.raises(ValueError):
            PolyFunctional((0.5,), (1,), (((9,), 1.0),))
        with pytest.raises(ValueError):
            PolyFunctional((0.5,), (1,), (((1,), 0.0),))
        with pytest.raises(ValueError):
            PolyFunctional(tuple([0.5] * 9), tuple([1] * 9), (((1,) * 9, 1.0),))

    def test_coordinate_out_of_range(self):
        grid = TimeGrid(8)
        values, _ = sample_values(BrownianMotion(1), grid, 0, n_paths=2)
        p = PolyFunctional((0.5,), (2,), (((1,), 1.0),))
        with pytest.raises(ValueError):
            eval_poly_many(p, values, grid)


class TestMCEstimators:
    def test_pairing_with_constant_poly(self):
        # ||1|| = 1 exactly, so the ratio against P = 1 is just E Phi
        grid = TimeGrid(256)
        eps = 0.5
        [[mean]], [[se]] = fac_ratios(BrownianMotion(1), EndpointKernel, [eps],
                                      [PolyFunctional.constant(1.0)], MCConfig(20000, 5),
                                      grid)
        oracle = 1.0 / math.sqrt(2.0 * math.pi * (1.0 + eps))
        assert abs(mean - oracle) <= 4.0 * se

    def test_fac_ratio_closed_form(self):
        # EndpointKernel paired with H_2(w(1)): ratio
        # |H_2(0)| (1+eps)^{-3/2} / (sqrt(2) sqrt(2 pi))
        grid = TimeGrid(64)
        eps = 1.0
        p = PolyFunctional((1.0,), (1,), (((2,), 1.0), ((0,), -1.0)))
        [[ratio]], [[se]] = fac_ratios(BrownianMotion(1), EndpointKernel, [eps], [p],
                                       MCConfig(40000, 11), grid)
        oracle = (1.0 + eps) ** -1.5 / (math.sqrt(2.0) * SQRT_2PI)
        assert abs(ratio - oracle) <= 4.0 * se

    def test_heavy_tailed_poly_at_small_budget(self):
        # P = w(1)^8 over only 100 samples: a sampled norm would be too
        # noisy to divide by, the exact one is sqrt(E w(1)^16) = sqrt(15!!)
        grid = TimeGrid(32)
        p = PolyFunctional((1.0,), (1,), (((8,), 1.0),))
        assert poly_norm(p, BrownianMotion(1)) == math.sqrt(2027025)
        [[ratio]], [[se]] = fac_ratios(BrownianMotion(1), EndpointKernel, [1.0], [p],
                                       MCConfig(100, 3), grid)
        assert math.isfinite(ratio) and math.isfinite(se) and se > 0

    def test_zero_norm_is_refused(self):
        # X(0) = 0 for Brownian motion, so P = X(0)^2 has norm 0
        grid = TimeGrid(32)
        p = PolyFunctional((0.0,), (1,), (((2,), 1.0),))
        with pytest.raises(ValueError, match="zero L2 norm"):
            fac_ratios(BrownianMotion(1), EndpointKernel, [1.0], [p], MCConfig(100, 3),
                       grid)
        # x - y with x and y the same point value cancels exactly
        q = PolyFunctional((0.5, 0.5), (1, 1), (((1, 0), 1.0), ((0, 1), -1.0)))
        with pytest.raises(ValueError, match="zero L2 norm"):
            poly_norm(q, BrownianMotion(1))

    def test_sample_count_guard(self):
        with pytest.raises(ValueError):
            MCConfig(50, 0)

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            MCConfig(100, -1)

    def test_cells_match_one_cell_calls(self):
        # every cell of a 3 eps x 3 P grid is bit for bit the 1 x 1 call on
        # that cell; 2100 samples make three replica chunks
        grid = TimeGrid(32)
        bm2 = BrownianMotion(2)
        family = lambda eps: SelfIntersection(eps, (0.4, 0.3))
        rng = np.random.default_rng(5)
        polys = [random_poly(rng, 4, grid, 2) for _ in range(3)]
        eps_grid = [1.0, 0.1, 0.01]
        mc = MCConfig(2100, 3)
        ratios, ses = fac_ratios(bm2, family, eps_grid, polys, mc, grid)
        assert ratios.shape == ses.shape == (3, 3)
        for i, eps in enumerate(eps_grid):
            for j, p in enumerate(polys):
                [[ratio]], [[se]] = fac_ratios(bm2, family, [eps], [p], mc, grid)
                assert (ratios[i, j], ses[i, j]) == (ratio, se)


def linear_poly(times, coeffs):
    """l = sum_i c_i X_1(t_i) and its square, as polynomials."""
    n = len(times)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    lin = PolyFunctional(tuple(times), (1,) * n,
                         tuple((e, float(c)) for e, c in zip(unit, coeffs)))
    sq = PolyFunctional(tuple(times), (1,) * n, tuple(
        (tuple(x + y for x, y in zip(ea, eb)), float(ca * cb))
        for ea, ca in zip(unit, coeffs) for eb, cb in zip(unit, coeffs)))
    return lin, sq


class TestExactNorm:
    def test_fourth_moment_of_linear_functional(self):
        # E l^4 = 3 (E l^2)^2 for every centred Gaussian l
        op = IntegratorOperator.from_profile(lambda s: 1.0 + 0.5 * s, 8)
        cases = [
            (BrownianMotion(1), [0.25, 0.5, 1.0], [1.0, -0.5, 2.0]),
            (Integrator(op), [0.25, 0.75], [1.0, 1.0]),
            (SmoothStationary(2.0), [0.0, 0.5, 1.0], [0.3, 0.3, 0.4]),
            (DegenerateLine(), [0.5, 1.0], [1.0, -1.0]),
        ]
        for model, times, coeffs in cases:
            lin, sq = linear_poly(times, coeffs)
            m2, m4 = poly_norm(lin, model) ** 2, poly_norm(sq, model) ** 2
            assert m4 == pytest.approx(3.0 * m2**2, rel=1e-12)

    def test_hermite_norms(self):
        # E H_n(Z)^2 = n! for the probabilists' Hermite polynomials
        for n in range(MAX_POLY_DEGREE + 1):
            coeffs = np.polynomial.hermite_e.herme2poly([0.0] * n + [1.0])
            p = PolyFunctional((1.0,), (1,), tuple(
                ((j,), float(c)) for j, c in enumerate(coeffs) if c != 0.0))
            assert poly_norm(p, BrownianMotion(1)) ** 2 == pytest.approx(
                math.factorial(n), rel=1e-12)

    def test_matches_gauss_hermite_rule(self):
        # E P^2 by a tensor Gauss-Hermite rule in z, with the point values
        # X = L z for L the Cholesky factor of their covariance; five nodes
        # per axis integrate the degree-8 integrand exactly
        grid = TimeGrid(8)
        op = IntegratorOperator.from_profile(lambda s: 1.0 + 0.5 * s, 8)
        z1, w1 = gauss_hermite_rule(5)
        rng = np.random.default_rng(41)
        for model in (BrownianMotion(2), Integrator(op)):
            d = model_dimension(model)
            for _ in range(10):
                n = int(rng.integers(1, 5))
                nodes = rng.choice(grid.n_steps * d, size=n, replace=False)
                times = tuple(float(k // d + 1) * grid.h for k in nodes)
                coords = tuple(int(k % d) + 1 for k in nodes)
                monomials = tuple(
                    (tuple(int(x) for x in rng.multinomial(rng.integers(0, 5), [1 / n] * n)),
                     float(rng.standard_normal()))
                    for _ in range(5))
                p = PolyFunctional(times, coords, monomials)
                cov = np.array([[covariance(model, s, t)[a - 1, b - 1]
                                 for t, b in zip(times, coords)]
                                for s, a in zip(times, coords)])
                z = np.array(list(itertools.product(z1, repeat=n)))
                w = np.prod(list(itertools.product(w1, repeat=n)), axis=1)
                x = z @ np.linalg.cholesky(cov).T
                values = np.zeros((len(z), grid.n_steps + 1, d))
                for j, (t, c) in enumerate(zip(times, coords)):
                    values[:, grid.index_of(t), c - 1] = x[:, j]
                expect = math.fsum(w * eval_poly_many(p, values, grid) ** 2)
                assert poly_norm(p, model) ** 2 == pytest.approx(expect, rel=1e-12)

    def test_coordinate_guards(self):
        # coordinate 0 would read the last coordinate through c - 1
        with pytest.raises(ValueError, match="1-based"):
            PolyFunctional((0.5,), (0,), (((1,), 1.0),))
        p = PolyFunctional((0.5,), (3,), (((1,), 1.0),))
        with pytest.raises(ValueError, match="out of range"):
            poly_norm(p, BrownianMotion(2))


class TestRandomPoly:
    def test_draws_are_valid_and_reproducible(self):
        grid = TimeGrid(64)
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        a = random_poly(rng1, 4, grid, 2)
        b = random_poly(rng2, 4, grid, 2)
        assert a == b
        assert a.degree <= 4
        assert all(0.0 < t <= 1.0 for t in a.times)
        assert all(1 <= c <= 2 for c in a.coords)


class TestUniformStudy:
    def test_study_report_shape(self, tmp_path):
        grid = TimeGrid(64)
        family = lambda eps: OffsetLocalTime(eps, (0.5,))
        study = uniform_fac_study(BrownianMotion(1), family, [1.0, 0.5, 0.1],
                                  degree=2, n_random_polys=20,
                                  mc=MCConfig(500, 17), grid=grid)
        assert isinstance(study, FacStudyReport)
        assert len(study.max_ratios) == 3
        assert study.sup_ratio == max(study.max_ratios)
        assert study.n_samples == 500
        study.to_json(tmp_path / "study.json")
        study.to_csv(tmp_path / "study.csv")
        lines = (tmp_path / "study.csv").read_text().strip().splitlines()
        assert lines[0] == "eps,max_ratio,std_error"
        assert len(lines) == 4

    def test_grid_validation(self):
        grid = TimeGrid(64)
        family = lambda eps: OffsetLocalTime(eps, (0.5,))
        with pytest.raises(ValueError):
            uniform_fac_study(BrownianMotion(1), family, [1.0, 0.5], 2, 20,
                              MCConfig(500, 0), grid)
        with pytest.raises(ValueError):
            uniform_fac_study(BrownianMotion(1), family, [0.1, 0.5, 1.0], 2, 20,
                              MCConfig(500, 0), grid)
        with pytest.raises(ValueError):
            uniform_fac_study(BrownianMotion(1), family, [1.0, 0.5, 0.1], 2, 5,
                              MCConfig(500, 0), grid)


class TestKLDiagnostics:
    def test_basis_orthonormal(self):
        t = np.linspace(0.0, 1.0, 20001)
        for j in range(1, 4):
            for k in range(1, 4):
                inner = np.trapezoid(kl_basis(j, t) * kl_basis(k, t), t)
                assert inner == pytest.approx(1.0 if j == k else 0.0, abs=1e-6)

    def test_bm_second_moments(self):
        assert bm_kl_second_moment(1) == pytest.approx((0.5 * math.pi) ** -2, rel=1e-14)
        # eigenvalues sum to int_0^1 t dt = 1/2
        total = sum(bm_kl_second_moment(k) for k in range(1, 100000))
        assert total == pytest.approx(0.5, abs=1e-5)

    def test_unweighted_tails_match_oracle(self):
        grid = TimeGrid(512)
        family = lambda eps: LocalTime(eps)
        diag = tail_moment_diagnostic(BrownianMotion(1), family, [1.0, 0.5, 0.1],
                                      basis_size=6, mc=MCConfig(4000, 23), grid=grid)
        assert isinstance(diag, TailDiagnostic)
        for n in range(6):
            oracle = sum(bm_kl_second_moment(k) for k in range(n + 1, 7))
            est = diag.unweighted_tails[n]
            se = diag.unweighted_std_errors[n]
            assert abs(est - oracle) <= 4.0 * se
        # tails decrease in the cutoff
        assert all(a >= b for a, b in zip(diag.unweighted_tails,
                                          diag.unweighted_tails[1:]))

    def test_holder_exponent_of_bm(self):
        # E |w(t)-w(s)|^4 = 3 |t-s|^2: exponent 2 for m0 = 2
        grid = TimeGrid(512)
        family = lambda eps: LocalTime(eps)
        diag = holder_moment_diagnostic(
            BrownianMotion(1), family, [1.0, 0.5, 0.1], m0=2,
            time_pairs=[(0.125, 0.25), (0.25, 0.5), (0.5, 1.0)],
            mc=MCConfig(4000, 29), grid=grid)
        assert isinstance(diag, HolderDiagnostic)
        assert abs(diag.unweighted_exponent - 2.0) < 0.2
        with pytest.raises(ValueError):
            holder_moment_diagnostic(BrownianMotion(1), family, [1.0, 0.5, 0.1], m0=3,
                                     time_pairs=[(0.25, 0.5)], mc=MCConfig(400, 0),
                                     grid=grid)


class TestEndpointBound:
    def test_values(self):
        assert endpoint_hermite_bound(0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-14)
        assert endpoint_hermite_bound(2) == pytest.approx(
            1.0 / (math.sqrt(2.0) * SQRT_2PI), rel=1e-14)
        assert endpoint_hermite_bound(1) == 0.0

    def test_is_eps_zero_limit_of_ratio_oracle(self):
        # the oracle ratio H_n(0)(1+eps)^{-(n+1)/2}/(sqrt(n!) sqrt(2 pi))
        # increases to the bound as eps decreases to 0
        from wcl.analytic import hermite_eval

        for n in (0, 2, 4):
            prev = 0.0
            for eps in (1.0, 0.1, 0.01, 1e-6):
                val = abs(hermite_eval(n, 0.0)) * (1.0 + eps) ** (-(n + 1) / 2.0) / (
                    math.sqrt(math.factorial(n)) * SQRT_2PI)
                assert val > prev
                prev = val
            assert endpoint_hermite_bound(n) == pytest.approx(prev, rel=1e-5)


class TestThreads:
    def test_threads_reproduce_serial(self, monkeypatch):
        # 2100 samples make three replica chunks, so two threads share the work
        grid = TimeGrid(32)
        bm2 = BrownianMotion(2)
        family = lambda eps: SelfIntersection(eps, (0.4, 0.3))
        h2 = PolyFunctional((1.0,), (1,), (((2,), 1.0), ((0,), -1.0)))
        mc = MCConfig(2100, 3)
        pairs = [(0.125, 0.25), (0.25, 0.5), (0.5, 1.0)]
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("WCL_THREADS", threads)
            runs.append((
                [a.tolist() for a in fac_ratios(BrownianMotion(1), EndpointKernel,
                                                [0.1], [h2], mc, grid)],
                uniform_fac_study(bm2, family, [1.0, 0.5, 0.1], 4, 20, mc, grid),
                tail_moment_diagnostic(bm2, family, [1.0, 0.1], 8, mc, grid),
                holder_moment_diagnostic(bm2, family, [1.0, 0.1], 2, pairs, mc, grid),
            ))
        assert runs[0] == runs[1]
