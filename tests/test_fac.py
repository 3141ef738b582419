import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcl import fac, functionals
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
from wcl.functionals import (
    EndpointKernel,
    LocalTime,
    SelfIntersection,
    eval_family_many,
)
from wcl.processes import (
    BrownianMotion,
    DegenerateLine,
    Integrator,
    IntegratorOperator,
    SmoothStationary,
    TimeGrid,
    covariance,
    sample_values,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def one_path(model, grid, seed):
    """The path that seed draws, as a batch of one."""
    values, _ = sample_values(model, grid, seed, n_paths=1)
    return values


class TestPolyFunctional:
    def test_constant(self):
        p = PolyFunctional((), (), (((), 2.5),))  # no evaluation points
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
        one = PolyFunctional((), (), (((), 1.0),))
        [[mean]], [[se]] = fac_ratios(BrownianMotion(1), EndpointKernel, [eps], [one],
                                      MCConfig(20000, 5), grid)
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
        # E P^2 by a tensor Gauss-Hermite rule in z (numpy's), with the point
        # values X = L z for L the Cholesky factor of their covariance; five
        # nodes per axis integrate the degree-8 integrand exactly
        grid = TimeGrid(8)
        op = IntegratorOperator.from_profile(lambda s: 1.0 + 0.5 * s, 8)
        z1, w1 = np.polynomial.hermite_e.hermegauss(5)
        w1 = w1 / math.sqrt(2.0 * math.pi)
        rng = np.random.default_rng(41)
        for model in (BrownianMotion(2), Integrator(op)):
            d = model.d
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
        study = uniform_fac_study(BrownianMotion(1), LocalTime, [1.0, 0.5, 0.1],
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
        with pytest.raises(ValueError):
            uniform_fac_study(BrownianMotion(1), LocalTime, [1.0, 0.5], 2, 20,
                              MCConfig(500, 0), grid)
        with pytest.raises(ValueError):
            uniform_fac_study(BrownianMotion(1), LocalTime, [0.1, 0.5, 1.0], 2, 20,
                              MCConfig(500, 0), grid)
        with pytest.raises(ValueError):
            uniform_fac_study(BrownianMotion(1), LocalTime, [1.0, 0.5, 0.1], 2, 5,
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

    def test_projections_are_inner_products_with_the_weighted_basis(self):
        # 1000 BM(2) paths at n = 512, as the fac driver's diagnostics see
        # them; tests/test_row_blocks.py checks their bits in any batch
        grid = TimeGrid(512)
        values, _ = sample_values(BrownianMotion(2), grid, 3, n_paths=1000)
        basis = np.stack([kl_basis(k, grid.times) for k in range(1, 9)])
        basis *= functionals.interval_weights(512)
        got = fac._kl_squares(values, basis)
        assert got.shape == (8, 1000)
        want = sum((values[:, :, j] @ basis.T).T ** 2 for j in range(2))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_weighted_tails_match_grid_exact_oracle(self):
        # c_k = a_k . W with a_k = e_k(t_i) times the trapezoid weights is
        # Gaussian with Var c_k = a_k' min(t_i, t_j) a_k and Cov(c_k, W(1)) =
        # a_k . t.  Phi_eps = p_eps(W(1)) tilts W(1) to variance 1/(1 + 1/eps),
        # so E_eps[c_k^2] = Var c_k - (a_k . t)^2 / (1 + eps).  Over seeds 0-11
        # the 18 tail rows had |z| <= 3.03
        n, size, eps_grid = 256, 6, [1.0, 0.1]
        t = np.linspace(0.0, 1.0, n + 1)
        w = np.full(n + 1, 1.0 / n)
        w[[0, -1]] /= 2.0
        a = np.stack([math.sqrt(2.0) * np.sin((k - 0.5) * math.pi * t) * w
                      for k in range(1, size + 1)])
        var = np.einsum("ki,ij,kj->k", a, np.minimum.outer(t, t), a)
        b = a @ t

        def tails(x):
            return np.cumsum(x[::-1])[::-1]

        diag = tail_moment_diagnostic(BrownianMotion(1), EndpointKernel, eps_grid, size,
                                      MCConfig(4000, 0), TimeGrid(n))
        z = (np.array(diag.unweighted_tails) - tails(var)) / diag.unweighted_std_errors
        assert np.all(np.abs(z) <= 4.0)
        for eps, est, se in zip(eps_grid, diag.tail_sums, diag.tail_std_errors):
            z = (np.array(est) - tails(var - b**2 / (1.0 + eps))) / se
            assert np.all(np.abs(z) <= 4.0), eps
            # the tilt is resolved: the first tail is far from the untilted one
            assert abs(est[0] - tails(var)[0]) > 10.0 * se[0]

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


    def test_closed_form_fit_matches_polyfit(self):
        # the driver's four time pairs; np.polyfit (an SVD least-squares
        # solve) is the reference only
        gaps = np.array([b - a for a, b in ((0.125, 0.25), (0.25, 0.5), (0.25, 0.75),
                                            (0.5, 1.0))])
        rng = np.random.default_rng(31)
        for scale in (0.0, 0.05, 1.0):
            moments = 3.0 * gaps**2 * np.exp(scale * rng.standard_normal(4))
            slope, intercept, se = fac._loglog_fit(gaps, moments)
            (ref_slope, ref_intercept), cov = np.polyfit(np.log(gaps), np.log(moments), 1,
                                                         cov=True)
            assert slope == pytest.approx(ref_slope, rel=1e-14, abs=1e-14)
            assert intercept == pytest.approx(ref_intercept, rel=1e-14, abs=1e-14)
            assert se == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-14, abs=1e-14)


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


class TestPhiMemo:
    grid = TimeGrid(32)
    bm2 = BrownianMotion(2)
    pairs = [(0.125, 0.25), (0.25, 0.5), (0.5, 1.0)]

    @staticmethod
    def family(eps, u=(0.4, 0.3)):
        return SelfIntersection(eps, u)

    @staticmethod
    def counted_kernel(monkeypatch):
        """Record the eps grid of every G_eps kernel call."""
        seen = []
        original = functionals._self_intersection_many

        def counted(values, eps_grid, u):
            seen.append(list(eps_grid))
            return original(values, eps_grid, u)

        monkeypatch.setattr(functionals, "_self_intersection_many", counted)
        return seen

    def diagnostics(self, mc):
        return (tail_moment_diagnostic(self.bm2, self.family, [1.0, 0.1], 8, mc, self.grid),
                holder_moment_diagnostic(self.bm2, self.family, [1.0, 0.1], 2, self.pairs,
                                         mc, self.grid))

    def test_diagnostics_after_study_match_a_cold_run(self, monkeypatch):
        # the study's 3 chunks hold G_eps at 1 and 0.1 for the diagnostics'
        # first 2; the cold run computes its own
        mc = MCConfig(2100, 5)
        cold = self.diagnostics(mc)
        fac._PHI_MEMO.clear()
        seen = self.counted_kernel(monkeypatch)
        uniform_fac_study(self.bm2, self.family, [1.0, 0.5, 0.1], 4, 20, mc, self.grid)
        assert seen == [[1.0, 0.5, 0.1]] * 3
        warm = self.diagnostics(mc)
        assert seen == [[1.0, 0.5, 0.1]] * 3
        assert warm == cold

    def test_other_offset_or_paths_miss(self, monkeypatch):
        values = sample_values(self.bm2, self.grid, 1, n_paths=20)[0]
        other = sample_values(self.bm2, self.grid, 2, n_paths=20)[0]
        seen = self.counted_kernel(monkeypatch)
        first = fac._phi_rows(self.family, [1.0, 0.1], values)
        assert np.array_equal(fac._phi_rows(self.family, [0.1], values), first[1:])
        assert seen == [[1.0, 0.1]]
        shifted = lambda eps: self.family(eps, (0.4, -0.3))
        for fam, vals in ((shifted, values), (self.family, other)):
            rows = fac._phi_rows(fam, [0.1], vals)
            assert np.array_equal(rows, eval_family_many(fam, [0.1], vals))
        assert seen[1:] == [[0.1], [0.1], [0.1], [0.1]]

    def test_memo_is_bounded(self, monkeypatch):
        # blocks of a quarter of the bound, so the fifth evicts one; block 0
        # is read again after block 1, so block 1 is the least recently
        # used and the one evicted
        n_paths = fac._PHI_MEMO_PATHS // 4
        blocks = [sample_values(self.bm2, self.grid, s, n_paths=n_paths)[0] for s in range(5)]
        for i, values in enumerate(blocks):
            fac._phi_rows(self.family, [1.0], values)
            if i == 1:
                fac._phi_rows(self.family, [1.0], blocks[0])
            assert sum(shape[0] for shape, _, _ in fac._PHI_MEMO) <= fac._PHI_MEMO_PATHS
        assert len(fac._PHI_MEMO) == 4
        seen = self.counted_kernel(monkeypatch)
        fac._phi_rows(self.family, [1.0], blocks[0])
        assert seen == []
        fac._phi_rows(self.family, [1.0], blocks[1])
        assert seen == [[1.0]]

    def test_threads_share_the_memo_safely(self):
        # the engine's helper threads share the memo: a thread walking it
        # while another evicts or inserts would raise RuntimeError
        errors = []

        def touch(t):
            try:
                for i in range(300):
                    fac._touch(((40, 33, 2), "<f8", bytes([t]) + i.to_bytes(2, "big")))
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=touch, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sum(shape[0] for shape, _, _ in fac._PHI_MEMO) == fac._PHI_MEMO_PATHS

    @settings(max_examples=25, deadline=None)
    @given(calls=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1),
                                    st.lists(st.sampled_from([1.0, 0.5, 0.1, 0.01]),
                                             min_size=1, max_size=4)),
                          min_size=1, max_size=8))
    def test_any_call_order_gives_cold_rows(self, calls):
        # overlapping eps grids, repeated eps, two offsets and three chunks
        chunks = [sample_values(self.bm2, TimeGrid(8), s, n_paths=4)[0] for s in range(3)]
        offsets = [(0.4, 0.3), (0.0, 1.0)]
        fac._PHI_MEMO.clear()
        for c, o, eps_grid in calls:
            fam = lambda eps: self.family(eps, offsets[o])
            rows = fac._phi_rows(fam, eps_grid, chunks[c])
            for eps, row in zip(eps_grid, rows):
                assert np.array_equal(row, eval_family_many(fam, [eps], chunks[c])[0])
