"""Acceptance battery: twelve numbered criteria, each printing one
PASS/FAIL line with its headline numbers.

Every oracle here is either a closed form or an independent quadrature;
tolerances are pinned in the assertions.  Seeds are fixed so the whole
battery is deterministic.
"""

import math

import numpy as np
import pytest

from wcl.analytic import (
    gauss_kernel_sq,
    hermite_bound_constant,
    hermite_eval,
)
from wcl.chaos import expansion_study_mc, self_intersection_mean_quadrature
from wcl.experiments import DRIVERS, ExperimentConfig
from wcl.fac import (
    MCConfig,
    PolyFunctional,
    bm_kl_second_moment,
    fac_ratios,
    holder_moment_diagnostic,
    tail_moment_diagnostic,
    uniform_fac_study,
)
from wcl.functionals import (
    EndpointKernel,
    SelfIntersection,
    eval_family_many,
    local_time_field,
)
from wcl.processes import (
    BrownianMotion,
    IntegratorOperator,
    TimeGrid,
    delta_se,
    integrator_inequality,
    mc_moments,
    operator_bounds,
    sample_values,
    sigma_interval,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


@pytest.fixture
def announce(capsys):
    def _announce(number, ok, detail):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] criterion {number}: {detail}")
        assert ok, f"criterion {number}: {detail}"

    return _announce


def test_criterion_01_heat_kernel_semigroup(announce):
    # numeric convolution of p_a and p_b matches p_{a+b} at 50 points
    ys = np.linspace(-14.0, 14.0, 28001)
    xs = np.linspace(-4.0, 4.0, 50)
    worst = 0.0
    for a in (0.25, 0.5, 1.0):
        for b in (0.25, 0.5, 1.0):
            pa = gauss_kernel_sq(ys**2, a)
            conv = np.array([
                np.trapezoid(pa * gauss_kernel_sq((x - ys) ** 2, b), ys) for x in xs
            ])
            direct = gauss_kernel_sq(xs**2, a + b)
            worst = max(worst, float(np.max(np.abs(conv - direct))))
    announce(1, worst <= 1e-6,
             f"semigroup p_a*p_b = p_(a+b), 9 pairs x 50 points, "
             f"max abs error {worst:.2e} <= 1e-6")


def test_criterion_02_hermite_recurrence_and_bound(announce):
    xs = np.linspace(-4.0, 4.0, 201)
    worst = 0.0
    for n in range(11):
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        oracle = np.polynomial.polynomial.polyval(
            xs, np.polynomial.hermite_e.herme2poly(coeffs))
        got = hermite_eval(n, xs)
        scale = np.maximum(np.abs(oracle), 1.0)
        worst = max(worst, float(np.max(np.abs(got - oracle) / scale)))
    rng = np.random.default_rng(271828)
    violations = 0
    for n in range(13):
        a_n = hermite_bound_constant(n)
        x = np.concatenate([
            rng.uniform(-30.0, 30.0, size=50000),
            rng.normal(0.0, 4.0, size=50000),
        ])
        bad = np.abs(hermite_eval(n, x)) > a_n * np.exp(0.25 * x**2) * (1.0 + 1e-9)
        violations += int(np.sum(bad))
    ok = worst <= 1e-9 and violations == 0
    announce(2, ok,
             f"recurrence vs symbolic coefficients n<=10 rel err {worst:.2e} "
             f"<= 1e-9; bound violations {violations}/1.3e6 points = 0")


def driver_rows(name, **settings):
    """The report rows, by name, of DRIVERS[name] run with ``settings``."""
    report = DRIVERS[name](ExperimentConfig(name, **settings))
    return {row.name: row for row in report.rows}


def test_criterion_03_rice_upcrossings(announce):
    rows = driver_rows("rice", n_samples=20000, n_steps=2048, seed=12345)
    details = []
    ok = True
    for level, oracle in ((0.0, 1.0), (1.0, 0.6065306597126334)):
        row = rows[f"upcrossings_mc_c{level:g}"]
        assert row.oracle == pytest.approx(oracle, rel=1e-10)
        mean, se = row.estimate, row.std_error
        bias = abs(mean - oracle)
        ok = ok and bias <= 3.0 * se and bias <= 0.02
        details.append(f"c={level:g}: {mean:.4f} vs {oracle:.4f} "
                       f"(bias {bias:.4f}, 3SE {3 * se:.4f})")
    announce(3, ok, "Rice MC 20000 paths x 2048 steps within 3*SE and "
             "bias <= 0.02 -- " + "; ".join(details))


def test_criterion_04_local_time_mean(announce):
    target = math.sqrt(2.0 / math.pi)
    rows = driver_rows("sweep", n_samples=10000, n_steps=4096, seed=99, eps_grid=[1e-4])
    row = rows["local_time_mean_mc_eps0.0001"]
    mean = row.estimate
    err = abs(mean - target)
    announce(4, err <= 0.01,
             f"E local time at 0, eps=1e-4, 1e4 paths x 4096 steps: "
             f"{mean:.5f} vs {target:.10f}, |err| {err:.5f} <= 0.01")


def test_criterion_05_kac_moments(announce):
    # the band at x = 0 has half-width 0.01
    rows = driver_rows("kac", n_samples=10000, n_steps=4096, seed=12345)
    q1 = rows["kac_quadrature_n1"].estimate
    q2 = rows["kac_quadrature_n2"].estimate
    ok = (abs(q1 - 0.7978845608) <= 1e-3 and abs(q2 - 1.0) <= 1e-3)
    details = [f"quad n=1 {q1:.8f}, n=2 {q2:.8f} within 1e-3"]
    for n, oracle in ((1, q1), (2, q2)):
        row = rows[f"kac_mc_moment_n{n}"]
        mean, se = row.estimate, row.std_error
        assert row.oracle == oracle
        good = abs(mean - oracle) <= 4.0 * se
        ok = ok and good
        details.append(f"MC n={n}: {mean:.4f} vs {oracle:.4f} (4SE {4 * se:.4f})")
    announce(5, ok, "Kac moments at x=0 -- " + "; ".join(details))


def test_criterion_06_occupation_identity(announce):
    # lhs = sum_x W_x f(x) ell_eps(x): the local-time field on a 200-node
    # Gauss-Legendre rule in x over [min v - 12 sqrt(eps), max v + 12 sqrt(eps)];
    # rhs = sum_k w_k E f(v_k + sqrt(eps) Z): numpy's 5-node Gauss-Hermite
    # rule, exact for f of degree <= 9.  The sides share no code; both sum
    # against the trapezoid weights w in t.
    grid = TimeGrid(128)
    eps = 0.01
    x, wx = np.polynomial.legendre.leggauss(200)
    z, wz = np.polynomial.hermite_e.hermegauss(5)
    wz = wz / math.sqrt(2.0 * math.pi)
    w = np.full(129, 1.0 / 128)
    w[[0, -1]] *= 0.5
    rng = np.random.default_rng(314)
    worst = 0.0
    for s in range(100):
        values, _ = sample_values(BrownianMotion(1), grid, s, n_paths=1)
        v = values[0, :, 0]
        coeffs = rng.standard_normal(5)
        lo, hi = v.min() - 12.0 * math.sqrt(eps), v.max() + 12.0 * math.sqrt(eps)
        xs = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        field = local_time_field(values, eps, xs)[0]
        lhs = 0.5 * (hi - lo) * float(np.sum(wx * np.polynomial.polynomial.polyval(xs, coeffs)
                                             * field))
        smoothed = np.polynomial.polynomial.polyval(v[:, None] + math.sqrt(eps) * z, coeffs)
        rhs = float(w @ (smoothed @ wz))
        scale = max(abs(lhs), abs(rhs), 1e-30)
        worst = max(worst, abs(lhs - rhs) / scale)
    announce(6, worst <= 1e-12,
             f"occupation identity on 100 random paths, field integrated in x against "
             f"Gauss-Hermite smoothing along the path, worst relative gap {worst:.2e} <= 1e-12")


def test_criterion_07_bridge_universality(announce):
    rows = driver_rows("bridge", n_samples=20000, n_steps=1024, seed=12345)
    quad = rows["bridge_second_moment_quadrature"].estimate
    ok = abs(quad - 0.25) <= 0.02
    details = [f"closed-form weighted moment {quad:.5f} vs 0.25 within 0.02"]
    # the MC ratio estimate of the same weighted moment, delta-method se
    mc = rows["bridge_second_moment_mc"]
    assert mc.oracle == quad
    ok = ok and abs(mc.estimate - quad) <= 3.0 * mc.std_error
    details.append(f"MC {mc.estimate:.4f} vs {quad:.4f} (3SE {3 * mc.std_error:.4f})")
    # degenerate model concentrates on lines through the origin
    mass = rows["degenerate_outside_mass_quadrature"].estimate
    mc_mass = rows["degenerate_outside_mass_mc"].estimate
    ok = ok and mass <= 0.01 and mc_mass <= 0.01
    details.append(f"degenerate outside mass {mass:.2e}, MC {mc_mass:.2e} <= 0.01")
    announce(7, ok, "bridge universality -- " + "; ".join(details))


def test_criterion_08_integrator_contract(announce):
    rng = np.random.default_rng(77)
    worst_slack = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 17))
        op = IntegratorOperator(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
        k = int(rng.integers(1, n))
        cuts = np.sort(rng.choice(np.arange(1, n), size=k, replace=False))
        partition = np.concatenate([[0.0], cuts / n, [1.0]])
        coeffs = rng.standard_normal(len(partition) - 1)
        lhs, rhs = integrator_inequality(op, partition, coeffs)
        if rhs > 0:
            worst_slack = max(worst_slack, lhs / rhs - 1.0)
    ok = worst_slack <= 1e-10
    # tightness at the top right-singular direction
    op8 = IntegratorOperator(np.eye(8) + 0.3 * np.random.default_rng(3).standard_normal((8, 8)))
    _, _, vt = np.linalg.svd(op8.matrix)
    lhs, rhs = integrator_inequality(op8, np.arange(9) / 8, vt[0])
    tight = lhs / rhs
    ok = ok and tight >= 1.0 - 1e-8
    # sigma^2 bracketed by the operator bounds at 100 random (s, t)
    m, big = operator_bounds(op8)
    rng2 = np.random.default_rng(5)
    bracket_ok = True
    for _ in range(100):
        i, j = sorted(rng2.integers(0, 9, size=2))
        s, t = i / 8, j / 8
        sig2 = sigma_interval(op8, s, t) ** 2
        bracket_ok = bracket_ok and (
            m * (t - s) - 1e-12 <= sig2 <= big * (t - s) + 1e-12)
    ok = ok and bracket_ok
    announce(8, ok,
             f"integrator inequality 1000 random triples, worst relative "
             f"slack {worst_slack:.2e} <= 1e-10; tightness {tight:.10f} >= 1-1e-8; "
             f"sigma^2 bounds hold at 100 (s,t): {bracket_ok}")


def test_criterion_09_self_intersection_mean(announce):
    grid = TimeGrid(512)
    ok = True
    details = []
    eps_grid = (0.1, 0.01)
    for d in (1, 2):
        u = tuple([0.5 / math.sqrt(d)] * d)
        # one pass per d; each row has the bits of its single-eps pass
        means, cov = mc_moments(
            BrownianMotion(d), grid, 7, 2000,
            lambda v, u=u: eval_family_many(
                lambda eps: SelfIntersection(eps, u), eps_grid, v))
        ses = np.sqrt(np.diag(cov))
        for eps, mean, se in zip(eps_grid, means, ses):
            oracle = self_intersection_mean_quadrature(eps, u, d)
            good = abs(mean - oracle) <= 4.0 * se
            ok = ok and good
            details.append(f"d={d} eps={eps:g}: {mean:.4f} vs {oracle:.4f} "
                           f"(4SE {4 * se:.4f})")
    announce(9, ok, "E G_eps within 4*SE of quadrature -- " + "; ".join(details))


def test_criterion_10_chaos_structure(announce):
    study = expansion_study_mc(BrownianMotion(1), 6, 0.1, [0.5], 8000, 99,
                               TimeGrid(256))
    res = np.array(study.residual_moments)
    # res[k + 1] - res[k], both residuals on the same paths
    step_se = delta_se(study.residual_cov, np.eye(7, k=1)[:6] - np.eye(7)[:6])
    monotone = all(res[k + 1] <= res[k] + 3.0 * step_se[k] for k in range(6))
    ratio = res[6] / study.var_g
    # order 0 is path-free, so its covariances are rounding noise; the
    # delta method's quadratic form can cancel below 0 on them (on two of
    # six here), and the clamp keeps their se finite
    cov, se = study.cross_cov, study.cross_cov_std_errors
    assert np.all(np.isfinite(se))
    order0_ok = bool(np.all(np.abs(cov[0, 1:]) <= 1e-15))
    worst = max(abs(cov[i, j]) / se[i, j] for i in range(1, 7) for j in range(i + 1, 7))
    cross_ok = order0_ok and worst <= 4.0
    ok = monotone and ratio <= 0.10 and cross_ok
    announce(10, ok,
             f"chaos structure d=1 u=0.5 eps=0.1: cross-order covariances "
             f"consistent with 0: orders 1-6 within {worst:.2f} <= 4 SE, order 0 "
             f"within 1e-15: {order0_ok}; residual non-increasing within 3 SE: "
             f"{monotone}; residual at K=6 is {100 * ratio:.1f}% of Var G <= 10%")


def _hermite_poly_functional(n):
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    poly = np.polynomial.hermite_e.herme2poly(coeffs)
    monomials = tuple(((j,), float(c)) for j, c in enumerate(poly) if c != 0.0)
    return PolyFunctional((1.0,), (1,), monomials)


def test_criterion_11_uniform_fac_family(announce):
    grid = TimeGrid(256)
    bm = BrownianMotion(1)
    ok = True
    details = []
    orders, eps_grid = (0, 2, 4), (1.0, 0.1, 0.01)
    ratios, ses = fac_ratios(bm, EndpointKernel, eps_grid,
                             [_hermite_poly_functional(n) for n in orders],
                             MCConfig(20000, 12345), grid)
    for j, n in enumerate(orders):
        for i, eps in enumerate(eps_grid):
            ratio, se = ratios[i, j], ses[i, j]
            oracle = abs(hermite_eval(n, 0.0)) * (1.0 + eps) ** (-(n + 1) / 2.0) / (
                math.sqrt(math.factorial(n)) * SQRT_2PI)
            bound = abs(hermite_eval(n, 0.0)) / (math.sqrt(math.factorial(n)) * SQRT_2PI)
            good = abs(ratio - oracle) <= 3.0 * se and ratio <= bound + 3.0 * se
            ok = ok and good
    details.append("H_n ratios n in {0,2,4}, eps in {1,0.1,0.01} all within "
                   "3*SE of the closed form and below the eps=0 bound")
    # random-polynomial study over the G_eps family, d = 2
    bm2 = BrownianMotion(2)
    family = lambda eps: SelfIntersection(eps, (0.4, 0.3))
    full = uniform_fac_study(bm2, family, [1.0, 0.5, 0.1, 0.05, 0.01], degree=4,
                             n_random_polys=20, mc=MCConfig(1500, 12345), grid=grid)
    coarse_sup = max(r for e, r in zip(full.eps_grid, full.max_ratios)
                     if e in (1.0, 0.5, 0.1))
    plateau = full.sup_ratio / coarse_sup
    ok = ok and math.isfinite(full.sup_ratio) and plateau <= 2.0
    details.append(f"G_eps study sup ratio {full.sup_ratio:.4f} finite, "
                   f"plateau factor {plateau:.3f} <= 2")
    announce(11, ok, "uniform FAC family -- " + "; ".join(details))


def test_criterion_12_weak_compactness_diagnostics(announce):
    grid = TimeGrid(512)
    bm2 = BrownianMotion(2)
    family = lambda eps: SelfIntersection(eps, (0.4, 0.3))
    mc = MCConfig(2000, 23)
    diag = tail_moment_diagnostic(bm2, family, [1.0, 0.1], basis_size=8, mc=mc,
                                  grid=grid)
    tails_ok = True
    for nn in range(8):
        oracle = 2.0 * sum(bm_kl_second_moment(k) for k in range(nn + 1, 9))
        est = diag.unweighted_tails[nn]
        se = diag.unweighted_std_errors[nn]
        tails_ok = tails_ok and abs(est - oracle) <= 4.0 * se
    decreasing = all(a >= b for a, b in zip(diag.unweighted_tails,
                                            diag.unweighted_tails[1:]))
    hold = holder_moment_diagnostic(
        bm2, family, [1.0, 0.1], m0=2,
        time_pairs=[(0.125, 0.25), (0.25, 0.5), (0.25, 0.75), (0.5, 1.0)],
        mc=mc, grid=grid)
    beta = 0.25
    holder_ok = all(expo >= 1.0 + beta for expo in hold.exponents)
    ok = tails_ok and decreasing and holder_ok
    announce(12, ok,
             f"weak compactness: KL tails match the closed-form spectrum "
             f"within 4*SE: {tails_ok}, decreasing in cutoff: {decreasing}; "
             f"Holder exponents {[round(e, 3) for e in hold.exponents]} all "
             f">= 1 + beta (beta = {beta})")
