"""Reproducible experiment drivers with oracle-checked reports.

Each driver takes an ExperimentConfig and returns an ExperimentReport
whose rows carry (estimate, std_error, oracle, tolerance, passed); the
pass rule is |estimate - oracle| <= max(tolerance, 3 * std_error)
whenever an oracle exists.  Identical configs produce byte-identical
report files.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import analytic, chaos, fac, processes
from .analytic import (
    gauss_kernel_sq,
    gauss_legendre,
    hermite_coefficients,
    hermite_eval,
    integrate_interval,
    integrate_log,
    integrate_simplex,
)
from .functionals import (
    EndpointKernel,
    LocalTime,
    SelfIntersection,
    eval_family_many,
    eval_functional_many,  # noqa: F401  (module namespace: perfbench wraps each binding)
    indicator_local_time_many,
    upcrossing_count_many,
)
from .processes import (
    BrownianMotion,
    DegenerateLine,
    IntegratorOperator,
    SmoothStationary,
    TimeGrid,
    delta_se,
    mc_moments,
    sample_values,  # noqa: F401  (module namespace: perfbench wraps each binding)
)

SQRT_2PI = math.sqrt(2.0 * math.pi)
# the config fields of the sampled model; a driver takes those it reads
MODEL_FIELDS = ("eps_grid", "omega", "u")
# The engine samples in blocks of at least 8 paths (processes._ROW_GROUP),
# so one block holds 8 * (n_steps + 1) values per dimension: 64 MB at 2^20
# steps, 128 times the 512 kB a block is sized for.  More is refused.
MAX_STEPS = 1 << 20
# The pair-kernel drivers stop sooner, for run time: they work through
# (n+1)(n+2)/2 node pairs per path.  A chaos block holds a fixed number of
# (n+1) * P buffers, P paths wide, and P is down to 8 at 2^13 steps.  One
# such block (k_max = 6, three eps) took 18-27 s at d = 1 and 58-84 s at
# d = 3 on a 2-CPU Xeon, with a 3.6 and 7.8 MB tracemalloc peak, so the
# driver's 4000 default samples (500 blocks) take 2.5 to 12 CPU hours there.
PAIR_MAX_STEPS = 1 << 13


@dataclass
class ExperimentConfig:
    """One run's settings.  An unset budget (n_steps, n_samples) is the
    driver's, from its DRIVERS record; the dimension of the offset ``u``
    is that of the sampled Brownian motion.  ``out_dir`` may be any
    os.PathLike; it is kept as a str."""

    experiment: str
    n_steps: int | None = None
    n_samples: int | None = None
    seed: int = 12345
    eps_grid: list = field(default_factory=lambda: [1.0, 0.1, 0.01])
    out_dir: str = "."
    omega: float = 2.0 * math.pi
    u: list = field(default_factory=lambda: [0.5])

    def __post_init__(self):
        """One-line ValueError for an invalid setting; KeyError for an unknown experiment."""
        driver = DRIVERS[self.experiment]
        if self.n_steps is None:
            self.n_steps = driver.n_steps
        if self.n_samples is None:
            self.n_samples = driver.n_samples
        for name in ("n_steps", "n_samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 256 <= self.n_steps <= driver.max_steps:
            raise ValueError(f"n_steps must lie in [256, {driver.max_steps}] for "
                             f"{self.experiment}, got {self.n_steps}")
        if self.n_steps % driver.step_divisor:
            raise ValueError(f"{self.experiment} needs n_steps divisible by "
                             f"{driver.step_divisor}, got {self.n_steps}")
        if not 100 <= self.n_samples <= processes.MAX_SAMPLES:
            raise ValueError(f"n_samples must lie in [100, {processes.MAX_SAMPLES}], "
                             f"got {self.n_samples}")
        if not isinstance(self.eps_grid, list) or not self.eps_grid:
            raise ValueError("eps_grid must be a non-empty list")
        # across this range the oracles' log map s = eps * ((1 + eps) / eps)^x
        # and the kernel (2 pi s)^(-d/2), d <= 3, stay finite
        for eps in self.eps_grid:
            if not (_is_real(eps) and 1e-12 <= eps <= 1e12):
                raise ValueError(f"eps_grid values must lie in [1e-12, 1e12], got {eps!r}")
        # report rows are named by f"{eps:g}", so equal labels would collide
        labels = [f"{eps:g}" for eps in self.eps_grid]
        if len(set(labels)) != len(labels):
            raise ValueError(f"eps_grid values must be distinct to 6 significant "
                             f"digits, got {', '.join(labels)}")
        # past this range rice's oracle overflows (omega^2) or underflows
        # to a zero variance
        if not (_is_real(self.omega) and 1e-12 <= self.omega <= 1e12):
            raise ValueError(f"omega must lie in [1e-12, 1e12], got {self.omega!r}")
        if (not isinstance(self.u, list) or not 1 <= len(self.u) <= 3
                or not all(_is_real(x) and math.isfinite(x) for x in self.u)):
            raise ValueError("u must be a list of 1, 2 or 3 finite numbers, "
                             "one per dimension")
        if isinstance(self.out_dir, os.PathLike):
            self.out_dir = os.fspath(self.out_dir)
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ValueError(f"out_dir must be a non-empty path, got {self.out_dir!r}")

    @classmethod
    def from_dict(cls, data):
        """Config from a mapping of field names; a key its driver does not take is an error."""
        if not isinstance(data, dict):
            raise ValueError("a config must be a JSON object")
        names = DRIVERS[data["experiment"]].keys()
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise ValueError(f"{data['experiment']} takes no config key(s) "
                             f"{', '.join(unknown)}; its keys are {', '.join(names)}")
        return cls(**data)

    def tolerance(self, name, default):
        """default, as a float: every gate is fixed in the driver that owns its
        row, and only perfbench's fac-g stages still call this."""
        return float(default)


@dataclass
class ReportRow:
    name: str
    estimate: float
    std_error: float | None = None
    oracle: float | None = None
    tolerance: float | None = None

    @property
    def passed(self) -> bool | None:
        if self.oracle is None:
            return None
        gate = max(self.tolerance or 0.0, 3.0 * (self.std_error or 0.0))
        return bool(abs(self.estimate - self.oracle) <= gate)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list
    runtime: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(r.passed is not False for r in self.rows)

    def to_dict(self):
        # runtime is deliberately omitted: identical configs must give
        # byte-identical files.  The config is the keys its driver takes.
        return {
            "config": {k: getattr(self.config, k)
                       for k in DRIVERS[self.config.experiment].keys()},
            "rows": [
                {
                    "name": r.name,
                    "estimate": float(r.estimate),
                    "std_error": None if r.std_error is None else float(r.std_error),
                    "oracle": None if r.oracle is None else float(r.oracle),
                    "tolerance": None if r.tolerance is None else float(r.tolerance),
                    "passed": r.passed,
                }
                for r in self.rows
            ],
            "all_passed": self.all_passed,
        }

    def write(self):
        out_dir = self.config.out_dir
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "estimate", "std_error", "oracle", "tolerance", "passed"])
            for r in self.rows:
                writer.writerow([
                    r.name,
                    _fmt(r.estimate),
                    _fmt(r.std_error),
                    _fmt(r.oracle),
                    _fmt(r.tolerance),
                    "" if r.passed is None else str(r.passed).lower(),
                ])

    def print_summary(self, quiet=False):
        if quiet:
            return
        for r in self.rows:
            status = "    " if r.passed is None else ("PASS" if r.passed else "FAIL")
            oracle = "" if r.oracle is None else f" oracle={r.oracle:.6g}"
            se = "" if r.std_error is None else f" +/- {r.std_error:.2g}"
            print(f"  [{status}] {r.name}: {r.estimate:.6g}{se}{oracle}")
        print(f"{self.config.experiment}: "
              f"{'all passed' if self.all_passed else 'FAILURES'} "
              f"({self.runtime:.1f} s)")


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _fmt(x):
    return "" if x is None else f"{x:.12g}"


# ---------------------------------------------------------------- Rice

def rice_closed_form(omega: float, level: float) -> float:
    """(omega / 2 pi) * exp(-level^2 / 2) for the sinusoidal model."""
    return omega / (2.0 * math.pi) * math.exp(-0.5 * level**2)


def rice_quadrature(omega: float, level: float) -> float:
    """Expected upcrossings via the double integral of x times the joint
    density of (xi(t), xi'(t)); independent N(0,1) and N(0, omega^2)."""
    x, w = gauss_legendre(400)
    # x-integral over (0, 8*omega); the process is stationary, so the
    # integrand does not depend on t and the t-integral over (0, 1) is 1
    xv = 4.0 * omega * (x + 1.0)
    xw = 4.0 * omega * w
    dens = gauss_kernel_sq(level**2, 1.0) * gauss_kernel_sq(xv**2, omega**2)
    return float(np.dot(xw, xv * dens))


def rice_experiment(config: ExperimentConfig) -> ExperimentReport:
    model = SmoothStationary(config.omega)
    grid = TimeGrid(config.n_steps)
    rows = []
    quad = rice_quadrature(config.omega, 0.0)
    closed = rice_closed_form(config.omega, 0.0)
    rows.append(ReportRow("rice_quadrature_vs_closed_c0", quad, 0.0, closed, 1e-9))
    levels = (0.0, 1.0, 6.0)

    def count(values):
        return np.stack([upcrossing_count_many(values, c) for c in levels]).astype(float)

    mean, cov = mc_moments(model, grid, config.seed, config.n_samples, count)
    se = np.sqrt(np.diag(cov))
    for i, level in enumerate(levels[:2]):
        rows.append(ReportRow(f"upcrossings_mc_c{level:g}", mean[i], se[i],
                              rice_closed_form(config.omega, level), 0.02))
    # deep tail: no upcrossings of level 6 expected at this sample size
    rows.append(ReportRow("upcrossings_mc_c6", mean[2], se[2], 0.0, 1e-3))
    return ExperimentReport(config, rows)


# ----------------------------------------------------------------- Kac

def kac_moment_quadrature(n: int, rule_nodes: int = 160) -> float:
    """Kac moment of the local time at level 0:
    n! * (2 pi)^{-n/2} * int_{Delta_n} t_1^{-1/2} prod (t_j - t_{j-1})^{-1/2}."""
    if n == 1:
        # 1-D case: int_0^1 (2 pi t)^{-1/2} dt, t = s^2
        return integrate_interval(lambda s: 2.0 / SQRT_2PI * np.ones_like(s), rule_nodes)
    def integrand(*ts):
        val = 1.0 / np.sqrt(ts[0])
        for j in range(1, n):
            val = val / np.sqrt(ts[j] - ts[j - 1])
        return val

    base = integrate_simplex(integrand, n, rule_nodes)
    return math.factorial(n) * (2.0 * math.pi) ** (-0.5 * n) * base


def kac_experiment(config: ExperimentConfig) -> ExperimentReport:
    grid = TimeGrid(config.n_steps)
    model = BrownianMotion(1)
    rows = []
    quads = {1: kac_moment_quadrature(1), 2: kac_moment_quadrature(2),
             3: kac_moment_quadrature(3, rule_nodes=60)}
    for n, quad in quads.items():  # against E[L^n] of the local time L at 0
        exact = math.factorial(n) * 2.0 ** (-0.5 * n) / math.gamma(0.5 * n + 1.0)
        rows.append(ReportRow(f"kac_quadrature_n{n}", quad, 0.0, exact, 1e-3))
    # band half-width large enough that the grid resolves the occupation
    # time (h << eps) but small enough that level smoothing stays under
    # the 4*SE gate
    eps = 0.01

    def moments(values):
        band = indicator_local_time_many(values, 0.0, eps)
        return np.stack([band**n for n in quads])

    mean, cov = mc_moments(model, grid, config.seed, config.n_samples, moments)
    se = np.sqrt(np.diag(cov))
    for i, n in enumerate(quads):
        rows.append(ReportRow(f"kac_mc_moment_n{n}", mean[i], se[i], quads[n], 4.0 * se[i]))
    return ExperimentReport(config, rows)


# -------------------------------------------------------------- Bridge

def bridge_weighted_second_moment_quadrature(eps: float) -> float:
    """E[w(1/2)^2 p_eps(w(1))] / E[p_eps(w(1))] in closed form.  Weighted
    by p_eps(w(1)), w(1) is N(0, eps / (1 + eps)), and w(1/2) = w(1)/2 + zeta
    with zeta ~ N(0, 1/4) independent of w(1), so the value is
    eps / (4 (1 + eps)) + 1/4 = 1/2 - 1 / (4 (1 + eps))."""
    return 0.5 - 0.25 / (1.0 + eps)


def degenerate_outside_mass_quadrature(eps: float, delta: float) -> float:
    """E[p_eps(xi) 1_{|xi| > delta}] / E[p_eps(xi)] for xi ~ N(0,1), |xi|
    being the sup norm of the degenerate line path.  Weighted by p_eps, xi
    is N(0, eps / (1 + eps)), so this is erfc(delta sqrt((1 + eps) / 2 eps))."""
    return math.erfc(delta * math.sqrt((1.0 + eps) / (2.0 * eps)))


def bridge_experiment(config: ExperimentConfig) -> ExperimentReport:
    grid = TimeGrid(config.n_steps)
    rows = []
    eps = 0.01
    quad = bridge_weighted_second_moment_quadrature(eps)
    rows.append(ReportRow("bridge_second_moment_quadrature", quad, 0.0, 0.25, 0.02))

    model = BrownianMotion(1)
    half = grid.index_of(0.5)

    def weighted(values):  # the three means of the ratio estimates
        kern = gauss_kernel_sq(values[:, -1, 0] ** 2, eps)
        x_half = values[:, half, 0]
        return np.stack([kern, kern * x_half, kern * x_half**2])

    mean, cov = mc_moments(model, grid, config.seed, config.n_samples, weighted)
    second = mean[2] / mean[0]
    first = mean[1] / mean[0]
    second_se, first_se = delta_se(cov, np.array([[-second, 0.0, 1.0],  # d(mean[j] / mean[0])
                                                  [-first, 1.0, 0.0]]) / mean[0])
    rows.append(ReportRow("bridge_second_moment_mc", second, second_se, quad, 0.0))
    rows.append(ReportRow("bridge_first_moment_mc", first, first_se, 0.0, 0.0))

    eps_deg, delta = 1e-4, 0.1
    mass = degenerate_outside_mass_quadrature(eps_deg, delta)
    rows.append(ReportRow("degenerate_outside_mass_quadrature", mass, 0.0, 0.0, 0.01))

    def outside(values):  # importance-weighted MC on the degenerate model
        kern = gauss_kernel_sq(values[:, -1, 0] ** 2, eps_deg)  # eta(1) = xi
        far = np.max(np.abs(values[:, :, 0]), axis=1) > delta
        return np.stack([kern, kern * far])

    (kern_mean, far_mean), cov = mc_moments(DegenerateLine(), grid, config.seed,
                                            config.n_samples, outside)
    mc_mass = far_mean / kern_mean if kern_mean > 0 else 0.0
    mass_se = delta_se(cov, np.array([-mc_mass, 1.0]) / kern_mean) if kern_mean > 0 else None
    rows.append(ReportRow("degenerate_outside_mass_mc", mc_mass, mass_se, 0.0, 0.01))
    return ExperimentReport(config, rows)


# --------------------------------------------------------------- Chaos

def chaos_table(config: ExperimentConfig) -> ExperimentReport:
    u = list(config.u)
    d = len(u)
    model = BrownianMotion(d)
    grid = TimeGrid(config.n_steps)
    rows = []
    k_max = 6
    means, cov = chaos.chaos_term_table(model, k_max, config.eps_grid, u,
                                        config.n_samples, config.seed, grid)
    # (eps, order k) is row pos[eps] + k of cov
    by_eps = dict(zip(config.eps_grid, means))
    pos = {eps: i * (k_max + 1) for i, eps in enumerate(config.eps_grid)}
    for eps in config.eps_grid:
        mean0 = chaos.self_intersection_mean_quadrature(eps, u, d)
        se0 = math.sqrt(cov[pos[eps], pos[eps]])
        rows.append(ReportRow(f"term0_second_moment_eps{eps:g}", by_eps[eps][0], se0, mean0**2,
                              4.0 * se0 + 2e-2 * mean0**2))
    # eps-stability of each order across the grid, both eps on the same paths
    eps_sorted = sorted(config.eps_grid, reverse=True)
    for k in range(1, k_max + 1):
        for a, b in zip(eps_sorted, eps_sorted[1:]):
            jac = np.zeros(len(cov))
            jac[[pos[a] + k, pos[b] + k]] = 1.0, -1.0
            rows.append(ReportRow(f"term{k}_diff_eps{a:g}_eps{b:g}",
                                  by_eps[a][k] - by_eps[b][k], delta_se(cov, jac)))
    # Sobolev partial norms across gamma for the smallest eps
    for gamma in (-1.5, -1.0, 0.0):
        val = chaos.sobolev_partial_norm(by_eps[eps_sorted[-1]], gamma, k_max)
        rows.append(ReportRow(f"sobolev_partial_norm_gamma{gamma:g}", val))
    # bridge expansion: partial sums of (k+1)^gamma * m_k at gamma = -1
    bridge_moments = [chaos.bridge_term_variance(nn) for nn in range(41)]
    s40 = chaos.sobolev_partial_norm(bridge_moments, -1.0, 40)
    s38 = chaos.sobolev_partial_norm(bridge_moments, -1.0, 38)
    # the series terms decay like n^{-3/2}, so the K=40 partial-sum
    # ratio sits ~2e-3 above 1; gate accordingly
    rows.append(ReportRow("bridge_gamma-1_partial_sum_ratio", s40 / s38, 0.0, 1.0, 5e-3))
    return ExperimentReport(config, rows)


# ----------------------------------------------------------------- FAC

def fac_study_cmd(config: ExperimentConfig) -> ExperimentReport:
    grid = TimeGrid(config.n_steps)
    rows = []
    mc = fac.MCConfig(config.n_samples, config.seed)

    # closed-form oracle family: endpoint kernel against H_n(f(1))
    orders, eps_grid = (0, 2, 4), (1.0, 0.1, 0.01)
    polys = [fac.PolyFunctional((1.0,), (1,), tuple(_hermite_monomials(n)))
             for n in orders]
    ratios, ses = fac.fac_ratios(BrownianMotion(1), EndpointKernel, eps_grid, polys,
                                 mc, grid)
    for j, n in enumerate(orders):
        for i, eps in enumerate(eps_grid):
            ratio, se = float(ratios[i, j]), float(ses[i, j])
            oracle = abs(hermite_eval(n, 0.0)) * (1.0 + eps) ** (-(n + 1) / 2.0) / (
                math.sqrt(math.factorial(n)) * SQRT_2PI
            )
            rows.append(ReportRow(f"endpoint_ratio_H{n}_eps{eps:g}", ratio, se, oracle, 0.0))
        bound = fac.endpoint_hermite_bound(n)
        rows.append(ReportRow(f"endpoint_bound_H{n}", bound))

    # random-polynomial study over the self-intersection family, d = 2
    bm2 = BrownianMotion(2)
    u2 = (0.4, 0.3)
    family = lambda eps: SelfIntersection(eps, u2)
    coarse_grid = [1.0, 0.5, 0.1]
    full_grid = sorted(set(config.eps_grid) | set(coarse_grid), reverse=True)
    study_mc = fac.MCConfig(min(config.n_samples, 3000), config.seed)
    study = fac.uniform_fac_study(bm2, family, full_grid, degree=4,
                                  n_random_polys=20, mc=study_mc, grid=grid,
                                  family_name="SelfIntersection")
    # the coarse grid is a subset of the full grid, so with the shared
    # seed its sup is the restricted maximum of the same per-eps maxima
    coarse_sup = max(r for e, r in zip(study.eps_grid, study.max_ratios)
                     if e in coarse_grid)
    rows.append(ReportRow("g_family_sup_ratio", study.sup_ratio))
    plateau = study.sup_ratio / coarse_sup if coarse_sup > 0 else math.inf
    rows.append(ReportRow("g_family_plateau_factor", plateau, None, 1.0, 1.0))
    os.makedirs(config.out_dir, exist_ok=True)
    study.to_json(os.path.join(config.out_dir, "fac_study.json"))
    study.to_csv(os.path.join(config.out_dir, "fac_study.csv"))

    # weak-compactness diagnostics on the weighted measures
    diag_mc = fac.MCConfig(min(config.n_samples, 2000), config.seed)
    tail = fac.tail_moment_diagnostic(bm2, family, [1.0, 0.1], basis_size=8,
                                      mc=diag_mc, grid=grid)
    analytic_tail = sum(fac.bm_kl_second_moment(k) for k in range(1, 9)) * 2
    rows.append(ReportRow("kl_tail_n1_unweighted", tail.unweighted_tails[0],
                          tail.unweighted_std_errors[0], analytic_tail, 0.0))
    hold = fac.holder_moment_diagnostic(
        bm2, family, [1.0, 0.1], m0=2,
        time_pairs=[(0.125, 0.25), (0.25, 0.5), (0.25, 0.75), (0.5, 1.0)],
        mc=diag_mc, grid=grid)
    for eps, expo, se in zip(hold.eps_grid, hold.exponents, hold.exponent_std_errors):
        rows.append(ReportRow(f"holder_exponent_eps{eps:g}", expo, se, 2.0, 0.5))

    # integrator operator bounds for the ramp profile
    n_op = min(config.n_steps, 512)
    op = IntegratorOperator.from_profile(lambda s: 1.0 + 0.5 * s, n_op)
    m, big = processes.operator_bounds(op)
    rows.append(ReportRow("operator_bound_lower", m, 0.0, 1.0, 0.01))
    rows.append(ReportRow("operator_bound_upper", big, 0.0, 2.25, 0.01))
    return ExperimentReport(config, rows)


def _hermite_monomials(n):
    """Monomials of H_n as a single-point PolyFunctional body."""
    return [((j,), float(c)) for j, c in enumerate(hermite_coefficients(n)[n]) if c != 0.0]


# ---------------------------------------------------------------- Sweep

def sweep_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Mean of the smoothed local time across the eps grid versus the
    1-D quadrature oracle int_0^1 p_{t+eps}(0) dt."""
    model = BrownianMotion(1)
    grid = TimeGrid(config.n_steps)
    rows = []

    mean, cov = mc_moments(model, grid, config.seed, config.n_samples,
                           lambda values: eval_family_many(LocalTime, config.eps_grid, values))
    se = np.sqrt(np.diag(cov))
    for i, eps in enumerate(config.eps_grid):
        oracle = math.sqrt(2.0 / math.pi) * (math.sqrt(1.0 + eps) - math.sqrt(eps))
        # p_{t+eps}(0) = 1/sqrt(2 pi s), s = t + eps
        quad = integrate_log(lambda s: 1.0 / np.sqrt(2.0 * math.pi * s), eps, 1.0 + eps, 200)
        rows.append(ReportRow(f"local_time_mean_quadrature_eps{eps:g}", quad, 0.0,
                              oracle, 1e-8))
        rows.append(ReportRow(f"local_time_mean_mc_eps{eps:g}", mean[i], se[i], oracle,
                              4.0 * se[i] + 0.01))
    return ExperimentReport(config, rows)


# ------------------------------------------------------------- Selftest

def selftest_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Fast deterministic battery over every closed-form oracle."""
    rows = []

    def check(name, value, oracle, tolerance=1e-9):
        rows.append(ReportRow(name, float(value), 0.0, float(oracle), tolerance))

    check("hermite_H0", hermite_eval(0, 3.7), 1.0)
    check("hermite_H2_at_0", hermite_eval(2, 0.0), -1.0)
    check("hermite_H3_at_2", hermite_eval(3, 2.0), 2.0)
    check("hermite_bound_a1", analytic.hermite_bound_constant(1),
          math.sqrt(2.0) * math.exp(-0.5), 1e-7)
    check("heat_kernel_1d", gauss_kernel_sq(0.0, 1.0), 1.0 / SQRT_2PI)
    check("heat_kernel_2d", gauss_kernel_sq(0.0, 1.0, 2), 1.0 / (2.0 * math.pi))
    check("heat_kernel_offset", gauss_kernel_sq(1.0, 0.5), math.exp(-1.0) / math.sqrt(math.pi))
    check("simplex_area", integrate_simplex(lambda a, b: np.ones_like(a), 2, 60), 0.5, 1e-8)
    check("simplex_volume", integrate_simplex(lambda a, b, c: np.ones_like(a), 3, 40),
          1.0 / 6.0, 1e-8)
    check("simplex_beta_pi", integrate_simplex(
        lambda a, b: 1.0 / np.sqrt(a * (b - a)), 2, 120), math.pi, 1e-7)
    check("kac_n1", kac_moment_quadrature(1), math.sqrt(2.0 / math.pi), 1e-8)
    check("kac_n2", kac_moment_quadrature(2), 1.0, 1e-6)
    check("rice_quadrature_c1", rice_quadrature(2.0 * math.pi, 1.0),
          math.exp(-0.5), 1e-8)
    check("bridge_term_n0", chaos.bridge_term(1.3, 0), 1.0 / SQRT_2PI)
    check("bridge_term_n1", chaos.bridge_term(0.7, 1), 0.0)
    check("bridge_term_n2_at_0", chaos.bridge_term(0.0, 2), 0.5 / SQRT_2PI)
    check("bridge_variance_n2", chaos.bridge_term_variance(2),
          1.0 / (4.0 * math.pi))
    check("endpoint_bound_H2", fac.endpoint_hermite_bound(2),
          1.0 / (math.sqrt(2.0) * SQRT_2PI))
    # endpoint pairing closed form vs E[H_2(Z) p_eps(Z)] by Gauss-Legendre
    # over [-10, 10], outside which the integrand is below 1e-90
    eps = 0.3

    def pairing(t):
        x = 20.0 * t - 10.0
        return 20.0 * hermite_eval(2, x) * gauss_kernel_sq(x**2, eps) * gauss_kernel_sq(x**2, 1.0)

    check("endpoint_pairing_H2_quadrature", integrate_interval(pairing, 200),
          hermite_eval(2, 0.0) * (1.0 + eps) ** -1.5 / SQRT_2PI, 1e-10)
    return ExperimentReport(config, rows)


@dataclass(frozen=True)
class Driver:
    """One CLI driver: its run, default budget (each runs in under 25 s on a
    2-CPU host), the MODEL_FIELDS it reads, the divisor of n_steps that
    makes each time it reads off the grid a node (2 for bridge, which reads
    w(1/2), 8 for fac, whose Hoelder pairs start at t = 1/8) and the
    largest n_steps it takes.  Calling it runs it and records the runtime."""

    run: Callable[[ExperimentConfig], ExperimentReport]
    n_samples: int
    n_steps: int
    reads: tuple
    step_divisor: int = 1
    max_steps: int = MAX_STEPS

    def __call__(self, config: ExperimentConfig) -> ExperimentReport:
        start = time.perf_counter()
        report = self.run(config)
        report.runtime = time.perf_counter() - start
        return report

    def keys(self) -> list:
        """The config keys it takes: all fields but the model fields it does not read."""
        return [f.name for f in fields(ExperimentConfig)
                if f.name not in MODEL_FIELDS or f.name in self.reads]


DRIVERS = {
    "rice": Driver(rice_experiment, 20000, 2048, ("omega",)),
    "kac": Driver(kac_experiment, 10000, 4096, ()),
    "bridge": Driver(bridge_experiment, 20000, 1024, (), 2),
    "chaos": Driver(chaos_table, 4000, 256, ("eps_grid", "u"), 1, PAIR_MAX_STEPS),
    "fac": Driver(fac_study_cmd, 10000, 512, ("eps_grid",), 8, PAIR_MAX_STEPS),
    "sweep": Driver(sweep_experiment, 10000, 4096, ("eps_grid",)),
    "selftest": Driver(selftest_experiment, 100, 256, ()),
}
# name -> callable, the bindings a profiler may wrap; the facts stay in DRIVERS
EXPERIMENTS = dict(DRIVERS)
