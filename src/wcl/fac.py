"""Empirical finite-absolute-continuity engine.

Pairs the weighted measures Phi_eps * mu against finite-dimensional
polynomials of point evaluations, estimates the ratio constants
|<Phi_eps mu, P>| / ||P||_{L2(mu)}, runs uniform-in-eps studies over
random polynomials, and computes the two weak-compactness moment
diagnostics (Karhunen-Loeve tail sums and Holder-type increment
moments) for the weighted measures.

Only the pairing <Phi_eps mu, P> is a Monte Carlo estimate.  The norm
||P|| is exact: P is a polynomial in jointly Gaussian point values, so
E[P^2] is a finite sum of Gaussian moments (``poly_norm``).

One engine pass per path set: every estimator evaluates its whole
(eps, statistic) grid in a single ``mc_moments`` call, so each replica
chunk is drawn once per call and eps-comparisons share the same paths.
Within a chunk, Phi_eps for the whole eps grid is one ``eval_family_many``
call, so G_eps computes its lag differences once for every eps.  Each
cell of the grid is bit for bit what a one-cell call would give.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .functionals import eval_family_many, interval_weights
from .functionals import eval_functional_many  # noqa: F401  (perfbench wraps each binding)
from .processes import (
    ProcessModel,
    TimeGrid,
    covariance,
    mc_moments,
    model_dimension,
    replica_seed,
    sample_values,  # noqa: F401  (module namespace: perfbench wraps each binding)
)

MAX_POLY_DEGREE = 8
MAX_POLY_POINTS = 8


@dataclass(frozen=True)
class MCConfig:
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 100:
            raise ValueError("need at least 100 samples")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class PolyFunctional:
    """Polynomial in point evaluations of the path.

    ``times`` are grid times, ``coords`` the matching 1-based coordinate
    indices; ``monomials`` is a list of (exponent vector, coefficient)
    with the exponent vector running over the evaluation points.
    """

    times: tuple
    coords: tuple
    monomials: tuple

    def __post_init__(self):
        if len(self.times) != len(self.coords):
            raise ValueError("need one coordinate index per evaluation time")
        if len(self.times) > MAX_POLY_POINTS:
            raise ValueError(f"at most {MAX_POLY_POINTS} evaluation points")
        if any(c < 1 for c in self.coords):
            raise ValueError(f"coordinate indices are 1-based, got {self.coords}")
        if not any(c != 0.0 for _, c in self.monomials):
            raise ValueError("polynomial must have a nonzero coefficient")
        if self.degree > MAX_POLY_DEGREE:
            raise ValueError(f"degree must be <= {MAX_POLY_DEGREE}")

    @property
    def degree(self) -> int:
        return max(sum(e) for e, _ in self.monomials)

    @staticmethod
    def constant(c: float) -> "PolyFunctional":
        return PolyFunctional((), (), (((), float(c)),))


def eval_poly_many(p: PolyFunctional, values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Batched polynomial evaluation over paths (N, n+1, d)."""
    d = values.shape[2]
    cols = []
    for t, c in zip(p.times, p.coords):
        if c > d:
            raise ValueError(f"coordinate index {c} out of range for d={d}")
        cols.append(values[:, grid.index_of(t), c - 1])
    pts = np.column_stack(cols) if cols else np.empty((values.shape[0], 0))
    out = np.zeros(values.shape[0])
    for exponents, coeff in p.monomials:
        term = np.full(values.shape[0], coeff)
        for j, e in enumerate(exponents):
            if e:
                term = term * pts[:, j] ** e
        out += term
    return out


def _gaussian_moment(cov, e, memo):
    """E[prod_i X_i^e_i] for centred Gaussian X with covariance ``cov``.

    Isserlis' recursion (Biometrika 1918): with X_a one factor of the
    monomial and m the rest, E[X_a m] = sum_j cov[a][j] E[dm/dX_j].
    ``memo`` maps exponent tuples to moments and must hold the zero
    tuple's moment, 1.
    """
    if e in memo:
        return memo[e]
    if sum(e) % 2:
        return 0.0
    a = next(i for i, k in enumerate(e) if k)
    rest = list(e)
    rest[a] -= 1
    terms = []
    for j, k in enumerate(rest):
        if k and cov[a][j]:
            rest[j] -= 1
            terms.append(k * cov[a][j] * _gaussian_moment(cov, tuple(rest), memo))
            rest[j] += 1
    memo[e] = math.fsum(terms)
    return memo[e]


def poly_norm(p: PolyFunctional, model: ProcessModel) -> float:
    """Exact ||P||_{L2(mu)}: sqrt of sum c c' E[x^(e + e')] over pairs of
    monomials, with the point values' covariance from ``covariance``.

    Raises ValueError if a coordinate index exceeds the model dimension or
    the norm is zero (to rounding), as for P evaluated only where X = 0.
    """
    d = model_dimension(model)
    if any(c > d for c in p.coords):
        raise ValueError(f"coordinate indices {p.coords} out of range for d={d}")
    pts = list(zip(p.times, p.coords))
    cov = [[float(covariance(model, s, t)[a - 1, b - 1]) for t, b in pts] for s, a in pts]
    memo = {(0,) * len(pts): 1.0}
    terms = [c * c2 * _gaussian_moment(cov, tuple(x + y for x, y in zip(e, e2)), memo)
             for e, c in p.monomials for e2, c2 in p.monomials]
    total = math.fsum(terms)
    # cancellation leaves rounding noise of about eps * sum |terms|
    if not total > 1e-12 * math.fsum(map(abs, terms)):
        raise ValueError(f"polynomial has zero L2 norm under {type(model).__name__}")
    return math.sqrt(total)


def _weighted_moments(model: ProcessModel, family, eps_grid, mc: MCConfig,
                      grid: TimeGrid, stat):
    """Means and standard errors of the rows [x, Phi_eps, Phi_eps * x] for
    every eps of ``eps_grid``, from one engine pass; ``stat(values)`` gives
    x, (k, paths).

    Returns (mean, std_error), each a triple (x (k,), Phi (n_eps,),
    Phi * x (n_eps, k)).
    """
    n_eps = len(eps_grid)

    def rows(values):
        x = stat(values)
        phi = eval_family_many(family, eps_grid, values)
        return np.concatenate([x, phi, (phi[:, None, :] * x).reshape(-1, x.shape[-1])])

    mean, se = mc_moments(model, grid, mc.seed, mc.n_samples, rows)
    k = (len(mean) - n_eps) // (n_eps + 1)
    return [(a[:k], a[k : k + n_eps], a[k + n_eps :].reshape(n_eps, k)) for a in (mean, se)]


def fac_ratios(model: ProcessModel, family, eps_grid, polys, mc: MCConfig,
               grid: TimeGrid):
    """(|<Phi_eps mu, P>| / ||P||, standard error) for every eps of
    ``eps_grid`` and P of ``polys``: two (n_eps, n_polys) arrays from one
    engine pass, the Monte Carlo pairing over the exact ``poly_norm``.
    ``family`` maps eps to a FunctionalSpec."""
    eps_grid = [float(e) for e in eps_grid]
    norms = np.array([poly_norm(p, model) for p in polys])
    mean, se = _weighted_moments(
        model, family, eps_grid, mc, grid,
        lambda v: np.stack([eval_poly_many(p, v, grid) for p in polys]))
    return np.abs(mean[2]) / norms, se[2] / norms


def random_poly(rng: np.random.Generator, degree: int, grid: TimeGrid,
                d: int) -> PolyFunctional:
    """Draw a random polynomial for the FAC search distribution.

    One to four evaluation times, uniform over interior grid nodes,
    coordinates uniform over 1..d, exponent vectors uniform over total degree <=
    ``degree``, coefficients standard Gaussian.  Callers normalize by
    ``poly_norm``.
    """
    n_points = int(rng.integers(1, min(4, MAX_POLY_POINTS) + 1))
    ks = rng.integers(1, grid.n_steps + 1, size=n_points)
    times = tuple(float(k) * grid.h for k in ks)
    coords = tuple(int(c) for c in rng.integers(1, d + 1, size=n_points))
    exps = [e for e in _exponent_vectors(n_points, degree)]
    chosen = rng.choice(len(exps), size=min(len(exps), max(2, degree + 1)), replace=False)
    monomials = tuple((exps[i], float(rng.standard_normal())) for i in chosen)
    return PolyFunctional(times, coords, monomials)


def _exponent_vectors(n_points: int, max_total: int):
    if n_points == 0:
        yield ()
        return
    for first in range(max_total + 1):
        for rest in _exponent_vectors(n_points - 1, max_total - first):
            yield (first,) + rest


@dataclass
class FacStudyReport:
    """Outcome of a uniform-in-eps FAC ratio study."""

    model: str
    family: str
    eps_grid: list
    degree: int
    max_ratios: list
    max_ratio_std_errors: list
    sup_ratio: float
    n_polynomials: int = 0
    n_samples: int = 0

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eps", "max_ratio", "std_error"])
            for eps, r, se in zip(self.eps_grid, self.max_ratios,
                                  self.max_ratio_std_errors):
                writer.writerow([f"{eps:.12g}", f"{r:.12g}", f"{se:.12g}"])


def uniform_fac_study(model: ProcessModel, family, eps_grid, degree: int,
                      n_random_polys: int, mc: MCConfig, grid: TimeGrid,
                      family_name: str = "") -> FacStudyReport:
    """Max FAC ratio over random polynomials, for each eps of a
    decreasing grid, on one seed-matched path set.

    ``family`` maps eps to a FunctionalSpec.
    """
    eps_grid = [float(e) for e in eps_grid]
    if len(eps_grid) < 3 or any(b >= a for a, b in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps grid must be decreasing with at least 3 points")
    if n_random_polys < 20:
        raise ValueError("need at least 20 random polynomials")
    d = model_dimension(model)
    rng = np.random.default_rng(replica_seed(mc.seed, 10**6))
    polys = [random_poly(rng, degree, grid, d) for _ in range(n_random_polys)]
    ratios, ratio_se = fac_ratios(model, family, eps_grid, polys, mc, grid)
    best = np.argmax(ratios, axis=1)
    max_ratios = [float(ratios[ei, b]) for ei, b in enumerate(best)]
    max_se = [float(ratio_se[ei, b]) for ei, b in enumerate(best)]
    return FacStudyReport(
        model=type(model).__name__,
        family=family_name or family(eps_grid[0]).__class__.__name__,
        eps_grid=eps_grid,
        degree=degree,
        max_ratios=max_ratios,
        max_ratio_std_errors=max_se,
        sup_ratio=float(max(max_ratios)),
        n_polynomials=n_random_polys,
        n_samples=mc.n_samples,
    )


def endpoint_hermite_bound(n: int) -> float:
    """Closed-form uniform-in-eps bound for the endpoint-kernel family
    paired with H_n(f(1)): |H_n(0)| / (sqrt(n!) * sqrt(2 pi))."""
    from .analytic import hermite_eval

    return abs(hermite_eval(n, 0.0)) / math.sqrt(math.factorial(n) * 2.0 * math.pi)


def kl_basis(k: int, t: np.ndarray) -> np.ndarray:
    """Karhunen-Loeve eigenfunction of Brownian motion:
    e_k(t) = sqrt(2) sin((k - 1/2) pi t), k >= 1."""
    return math.sqrt(2.0) * np.sin((k - 0.5) * math.pi * t)


@dataclass
class TailDiagnostic:
    """KL tail sums of the weighted measures across the eps grid.

    tail_sums[e][n-1] = sum_{k=n..N} E_{mu_eps}[(e_k, u)^2], with the
    unweighted model in ``unweighted_tails``.
    """

    eps_grid: list
    basis_size: int
    tail_sums: list
    tail_std_errors: list
    unweighted_tails: list
    unweighted_std_errors: list


def tail_moment_diagnostic(model: ProcessModel, family, eps_grid, basis_size: int,
                           mc: MCConfig, grid: TimeGrid) -> TailDiagnostic:
    """Weak-compactness diagnostic: per-eps tails of the KL coefficient
    second moments under the Phi_eps-weighted normalized measures.

    Weighting uses importance weights Phi_eps(f) on the unweighted
    sample, normalized by the sample mean of Phi_eps.
    """
    eps_grid = [float(e) for e in eps_grid]
    t = grid.times
    w_time = interval_weights(grid.n_steps)
    basis = np.stack([kl_basis(k, t) * w_time for k in range(1, basis_size + 1)])

    # (e_k, u)^2 summed over coordinates: ||proj||^2 uses all d coords
    (c2, mean_phi, weighted), (c2_se, _, weighted_se) = _weighted_moments(
        model, family, eps_grid, mc, grid,
        lambda v: sum((v[:, :, j] @ basis.T) ** 2 for j in range(v.shape[2])).T)
    weighted = weighted / mean_phi[:, None]
    weighted_se = weighted_se / mean_phi[:, None]

    def tails(vec):
        return np.cumsum(vec[::-1])[::-1]

    return TailDiagnostic(
        eps_grid=eps_grid,
        basis_size=basis_size,
        tail_sums=[tails(m).tolist() for m in weighted],
        tail_std_errors=[np.sqrt(tails(e**2)).tolist() for e in weighted_se],
        unweighted_tails=tails(c2).tolist(),
        unweighted_std_errors=np.sqrt(tails(c2_se**2)).tolist(),
    )


def bm_kl_second_moment(k: int) -> float:
    """Exact E (e_k, w)^2 for scalar Brownian motion: ((k-1/2) pi)^-2."""
    return ((k - 0.5) * math.pi) ** -2


@dataclass
class HolderDiagnostic:
    """Fitted growth exponent of increment moments per eps."""

    eps_grid: list
    m0: int
    exponents: list
    exponent_std_errors: list
    unweighted_exponent: float
    unweighted_std_error: float


def holder_moment_diagnostic(model: ProcessModel, family, eps_grid, m0: int,
                             time_pairs, mc: MCConfig, grid: TimeGrid) -> HolderDiagnostic:
    """Weak-compactness diagnostic: fit the exponent of |t2 - t1| in
    E_{mu_eps} ||u(t2) - u(t1)||^{2 m0} by least squares in log-log
    coordinates, with the regression standard error."""
    if m0 not in (1, 2):
        raise ValueError("m0 must be 1 or 2")
    eps_grid = [float(e) for e in eps_grid]
    pairs = [(float(a), float(b)) for a, b in time_pairs]
    idx = [(grid.index_of(a), grid.index_of(b)) for a, b in pairs]
    gaps = np.array([abs(b - a) for a, b in pairs])

    (incr, mean_phi, weighted), _ = _weighted_moments(
        model, family, eps_grid, mc, grid,
        lambda v: np.stack([np.sum((v[:, j, :] - v[:, i, :]) ** 2, axis=1) ** m0
                            for i, j in idx]))
    weighted = weighted / mean_phi[:, None]

    def fit(moments):
        x = np.log(gaps)
        y = np.log(moments)
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        dof = max(len(x) - 2, 1)
        se = math.sqrt(float(np.sum(resid**2)) / dof / float(np.sum((x - x.mean()) ** 2)))
        return float(slope), se

    un_slope, un_se = fit(incr)
    slopes, ses = zip(*(fit(m) for m in weighted))
    return HolderDiagnostic(eps_grid, m0, list(slopes), list(ses), un_slope, un_se)
