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

Every estimator evaluates its whole (eps, statistic) grid in one
``mc_moments`` pass, so each replica chunk is drawn once per call and
eps-comparisons share the same paths.  Phi_eps goes through a small
memo, ``_phi_rows``: the study and both diagnostics start at the same
replica seed and cut the same chunks into the same row blocks, so the
diagnostics' paths are a prefix of the study's, and each (path, eps) is
evaluated once.  The engine calls a statistic once per row block, so the
memo is keyed per block: by its shape, dtype and a 16-byte BLAKE2b
digest of its float64 values, a row by its spec (type, eps, u).  It
holds the rows of the most recently used blocks up to
``_PHI_MEMO_PATHS`` paths, eight replica chunks, about 256 kB at 4 eps.
Phi_eps is a pure function of (spec, values), and each row of
``eval_family_many`` is bit for bit its single-eps value, so a hit is
exactly what recomputing would give.

The KL-tail projections go through ``functionals.node_sums``, so like
every statistic here each path's value has the same bits in any row
block.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .analytic import hermite_eval
from .functionals import eval_family_many, interval_weights, node_sums
from .functionals import eval_functional_many  # noqa: F401  (perfbench wraps each binding)
from .processes import (
    MC_CHUNK,
    ProcessModel,
    TimeGrid,
    covariance,
    delta_se,
    mc_moments,
    replica_seed,
    sample_values,  # noqa: F401  (module namespace: perfbench wraps each binding)
)

MAX_POLY_DEGREE = 8
MAX_POLY_POINTS = 8

# block key -> {spec key -> Phi_eps row}, least recently used first
_PHI_MEMO: OrderedDict = OrderedDict()
_PHI_MEMO_PATHS = 8 * MC_CHUNK
_PHI_LOCK = threading.Lock()  # the engine's chunks run on several threads


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
    d = model.d
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


def _phi_rows(family, eps_grid, values: np.ndarray) -> np.ndarray:
    """``eval_family_many(family, eps_grid, values)`` through the memo:
    only the eps missing for this block are computed, in one call, and
    added to the block's rows in the memo."""
    keys = [(type(s), s.eps, tuple(getattr(s, "u", ()))) for s in map(family, eps_grid)]
    digest = hashlib.blake2b(np.ascontiguousarray(values, dtype=float), digest_size=16)
    known = _touch((values.shape, values.dtype.str, digest.digest()))
    missing = {key: eps for key, eps in zip(keys, eps_grid) if key not in known}
    if missing:
        known.update(zip(missing, eval_family_many(family, list(missing.values()), values)))
    return np.stack([known[key] for key in keys])


def _touch(block) -> dict:
    """The memo's rows of ``block``, marked most recently used; evicts the
    least recently used blocks while they hold more than _PHI_MEMO_PATHS
    paths."""
    with _PHI_LOCK:
        rows = _PHI_MEMO.setdefault(block, {})
        _PHI_MEMO.move_to_end(block)
        while sum(shape[0] for shape, _, _ in _PHI_MEMO) > _PHI_MEMO_PATHS:
            _PHI_MEMO.popitem(last=False)
        return rows


def _weighted_moments(model: ProcessModel, family, eps_grid, mc: MCConfig,
                      grid: TimeGrid, stat):
    """Means of the rows [x, Phi_eps, Phi_eps * x] for every eps of
    ``eps_grid``, from one engine pass; ``stat(values)`` gives x,
    (k, paths).

    Returns ((x (k,), Phi (n_eps,), Phi * x (n_eps, k)), cov), cov the
    covariance of the means in that order, flattened.
    """
    n_eps = len(eps_grid)

    def rows(values):
        x = stat(values)
        phi = _phi_rows(family, eps_grid, values)
        return np.concatenate([x, phi, (phi[:, None, :] * x).reshape(-1, x.shape[-1])])

    mean, cov = mc_moments(model, grid, mc.seed, mc.n_samples, rows)
    k = (len(mean) - n_eps) // (n_eps + 1)
    return (mean[:k], mean[k : k + n_eps], mean[k + n_eps :].reshape(n_eps, k)), cov


def fac_ratios(model: ProcessModel, family, eps_grid, polys, mc: MCConfig,
               grid: TimeGrid):
    """(|<Phi_eps mu, P>| / ||P||, standard error) for every eps of
    ``eps_grid`` and P of ``polys``: two (n_eps, n_polys) arrays from one
    engine pass, the Monte Carlo pairing over the exact ``poly_norm``.
    ``family`` maps eps to a FunctionalSpec."""
    eps_grid = [float(e) for e in eps_grid]
    norms = np.array([poly_norm(p, model) for p in polys])
    (_, _, pairing), cov = _weighted_moments(
        model, family, eps_grid, mc, grid,
        lambda v: np.stack([eval_poly_many(p, v, grid) for p in polys]))
    se = np.sqrt(np.diag(cov))[-pairing.size:].reshape(pairing.shape)
    return np.abs(pairing) / norms, se / norms


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
    d = model.d
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

    (c2, mean_phi, weighted), cov = _weighted_moments(
        model, family, eps_grid, mc, grid,
        lambda v: _kl_squares(v, basis))
    # tail n sums the rows k >= n, unweighted then over E Phi per eps; jac
    # holds their gradients in the means [c2, Phi, Phi * c2]
    tails = np.cumsum(np.vstack([c2, weighted / mean_phi[:, None]])[:, ::-1], axis=1)[:, ::-1]
    n_eps, upper = len(eps_grid), np.triu(np.ones((basis_size, basis_size)))
    jac = np.zeros((1 + n_eps, basis_size, len(cov)))
    jac[0, :, :basis_size] = upper
    for e, phi in enumerate(mean_phi):
        lo = basis_size + n_eps + e * basis_size
        jac[1 + e, :, lo : lo + basis_size] = upper / phi
        jac[1 + e, :, basis_size + e] = -tails[1 + e] / phi
    se = delta_se(cov, jac)
    return TailDiagnostic(eps_grid, basis_size, tails[1:].tolist(), se[1:].tolist(),
                          tails[0].tolist(), se[0].tolist())


def _kl_squares(values: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(e_k, u)^2 summed over the coordinates of each path (N, n+1, d),
    ||proj||^2 using all d of them, for each row of ``basis`` (K, n+1): the
    KL functions times the trapezoid weights.  Shape (K, N).  A dgemm
    would give each path bits that depend on the batch's row count, so the
    projections go through ``node_sums``, one fill per coordinate."""
    fills = [lambda b, out, j=j: np.copyto(out, b[:, :, j]) for j in range(values.shape[2])]
    return sum(p**2 for p in node_sums(values, basis, fills))


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
    un_slope, _, un_se = _loglog_fit(gaps, incr)
    slopes, _, ses = zip(*(_loglog_fit(gaps, m) for m in weighted))
    return HolderDiagnostic(eps_grid, m0, list(slopes), list(ses), un_slope, un_se)


def _loglog_fit(gaps, moments):
    """(slope, intercept, se of the slope) of the least-squares line of
    log(moments) on log(gaps), in closed form: slope = Sxy / Sxx over the
    centred sums, se = sqrt(RSS / (m - 2) / Sxx), with m - 2 taken as 1
    for two points."""
    x = np.log(gaps)
    y = np.log(moments)
    dx = x - x.mean()
    sxx = float(np.sum(dx**2))
    slope = float(np.sum(dx * (y - y.mean()))) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    return slope, intercept, math.sqrt(float(np.sum(resid**2)) / dof / sxx)
