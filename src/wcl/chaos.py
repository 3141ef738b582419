"""Chaos-expansion machinery for the smoothed self-intersection
functional and the endpoint-kernel family.

The order-k term of the expansion of G_eps is a double time integral of
products of Hermite factors.  Its path factor is
(tau/(tau+eps))^(n/2) * H_n(dw / sqrt(tau)), a pure order-n element of
the Wiener chaos, so partial sums are orthogonal projections and
residual second moments decrease in the cutoff.

``chaos_terms_many`` does not evaluate Hermite polynomials on the
paths.  It runs lag by lag over the time-major blocks of
``functionals.lag_blocks``, padded to whole groups of 8 paths, and forms
only the weighted lag sums of the monomials dv^beta of the increments,
each from its parent with one multiply into a reused block buffer.  The
Hermite-to-monomial change of basis, an exact integer matrix, is folded
into the per-lag, per-eps coefficients, which contract the lag sums into
the terms.  Each path's terms are bit for bit the same whatever batch,
caller split or block computes them.  The price is cancellation among
the monomials: against a long-double pair sum the error is below 2e-14
of the largest term of each order at k_max = 6, and it grows with the
order, so orders stop at MAX_TERM_ORDER.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import hermite_coefficients, hermite_eval, hermite_sequence, integrate_log
from .functionals import SelfIntersection, eval_family_many, lag_blocks, leading_view
from .functionals import triangle_rule
from .processes import ProcessModel, TimeGrid, delta_se, mc_moments
from .processes import sample_values  # noqa: F401  (perfbench wraps each binding)

# Past order 15 the change of basis cancels too much: against a
# long-double pair sum at n_steps = 33 (d = 1, 2; 190 batches of 8 paths)
# orders up to 15 kept within 6.3e-13 of the largest term of their order,
# order 16 reached 9.5e-13 and order 17 1.9e-12.
MAX_TERM_ORDER = 15
MAX_BRIDGE_ORDER = 40

_FACTORIALS = np.array([math.factorial(n) for n in range(MAX_BRIDGE_ORDER + 1)], dtype=float)


def chaos_terms_many(values: np.ndarray, k_max: int, eps_grid, u) -> np.ndarray:
    """Terms of order 0..k_max for a batch of paths and every eps of
    ``eps_grid``.

    values: (N, n+1, d); returns an array of shape (n_eps, k_max + 1, N).

    Summed lag by lag in float64.  At lag L, with tau = L/n and the
    increments dv_j = v_j(i+L) - v_j(i), the path factor of a multi-index
    alpha is prod_j H_{alpha_j}(dv_j / sqrt(tau))
    = sum_{beta <= alpha} T[alpha, beta] tau^(-|beta|/2) dv^beta, with
    T[alpha, beta] = prod_j h[alpha_j, beta_j] and h[a, p] the z^p
    coefficient of H_a.  So per block of paths only the monomial lag sums
    sum_i w_i dv^beta, 1 <= |beta| <= k_max, are formed: each monomial is
    its parent times one dv_j, then one vector-matrix product.  beta = 0
    is the path-free sum of the weights.  Each eps folds T and tau into
    its per-lag scalars (the kernel p^d_{tau+eps}(u), rho^(|alpha|/2)
    with rho = tau/(tau+eps), and the level factors
    prod_j H_{alpha_j}(u_j / sqrt(tau+eps)) / alpha_j!) and contracts
    them with the lag sums; a row depends on its own eps only, never on
    the rest of the grid.

    Against a long-double sum over node pairs of the Hermite factors, the
    error is below 2e-14 of the largest term of each order for d = 1, 2,
    k_max = 6 and eps = 0.01, 0.1, 1 (measured at most 9.1e-15 at
    n_steps = 256 and 1.2e-14 at 512, 96 paths each), 2.6 to 3.7 times the
    error of summing Hermite values per lag: the monomials of an order
    cancel in the change of basis.  Higher orders cancel more; up to
    MAX_TERM_ORDER each order keeps within 1e-12 of its largest term.
    """
    if k_max < 0 or k_max > MAX_TERM_ORDER:
        raise ValueError(f"order must be in [0, {MAX_TERM_ORDER}]")
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid or not all(e > 0 for e in eps_grid):
        raise ValueError("need at least one eps, and every eps must be positive")
    n_paths, n_nodes, d = values.shape
    u = np.asarray(u, dtype=float)
    if len(u) != d:
        raise ValueError("offset dimension must match the path dimension")
    tau, weights = triangle_rule(n_nodes - 1)
    # the multi-indices alpha and the monomials beta are the same set
    walk, alphas = _monomial_walk(k_max, d)
    order = alphas.sum(axis=1)
    betas = np.vstack([np.zeros((1, d), dtype=int), alphas])  # row 0 is beta = 0
    # change of basis T[alpha, beta], (n_alpha, 1 + n_alpha)
    basis = hermite_coefficients(k_max)
    change = np.ones((len(alphas), len(betas)))
    for j in range(d):
        change *= basis[alphas[:, j][:, None], betas[:, j][None, :]]
    # tau^(-|beta|/2) at the lags L >= 1, (n, 1 + n_alpha)
    tau_pow = tau[1:, None] ** (-0.5 * betas.sum(axis=1))
    n_slots = max((slot + 1 for _, _, slot in walk), default=0)
    weight_sums = np.array([math.fsum(w) for w in weights])
    out = np.empty((len(eps_grid), k_max + 1, n_paths))
    scalars = []
    for e, eps in enumerate(eps_grid):
        s = tau + eps
        kernel = (2.0 * math.pi * s) ** (-0.5 * d) * np.exp(-float(np.dot(u, u)) / (2.0 * s))
        # order 0 is H_0 = 1 on every path, and the only order the diagonal
        # tau = 0 feeds: one value for all paths
        out[e, 0] = math.fsum(kernel * weight_sums)
        if not k_max:
            continue
        # per-lag scalars of each multi-index, (n, n_alpha)
        level = hermite_sequence(k_max, u[None, :] / np.sqrt(s[1:])[:, None])
        level /= _FACTORIALS[: k_max + 1, None, None]
        coef = kernel[1:, None] * (tau[1:] / s[1:])[:, None] ** (0.5 * order)
        for j in range(d):
            coef *= level[alphas[:, j], :, j].T
        # per order k, lag and monomial: (k_max, n, 1 + n_beta)
        c = np.stack([coef[:, order == k] @ change[order == k] for k in range(1, k_max + 1)])
        c *= tau_pow
        # beta = 0 is the same for every path
        scalars.append((c[:, :, 1:], c[:, :, 0] @ weight_sums[1:]))
    if not k_max:
        return out
    for rows, v in lag_blocks(values):
        n_cols = v.shape[2]
        sums = np.empty((n_nodes - 1, len(walk), n_cols))  # eps-free lag sums
        # per-lag buffers, reused: the increments and one product per depth
        dv_buf = np.empty(d * n_nodes * n_cols)
        prod_bufs = np.empty((n_slots, n_nodes * n_cols))
        prods = [None] * (k_max + 1)
        for lag in range(1, n_nodes):
            m = n_nodes - lag
            dv = np.subtract(v[:, lag:], v[:, :m], out=leading_view(dv_buf, d, m, n_cols))
            for b, (depth, j, slot) in enumerate(walk):
                if depth == 1:
                    prods[1] = dv[j]
                else:
                    prods[depth] = np.multiply(prods[depth - 1], dv[j],
                                               out=leading_view(prod_bufs[slot], m, n_cols))
                np.matmul(weights[lag], prods[depth], out=sums[lag - 1, b])
        nb = rows.stop - rows.start
        for e, (c, c0) in enumerate(scalars):
            terms = np.einsum("klb,lbp->kp", c, sums)
            out[e, 1:, rows] = terms[:, :nb] + c0[:, None]
    return out


def _monomial_walk(k_max: int, d: int):
    """The monomials dv^beta with 1 <= |beta| <= k_max in a depth-first
    walk over nondecreasing coordinate sequences j_1 <= ... <= j_r: each
    is its parent, one step up the walk at depth r - 1, times dv_{j_r}.

    Returns (walk, betas).  walk[b] = (r, j_r, slot): a monomial of depth
    r >= 2 goes into buffer ``slot``, its parent's when it is the parent's
    last child (the parent is not needed after it; at d = 1 the whole
    walk runs in place in one buffer), else buffer r - 2, which none of
    its live ancestors holds.  betas (n_beta, d) are also every
    multi-index of order 1..k_max.
    """
    walk, betas = [], []

    def visit(beta, depth, first, slot):
        if depth > k_max:
            return
        for j in range(first, d):
            child = beta.copy()
            child[j] += 1
            own = slot if j == d - 1 and depth > 2 else depth - 2
            walk.append((depth, j, own))
            betas.append(child)
            visit(child, depth + 1, j, own)

    visit(np.zeros(d, dtype=int), 1, 0, -1)
    return walk, np.array(betas, dtype=int).reshape(-1, d)


def bridge_term(end_value: float, n: int) -> float:
    """Order-n term of the endpoint-kernel limit expansion:
    H_n(0) * H_n(end_value) / (n! * sqrt(2 pi))."""
    if n < 0 or n > MAX_BRIDGE_ORDER:
        raise ValueError(f"order must be in [0, {MAX_BRIDGE_ORDER}]")
    return hermite_eval(n, 0.0) * hermite_eval(n, end_value) / (
        _FACTORIALS[n] * math.sqrt(2.0 * math.pi)
    )


def bridge_term_variance(n: int) -> float:
    """Second moment H_n(0)^2 / (2 pi n!) of the order-n bridge term
    under a standard Gaussian endpoint.

    For n = 0 the term is the constant 1/sqrt(2 pi); the value stored
    here is its squared mean, which is what enters the norm sum at k=0.
    """
    if n < 0 or n > MAX_BRIDGE_ORDER:
        raise ValueError(f"order must be in [0, {MAX_BRIDGE_ORDER}]")
    return hermite_eval(n, 0.0) ** 2 / (2.0 * math.pi * _FACTORIALS[n])


def sobolev_partial_norm(term_second_moments, gamma: float, k_max: int) -> float:
    """Partial sum sum_{k<=k_max} (k+1)^gamma * m_k of the weighted
    second moments."""
    m = np.asarray(term_second_moments, dtype=float)
    if len(m) < k_max + 1:
        raise ValueError("need a second moment for every order up to k_max")
    if np.any(m[: k_max + 1] < 0):
        raise ValueError("second moments must be non-negative")
    k = np.arange(k_max + 1, dtype=float)
    return float(np.sum((k + 1.0) ** gamma * m[: k_max + 1]))


def chaos_term_table(model: ProcessModel, k_max: int, eps_grid, u,
                     n_samples: int, seed: int, grid: TimeGrid):
    """Monte Carlo E[term_k^2] for every eps of ``eps_grid`` and order
    0..k_max from one sampling pass: means (n_eps, k_max + 1) and their
    covariance, (eps i, order k) at row i * (k_max + 1) + k."""
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    means, cov = mc_moments(model, grid, seed, n_samples, lambda v: (
        chaos_terms_many(v, k_max, eps_grid, u) ** 2).reshape(-1, v.shape[0]))
    return means.reshape(len(eps_grid), k_max + 1), cov


@dataclass(frozen=True)
class ExpansionStudy:
    """Joint MC summary of G_eps against its expansion partial sums."""

    mean_g: float
    var_g: float
    residual_moments: tuple  # E[(G - S_K)^2] for K = 0..k_max
    residual_cov: np.ndarray  # their covariance as Monte Carlo means
    cross_cov: np.ndarray  # sample covariances of distinct-order terms
    cross_cov_std_errors: np.ndarray


def expansion_study_mc(model: ProcessModel, k_max: int, eps: float, u,
                       n_samples: int, seed: int, grid: TimeGrid) -> ExpansionStudy:
    """Sample G_eps and its expansion terms jointly: residual second
    moments per cutoff and cross-order term covariances."""
    u = np.asarray(u, dtype=float)
    spec = SelfIntersection(eps, tuple(u))
    m = k_max + 1

    def stats(values):
        [g] = eval_family_many(lambda e: spec, [eps], values)
        [terms] = chaos_terms_many(values, k_max, [eps], u)
        res = (g - np.cumsum(terms, axis=0)) ** 2
        return np.concatenate([g[None], res, terms,
                               (terms[:, None, :] * terms).reshape(m * m, -1)])

    mean, cov = mc_moments(model, grid, seed, n_samples, stats)
    t_mean = mean[1 + m : 1 + 2 * m]
    # the gradient of E[t_i t_j] - E[t_i] E[t_j] in the means
    jac = np.zeros((m, m, len(mean)))
    i, j = np.indices((m, m))
    jac[i, j, 1 + 2 * m + m * i + j] = 1.0
    jac[i, j, 1 + m + i] -= t_mean[j]
    jac[i, j, 1 + m + j] -= t_mean[i]
    return ExpansionStudy(
        mean_g=float(mean[0]),
        var_g=float(cov[0, 0] * n_samples),
        residual_moments=tuple(float(x) for x in mean[1 : 1 + m]),
        residual_cov=cov[1 : 1 + m, 1 : 1 + m],
        cross_cov=mean[1 + 2 * m :].reshape(m, m) - np.outer(t_mean, t_mean),
        cross_cov_std_errors=delta_se(cov, jac),
    )


def self_intersection_mean_quadrature(eps: float, u, d: int) -> float:
    """1-D quadrature oracle for E G_eps over Brownian motion:
    int_0^1 (1 - tau) p^d_{tau+eps}(u) dtau.

    Integrated in s = tau + eps by ``integrate_log`` with 200 nodes.
    Against a 40-digit mpmath reference for d = 1, 2, 3 and eps from 1
    to 1e-6 the relative error is at most 1.5e-15 for u = 0.5, (0.4, 0.3),
    (1.5, 1.0), (0.3, 0.2, 0.1), (1, 0.5, 0.5); 5.4e-15 at u = 0; and
    8.7e-15 at u = (3, 3), where E G_eps is 1e-7 to 1e-3 of its u = 0
    value.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    u = np.asarray(u, dtype=float)
    if u.shape != (d,):
        raise ValueError(f"offset u has shape {u.shape}, expected ({d},)")
    sq = float(np.dot(u, u))

    def integrand(s):
        return (1.0 + eps - s) * (2.0 * math.pi * s) ** (-0.5 * d) * np.exp(-sq / (2.0 * s))

    return integrate_log(integrand, eps, 1.0 + eps, 200)
