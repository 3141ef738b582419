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
the terms a group of lags at a time, so a block holds a fixed number of
block buffers at any n_steps.  Each path's terms are bit for bit the
same whatever batch, caller split or block computes them.  Against a
long-double pair sum the error is below 2e-14 of the largest term of
each order at k_max = 6 (measured at most 1.2e-15 at n_steps = 256 and
512).  The monomials of an order cancel in the change of basis, more at
higher orders, so orders stop at MAX_TERM_ORDER.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic import hermite_coefficients, hermite_eval, hermite_sequence, integrate_log
from .functionals import SelfIntersection, eval_family_many, lag_blocks, leading_view
from .functionals import triangle_rule
from .processes import ProcessModel, TimeGrid, delta_se, mc_moments
from .processes import sample_values  # noqa: F401  (perfbench wraps each binding)

# Past order 14 the change of basis cancels too much: against a
# long-double pair sum at n_steps = 33 (d = 1, 2; eps = 0.01, 0.1, 1;
# seeds 1000 to 1189, 8 paths each) orders up to 14 kept within 7.3e-13 of
# the largest term of their order, order 15 reached 2.5e-12 (d = 1, seed
# 1095), order 16 9.4e-13 and order 17 3.3e-12.
MAX_TERM_ORDER = 14
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

    The lag sums of (n+1) // n_beta lags at a time fill one group buffer,
    about one (n+1) * P block buffer; each full group is contracted with
    its lags' scalars, made for the group, by one matrix product per eps
    into that eps's (k_max, P) terms.  The path-free beta = 0 part is
    added at the end.  A block then holds the time-major copy of its
    paths and their increments (d block buffers each), one buffer per
    product depth and the group: at 2^13 steps (d = 3, k_max = 6, three
    eps, 8 paths) the call peaked at 7.8 MB, where a table of every lag's
    sums would be 43.5 MB.  The group size depends on n and the monomial
    count only, never on P, so a path's bits do not depend on its batch.

    Against a long-double sum over node pairs of the Hermite factors, the
    error is below 2e-14 of the largest term of each order for d = 1, 2,
    k_max = 6 and eps = 0.01, 0.1, 1: measured at most 1.17e-15 at
    n_steps = 256 and 1.24e-15 at 512 (96 paths each), 0.26 to 0.96 times
    the error of summing Hermite values per lag in float64.  Higher orders
    cancel more in the change of basis (see MAX_TERM_ORDER).
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
    tau = np.arange(n_nodes) / (n_nodes - 1)  # the time gap of each lag
    # the multi-indices alpha and the monomials beta are the same set
    walk, alphas = _monomial_walk(k_max, d)
    order = alphas.sum(axis=1)
    betas = np.vstack([np.zeros((1, d), dtype=int), alphas])  # row 0 is beta = 0
    # change of basis T[alpha, beta], (n_alpha, 1 + n_alpha), and its rows
    # of each order k
    basis = hermite_coefficients(k_max)
    change = np.ones((len(alphas), len(betas)))
    for j in range(d):
        change *= basis[alphas[:, j][:, None], betas[:, j][None, :]]
    by_order = [(order == k, change[order == k]) for k in range(1, k_max + 1)]
    n_slots = max((slot + 1 for _, _, slot in walk), default=0)
    weight_sums = _lag_weight_sums(n_nodes - 1)
    sq_u = float(np.dot(u, u))

    def heat(s):  # the kernel p^d_s(u)
        return (2.0 * math.pi * s) ** (-0.5 * d) * np.exp(-sq_u / (2.0 * s))

    out = np.empty((len(eps_grid), k_max + 1, n_paths))
    for e, eps in enumerate(eps_grid):
        # order 0 is H_0 = 1 on every path, and the only order the diagonal
        # tau = 0 feeds: one value for all paths
        out[e, 0] = math.fsum(heat(tau + eps) * weight_sums)
    if not k_max:
        return out

    def coefficients(eps, lags):
        """Per order k, lag of ``lags`` and monomial beta >= 1 the scalars
        that contract the lag sums, (k_max, n_lags, n_beta), and per order
        the sum over the lags of beta = 0, which is the same for every
        path."""
        t = tau[lags]
        s = t + eps
        # per-lag scalars of each multi-index, (n_lags, n_alpha)
        level = hermite_sequence(k_max, u / np.sqrt(s)[:, None])
        level /= _FACTORIALS[: k_max + 1, None, None]
        coef = heat(s)[:, None] * (t / s)[:, None] ** (0.5 * order)
        for j in range(d):
            coef *= level[alphas[:, j], :, j].T
        c = np.empty((k_max, len(t), len(alphas)))
        c0 = np.empty(k_max)
        for k, (of_order, change_k) in enumerate(by_order):
            ck = coef[:, of_order] @ change_k
            c[k] = ck[:, 1:]
            c0[k] = ck[:, 0] @ weight_sums[lags]
        c *= t[:, None] ** (-0.5 * order)  # tau^(-|beta|/2)
        return c, c0

    group_lags = max(1, n_nodes // len(walk))
    for rows, v in lag_blocks(values):
        n_cols = v.shape[2]
        # eps-free lag sums of one group of lags, and the terms they add to
        group = np.empty((group_lags, len(walk), n_cols))
        acc = np.zeros((len(eps_grid), k_max, n_cols))
        const = np.zeros((len(eps_grid), k_max))
        # per-lag buffers, reused: the increments and one product per depth
        dv_buf = np.empty(d * n_nodes * n_cols)
        prod_bufs = np.empty((n_slots, n_nodes * n_cols))
        prods = [None] * (k_max + 1)
        lag_weights = triangle_rule(n_nodes - 1)
        next(lag_weights)  # the diagonal feeds order 0 only
        for lag, w in enumerate(lag_weights, start=1):
            m = n_nodes - lag
            g = (lag - 1) % group_lags
            dv = np.subtract(v[:, lag:], v[:, :m], out=leading_view(dv_buf, d, m, n_cols))
            for b, (depth, j, slot) in enumerate(walk):
                if depth == 1:
                    prods[1] = dv[j]
                else:
                    prods[depth] = np.multiply(prods[depth - 1], dv[j],
                                               out=leading_view(prod_bufs[slot], m, n_cols))
                np.matmul(w, prods[depth], out=group[g, b])
            if g + 1 == group_lags or lag + 1 == n_nodes:
                # contract the group's lags: one matrix product per eps
                sums = group[: g + 1].reshape(-1, n_cols)
                for e, eps in enumerate(eps_grid):
                    c, c0 = coefficients(eps, slice(lag - g, lag + 1))
                    acc[e] += c.reshape(k_max, -1) @ sums
                    const[e] += c0
        nb = rows.stop - rows.start
        out[:, 1:, rows] = acc[:, :, :nb] + const[:, :, None]
    return out


@functools.lru_cache(maxsize=8)
def _lag_weight_sums(n_steps: int) -> np.ndarray:
    """The exactly rounded sum of each lag's weights of ``triangle_rule``,
    read-only since the cache shares it.  Summed on every call, the fsum
    over all (n+1)(n+2)/2 weights took 2 ms of a 35 ms chaos block at 256
    steps on a 2-CPU Xeon."""
    sums = np.array([math.fsum(w) for w in triangle_rule(n_steps)])
    sums.flags.writeable = False
    return sums


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
