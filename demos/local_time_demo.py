"""Smoothed local time of Brownian motion at the origin.

Walks through the basic object of the library: the mollified occupation
functional L_eps(w) = int_0^1 p_eps(w(t)) dt.  As eps shrinks this
converges to the local time at zero, whose mean at time 1 is
sqrt(2/pi) ~ 0.7979 and whose second moment is exactly 1.
"""

import math

import numpy as np

from wcl.analytic import integrate_simplex
from wcl.functionals import LocalTime, eval_family_many, indicator_local_time_many
from wcl.processes import BrownianMotion, TimeGrid, mc_moments

grid = TimeGrid(4096)
model = BrownianMotion(1)
n_paths = 4000
seed = 2024
eps_grid = (1.0, 0.1, 0.01, 1e-3, 1e-4)

print("Monte Carlo mean of L_eps as eps -> 0")
print("eps        mean      std err   target sqrt(2/pi) = %.6f" % math.sqrt(2 / math.pi))
# one pass: each chunk of paths is drawn once and serves every eps
means, cov = mc_moments(model, grid, seed, n_paths,
                        lambda values: eval_family_many(LocalTime, eps_grid, values))
for eps, mean, se in zip(eps_grid, means, np.sqrt(np.diag(cov))):
    print(f"{eps:<10g} {mean:.5f}   {se:.5f}")

# The band-indicator estimator (1/2eps) int 1_{|w| < eps} dt approaches
# the same limit; its second Kac moment comes from a simplex integral.
print()
print("Band indicator, eps = 0.01, vs the Kac moment integrals")


def band_moments(values):
    band = indicator_local_time_many(values, 0.0, 0.01)
    return np.stack([band, band**2])


(first, second_mc), band_cov = mc_moments(model, grid, seed, 2000, band_moments)
first_se, second_se = np.sqrt(np.diag(band_cov))
print(f"  MC first moment   {first:.4f} +/- {first_se:.4f}")
print(f"  MC second moment  {second_mc:.4f} +/- {second_se:.4f}")

second = 2.0 * (2.0 * math.pi) ** -1.0 * integrate_simplex(
    lambda t1, t2: 1.0 / np.sqrt(t1 * (t2 - t1)), 2, 80)
print(f"  simplex quadrature second moment {second:.6f}  (exact value 1)")
