"""Level crossings of a smooth stationary Gaussian process.

The process xi(t) = Z1 cos(omega t) + Z2 sin(omega t) has exactly
(omega / 2 pi) e^{-c^2/2} expected upcrossings of level c per unit time.
The demo counts crossings on sampled paths and compares.
"""

import math

import numpy as np

from wcl.experiments import rice_closed_form, rice_quadrature
from wcl.functionals import upcrossing_count_many
from wcl.processes import SmoothStationary, TimeGrid, mc_moments

omega = 2.0 * math.pi
grid = TimeGrid(2048)
model = SmoothStationary(omega)
n_paths, seed = 8000, 5
levels = (0.0, 0.5, 1.0, 2.0)

print(f"omega = 2 pi: one full rotation per unit time, so exactly one")
print(f"zero upcrossing per path on average.\n")
print("level   MC count   std err   closed form   quadrature")
# one pass: each chunk of paths is drawn once and counted at every level
means, cov = mc_moments(model, grid, seed, n_paths, lambda values: np.stack(
    [upcrossing_count_many(values, level) for level in levels]))
for level, mean, se in zip(levels, means, np.sqrt(np.diag(cov))):
    print(f"{level:<7g} {mean:.4f}     {se:.4f}    "
          f"{rice_closed_form(omega, level):.4f}        "
          f"{rice_quadrature(omega, level):.4f}")
