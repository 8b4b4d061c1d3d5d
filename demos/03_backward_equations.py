"""
Backward equations on the lattice
=================================

A backward stochastic difference equation prescribes terminal data and
a pair of stage drivers, then asks for the value process Y, the slope Z
against the next independent coordinate, and the orthogonal remainder
R.  This script solves a small affine-driver system and inspects the
defining identities.
"""

import numpy as np

from fgncontrol import (
    DriverSpec,
    condexp,
    expectation,
    lattice_for_hurst,
    noise_value,
    residual_orthogonality,
    solve_bsde,
    white_value,
)

horizon = 3

# the stage-3 driver g multiplies xi_3, which enters only through
# E[xi_3 | F_3]; that reads row 3 of the whitening basis (sized
# depth + 1 by lattice_for_hurst), so a depth-3 lattice suffices
lat = lattice_for_hurst(0.3, depth=horizon, order=3)

# terminal data: a nonlinear function of the accumulated increments,
# adapted to level 3
xi_sum = sum(noise_value(lat, s) for s in range(horizon))
terminal = xi_sum * xi_sum


# drivers are called per stage as f(n, y, z); the stage-horizon f and g
# must ignore z (the solver passes a zero there)
def f(n, y, z):
    return 0.1 * y + 0.05 * z


def g(n, y, z):
    return 0.2 * y


spec = DriverSpec(horizon=horizon, terminal=terminal, f=f, g=g)
sol = solve_bsde(spec, lat)

print("Y_0 =", sol.y[0].values[0])
print("nodes carrying Y_n:", [sol.y[n].values.size for n in range(horizon + 1)])

# the one-step identity decomposes the projected right-hand side into
# E_n[.] + Z_n eta_n + R_n, so R_n is orthogonal to constants and to
# eta_n conditionally at every stage
for n in range(horizon):
    r = sol.r[n]
    mean_part = condexp(r, n)
    eta_part = condexp(r * white_value(lat, n), n)
    print(f"stage {n}: |E_n[R]| <= {np.max(np.abs(mean_part.values)):.3e}, "
          f"|E_n[R eta]| <= {np.max(np.abs(eta_part.values)):.3e}")

worst_mean, worst_eta = residual_orthogonality(sol, lat)
print("worst over all stages:", worst_mean, worst_eta)

# R_n vanishes exactly when the right-hand side is affine in eta_n given
# the past; the quadratic terminal makes it genuinely nonzero here
print("E[R_0^2] =", expectation(sol.r[0] * sol.r[0]))
