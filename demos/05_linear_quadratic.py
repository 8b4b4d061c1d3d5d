"""
Linear-quadratic problems and their certificates
================================================

Linear dynamics with quadratic costs are solved exactly by one DDP
Newton step from the zero control, with a closed form at horizon one and
checkable certificates: stationarity, a sufficiency gap for every
perturbation, and uniqueness via convexity.
With independent increments the solution also matches the classical
backward gain recursion, which this script uses as a cross-check.
"""

import numpy as np

from fgncontrol import (
    LqSpec,
    lattice_for_hurst,
    lq_fixed_point,
    one_step_closed_form,
    verify_sufficiency,
    verify_uniqueness,
)

spec = LqSpec(
    horizon=3,
    A=[0.3, -0.2, 0.4], B=[1.0, 0.8, 1.2], C=[0.2, 0.3, -0.1], D=[0.5, 0.4, 0.6],
    Q=[0.6, 0.4, 0.8], R=[1.0, 1.2, 0.9], G=1.1, x=1.3,
)

# correlated increments: one DDP Newton step from the zero control gives
# a per-node gain, and the SMP residual of the resulting control certifies it
lat = lattice_for_hurst(0.7, depth=spec.horizon, order=3)
sol = lq_fixed_point(spec, lat)
print("SMP residual:", sol.residual)
print("J(u*) =", sol.cost)
print("u_0 =", sol.control[0].values[0])

# certificates: stationarity is the residual above; sufficiency perturbs
# the optimum 50 times and checks the cost never drops; uniqueness checks
# strict convexity of the cost in the control: J is quadratic, so
# J(u1) + J(u2) - 2 J((u1+u2)/2) is half the cost of u1 - u2 started at
# x0 = 0, one rollout per pair, and it does not depend on x0
suff = verify_sufficiency(spec, sol.control, lat, seed=1)
uniq = verify_uniqueness(spec, lat, seed=1)
print("sufficiency:", suff.passed, "over", suff.trials, "trials, min cost gap:", suff.min_cost_gap)
print("uniqueness:", uniq.passed, " parallelogram slack:", uniq.worst_parallelogram_slack)

# horizon one has an explicit optimum; the LQ solve reproduces it
short = LqSpec(horizon=1, A=[0.3], B=[1.0], C=[0.2], D=[0.5],
               Q=[0.6], R=[1.0], G=1.1, x=1.3)
lat1 = lattice_for_hurst(0.7, depth=1, order=3)
closed = one_step_closed_form(short)
solved = lq_fixed_point(short, lat1)
print("one-step gap:", abs(closed - solved.control[0].values[0]))


# with h = 1/2 the increments are independent and the optimal control is
# a linear state feedback u_n = -K_n x_n from the scalar gain recursion
def backward_gains(spec):
    # increment dynamics make the state multiplier 1 + A_n
    p = spec.G
    gains = []
    for n in reversed(range(spec.horizon)):
        a, b, c, d = 1.0 + spec.A[n], spec.B[n], spec.C[n], spec.D[n]
        den = spec.R[n] + p * (b * b + d * d)
        cross = p * (a * b + c * d)
        gains.append(cross / den)
        p = spec.Q[n] + p * (a * a + c * c) - cross**2 / den
    return list(reversed(gains)), p


lat_flat = lattice_for_hurst(0.5, depth=spec.horizon, order=3)
flat = lq_fixed_point(spec, lat_flat)
gains, p0 = backward_gains(spec)
worst = 0.0
for n in range(spec.horizon):
    x_n = flat.state[n].values
    u_n = flat.control[n].values
    worst = max(worst, float(np.max(np.abs(u_n + gains[n] * x_n))))
print("white-noise feedback gap:", worst)
print("cost vs 0.5 * P_0 x^2 gap:", abs(flat.cost - 0.5 * p0 * spec.x**2))
