"""
Stationarity via the adjoint process
====================================

The first-order condition for a control problem couples the forward
state with a backward adjoint pair (p, q).  The stationarity residual
rho combines the adjoint with the cost gradients; at an optimum it
vanishes on every lattice node (or points outward on an active bound).
This script optimizes a nonlinear model and verifies the condition.
"""

import numpy as np

from fgncontrol import (
    Box,
    check_stationarity,
    constant_control,
    cost,
    directional_derivative,
    forward,
    lattice_for_hurst,
    optimize,
    perturb,
    random_control,
    sin_drift_model,
    smp_residual,
)

horizon = 3
lat = lattice_for_hurst(0.7, depth=horizon, order=3)
model = sin_drift_model(horizon, initial_state=1.0, noise_gain=0.5)

# start from the zero control and take Newton (DDP) steps: a backward pass
# gives per-node gains, a closed-loop rollout applies them
result = optimize(model, constant_control(lat, horizon, 0.0), lat, tol=1e-8)
print("converged:", result.converged, "after", result.iterations, "iterations")
print("cost J(u*) =", result.cost)
print("last trace entries (iter, J, step, worst residual):")
for point in result.trace[-3:]:
    print(f"  {point.iteration:4d}  {point.cost:.12f}  {point.step:.2e}  "
          f"{point.worst_residual:.2e}")

# the residual is small on every node of every stage
residual = smp_residual(model, result.control, result.adjoint, lat, lat.basis)
report = check_stationarity(residual, result.control, model.control_set, tol=1e-6)
print("stationary:", report.passed, " worst violation:", report.worst_violation)

# the residual is also the Riesz representer of the cost derivative:
# <rho, v> equals the directional derivative of J in direction v
rng = np.random.default_rng(3)
v = random_control(lat, horizon, rng, scale=1.0)
pairing = sum(
    float(np.sum(lat.node_probabilities(n) * residual[n].values * v[n].values))
    for n in range(horizon)
)
derivative = directional_derivative(model, result.control, v, lat)
print("pairing vs derivative:", pairing, derivative)

# at the optimum every nearby control costs at least as much, up to the
# quadratic term a finite step introduces
eps = 1e-4
changes = []
for _ in range(5):
    v = random_control(lat, horizon, rng, scale=1.0)
    u_eps = perturb(result.control, v, eps)
    changes.append(cost(model, u_eps, forward(model, u_eps, lat), lat) - result.cost)
print("worst nearby cost change (should be ~>= 0):", min(changes))

# with box bounds a node whose Newton step leaves the box is clamped to
# it, and the stationarity check uses projected violations instead of
# raw residuals
boxed = sin_drift_model(horizon, initial_state=1.0, noise_gain=0.5,
                        control_set=Box(-0.05, 0.05))
boxed_result = optimize(boxed, constant_control(lat, horizon, 0.0), lat, tol=1e-8)
u_max = max(float(np.max(np.abs(boxed_result.control[n].values)))
            for n in range(horizon))
print("boxed optimum max |u| =", u_max, "(bound 0.05)")
