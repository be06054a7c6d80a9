"""Closed-form expectation of the permuted-order objective, verified.

Averaging any matrix over symmetric permutations collapses it to
tau1*I + tau2*ones*ones'.  Applied per epoch, this turns the expected
objective of random-permutation descent into a 2x2 linear recurrence,
checked here three ways: brute-force enumeration, Monte Carlo, and a
realized run.
"""

import numpy as np

from cdlab import (
    OrderingPolicy,
    PermInvariantQuadratic,
    brute_force_abar,
    evolve,
    expected_objective,
    recurrence_coeffs,
    run,
    symmetrize,
)

rng = np.random.default_rng(3)

# the symmetrization collapse, on a random matrix
Q = rng.standard_normal((4, 4))
form = symmetrize(Q)
print(f"E_P[P Q P'] of a random 4x4 collapses to tau1*I + tau2*ones*ones'")
print(f"  tau1 = {form.tau1:.4f}, tau2 = {form.tau2:.4f} "
      f"(trace preserved: {4 * (form.tau1 + form.tau2):.4f} vs {np.trace(Q):.4f})\n")

# the 2x2 recurrence vs exact enumeration over all permutations
n, delta, t = 4, 0.3, 2
M = recurrence_coeffs(n, delta)
eta, nu = evolve(M, delta, t)[-1]  # row l of evolve is (eta_l, nu_l)
exact = brute_force_abar(n, delta, t)
dev = np.abs(exact - eta * np.eye(n) - nu * np.ones((n, n))).max()
print(f"recurrence after t = {t} epochs (n = {n}, delta = {delta}):")
print(f"  (eta, nu) = ({eta:.6f}, {nu:.6f}); brute-force deviation {dev:.2e}\n")

# expected objective vs Monte Carlo
n, delta, ell, reps = 12, 0.15, 4, 20_000
closed = expected_objective(n, delta, ell)
model = PermInvariantQuadratic(n, delta)
samples = []
for r in range(reps):
    gen = np.random.default_rng([9, r])
    traj = run(model, OrderingPolicy("rpcd"), gen.standard_normal(n),
               max_epochs=ell, tol=0.0, seed=gen)
    samples.append(traj.f_per_epoch[-1])
mc = float(np.mean(samples))
se = float(np.std(samples, ddof=1) / np.sqrt(reps))
print(f"E[f] after {ell} permuted epochs (n = {n}, delta = {delta}):")
print(f"  closed form {closed:.5f} vs Monte Carlo {mc:.5f} +- {se:.5f} ({reps} runs)")
