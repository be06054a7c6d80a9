"""How the orderings scale with dimension at fixed tiny curvature gap.

Cyclic descent slows down by about 4x every time n doubles (its
distance-to-one rate behaves like delta/n^2), while the randomized
orderings are dimension-free.
"""

import numpy as np

from cdlab import (
    ORDERINGS,
    OrderingPolicy,
    PermInvariantQuadratic,
    rho_C,
    run,
)

delta, budget = 0.001, 2000
print(f"delta = {delta}, {budget}-epoch budget, f relative to f(x0)\n")
print(f"{'n':>4} {'ccd f/f0':>12} {'rpcd f/f0':>12} {'rcd f/f0':>12} {'1 - rho(C)^2':>14}")
for n in (10, 20, 40, 80):
    rel = {}
    for variant in ("ccd", "rpcd", "rcd"):
        rng = np.random.default_rng([n, ORDERINGS.index(variant)])
        x0 = rng.standard_normal(n)
        traj = run(PermInvariantQuadratic(n, delta), OrderingPolicy(variant), x0,
                   max_epochs=budget, tol=0.0, seed=rng)
        rel[variant] = traj.f_per_epoch[-1] / traj.f_per_epoch[0]
    gap = 1 - rho_C(n, delta) ** 2
    print(f"{n:>4} {rel['ccd']:>12.2e} {rel['rpcd']:>12.2e} {rel['rcd']:>12.2e} {gap:>14.2e}")

print("\nratio of cyclic rate gaps when doubling n (prediction: 4):")
gaps = {n: 1 - rho_C(n, delta) ** 2 for n in (10, 20, 40, 80)}
for n in (10, 20, 40):
    print(f"  n = {n:>2} -> {2 * n:>2}:  {gaps[n] / gaps[2 * n]:.2f}")
