"""Every rate predictor side by side across the parameter range.

Reproduces the predicted columns of the standard comparison table and
shows the generic worst-case bounds for context.
"""

from cdlab import (
    PermInvariantQuadratic,
    ccd_bounds,
    generic_bounds,
    quadratic_constants,
    rcd_rates,
    rho_C,
    rho_M,
    rpcd_asymptotic_rate,
    sd_rate,
)

n = 100
print(f"per-epoch rate predictors, n = {n} (smaller is faster)\n")
header = f"{'delta':>6} {'rho(C)^2':>9} {'ccd upper':>10} {'rcd':>7} {'rho(M)':>7} {'rpcd asym':>10} {'sd':>7}"
print(header)
for delta in (0.80, 0.50, 0.33, 0.20, 0.10, 0.03):
    consts = quadratic_constants(PermInvariantQuadratic(n, delta))
    rho_c2 = rho_C(n, delta) ** 2
    upper, _ = ccd_bounds(n, delta)
    print(
        f"{delta:>6} {rho_c2:>9.4f} {upper:>10.6f} {rcd_rates(n, delta)[1]:>7.4f} "
        f"{rho_M(n, delta):>7.4f} {rpcd_asymptotic_rate(n, delta):>10.4f} "
        f"{sd_rate(consts):>7.4f}"
    )

print("\ngeneric fixed-step bounds at delta = 0.05:")
consts = quadratic_constants(PermInvariantQuadratic(n, 0.05))
for label, alpha in (("alpha = 1/L", 1 / consts.L), ("alpha = 1/(sqrt(n) L)", 1 / (10 * consts.L))):
    gb = generic_bounds(consts, n, alpha)
    print(f"  {label:>22}: fixed-step {gb.beck_tetruashvili:.8f}   exact-line-search {gb.sun_ye:.8f}")
print("\nThe cyclic worst case tracks the steepest-descent rate; both")
print("randomized orderings improve the complexity by a factor of n^2.")
