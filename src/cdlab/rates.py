"""Convergence-rate predictors, bounds, and empirical rate measurement.

All rates are per-epoch multiplicative factors on f - f*: cyclic descent
contracts at rho(C)^2, randomized descent at (1 - mu/n)^n in expectation
(mu the smallest eigenvalue of A), and random-permutation descent at
rho(M) for the 2x2 expectation recurrence M.  Empirical rates are
measured over the last few recorded epochs of a trajectory to discount
transients.

For the permutation-invariant model both spectral predictors come from
(n, delta) alone, without the dense n x n matrix C: `rho_C` solves a
scalar characteristic equation in O(1), by Newton's method for
delta < 1 and by bisection above, and `rho_M` takes the 2x2
coefficients from O(n) sums.  No dense estimator is kept; the tests
check both against `np.linalg.eigvals` of `closed_form_C` and of M, and
`rho_C` against 40-digit roots up to n = 1e6.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .engine import _RATE_WINDOW
from .errors import NumericalError
from .quadratic import PermInvariantQuadratic, QuadraticConstants, quadratic_constants
from .recurrence import asymptotic_coeffs, recurrence_coeffs

__all__ = [
    "GenericBounds",
    "rho_C",
    "rho_M",
    "rpcd_asymptotic_rate",
    "ccd_bounds",
    "rcd_rates",
    "generic_bounds",
    "sd_rate",
    "empirical_rate",
    "rcd_one_step_example",
]


@dataclass(frozen=True)
class GenericBounds:
    """Fixed-step and exact-line-search worst-case per-epoch bounds."""

    alpha: float
    beck_tetruashvili: float
    sun_ye: float
    sun_ye_terms: tuple[float, float, float]


_NEWTON_ITERATIONS = 100


def rho_C(n: int, delta: float) -> float:
    """Spectral radius of the cyclic epoch matrix C = closed_form_C(n, delta).

    Apart from the zero eigenvalue of its zero first column, the
    eigenvalues of C are the roots lambda != 1 of

        (lambda - 1 + delta)^n = delta^n lambda^(n-1),

    so rho(C) needs no matrix:

    - n = 2 gives (1-delta)^2, and delta = 1 gives 0 (C = 0).
    - For delta < 1, rho(C) = |lambda| on the k = 1 branch,
      lambda = 1 - delta + delta w lambda^((n-1)/n) with w = e^(2 pi i/n).
      Newton's method on mu = lambda^(1/n),
      mu^n - delta w mu^(n-1) + delta - 1 = 0 from mu = 1, finds the
      root (`_rho_C_newton`).  Against 40-digit roots it is within
      1e-13 relative for n <= 700 and 1e-10 at n = 1e6, up to
      delta = 1 - 1e-12.
    - For delta > 1 the dominant eigenvalue is real in (0, 1).  With
      lambda = 1 - u it is the root of
      n log(1 - u/delta) - (n-1) log(1 - u) over u in (0, 1), found by
      bisection to the last bit.

    Raises ValueError outside the window delta in (0, n/(n-1)), and
    NumericalError if Newton's method does not converge.
    """
    PermInvariantQuadratic(n, delta)  # validate the (n, delta) window
    if n == 2:
        return (1.0 - delta) ** 2
    if delta == 1.0:
        return 0.0
    if delta > 1.0:
        return _rho_C_real_root(n, delta)
    return _rho_C_newton(n, delta)


def _rho_C_newton(n: int, delta: float) -> float:
    """|lambda| for the root mu of mu^n - delta w mu^(n-1) + delta - 1 reached from mu = 1.

    lambda = mu^n carries the rounding of mu multiplied by n (|mu|^n
    rounds to 1.0 at n = 1e6, delta = 0.5), so three Newton steps on the
    branch equation itself, lambda - 1 + delta - delta w
    lambda^((n-1)/n) = 0 on the same principal branch, polish it.  Both
    equations add delta - 1 as one term: it is exact for delta >= 0.5,
    and lambda - 1 would lose lambda's low bits as lambda -> 0.
    """
    dw = delta * cmath.exp(2j * math.pi / n)

    def step(mu):
        return (mu ** (n - 1) * (mu - dw) + (delta - 1.0)) / (mu ** (n - 2) * (n * mu - (n - 1) * dw))

    mu = 1.0 + 0j
    for _ in range(_NEWTON_ITERATIONS):
        s = step(mu)
        mu -= s
        if abs(s) <= 1e-14 * abs(mu):
            lam = mu ** n
            for _ in range(3):
                lam -= ((lam + (delta - 1.0) - dw * lam ** ((n - 1) / n))
                        / (1.0 - dw * (n - 1) / n * lam ** (-1.0 / n)))
            return abs(lam)
    raise NumericalError(
        f"rho_C did not converge at n={n}, delta={delta}", last_estimate=abs(mu) ** n
    )


def _rho_C_real_root(n: int, delta: float) -> float:
    """1 - u for the root u in (0, 1) of n log(1 - u/delta) = (n-1) log(1 - u).

    The left side minus the right is negative just above u = 0 (where
    the spurious root lambda = 1 sits) and positive near u = 1, with one
    sign change between; bisect until the bracket stops shrinking.
    """
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return 1.0 - mid
        if n * math.log1p(-mid / delta) - (n - 1) * math.log1p(-mid) < 0.0:
            lo = mid
        else:
            hi = mid


def rho_M(n: int, delta: float) -> float:
    """Spectral radius of the 2x2 expectation recurrence matrix.

    The eigenvalues solve lambda^2 - (d1+m2) lambda + (d1 m2 - d2 m1) = 0:

        lambda = ((d1+m2) +- sqrt((d1+m2)^2 - 4(d1 m2 - d2 m1))) / 2.

    A negative discriminant means a complex-conjugate pair whose common
    modulus is sqrt(d1 m2 - d2 m1).  The coefficients come from
    `recurrence_coeffs` in O(n), so this works at n >= 1e6.
    """
    M = recurrence_coeffs(n, delta)
    s = M.d1 + M.m2
    det = M.d1 * M.m2 - M.d2 * M.m1
    disc = s * s - 4.0 * det
    if disc >= 0.0:
        r = math.sqrt(disc)
        return max(abs((s + r) / 2.0), abs((s - r) / 2.0))
    return math.sqrt(det)


def rpcd_asymptotic_rate(n: int, delta: float) -> float:
    """Small-delta approximation d1 = 1 - 2*delta - 2*delta/n + 2*delta^2 to rho(M).

    d1 is taken from `asymptotic_coeffs`; NaN where it is not a rate in
    [0, 1]: above delta = 1 + 1/n (near the upper edge of every window)
    and around delta = 3/4 at n = 2.  Raises ValueError outside the
    window (0, n/(n-1)).
    """
    rate = asymptotic_coeffs(n, delta).d1
    return rate if 0.0 <= rate <= 1.0 else math.nan


def ccd_bounds(n: int, delta: float) -> tuple[float, float]:
    """Worst-case (upper, lower) per-epoch rate bounds for cyclic descent.

    The upper bound is the exact-line-search three-term bound of
    `generic_bounds` (its `sun_ye`) at the model's constants: mu = delta
    and L = n(1-delta)+delta for delta <= 1, the two swapped for
    delta > 1, and unit diagonal.  It is valid over the whole window
    (0, n/(n-1)); for delta <= 3/4 it simplifies to
    1 - delta / (n (n(1-delta)+delta)).  The companion lower bound is

        lower = (1 - 2*delta*pi^2 / (n L))^2,   L = n(1-delta)+delta,

    which tracks 1 - rho(C)^2 only in magnitude.  Together they pin the
    epoch-wise error decrease to 1 - c*delta/n^2 for moderate c when
    delta/n is small.  Its domain is delta <= 1, where L is the largest
    eigenvalue, and a nonnegative base 1 - 2*delta*pi^2/(n L) (which
    fails at small n and large delta, e.g. n = 5, delta = 0.9).  Outside
    it `lower` is NaN.
    """
    consts = quadratic_constants(PermInvariantQuadratic(n, delta))
    upper = generic_bounds(consts, n, alpha=1.0).sun_ye
    base = 1.0 - 2.0 * delta * math.pi**2 / (n * (n * (1.0 - delta) + delta))
    lower = base**2 if delta <= 1.0 and base >= 0.0 else math.nan
    return upper, lower


def rcd_rates(n: int, delta: float) -> tuple[float, float]:
    """Per-epoch rates for randomized (with-replacement) descent.

    Returns the expected-value rate (1 - mu/n)^n, with mu the smallest
    eigenvalue of A (delta for delta <= 1, n(1-delta)+delta above), and
    the sharper R-linear rate (1 - 2*delta/(n(1+delta)))^n.  The
    derivation of the latter takes mu = delta, so it is NaN for
    delta > 1.  Raises ValueError outside n >= 2, 0 <= delta < n/(n-1).
    """
    if not (n >= 2 and 0.0 <= delta < n / (n - 1)):
        raise ValueError(f"delta must lie in [0, n/(n-1)) with n >= 2, got n={n}, delta={delta}")
    mu = min(delta, n * (1.0 - delta) + delta)
    q_epoch = (1.0 - mu / n) ** n
    r_epoch = (1.0 - 2.0 * delta / (n * (1.0 + delta))) ** n if delta <= 1.0 else math.nan
    return q_epoch, r_epoch


def generic_bounds(consts: QuadraticConstants, n: int, alpha: float) -> GenericBounds:
    """Generic worst-case cyclic-order bounds for arbitrary constants.

    Constant-stepsize bound (valid for 0 < alpha <= 1/Lmax):

        1 - mu / ((2/alpha) (1 + n L^2 alpha^2)),

    and the exact-line-search three-term bound

        1 - max{ mu Lmin / (n L Lavg),
                 mu Lmin / (L^2 (2 + log n / pi)^2),
                 mu Lmin / (n^2 Lavg^2) }.
    """
    if not 0.0 < alpha <= 1.0 / consts.Lmax:
        raise ValueError(f"alpha must lie in (0, 1/Lmax] = (0, {1.0 / consts.Lmax}], got {alpha}")
    bt = 1.0 - consts.mu / ((2.0 / alpha) * (1.0 + n * consts.L**2 * alpha**2))
    terms = (
        consts.mu * consts.Lmin / (n * consts.L * consts.Lavg),
        consts.mu * consts.Lmin / (consts.L**2 * (2.0 + math.log(n) / math.pi) ** 2),
        consts.mu * consts.Lmin / (n**2 * consts.Lavg**2),
    )
    return GenericBounds(
        alpha=alpha,
        beck_tetruashvili=bt,
        sun_ye=1.0 - max(terms),
        sun_ye_terms=terms,
    )


def sd_rate(consts: QuadraticConstants) -> float:
    """Steepest-descent per-iteration rate 1 - mu/L."""
    return 1.0 - consts.mu / consts.L


def empirical_rate(traj, window: int = _RATE_WINDOW) -> float:
    """Average per-epoch decrease factor over the last `window` epochs.

    `traj` is a Trajectory, or its per-epoch objective values (at least
    the last ones).  Returns (f_L / f_{L-window})^(1/window) with L the
    last recorded epoch, discounting the early transient.  Requires at
    least window+1 recorded epochs with strictly positive, finite
    objective values in the window.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    f = np.asarray(getattr(traj, "f_per_epoch", traj), dtype=float)
    if len(f) < window + 1:
        raise ValueError(f"need at least {window + 1} recorded epochs, got {len(f)}")
    tail = f[-(window + 1):]
    if not np.all((tail > 0.0) & (tail < math.inf)):
        raise ValueError("objective values in the rate window must be finite and > 0")
    return float((tail[-1] / tail[0]) ** (1.0 / window))


def rcd_one_step_example(n: int, delta: float) -> tuple[float, float]:
    """Objective before/after one step from the alternating-sign point.

    With x_i = (-1)^i and n even, the coordinate sum vanishes, so
    f = delta*n/2, and one exact-line-search step at any coordinate gives
    f+ = delta*(n-delta)/2 = (1 - delta/n) f, matching the per-iteration
    randomized-descent rate exactly.  delta must lie in [0, n/(n-1)):
    the model's window and its degenerate edge delta = 0, where both
    values are 0.
    """
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    if not 0.0 <= delta < n / (n - 1):
        raise ValueError(f"delta must lie in [0, n/(n-1)) = [0, {n / (n - 1)}) "
                         f"for n = {n}, got {delta}")
    f0 = 0.5 * delta * n
    f1 = 0.5 * delta * (n - delta)
    return f0, f1
