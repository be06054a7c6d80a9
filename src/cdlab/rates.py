"""Convergence-rate predictors, bounds, and empirical rate measurement.

All rates are per-epoch multiplicative factors on f - f*: cyclic descent
contracts at rho(C)^2, randomized descent at (1 - 2*delta/(n(1+delta)))^n
in expectation, and random-permutation descent at rho(M) for the 2x2
expectation recurrence M.  Empirical rates are measured over the last
few recorded epochs of a trajectory to discount transients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .quadratic import QuadraticConstants
from .recurrence import recurrence_coeffs

__all__ = [
    "GenericBounds",
    "spectral_radius",
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


def spectral_radius(T: np.ndarray, tol: float = 1e-10, max_squarings: int = 60) -> float:
    """Spectral radius via scaled repeated squaring.

    Estimates rho(T) = lim ||T^k||^(1/k) along the subsequence k = 2^j:
    the iterate is renormalized by its Frobenius norm before each
    squaring (tracking the accumulated log scale), so the powers never
    overflow or underflow.  The 1/2^j exponent kills polynomial
    prefactors quickly and the estimate is valid for complex dominant
    eigenvalues too.  Stops when successive estimates agree to tol
    relatively.

    Raises NumericalError (carrying the last estimate) if the cap on
    squarings is reached without convergence.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"T must be square, got shape {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ValueError("T must have finite entries")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    B = T.copy()
    log_scale = 0.0  # log of s_j where B approximates T^(2^j) / exp(log_scale)
    estimate = None
    for j in range(max_squarings + 1):
        norm = float(np.linalg.norm(B))
        if norm == 0.0:
            return 0.0
        new_estimate = math.exp((log_scale + math.log(norm)) / 2**j)
        if estimate is not None:
            if abs(new_estimate - estimate) <= tol * max(abs(estimate), 1e-300):
                return new_estimate
        estimate = new_estimate
        B = B / norm
        B = B @ B
        log_scale = 2.0 * (log_scale + math.log(norm))
    raise NumericalError(
        f"spectral radius did not converge within {max_squarings} squarings",
        last_estimate=estimate,
    )


def rho_M(n: int, delta: float) -> float:
    """Spectral radius of the 2x2 expectation recurrence matrix.

    The eigenvalues solve lambda^2 - (d1+m2) lambda + (d1 m2 - d2 m1) = 0:

        lambda = ((d1+m2) +- sqrt((d1+m2)^2 - 4(d1 m2 - d2 m1))) / 2.

    A negative discriminant means a complex-conjugate pair whose common
    modulus is sqrt(d1 m2 - d2 m1).
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
    """Small-delta approximation 1 - 2*delta - 2*delta/n + 2*delta^2 to rho(M)."""
    return 1.0 - 2.0 * delta - 2.0 * delta / n + 2.0 * delta**2


def ccd_bounds(n: int, delta: float) -> tuple[float, float]:
    """Worst-case (upper, lower) per-epoch rate bounds for cyclic descent.

    For delta <= 3/4 the three-term exact-line-search bound simplifies to

        upper = 1 - delta / (n (n(1-delta)+delta));

    outside that window the unsimplified three-term maximum is used.
    The companion lower bound is

        lower = (1 - 2*delta*pi^2 / (n (n(1-delta)+delta)))^2.

    Together they pin the epoch-wise error decrease to 1 - c*delta/n^2
    for moderate c when delta/n is small.
    """
    L = n * (1.0 - delta) + delta
    if delta <= 0.75:
        upper = 1.0 - delta / (n * L)
    else:
        upper = 1.0 - max(
            delta / (n * L),
            delta / (L**2 * (2.0 + math.log(n) / math.pi) ** 2),
            delta / n**2,
        )
    lower = (1.0 - 2.0 * delta * math.pi**2 / (n * L)) ** 2
    return upper, lower


def rcd_rates(n: int, delta: float) -> tuple[float, float]:
    """Per-epoch rates for randomized (with-replacement) descent.

    Returns the expected-value rate (1 - delta/n)^n and the sharper
    R-linear rate (1 - 2*delta/(n(1+delta)))^n.
    """
    q_epoch = (1.0 - delta / n) ** n
    r_epoch = (1.0 - 2.0 * delta / (n * (1.0 + delta))) ** n
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


def empirical_rate(traj, window: int = 10) -> float:
    """Average per-epoch decrease factor over the last `window` epochs.

    Returns (f_L / f_{L-window})^(1/window) with L the last recorded
    epoch, discounting the early transient.  Requires at least window+1
    recorded epochs with strictly positive objective values in the
    window.
    """
    f = np.asarray(traj.f_per_epoch, dtype=float)
    if len(f) < window + 1:
        raise ValueError(f"need at least {window + 1} recorded epochs, got {len(f)}")
    tail = f[-(window + 1):]
    if np.any(tail <= 0.0):
        raise ValueError("objective values in the rate window must be strictly positive")
    return float((tail[-1] / tail[0]) ** (1.0 / window))


def rcd_one_step_example(n: int, delta: float) -> tuple[float, float]:
    """Objective before/after one step from the alternating-sign point.

    With x_i = (-1)^i and n even, the coordinate sum vanishes, so
    f = delta*n/2, and one exact-line-search step at any coordinate gives
    f+ = delta*(n-delta)/2 = (1 - delta/n) f, matching the per-iteration
    randomized-descent rate exactly.
    """
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    f0 = 0.5 * delta * n
    f1 = 0.5 * delta * (n - delta)
    return f0, f1
