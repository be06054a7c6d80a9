"""Permutation-averaged analysis of random-permutation cyclic descent.

Averaging any matrix Q over all symmetric permutations P Q P' collapses
it to tau1*I + tau2*ones*ones'.  Applied to the epoch matrix C of the
permutation-invariant model, this yields a 2x2 linear recurrence

    (eta_{t+1), nu_{t+1})' = M (eta_t, nu_t)',    M = [[d1, m1], [d2, m2]],

for the coefficients of Abar^(t) = eta_t*I + nu_t*ones*ones', the
expectation of the t-epoch quadratic form over i.i.d. uniform
permutations.  From (eta_0, nu_0) = (delta, 1-delta) this gives closed
forms for the expected objective after any number of epochs; the exact
all-permutations average (factorial cost) is kept alongside as an
oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .engine import closed_form_C, epoch_map
from .quadratic import PermInvariantQuadratic

__all__ = [
    "SymmetrizedForm",
    "RecurrenceMatrix",
    "RecurrencePair",
    "EpochMatrixScalars",
    "symmetrize",
    "epoch_matrix_scalars",
    "recurrence_coeffs",
    "asymptotic_coeffs",
    "evolve",
    "brute_force_abar",
    "expected_objective",
    "conditional_expected_objective",
    "first_iteration_expectation",
    "first_iteration_objective",
]


@dataclass(frozen=True)
class SymmetrizedForm:
    """Coefficients of tau1*I + tau2*ones*ones'."""

    tau1: float
    tau2: float


@dataclass(frozen=True)
class RecurrenceMatrix:
    """Coefficients of the 2x2 recurrence, arranged as [[d1, m1], [d2, m2]]."""

    d1: float
    d2: float
    m1: float
    m2: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.d1, self.m1], [self.d2, self.m2]])


@dataclass(frozen=True)
class RecurrencePair:
    """(eta_t, nu_t) after t epochs of averaging."""

    eta: float
    nu: float
    t: int


@dataclass(frozen=True)
class EpochMatrixScalars:
    """The four scalar contractions of C the recurrence coefficients need."""

    one_C_one: float
    norm_C_one_sq: float
    norm_Ct_one_sq: float
    frob_sq: float


def symmetrize(Q: np.ndarray) -> SymmetrizedForm:
    """Average Q over all symmetric permutations.

    E_P[P Q P'] over uniform permutation matrices equals
    tau1*I + tau2*ones*ones' with

        tau2 = (ones'Q ones - trace Q) / (n(n-1)),
        tau1 = trace(Q)/n - tau2,

    since every diagonal entry of the average is the mean diagonal entry
    of Q and every off-diagonal entry is the mean off-diagonal entry.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    if Q.ndim != 2 or Q.shape != (n, n):
        raise ValueError(f"Q must be square, got shape {Q.shape}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    tr = float(np.trace(Q))
    tau2 = (float(Q.sum()) - tr) / (n * (n - 1))
    tau1 = tr / n - tau2
    return SymmetrizedForm(tau1=tau1, tau2=tau2)


def epoch_matrix_scalars(C: np.ndarray) -> EpochMatrixScalars:
    """Exact numerical evaluation of ones'C ones, ||C ones||^2, ||C' ones||^2, ||C||_F^2."""
    C = np.asarray(C, dtype=float)
    one = np.ones(C.shape[0])
    C1 = C @ one
    Ct1 = C.T @ one
    return EpochMatrixScalars(
        one_C_one=float(one @ C1),
        norm_C_one_sq=float(C1 @ C1),
        norm_Ct_one_sq=float(Ct1 @ Ct1),
        frob_sq=float(np.sum(C * C)),
    )


def recurrence_coeffs(n: int, delta: float) -> RecurrenceMatrix:
    """Exact recurrence coefficients for the permutation-invariant model.

    Applying the permutation-average collapse to E_P[P'C'CP] and
    E_P[P'C' ones ones' C P] gives

        d2 = (||C ones||^2 - ||C||_F^2) / (n(n-1)),    d1 = ||C||_F^2 / n - d2,
        m2 = ((ones'C ones)^2 - ||C' ones||^2) / (n(n-1)),
        m1 = ||C' ones||^2 / n - m2.

    Evaluated numerically from the closed-form C (not from truncated
    series), so the coefficients stay exact at large delta.
    """
    s = epoch_matrix_scalars(closed_form_C(n, delta))
    d2 = (s.norm_C_one_sq - s.frob_sq) / (n * (n - 1))
    d1 = s.frob_sq / n - d2
    m2 = (s.one_C_one**2 - s.norm_Ct_one_sq) / (n * (n - 1))
    m1 = s.norm_Ct_one_sq / n - m2
    return RecurrenceMatrix(d1=d1, d2=d2, m1=m1, m2=m2)


def asymptotic_coeffs(n: int, delta: float) -> RecurrenceMatrix:
    """Leading-order coefficient approximations for small delta, large n.

    d1 ~ 1 - 2*delta - 2*delta/n + 2*delta^2
    d2 ~ 1 - 2/n - 2*delta + 4*delta/n + 2*delta^2
    m1 ~ delta^2 / n
    m2 ~ 2*delta^3 / n^2

    Truncation errors are O(delta^2/n + delta^3) for d1 and d2,
    O(delta^3/n^2 + delta^4/n) for m1, O(delta^3/n^3 + delta^4/n^2)
    for m2.
    """
    PermInvariantQuadratic(n, delta)
    return RecurrenceMatrix(
        d1=1.0 - 2.0 * delta - 2.0 * delta / n + 2.0 * delta**2,
        d2=1.0 - 2.0 / n - 2.0 * delta + 4.0 * delta / n + 2.0 * delta**2,
        m1=delta**2 / n,
        m2=2.0 * delta**3 / n**2,
    )


def evolve(M: RecurrenceMatrix, delta: float, t: int) -> RecurrencePair:
    """Iterate the 2x2 recurrence t times from (eta_0, nu_0) = (delta, 1-delta).

    Plain repeated multiplication; no eigendecomposition, so it stays
    robust when the two eigenvalues of M nearly coincide.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    eta, nu = float(delta), 1.0 - float(delta)
    for _ in range(t):
        eta, nu = M.d1 * eta + M.m1 * nu, M.d2 * eta + M.m2 * nu
    return RecurrencePair(eta=eta, nu=nu, t=t)


def brute_force_abar(n: int, delta: float, t: int, max_n: int = 5, max_t: int = 3) -> np.ndarray:
    """Exact permutation-averaged t-epoch quadratic form, by enumeration.

    Abar^(0) = A and Abar^(t) = mean over all n! permutations of
    (P C P')' Abar^(t-1) (P C P').  The levels average independently, so
    the recursion over t is exact.  Guarded to small n and t: the work
    grows factorially.
    """
    if n > max_n or t > max_t:
        raise ValueError(f"brute force capped at n <= {max_n}, t <= {max_t}; got n={n}, t={t}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    model = PermInvariantQuadratic(n, delta)
    abar = model.matrix()
    if t == 0:
        return abar
    conjugates = [epoch_map(model, perm) for perm in itertools.permutations(range(n))]
    for _ in range(t):
        abar = sum(pcp.T @ abar @ pcp for pcp in conjugates) / math.factorial(n)
    return abar


def expected_objective(n: int, delta: float, ell: int) -> float:
    """E[f(x^{l*n})] over permutations and standard-normal x^0.

    Equals (n/2)(eta_l + nu_l); at l = 0 this is n/2.
    """
    pair = evolve(recurrence_coeffs(n, delta), delta, ell)
    return 0.5 * n * (pair.eta + pair.nu)


def conditional_expected_objective(n: int, delta: float, ell: int, x0: np.ndarray) -> float:
    """E[f(x^{l*n})] over permutations only, for a fixed starting point.

    Equals (1/2)(eta_l ||x0||^2 + nu_l (ones'x0)^2).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")
    pair = evolve(recurrence_coeffs(n, delta), delta, ell)
    s = float(x0.sum())
    return 0.5 * (pair.eta * float(x0 @ x0) + pair.nu * s * s)


def first_iteration_expectation(n: int, delta: float) -> float:
    """Expected one-iteration improvement factor under random coordinate choice.

    After a single exact-line-search iteration at a uniformly random
    coordinate, with x^0 standard normal,

        E[f(x^1)] = ((n-1)/n) * delta * (2 - delta) * E[f(x^0)],

    and this function returns the factor ((n-1)/n) * delta * (2-delta).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return (n - 1) / n * delta * (2.0 - delta)


def first_iteration_objective(x0: np.ndarray, delta: float, i: int) -> float:
    """Exact objective after one step updating coordinate i from x0.

    Updating coordinate i zeroes its gradient, leaving
    x^1_i = -(1-delta) * sum_{j != i} x0_j, so

        f(x^1) = (delta/2) * sum_{j != i} x0_j^2
                 + (sum_{j != i} x0_j)^2 * [ (delta/2)(1-delta)^2
                                             + (delta^2/2)(1-delta) ].

    This matches direct simulation of the step to rounding error.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    if not 0 <= i < n:
        raise IndexError(f"coordinate index {i} out of range for n={n}")
    rest_sq = float(x0 @ x0) - float(x0[i]) ** 2
    rest_sum = float(x0.sum()) - float(x0[i])
    coeff = 0.5 * delta * (1.0 - delta) ** 2 + 0.5 * delta**2 * (1.0 - delta)
    return 0.5 * delta * rest_sq + rest_sum**2 * coeff
