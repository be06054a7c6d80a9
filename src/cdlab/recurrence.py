"""Permutation-averaged analysis of random-permutation cyclic descent.

Averaging any matrix Q over all symmetric permutations P Q P' collapses
it to tau1*I + tau2*ones*ones'.  Applied to the epoch matrix C of the
permutation-invariant model, this yields a 2x2 linear recurrence

    (eta_{t+1}, nu_{t+1})' = M (eta_t, nu_t)',    M = [[d1, m1], [d2, m2]],

for the coefficients of Abar^(t) = eta_t*I + nu_t*ones*ones', the
expectation of the t-epoch quadratic form over i.i.d. uniform
permutations.  From (eta_0, nu_0) = (delta, 1-delta), `evolve` steps it
to the closed-form expected objective after any number of epochs; the
exact all-permutations average (factorial cost) is kept alongside as an
oracle.  The coefficients of M take O(n) sums over the structure of C,
never the dense matrix; the tests check those sums against an exact
rational evaluation of `closed_form_C`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .engine import epoch_map
from .quadratic import PermInvariantQuadratic

__all__ = [
    "SymmetrizedForm",
    "RecurrenceMatrix",
    "symmetrize",
    "recurrence_coeffs",
    "asymptotic_coeffs",
    "evolve",
    "brute_force_abar",
    "expected_objective",
    "conditional_expected_objective",
    "first_iteration_expectation",
    "first_iteration_objective",
]

# Largest n and t `brute_force_abar` enumerates: 5! permutation maps, 3 levels.
_BRUTE_MAX_N = 5
_BRUTE_MAX_T = 3

# Terms per chunk of `_closed_form_scalars`' sums, which bounds their memory
# at any n: 88 MiB of arrays at n = 1e7, where arrays of all n terms made
# `predict` peak at 718 MB.  n <= 2^20, n = 1e6 included, sums in one chunk.
_SCALAR_CHUNK = 1 << 20


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

    def radius(self) -> float:
        """Spectral radius of M, the larger |root| of lambda^2 - (d1+m2) lambda + d1 m2 - d2 m1.

        A negative discriminant means a conjugate pair, of modulus sqrt(d1 m2 - d2 m1).
        """
        s = self.d1 + self.m2
        det = self.d1 * self.m2 - self.d2 * self.m1
        disc = s * s - 4.0 * det
        if disc >= 0.0:
            r = math.sqrt(disc)
            return max(abs((s + r) / 2.0), abs((s - r) / 2.0))
        return math.sqrt(det)


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


def _closed_form_scalars(n: int, delta: float) -> tuple[float, float, float, float, float]:
    """ones'C ones, ||C ones||^2, ||C' ones||^2, ||C||_F^2 and a pair sum, in O(n).

    C = closed_form_C(n, delta).  The pair sum sum_{j<k} (C' ones)_j (C' ones)_k
    is ((ones'C ones)^2 - ||C' ones||^2) / 2 without the cancellation.

    C = (1-delta)(T - p ones') with T_ij = delta^(i-j) for i >= j (zero
    above the diagonal) and p_i = delta^i, indices from 0, so

        (C' ones)_j = -delta^(n-j) (1 - delta^j),
        (C ones)_i  = (1 - delta^(i+1)) - n (1-delta) delta^i,
        ||C||_F^2   = (1-delta)^2 [ sum_j (1 - delta^j)^2 g(n-j)
                                    + sum_i (n-1-i) delta^(2i) ],

    with g(L) = sum_{t<L} delta^(2t) = (1 - delta^(2L)) / (1 - delta^2).
    Each 1 - delta^k comes from expm1, so the terms of ones'C ones,
    ||C' ones||^2, ||C||_F^2 and the pair sum share one sign (every
    (C' ones)_j is <= 0) and their sums do not cancel as delta -> 0 or
    delta -> 1.

    The sums run over j = 0..n-1 in chunks of `_SCALAR_CHUNK` terms, so
    memory stays bounded at any n; the pair sum carries the sum of the
    chunks before.  Each sum is numpy's pairwise `np.add.reduce`, which no
    BLAS kernel changes, within 2 ulps of exactly rounded at n = 2^20 + 3.
    """
    PermInvariantQuadratic(n, delta)  # validate the (n, delta) window
    if delta == 1.0:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    log_d = math.log(delta)
    g_scale = -np.expm1(log_d) * (1.0 + np.exp(log_d))  # 1 - delta^2
    total = c1_sq = ct1_sq = frob = pairs = 0.0
    for start in range(0, n, _SCALAR_CHUNK):
        j = np.arange(start, min(start + _SCALAR_CHUNK, n), dtype=float)
        pw, om = np.exp(j * log_d), -np.expm1(j * log_d)  # delta^j, 1 - delta^j
        c1 = -np.expm1((j + 1.0) * log_d) - n * (1.0 - delta) * pw
        c1_sq += np.add.reduce(c1 * c1)
        upper = np.add.reduce((n - 1.0 - j) * (pw * pw))
        pw_n, om_n = np.exp((n - j) * log_d), -np.expm1((n - j) * log_d)
        ct1 = -pw_n * om
        ct1_sq += np.add.reduce(ct1 * ct1)
        g = om_n * (1.0 + pw_n)
        g /= g_scale  # in place, one array fewer at the peak
        frob += np.add.reduce(om**2 * g) + upper
        part = float(np.add.reduce(ct1))
        pairs += np.add.reduce(ct1[1:] * np.cumsum(ct1)[:-1]) + total * part
        total += part
    return total, float(c1_sq), float(ct1_sq), float((1.0 - delta) ** 2 * frob), float(pairs)


def recurrence_coeffs(n: int, delta: float) -> RecurrenceMatrix:
    """Exact recurrence coefficients for the permutation-invariant model.

    Applying the permutation-average collapse to E_P[P'C'CP] and
    E_P[P'C' ones ones' C P] gives

        d2 = (||C ones||^2 - ||C||_F^2) / (n(n-1)),    d1 = ||C||_F^2 / n - d2,
        m2 = ((ones'C ones)^2 - ||C' ones||^2) / (n(n-1))
           = 2 sum_{j<k} (C' ones)_j (C' ones)_k / (n(n-1)),
        m1 = ||C' ones||^2 / n - m2.

    The scalars are O(n) sums over the structure of the closed-form C
    (not truncated series, and not the dense n x n matrix), so the
    coefficients stay exact at large delta and cost about 0.1 s at
    n = 1e6.  m2 comes from the one-sign pair sum, which does not cancel
    as delta -> 0.
    """
    _, norm_C_one_sq, norm_Ct_one_sq, frob_sq, pairs = _closed_form_scalars(n, delta)
    d2 = (norm_C_one_sq - frob_sq) / (n * (n - 1))
    d1 = frob_sq / n - d2
    m2 = 2.0 * pairs / (n * (n - 1))
    m1 = norm_Ct_one_sq / n - m2
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


def evolve(M: RecurrenceMatrix, delta: float, t: int) -> np.ndarray:
    """The 2x2 recurrence from (eta_0, nu_0) = (delta, 1-delta), t steps.

    Returns the (t+1, 2) array whose row l is (eta_l, nu_l), l = 0..t.
    Plain repeated multiplication; no eigendecomposition, so it stays
    robust when the two eigenvalues of M nearly coincide.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    eta, nu = float(delta), 1.0 - float(delta)
    pairs = [(eta, nu)]
    for _ in range(t):
        eta, nu = M.d1 * eta + M.m1 * nu, M.d2 * eta + M.m2 * nu
        pairs.append((eta, nu))
    return np.array(pairs)


def brute_force_abar(n: int, delta: float, t: int) -> np.ndarray:
    """Exact permutation-averaged t-epoch quadratic form, by enumeration.

    Abar^(0) = A and Abar^(t) = mean over all n! permutations of
    (P C P')' Abar^(t-1) (P C P').  The levels average independently, so
    the recursion over t is exact.  Guarded to n <= `_BRUTE_MAX_N` and
    t <= `_BRUTE_MAX_T`: the work grows factorially.
    """
    if n > _BRUTE_MAX_N or t > _BRUTE_MAX_T:
        raise ValueError(f"brute force capped at n <= {_BRUTE_MAX_N}, t <= {_BRUTE_MAX_T}; "
                         f"got n={n}, t={t}")
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
    eta, nu = evolve(recurrence_coeffs(n, delta), delta, ell)[-1].tolist()
    return 0.5 * n * (eta + nu)


def conditional_expected_objective(n: int, delta: float, ell: int, x0: np.ndarray) -> float:
    """E[f(x^{l*n})] over permutations only, for a fixed starting point.

    Equals (1/2)(eta_l ||x0||^2 + nu_l (ones'x0)^2).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({n},)")
    eta, nu = evolve(recurrence_coeffs(n, delta), delta, ell)[-1].tolist()
    s = float(x0.sum())
    return 0.5 * (eta * float(x0 @ x0) + nu * s * s)


def first_iteration_expectation(n: int, delta: float) -> float:
    """Expected one-iteration improvement factor under random coordinate choice.

    After a single exact-line-search iteration at a uniformly random
    coordinate, with x^0 standard normal,

        E[f(x^1)] = ((n-1)/n) * delta * (2 - delta) * E[f(x^0)],

    and this function returns the factor ((n-1)/n) * delta * (2-delta).
    """
    PermInvariantQuadratic(n, delta)  # validate the (n, delta) window
    return (n - 1) / n * delta * (2.0 - delta)


def first_iteration_objective(x0: np.ndarray, delta: float, i: int) -> float:
    """Exact objective after one step updating coordinate i from x0.

    Updating coordinate i zeroes its gradient, leaving
    x^1_i = -(1-delta) * sum_{j != i} x0_j, so

        f(x^1) = (delta/2) * sum_{j != i} x0_j^2
                 + (sum_{j != i} x0_j)^2 * [ (delta/2)(1-delta)^2
                                             + (delta^2/2)(1-delta) ].

    This matches direct simulation of the step to rounding error.  A
    delta outside the model's window (0, n/(n-1)) raises ValueError.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    PermInvariantQuadratic(n, delta)  # validate the (n, delta) window
    if not 0 <= i < n:
        raise IndexError(f"coordinate index {i} out of range for n={n}")
    rest_sq = float(x0 @ x0) - float(x0[i]) ** 2
    rest_sum = float(x0.sum()) - float(x0[i])
    coeff = 0.5 * delta * (1.0 - delta) ** 2 + 0.5 * delta**2 * (1.0 - delta)
    return 0.5 * delta * rest_sq + rest_sum**2 * coeff
