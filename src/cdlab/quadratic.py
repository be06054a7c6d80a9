"""Convex quadratic objectives f(x) = (1/2) x'Ax with unit diagonal.

Two model flavors are supported: a dense symmetric PSD matrix, and the
two-parameter permutation-invariant family

    A = delta*I + (1 - delta) * ones * ones',   delta in (0, n/(n-1)),

whose structure allows O(1) coordinate-gradient evaluation through a
maintained coordinate sum.  Both flavors assume A_ii = 1, so an exact
line search along coordinate i is always the unit step -(Ax)_i.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PermInvariantQuadratic",
    "DenseQuadratic",
    "QuadraticConstants",
    "SolverState",
    "objective",
    "init_state",
    "coordinate_gradient",
    "apply_coordinate_step",
    "quadratic_constants",
    "build_log_uniform_spectrum",
]

# Entrywise slack for symmetry / positive-semidefiniteness checks.
_SYM_TOL = 1e-12
_PSD_TOL = -1e-10


@dataclass(frozen=True)
class PermInvariantQuadratic:
    """The quadratic with Hessian delta*I + (1-delta)*ones*ones'.

    The matrix has unit diagonal, off-diagonal entries 1 - delta, and is
    positive definite exactly for delta in (0, n/(n-1)).  It is invariant
    under symmetric permutation of rows and columns, which is what makes
    permutation-averaged analysis of coordinate descent tractable.
    """

    n: int
    delta: float

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral):
            raise ValueError(f"n must be an integer, got {self.n}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 0.0 < self.delta < self.n / (self.n - 1):
            raise ValueError(
                f"delta must lie in (0, n/(n-1)) = (0, {self.n / (self.n - 1)}) "
                f"for n = {self.n}, got {self.delta}"
            )

    def matrix(self) -> np.ndarray:
        A = np.full((self.n, self.n), 1.0 - self.delta)
        np.fill_diagonal(A, 1.0)
        return A


@dataclass(frozen=True)
class DenseQuadratic:
    """A generic unit-diagonal symmetric positive-semidefinite quadratic."""

    A: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if not np.isfinite(A).all():
            raise ValueError("A must have finite entries")
        if np.abs(A - A.T).max() > _SYM_TOL:
            raise ValueError("A must be symmetric to within 1e-12 entrywise")
        if np.abs(np.diag(A) - 1.0).max() > _SYM_TOL:
            raise ValueError("A must have unit diagonal")
        if np.linalg.eigvalsh(A).min() < _PSD_TOL:
            raise ValueError("A must be positive semidefinite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "n", A.shape[0])

    def matrix(self) -> np.ndarray:
        return self.A


QuadraticModel = PermInvariantQuadratic | DenseQuadratic


@dataclass(frozen=True)
class QuadraticConstants:
    """Lipschitz/curvature constants of a quadratic.

    L is the spectral norm, Lmax/Lmin/Lavg the extreme and average
    diagonal entries (coordinate Lipschitz constants), mu the minimum
    nonzero eigenvalue.
    """

    L: float
    Lmax: float
    Lmin: float
    Lavg: float
    mu: float


@dataclass
class SolverState:
    """Mutable per-run state: the iterate plus a cached linear quantity.

    For the permutation-invariant model the cache is the coordinate sum
    s = ones'x (making every coordinate gradient O(1)); for dense models
    it is the residual Ax (making it O(n) to update).  Confined to a
    single run.
    """

    x: np.ndarray
    coord_sum: float | None = None
    residual: np.ndarray | None = None


def objective(model: QuadraticModel, x: np.ndarray) -> float | np.ndarray:
    """Evaluate f(x) = (1/2) x'Ax of each iterate along the last axis of x.

    x of shape (n,) gives a float; a stack (..., n) gives the array of its
    iterates' f, each the float that iterate gives alone.

    For the permutation-invariant model, in O(n),

        x'Ax = delta ||x - xbar||^2 + lam s^2/n,

    with s = ones'x, xbar = s/n and lam = n(1-delta)+delta the eigenvalue
    of the ones vector.  Both terms are nonnegative, so f keeps its
    relative accuracy as A nears singular (delta -> n/(n-1)), where the
    terms of (delta/2)||x||^2 + ((1-delta)/2) s^2 cancel.  Both sums are
    numpy's pairwise `np.add.reduce` for every shape, which no BLAS kernel
    changes.  Dense models take (1/2) x'Ax as it stands.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != model.n:
        raise ValueError(f"x has shape {x.shape}, expected (..., {model.n})")
    if isinstance(model, PermInvariantQuadratic):
        n, delta = model.n, model.delta
        lam = n * (1.0 - delta) + delta
        s = np.add.reduce(x, axis=-1)
        r = x - (s / n)[..., None]
        r *= r  # in place: a second temporary took a (20, 3000) stack from 130 to 400 us
        f = 0.5 * delta * np.add.reduce(r, axis=-1) + 0.5 * lam * s * s / n
    else:
        # one BLAS vector-matrix product per iterate, so a stack's rows are its iterates' floats
        f = 0.5 * np.einsum("...i,...i->...", (x[..., None, :] @ model.A)[..., 0, :], x)
    return float(f) if x.ndim == 1 else f


def init_state(model: QuadraticModel, x0: np.ndarray) -> SolverState:
    """Build a SolverState holding x0 and its cached linear quantity."""
    x = np.array(x0, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({model.n},)")
    if isinstance(model, PermInvariantQuadratic):
        return SolverState(x=x, coord_sum=float(x.sum()))
    return SolverState(x=x, residual=model.A @ x)


def coordinate_gradient(model: QuadraticModel, state: SolverState, i: int) -> float:
    """Return the i-th gradient component (Ax)_i at the state's iterate.

    O(1) for the permutation-invariant model, O(1) lookup for dense
    models thanks to the cached residual.
    """
    if not 0 <= i < model.n:
        raise IndexError(f"coordinate index {i} out of range for n={model.n}")
    if isinstance(model, PermInvariantQuadratic):
        return model.delta * float(state.x[i]) + (1.0 - model.delta) * state.coord_sum
    return float(state.residual[i])


def apply_coordinate_step(model: QuadraticModel, state: SolverState, i: int, g: float) -> None:
    """Apply the exact-line-search step x_i <- x_i - g and refresh the cache."""
    state.x[i] -= g
    if isinstance(model, PermInvariantQuadratic):
        state.coord_sum -= g
    else:
        state.residual -= g * model.A[:, i]


def quadratic_constants(model: QuadraticModel) -> QuadraticConstants:
    """Curvature constants of the model.

    For the permutation-invariant family these are available in closed
    form: the eigenvalues are delta (multiplicity n-1) and
    n(1-delta) + delta, and every diagonal entry is 1.  Dense models are
    handled spectrally.
    """
    if isinstance(model, PermInvariantQuadratic):
        d = model.delta
        dominant = model.n * (1.0 - d) + d
        return QuadraticConstants(
            L=max(dominant, d),
            Lmax=1.0,
            Lmin=1.0,
            Lavg=1.0,
            mu=min(dominant, d),
        )
    eigs = np.linalg.eigvalsh(model.A)
    L = float(eigs.max())
    nonzero = eigs[eigs > 1e-10 * max(L, 1.0)]
    mu = float(nonzero.min()) if nonzero.size else 0.0
    diag = np.diag(model.A)
    return QuadraticConstants(
        L=L,
        Lmax=float(diag.max()),
        Lmin=float(diag.min()),
        Lavg=float(diag.mean()),
        mu=mu,
    )


def build_log_uniform_spectrum(n: int, condition: float, seed) -> DenseQuadratic:
    """Random unit-diagonal SPD matrix with log-uniform eigenvalues.

    Eigenvalues span [1, condition]: the endpoints are pinned and the
    remaining n-2 are drawn log-uniformly in between, so the spectrum
    realizes the requested condition number before rescaling.
    Eigenvectors come from orthonormalizing a square standard-normal
    sample (sign-fixed QR).  The assembled matrix is rescaled
    symmetrically, D^{-1/2} A D^{-1/2}, to restore the unit diagonal.
    Deterministic for a fixed seed.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1.0 < condition < math.inf:
        raise ValueError(f"condition must be finite and > 1, got {condition}")
    rng = np.random.default_rng(seed)
    lam = np.empty(n)
    lam[0] = 1.0
    lam[-1] = condition
    lam[1:-1] = np.exp(rng.uniform(0.0, np.log(condition), size=n - 2))
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    A = (Q * lam) @ Q.T
    A = 0.5 * (A + A.T)
    d = np.sqrt(np.diag(A))
    A = A / np.outer(d, d)
    np.fill_diagonal(A, 1.0)
    return DenseQuadratic(A)
