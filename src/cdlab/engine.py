"""Coordinate descent with exact line search under different orderings.

One *epoch* is a block of n single-coordinate updates
x <- x - (Ax)_i e_i.  The orderings differ only in how the coordinate
sequence is produced per epoch: fixed 1..n (cyclic), i.i.d. uniform
draws (with replacement), or a fresh uniform permutation (without
replacement).  An epoch visited in order P is the linear map
x -> P C_P P' x with C_P = -(L_P+D_P)^{-1} L_P' for the splitting
P'AP = L_P + D_P + L_P' (`epoch_map`); the cyclic order gives
C = -(L+D)^{-1} L'.  For permutation-invariant models C_P is the same
closed-form C (`closed_form_C`) for every order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NumericalError
from .quadratic import PermInvariantQuadratic, QuadraticModel, objective

__all__ = [
    "OrderingPolicy",
    "Trajectory",
    "run",
    "epoch_map",
    "closed_form_C",
    "expected_over_x0",
    "derive_seed",
]

_KINDS = ("cyclic", "random_with_replacement", "random_permutation", "fixed_permutation")

# CLI-facing shorthand for the three named orderings.
VARIANT_ALIASES = {
    "ccd": "cyclic",
    "rcd": "random_with_replacement",
    "rpcd": "random_permutation",
}


@dataclass(frozen=True)
class OrderingPolicy:
    """How coordinate indices are chosen within each epoch."""

    kind: str
    perm: tuple[int, ...] | None = None

    def __post_init__(self):
        kind = VARIANT_ALIASES.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        if kind not in _KINDS:
            raise ValueError(f"unknown ordering kind {self.kind!r}")
        if kind == "fixed_permutation":
            if self.perm is None:
                raise ValueError("fixed_permutation requires a permutation")
            perm = tuple(int(i) for i in self.perm)
            if sorted(perm) != list(range(len(perm))):
                raise ValueError(f"{perm} is not a permutation of 0..{len(perm) - 1}")
            object.__setattr__(self, "perm", perm)
        elif self.perm is not None:
            raise ValueError(f"ordering kind {kind!r} takes no permutation")

    @classmethod
    def cyclic(cls) -> OrderingPolicy:
        return cls("cyclic")

    @classmethod
    def random_with_replacement(cls) -> OrderingPolicy:
        return cls("random_with_replacement")

    @classmethod
    def random_permutation(cls) -> OrderingPolicy:
        return cls("random_permutation")

    @classmethod
    def fixed_permutation(cls, perm) -> OrderingPolicy:
        return cls("fixed_permutation", perm=tuple(perm))


@dataclass
class Trajectory:
    """Per-epoch objective values of one run.

    f_per_epoch[l] = f(x^{l*n}); entry 0 is f(x^0).  Values are
    nonincreasing (exact line search never increases f) and nonnegative
    (the minimum value is 0 for these problems).  Full iterates are kept
    only when requested, to stay small at 1e5-epoch scale.
    """

    f_per_epoch: np.ndarray
    final_x: np.ndarray
    iterations: int
    iterates: list[np.ndarray] | None = None

    @property
    def epochs(self) -> int:
        return len(self.f_per_epoch) - 1


def derive_seed(base_seed, *indices) -> np.random.SeedSequence:
    """Mix a base seed with replicate/stream indices.

    Independent streams for parallel replicates come from seeding a
    SeedSequence with the entropy tuple (base_seed, *indices); the
    mixing is stable across platforms and runs.
    """
    return np.random.SeedSequence([int(base_seed), *[int(i) for i in indices]])


def _epoch_order(policy: OrderingPolicy, n: int, rng: np.random.Generator) -> list[int]:
    if policy.kind == "cyclic":
        return list(range(n))
    if policy.kind == "fixed_permutation":
        if len(policy.perm) != n:
            raise ValueError(f"fixed permutation has length {len(policy.perm)}, expected {n}")
        return list(policy.perm)
    if policy.kind == "random_permutation":
        return rng.permutation(n).tolist()
    return rng.integers(0, n, size=n).tolist()


def _epoch_perm_invariant(x: np.ndarray, delta: float, order: list[int]) -> None:
    # Hot loop: plain Python floats; the coordinate sum makes each update
    # O(1) and is recomputed from x every epoch to stop drift.
    xs = x.tolist()
    s = sum(xs)
    for i in order:
        xi = xs[i]
        g = delta * xi + (1.0 - delta) * s
        xs[i] = xi - g
        s -= g
    x[:] = xs


def _epoch_dense(x: np.ndarray, A: np.ndarray, order: list[int]) -> None:
    # The residual r = Ax is rebuilt per epoch and updated in O(n) per step.
    r = A @ x
    for i in order:
        g = r[i]
        if g != 0.0:
            x[i] -= g
            r -= g * A[:, i]


def run(
    model: QuadraticModel,
    policy: OrderingPolicy,
    x0: np.ndarray,
    max_epochs: int = 100_000,
    tol: float = 1e-8,
    seed=None,
    record_iterates: bool = False,
) -> Trajectory:
    """Run coordinate descent with exact line search.

    Records f after every epoch and stops as soon as f(x^{l*n}) <= tol or
    the epoch budget is exhausted.  Deterministic for a fixed seed: the
    only randomness is the per-epoch coordinate order drawn from the
    seeded generator.

    Raises
    ------
    ValueError
        On dimension mismatch or negative tol.
    NumericalError
        If a nonfinite objective value is encountered.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({model.n},)")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    rng = np.random.default_rng(seed)
    n = model.n
    x = x0.copy()
    perm_invariant = isinstance(model, PermInvariantQuadratic)
    A = None if perm_invariant else model.A

    f = objective(model, x)
    if not np.isfinite(f):
        raise NumericalError(f"nonfinite objective at start: {f}")
    fs = [f]
    iterates = [x.copy()] if record_iterates else None
    iterations = 0
    if f > tol:
        for _ in range(max_epochs):
            order = _epoch_order(policy, n, rng)
            if perm_invariant:
                _epoch_perm_invariant(x, model.delta, order)
            else:
                _epoch_dense(x, A, order)
            iterations += n
            f = objective(model, x)
            if not np.isfinite(f):
                raise NumericalError(f"nonfinite objective after {iterations} iterations", fs[-1])
            fs.append(f)
            if record_iterates:
                iterates.append(x.copy())
            if f <= tol:
                break
    return Trajectory(
        f_per_epoch=np.asarray(fs),
        final_x=x,
        iterations=iterations,
        iterates=iterates,
    )


def epoch_map(model: QuadraticModel, order=None) -> np.ndarray:
    """Epoch map P C_P P' for one epoch visiting coordinates in `order`.

    P is the permutation matrix with P[order[j], j] = 1.  The symmetrically
    permuted matrix P'AP = L_P + D_P + L_P' is split, its cyclic map
    C_P = -(L_P+D_P)^{-1} L_P' is solved by forward substitution (no
    explicit inverse), and the result is scattered back to the original
    coordinates.  `order=None` visits 0..n-1 and gives the cyclic map C.
    One epoch from any x in that order equals epoch_map(model, order) @ x.
    For permutation-invariant models C_P is the closed_form_C matrix for
    every order.
    """
    n = model.n
    if order is None:
        order = np.arange(n)
    else:
        order = np.asarray(order)
        if sorted(order.tolist()) != list(range(n)):
            raise ValueError(f"{order.tolist()} is not a permutation of 0..{n - 1}")
    idx = np.ix_(order, order)
    Ap = model.matrix()[idx]
    Lp = np.tril(Ap, -1)
    Cp = solve_triangular(Lp + np.diag(np.diag(Ap)), -Lp.T, lower=True)
    out = np.empty_like(Cp)
    out[idx] = Cp
    return out


def closed_form_C(n: int, delta: float) -> np.ndarray:
    """Closed-form epoch matrix for the permutation-invariant model.

    With rows/columns indexed from 1,

        C_ij = -(1-delta) * delta^(i-1)                    for i < j,
        C_ij =  (1-delta) * (delta^(i-j) - delta^(i-1))    for i >= j.

    The first column is identically zero.
    """
    PermInvariantQuadratic(n, delta)  # validate the (n, delta) window
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    pow_i = delta ** i.astype(float)
    pow_diff = delta ** np.maximum(i - j, 0).astype(float)
    return np.where(i < j, -(1.0 - delta) * pow_i, (1.0 - delta) * (pow_diff - pow_i))


def expected_over_x0(model: QuadraticModel, epoch_maps) -> float:
    """Expected objective over standard-normal x^0 after given epochs.

    For epoch maps M_1, ..., M_l applied in that order, the iterate is
    G x^0 with G = M_l ... M_1, and E[f] over x^0 ~ N(0, I) is
    (1/2) trace(G' A G).  An empty sequence gives (1/2) trace(A), which
    is n/2 for unit-diagonal A.
    """
    A = model.matrix()
    n = A.shape[0]
    G = np.eye(n)
    for M in epoch_maps:
        M = np.asarray(M, dtype=float)
        if M.shape != (n, n):
            raise ValueError(f"epoch map has shape {M.shape}, expected ({n}, {n})")
        G = M @ G
    return 0.5 * float(np.sum(G * (A @ G)))
