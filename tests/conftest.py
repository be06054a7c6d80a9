"""Shared oracles: step-level simulation, batched Monte Carlo and eigenvalues."""

import os

import numpy as np
import pytest

from cdlab import (
    DenseQuadratic,
    PermInvariantQuadratic,
    apply_coordinate_step,
    closed_form_C,
    coordinate_gradient,
    init_state,
)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test after which this process has a child, running or unreaped."""
    yield
    if hasattr(os, "WNOHANG"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def simulate_epoch(model, x, order):
    """One epoch through the public step API; returns the new iterate.

    Independent of the run() hot loop, so the two paths cross-check
    each other.
    """
    state = init_state(model, x)
    for i in order:
        g = coordinate_gradient(model, state, i)
        apply_coordinate_step(model, state, i, g)
    return state.x


def relabel(model, order):
    """The model on which cyclic descent is descent on `model` in `order`.

    Coordinate j of it is coordinate order[j] of `model`: its matrix is
    A[order][:, order], and its iterate from x0[order] is x[order].  A
    permutation-invariant model is its own relabelling.
    """
    if isinstance(model, PermInvariantQuadratic):
        return model
    return DenseQuadratic(model.matrix()[np.ix_(order, order)])


def eig_radius(T):
    """Spectral radius max |eigvals(T)| by LAPACK, the oracle of every radius predictor."""
    return float(np.abs(np.linalg.eigvals(T)).max())


def permutation_matrices(n):
    """All n! permutation matrices."""
    import itertools

    mats = []
    for perm in itertools.permutations(range(n)):
        P = np.zeros((n, n))
        P[list(perm), range(n)] = 1.0
        mats.append(P)
    return mats


def batch_rpcd_objectives(n, delta, ell, n_samples, seed, x0=None):
    """Objectives after ell random-permutation epochs, vectorized.

    Each replicate draws its own permutation per epoch; x0 is either a
    fixed vector (replicated) or fresh standard normal per replicate.
    """
    rng = np.random.default_rng(seed)
    C = closed_form_C(n, delta)
    if x0 is None:
        X = rng.standard_normal((n_samples, n))
    else:
        X = np.tile(np.asarray(x0, dtype=float), (n_samples, 1))
    base = np.broadcast_to(np.arange(n), (n_samples, n))
    for _ in range(ell):
        perms = rng.permuted(base, axis=1)
        Y = np.take_along_axis(X, perms, axis=1)
        np.put_along_axis(X, perms, Y @ C.T, axis=1)
    s = X.sum(axis=1)
    return 0.5 * delta * np.einsum("ij,ij->i", X, X) + 0.5 * (1.0 - delta) * s * s
