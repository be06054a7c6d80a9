"""Coordinate descent with exact line search under different orderings.

One *epoch* is a block of n single-coordinate updates
x <- x - (Ax)_i e_i.  The orderings (`ORDERINGS`) differ only in how the
coordinate sequence is produced per epoch: fixed 1..n (`ccd`, cyclic),
i.i.d. uniform draws (`rcd`, with replacement), or a fresh uniform
permutation (`rpcd`, without replacement).  An epoch visited in order P
is the linear map x -> P C_P P' x with C_P = -(L_P+D_P)^{-1} L_P' for
the splitting P'AP = L_P + D_P + L_P' (`epoch_map`); the cyclic order
gives C = -(L+D)^{-1} L'.  For permutation-invariant models C_P is the
same closed-form C (`closed_form_C`) for every order.

`epoch_map` solves with `np.linalg.solve`, whose LU factorization does
no row exchanges here: a PSD matrix with unit diagonal has
|A_ij| <= 1 = A_ii, so in each column of the lower-triangular L+D the
diagonal is a largest entry (ties keep the first), and eliminating
against a row that is zero right of its diagonal leaves the rest of the
matrix untouched.  LU is then L+D itself and the solve is the forward
substitution.

`run` is `_runs` with one start.  `_runs` steps a stack of seeded
replicates one epoch at a time; its one rule `steps_on` decides at the
start and after every epoch the stop at f <= tol or the budget and the
nonfinite-f failure, and its input checks are `_cyclic_tail`'s too.
Its docstring lists the kernel each input takes.  For the dense model
the one epoch kernel, `_epoch_dense`, advances a stack of matrices, each
slice in its own order, a block of `_ROW_BLOCK` visited rows per pair of
batched products, with the blocks' triangular inverses by squaring, not
LAPACK.  It returns each slice's decrease of f, by which `figure lu`
carries E f of all its epoch products, cyclic and permutation-ordered,
between exact evaluations.  The cyclic order makes every epoch the same
map M, so when a block of at least two n x n maps fits in about 1 MB
(n <= 256) `_blocks` builds M, M^2, ..., M^K once and advances K epochs
with one matrix-vector product; `_runs` cuts a block at its first epoch
`steps_on` stops.

A rate over the last epochs of a cyclic run needs only its stop epoch
and those epochs, which `_cyclic_tail` returns.  For the
permutation-invariant model at delta < 1 `_spectral_tail` finds both
without stepping the run: it evaluates f at any epoch in O(n^2) from C's
eigen-expansion (`spectrum._cyclic_iterates`), at any n and with no
epoch map, and does no arithmetic on C's eigenvalues.  Every cell that
route does not take (its guard, the dense model, delta >= 1, a start
`run` stops or fails at, or a window that misses tol) steps the run with
`run`, by the block path at n <= 256.  Table 1's cyclic column uses it,
and its random columns one `_runs` call per ordering.

Every f recorded here (row loop, rpcd scan, dense kernel, block path,
`_cyclic_tail`) is `quadratic.objective`: for the permutation-invariant
model numpy's pairwise sums, which no BLAS kernel changes.  The bounds on
the block path's drift and the spectral tail hold under five OpenBLAS kernels.
"""

from __future__ import annotations

import itertools
import math
import numbers
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .quadratic import (
    PermInvariantQuadratic,
    QuadraticModel,
    objective,
)
from .spectrum import _cyclic_iterates

__all__ = [
    "ORDERINGS",
    "OrderingPolicy",
    "Trajectory",
    "run",
    "epoch_map",
    "closed_form_C",
    "expected_over_x0",
    "derive_seed",
]

# The three named orderings.  Their positions are the variant codes the
# CLI mixes into every seed, so this order fixes every seeded output.
ORDERINGS = ("ccd", "rcd", "rpcd")

# Memory for one block of stacked epoch-map powers, and the most powers
# per block.  The block path runs only when at least two maps fit.
_BLOCK_BYTES = 1 << 20
_BLOCK_EPOCHS = 16

# Epochs a rate is read over: the default window of `rates.empirical_rate`
# and the epochs whose f `_cyclic_tail` returns for it.
_RATE_WINDOW = 10

# Most f after epoch 1 of `_spectral_tail` may differ, relative, from one row-loop
# epoch's.  Against a 60-digit loop (n = 3-64, up to 60 epochs) it read under
# 4e-14 for 1e-10 <= delta <= 1 - 1e-4, where f over the window was within
# 7e-14, and 8e-12 to 5 at delta = 1e-20 and 1e-30, where the window was as far off.
_SPECTRAL_RTOL = 1e-13

# Powers of delta below this are 0 in the rpcd scan of `_runs`: they scale a
# term by under 1e-289, so dropping them moves f only where coordinates
# differ by some 280 orders of magnitude.  Kept, subnormal products slow the
# scan: an epoch of 20 replicates took 2.16 ms against 1.56 ms at (n, delta) =
# (2500, 2e-7) and 8.2 against 7.0 ms at (1e4, 5e-4) (one BLAS thread, min of
# 3); f was the same, and at n <= 1000 and delta >= 0.03 so was the time.
_POWER_FLOOR = 2.0**-960

# Visits per row block of the dense epoch kernel `_epoch_dense`.  With the
# inverses by squaring, one epoch of a (10, 100, 100) stack on a 2-core host
# took 1.31-1.37 ms at 8, the fastest in both of two sweeps, against
# 1.35-1.65 ms at 4, 6, 10, 12 and 16; at n = 300 blocks of 24-32 took
# 21-23 ms, 16 took 26 ms and 8 took 33 ms.  A row-by-row loop took 4.2 ms
# and 63 ms.  At n = 300 OpenBLAS splits the products over both cores and
# waits on a descheduled thread when the other core is busy.  One iterate
# (`run`'s dense model, a stack of one column) gains nothing: an epoch took
# 1.0-1.3 times the loop's time at n = 100 and 1.1-1.3 times at n = 1000,
# where gathering the rows A[R] costs as much as the product.
_ROW_BLOCK = 8

# Most entries in one replicate's chunk of drawn orders (`_orders`): a
# chunk holds max(1, 2048 // n) epochs, 20 at n = 100 and one from n = 1025
# on.  A run that stops inside a chunk leaves its generator at the chunk's
# end, past the orders it used; one that takes no epoch draws nothing.  On
# a 2-core host at n = 100 an epoch's order cost 10.3 us (rcd) and 7.2 us
# (rpcd) drawn one epoch per call, 1.6 and 2.5 us at 1024 entries,
# 1.2 and 2.3 at 2048 and 0.9-1.1 and 2.0-2.4 at 4096-8192.  Table 1
# holds 20 chunks at a time.  Ten default table1 passes in one process
# peaked at 38.63 MB drawing one epoch per call and at 38.74-38.77 MB with
# 1024-2048 entries (medians of 5 processes); in the benchmark 4096 and
# 8192 entries read 0.25 and 0.4 MB above 2048.
_ORDER_CHUNK = 2048


@dataclass(frozen=True)
class OrderingPolicy:
    """How coordinate indices are chosen within each epoch: `kind` is one of `ORDERINGS`."""

    kind: str

    def __post_init__(self):
        if self.kind not in ORDERINGS:
            raise ValueError(f"unknown ordering kind {self.kind!r}")


@dataclass
class Trajectory:
    """Per-epoch objective values of one run.

    f_per_epoch[l] = f(x^{l*n}); entry 0 is f(x^0), each value from
    `quadratic.objective`.  For the permutation-invariant model that is a
    centred form that keeps its relative accuracy up to both edges of the
    delta window.  Exact line search never increases f
    in exact arithmetic, but the iterates and f are floats, so an epoch
    can raise f by rounding, about 2n*eps*||x||_1^2.  That happens on the
    block path and the per-coordinate loop alike, once f nears its
    rounding floor or A is nearly singular.  Values are nonnegative (the
    minimum value is 0 for these problems).  Only the last iterate is
    kept, to stay small at 1e5-epoch scale; the run made epochs * n
    coordinate updates.
    """

    f_per_epoch: np.ndarray
    final_x: np.ndarray

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


def _orders(policy: OrderingPolicy, n: int, rng: np.random.Generator):
    """One replicate's coordinate orders: an iterator of one array of n indices per epoch.

    The cyclic order repeats arange(n) and draws nothing.  rcd draws
    rng.integers(0, n, size=(k, n)) and rpcd rng.permuted over k rows of
    arange(n), k = max(1, `_ORDER_CHUNK` // n) epochs per call, each
    chunk when its first epoch is needed; numpy gives the same rows as k
    single-epoch calls.  The generator is left at the end of the last
    chunk drawn.
    """
    if policy.kind == "ccd":
        return itertools.repeat(np.arange(n))
    k = max(1, _ORDER_CHUNK // n)

    def drawn():
        while True:
            if policy.kind == "rcd":
                yield from rng.integers(0, n, size=(k, n))
            else:
                rows = np.tile(np.arange(n), (k, 1))
                yield from rng.permuted(rows, axis=1, out=rows)

    return drawn()


def _epoch_perm_invariant(xs: list[float], delta: float, order: list[int]) -> None:
    # Hot loop on plain Python floats, in place on the iterate's list xs;
    # s, the coordinate sum, is recomputed from xs every epoch.  A step on i
    # sets d = s - x_i, x_i <- (delta-1)d, s <- delta d.  Below delta = 1/2,
    # delta-1 rounds (a model off by 2^-54 drifted f ~1e-18 per epoch), so
    # x_i = delta*d - d; from 1/2 on it is exact and does not cancel near 1.
    s = sum(xs)
    if delta >= 0.5:
        c = delta - 1.0
        for i in order:
            d = s - xs[i]
            xs[i] = c * d
            s = delta * d
    else:
        for i in order:
            d = s - xs[i]
            s = delta * d
            xs[i] = s - d


def _unit_lower_inverse(N: np.ndarray) -> np.ndarray:
    """(I + N)^{-1} = (I - N)(I + N^2)(I + N^4)... for a stack of strictly lower N (..., b, b).

    N^b = 0 ends the product: at b = 8, two squarings and two products.
    """
    W, P, k = np.eye(N.shape[-1]) - N, N, 2
    while k < N.shape[-1]:
        P = P @ P
        W = W + W @ P
        k *= 2
    return W


def _epoch_dense(G: np.ndarray, A: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """One epoch in place on every slice of a stack G (S, n, m), slice s in order orders[s].

    With unit diagonal the exact step on coordinate i is G[s, i] -= A[i] @ G[s],
    and it lowers f of each column by half its squared step: returns each
    slice's decrease (1/2) sum_t ||r_t||^2 over its steps and columns, a
    dot product per slice, so that it does not depend on the stack.  The
    visits are taken `_ROW_BLOCK` at a time.  For the rows R of one block
    the steps r_t = A[R_t] @ (G - sum_{k<t} e_{R_k} r_k) solve
    (I + L_R) r = A[R] @ G, with L_R the strictly lower part of A[R][:, R],
    so a block is one product with A[R] in the original coordinates, one
    with (I + L_R)^{-1} and a scatter of its b rows.  The inverses depend
    on the orders only: those of every slice and block come from one
    `_unit_lower_inverse` of the stack, with no LAPACK call.  A block
    scatters with np.subtract.at, so a row visited more than once in a
    block takes every step on it; where every order is a permutation it
    uses one buffered fancy-index update instead: on a (10, 100, 100)
    stack an epoch's scatters took 0.24 ms against 1.3 ms
    (2-core host), and a benchmark pass 0.35 s against 0.52 s.  A short last block
    is padded with negative indices: a lower-triangular inverse keeps them
    out of the real rows' block.
    """
    S, n, _ = G.shape
    b = min(_ROW_BLOCK, n)
    blocks = -(-n // b)
    R = np.full((S, blocks * b), -1, dtype=np.intp)
    R[:, :n] = orders
    R = R.reshape(S, blocks, b)
    W = _unit_lower_inverse(np.tril(A[R[..., :, None], R[..., None, :]], -1))
    slices = np.arange(S)[:, None]
    permutations = (np.sort(orders, axis=1) == np.arange(n)).all()
    steps = np.empty_like(G)
    for j in range(blocks):
        c = min(b, n - j * b)
        Rj = R[:, j, :c]
        r = steps[:, j * b: j * b + c] = W[:, j, :c, :c] @ (A[Rj] @ G)
        if permutations:
            G[slices, Rj] -= r
        else:
            np.subtract.at(G, (slices, Rj), r)
    return 0.5 * (steps.reshape(S, 1, -1) @ steps.reshape(S, -1, 1))[:, 0, 0]


def _lower_toeplitz(v: np.ndarray, k: int) -> np.ndarray:
    """The square matrix T[i, j] = v[i - j - k] where i - j >= k, and 0 elsewhere."""
    t = np.arange(len(v))
    return np.where(t[:, None] - t >= k, v[t[:, None] - t - k], 0.0)


def _block_epochs(n: int) -> int:
    """Epoch-map powers per block at dimension n; below 2 the block path is off."""
    return min(_BLOCK_EPOCHS, _BLOCK_BYTES // (8 * n * n))


def _blocks(model, x, max_epochs):
    """Yield the iterates of epochs 1..max_epochs of the cyclic order from x, K per product.

    The stack [M; M^2; ...; M^K] of M = epoch_map(model) is built once, in
    place.  Each block is the next k <= K iterates, the rows of (stack @ x),
    and their f as one list.
    """
    n = model.n
    K = min(_block_epochs(n), max_epochs)
    stack = np.empty((K, n, n))
    stack[0] = M = epoch_map(model)
    for k in range(1, K):
        np.matmul(M, stack[k - 1], out=stack[k])
    stack = stack.reshape(K * n, n)
    for epochs in range(0, max_epochs, K):
        Y = (stack[: min(K, max_epochs - epochs) * n] @ x).reshape(-1, n)
        yield Y, objective(model, Y).tolist()
        x = Y[-1]


def _checked_starts(n, starts, max_epochs, tol) -> np.ndarray:
    """`starts` as one float array (len(starts), n); `run`'s ValueError for inputs it rejects."""
    X = np.empty((len(starts), n))
    for r, x0 in enumerate(starts):
        x = np.asarray(x0, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
        X[r] = x
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if not (isinstance(max_epochs, numbers.Integral) and max_epochs >= 0):
        raise ValueError(f"max_epochs must be an integer >= 0, got {max_epochs}")
    return X


def _runs(model, policy, starts, rngs, max_epochs, tol) -> list[Trajectory | NumericalError]:
    """`run` from each of `starts`, replicate r drawing its orders from rngs[r].

    Entry r is the Trajectory of run(model, policy, starts[r], max_epochs,
    tol, seed=rngs[r]), or the NumericalError that run would raise (same
    message and last_estimate); `_checked_starts` raises run's ValueError
    first, whatever the kernel.  Each epoch advances every active
    replicate once; a replicate leaves at its stop epoch, its first
    nonfinite f or the budget.  One rule, `steps_on`, judges f at the
    start and every f a kernel returns, each of a block's included: it
    records f or builds the NumericalError.  Replicate r's orders come
    from `_orders`, a chunk of epochs per call of rngs[r]; when it leaves,
    rngs[r] is at the end of the last chunk drawn, so one that takes no
    epoch draws nothing.  The kernel follows from the input:

    - ccd where `_block_epochs(n) >= 2` (n <= 256): `_blocks` per
      replicate, K epochs per product with one epoch map;
    - rpcd on the permutation-invariant model with more than one start: a
      blocked scan.  With each iterate in visit order, y_t = x[order[t]],
      zero-padded into m = ceil(n/b) blocks of b = ceil(sqrt(n)), a block
      entered with coordinate sum c steps d = c p - Y_b U' (p_t = delta^t,
      U[t, k] = delta^(t-k) for k <= t); with s the iterate's sum, the c
      are s q - L (Y_b v) (q_J = delta^(bJ), v_k = delta^(b-k),
      L[J, I] = delta^(b(J-1-I)) for I < J); then y <- (delta-1) d by the
      row loop's rule.  Powers below `_POWER_FLOOR` are 0; no exponent < 0.
      One start keeps the row loop: it is faster at n <= 150 or so, and
      above that a faster single start reads as a peak-RSS regression in
      the benchmark, whose worker keeps every pass's output;
    - any other order on that model: the plain-float row loop
      `_epoch_perm_invariant`;
    - a dense model: `_epoch_dense` on an (S, n, 1) stack.

    Every f is `objective`, numpy's sums for a row as for an iterate, once
    per epoch of the starts and then of every kernel's stepped rows; the
    row loop passes one active row as an iterate only as a view, not a copy.
    """
    n = model.n
    perm_invariant = isinstance(model, PermInvariantQuadratic)
    X = _checked_starts(n, starts, max_epochs, tol)
    rows = list(X)  # views; indexing a list is cheaper than X[r] in the row loop
    orders = [_orders(policy, n, rng) for rng in rngs]
    # f as C doubles: lists of float objects, live for a whole stack of
    # runs, raised the peak RSS of a 40-pass table1 process by 0.9 MB
    fs = [array("d") for _ in rows]
    out = [None] * len(rows)

    def steps_on(r, epoch, f) -> bool:
        if not math.isfinite(f):
            out[r] = (NumericalError(f"nonfinite objective after {epoch * n} iterations", fs[r][-1])
                      if epoch else NumericalError(f"nonfinite objective at start: {f}"))
            return False
        fs[r].append(f)
        return f > tol and epoch < max_epochs

    active = [r for r, f in enumerate(objective(model, X).tolist()) if steps_on(r, 0, f)]
    if policy.kind == "ccd" and _block_epochs(n) >= 2:
        for r in active:
            epoch = 0
            for Y, fk in _blocks(model, rows[r], max_epochs):
                j = next((j for j, f in enumerate(fk) if not steps_on(r, epoch + j + 1, f)), None)
                epoch += len(fk)
                if j is not None:  # the last block always stops, at the budget if not before
                    rows[r][:] = Y[j]
                    break
        active = []
    elif perm_invariant and policy.kind == "rpcd" and len(X) > 1:
        delta, b = model.delta, math.isqrt(n - 1) + 1  # b = ceil(sqrt(n))
        m = -(-n // b)
        powers = delta ** np.concatenate([np.arange(b), np.arange(b, 0, -1), b * np.arange(m)])
        powers[powers < _POWER_FLOOR] = 0.0
        p, v, q = np.split(powers, [b, 2 * b])
        sums = np.column_stack([v, np.ones(b)])  # each block's Y_b v and sum, weighted by K
        K = np.stack([-_lower_toeplitz(q, 1).T, np.broadcast_to(q, (m, m))], 1).reshape(2 * m, m)
        PU = np.vstack([p, -_lower_toeplitz(p, 0).T])  # [c, Y_b] PU = c p - Y_b U'
        flat, Y, E = X.reshape(-1), np.zeros((len(X), m * b)), np.empty((len(X), m, b + 1))

        def step(active):
            R = len(active)
            idx = np.array([next(orders[r]) for r in active])
            idx += n * np.array(active)[:, None]
            Y[:R, :n] = flat[idx]
            E[:R, :, 0] = (Y[:R].reshape(-1, b) @ sums).reshape(R, 2 * m) @ K  # s q - L Y_b v
            E[:R, :, 1:] = Y[:R].reshape(R, m, b)
            d = (E[:R].reshape(-1, b + 1) @ PU).reshape(R, -1)[:, :n]
            y = flat[idx] = delta * d - d if delta < 0.5 else (delta - 1.0) * d
            return objective(model, y).tolist()
    elif perm_invariant:
        delta = model.delta
        lists = [x.tolist() for x in rows]  # each iterate as floats between epochs

        def step(active):
            for r in active:
                _epoch_perm_invariant(lists[r], delta, next(orders[r]).tolist())
                rows[r][:] = lists[r]
            if len(active) == 1:
                return [objective(model, rows[active[0]])]
            return objective(model, X[active]).tolist()
    else:
        def step(active):
            G = X[active, :, None]
            _epoch_dense(G, model.A, np.array([next(orders[r]) for r in active]))
            X[active] = G[..., 0]
            return objective(model, G[..., 0]).tolist()

    epoch = 0
    while active:
        epoch += 1
        active = [r for r, f in zip(active, step(active)) if steps_on(r, epoch, f)]
    return [err or Trajectory(f_per_epoch=np.array(f), final_x=x)
            for err, f, x in zip(out, fs, rows)]


def run(
    model: QuadraticModel,
    policy: OrderingPolicy,
    x0: np.ndarray,
    max_epochs: int = 100_000,
    tol: float = 1e-8,
    seed=None,
) -> Trajectory:
    """Run coordinate descent with exact line search.

    Records f after every epoch (`quadratic.objective`, which gives an
    iterate the float it has in any stack) and stops as soon as
    f(x^{l*n}) <= tol or the epoch budget is exhausted, x^0 included;
    one rule of `_runs` decides that at the start and after every epoch,
    on every kernel.  Deterministic
    for a fixed seed: the only randomness is the per-epoch coordinate
    order drawn from the seeded generator.  Orders are drawn a chunk of
    epochs per generator call (`_orders`), and each epoch's order is that
    of one rng.integers(0, n, size=n) (rcd) or rng.permutation(n) (rpcd)
    call per epoch.  A run that stops inside a chunk leaves the generator
    at the chunk's end, past the orders it used.  The iterate after
    k epochs is run(..., max_epochs=k, tol=0.0).final_x.  This is `_runs`
    with one start, so a seeded replicate of a stacked run is this run.

    The cyclic order (`ccd`) at n <= 256 runs as blocks of stacked powers
    of its epoch map (see the module docstring).  It draws nothing from
    the generator.  Its iterates agree with the per-coordinate loop to
    rounding, but reusing one rounded map lets f drift from the loop's by
    2e-17 to 1.3e-16 relative per epoch, with the BLAS kernel (1e-12 to
    8e-12 after 60k epochs at n=100).  Random orders, and larger n, step one
    epoch at a time.  Another fixed visit order p is `ccd` on the
    relabelled model A[p][:, p] from x0[p].

    Raises
    ------
    ValueError
        If x0 is not of shape (n,), tol is not >= 0 (nan included) or
        max_epochs is not an integer >= 0, on every path and whether or
        not an epoch runs.
    NumericalError
        If f is nonfinite at the start or after an epoch, on every path.
    """
    (result,) = _runs(model, policy, [x0], [np.random.default_rng(seed)], max_epochs, tol)
    if isinstance(result, NumericalError):
        raise result
    return result


def _spectral_tail(model, x0, max_epochs, tol):
    """`_cyclic_tail` from the spectrum of C, or None outside its reach.

    For the permutation-invariant model at delta < 1 the iterate after
    any epoch e >= 1 comes from C's eigen-expansion
    (`spectrum._cyclic_iterates`), and its f costs O(n^2).
    f is nonincreasing: two Newton steps on log f at the slowest rate,
    then steps of 1, 2, 4, ... epochs and bisection find L.  For inputs
    `_checked_starts` passed.  None, and `run` steps the cell, for any other
    model or delta >= 1, max_epochs = 0, f(x0) nonfinite or <= tol, f after
    epoch 1 over `_SPECTRAL_RTOL` off one row-loop epoch's, or f at L - 1
    and L that does not bracket tol, which only rounding can cause.
    """
    if not (isinstance(model, PermInvariantQuadratic) and model.delta < 1.0 and max_epochs >= 1):
        return None
    f0 = objective(model, x0)
    if not (math.isfinite(f0) and f0 > tol):
        return None
    n, delta = model.n, model.delta
    if (expansion := _cyclic_iterates(n, delta, x0)) is None:
        return None
    iterates, rate = expansion

    def f(epochs):
        return objective(model, iterates(epochs))

    xs = x0.tolist()
    _epoch_perm_invariant(xs, delta, range(n))
    f1, fe = objective(model, np.array(xs)), f([1])[0]
    if not abs(fe - f1) <= _SPECTRAL_RTOL * f1:
        return None
    lo, hi, e, step = 0, max_epochs, 1, 1  # f(lo) > tol; the stop epoch is in (lo, hi]
    for probe in itertools.count():
        lo, hi = (e, hi) if fe > tol else (lo, e)
        if hi - lo <= 1:
            break
        if probe < 2 and tol > 0.0 < fe and rate < 0.0:
            target = min(max(e + math.log(tol / fe) / rate, lo + 1), hi - 1)
            e = math.ceil(target) if fe > tol else math.floor(target)
        else:
            e, step = e + step if fe > tol else e - step, 2 * step
            e = e if lo < e < hi else (lo + hi) // 2
        fe = f([e])[0]
    start = hi - min(_RATE_WINDOW, hi)
    fs = f(np.arange(max(start, 1), hi + 1))
    fs = np.concatenate([[f0], fs]) if start == 0 else fs
    if fs[-2] > tol and (fs[-1] <= tol or hi == max_epochs):
        return hi, fs


def _cyclic_tail(model, x0, max_epochs, tol) -> tuple[int, np.ndarray]:
    """Stop epoch L of the cyclic `run` from x0, and f at epochs max(0, L-10)..L.

    These are all a rate over the last `_RATE_WINDOW` = 10 epochs needs.
    For the permutation-invariant model below delta = 1 they come from the
    spectrum of C (`_spectral_tail`) at any n, without stepping the L
    epochs.  Every cell it does not take runs `run` itself, with its block
    path at n <= 256, and returns that run's last `_RATE_WINDOW` + 1 f.

    f is `run`'s (`quadratic.objective`).  L equals `run`'s (the first
    epoch with f <= tol, or max_epochs).  The returned f is `run`'s f
    exactly where `run` itself ran, and up to rounding on the spectral
    route.  It first makes `run`'s input checks (`_checked_starts`), and a
    nonfinite f(x0) reaches `run`, so this raises exactly what `run` raises.
    """
    (x0,) = _checked_starts(model.n, [x0], max_epochs, tol)
    tail = _spectral_tail(model, x0, max_epochs, tol)
    if tail is not None:
        return tail
    traj = run(model, OrderingPolicy("ccd"), x0, max_epochs, tol)
    return traj.epochs, traj.f_per_epoch[-(_RATE_WINDOW + 1):]


def epoch_map(model: QuadraticModel, order=None) -> np.ndarray:
    """Epoch map P C_P P' for one epoch visiting coordinates in `order`.

    P is the permutation matrix with P[order[j], j] = 1.  The symmetrically
    permuted matrix P'AP = L_P + D_P + L_P' is split, its cyclic map
    C_P = -(L_P+D_P)^{-1} L_P' is solved by forward substitution (no
    explicit inverse), and the result is scattered back to the original
    coordinates.  The solve is `np.linalg.solve`: with unit diagonal and
    |A_ij| <= 1, partial pivoting keeps every diagonal pivot, so its LU
    factorization is L_P+D_P itself and no row is exchanged (see the
    module docstring).  `order=None` visits 0..n-1 and gives the cyclic
    map C.  One epoch from any x in that order equals
    epoch_map(model, order) @ x.  For permutation-invariant models C_P is
    the closed_form_C matrix for every order.
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
    Cp = np.linalg.solve(Lp + np.diag(np.diag(Ap)), -Lp.T)
    out = np.empty_like(Cp)
    out[idx] = Cp
    return out


def closed_form_C(n: int, delta: float) -> np.ndarray:
    """Closed-form epoch matrix for the permutation-invariant model.

    With rows/columns indexed from 1,

        C_ij = -(1-delta) * delta^(i-1)                    for i < j,
        C_ij =  (1-delta) * (delta^(i-j) - delta^(i-1))    for i >= j.

    The first column is identically zero.  The predictors never build it:
    `rates.rho_C` and `recurrence_coeffs` work from (n, delta) directly,
    and this dense form is their test oracle.
    """
    PermInvariantQuadratic(n, delta)  # validate the (n, delta) window
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    pow_i = delta ** i.astype(float)
    pow_diff = delta ** np.maximum(i - j, 0).astype(float)
    return np.where(i < j, -(1.0 - delta) * pow_i, (1.0 - delta) * (pow_diff - pow_i))


def expected_over_x0(model: QuadraticModel, G):
    """Expected objective over standard-normal x^0 of the iterate G x^0.

    G is the accumulated epoch product M_l ... M_1 of the epoch maps
    applied so far, and E[f] over x^0 ~ N(0, I) is (1/2) trace(G' A G).
    G = I (no epochs) gives (1/2) trace(A), which is n/2 for
    unit-diagonal A.  A stack G (..., n, n) of products gives an array of
    one value per product, by the same formula; an (n, n) G gives a float.
    """
    A = model.matrix()
    n = A.shape[0]
    G = np.asarray(G, dtype=float)
    if G.ndim < 2 or G.shape[-2:] != (n, n):
        raise ValueError(f"epoch product has shape {G.shape}, expected (..., {n}, {n})")
    AG = A @ G
    AG *= G
    value = 0.5 * np.sum(AG, axis=(-2, -1))
    return float(value) if G.ndim == 2 else value
